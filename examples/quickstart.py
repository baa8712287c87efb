"""Quickstart: run an ERNet with the block-based flow and inspect the hardware cost.

This example walks the whole public API in one page:

1. open a ``repro.api.Session`` and look at its denoising ERNet (the UHD30
   model of the paper),
2. serve a synthetic noisy image through the session, which runs the
   block-based truncated-pyramid flow on the plan's 8-bit fixed-point
   program, and check it matches frame-based execution bit for bit,
3. compile it to a six-line FBISA program,
4. ask the session for throughput, power, DRAM and silicon cost (computed
   once, answered from the content-addressed cache after), then compare the
   same workload across every registered accelerator backend.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.workloads import add_gaussian_noise, synthetic_image
from repro.api import Session, available_backends
from repro.core import frame_based_inference, overhead_report
from repro.fbisa import compile_network
from repro.hw import select_dram
from repro.quant import psnr
from repro.runtime import ResultCache
from repro.specs import SPECIFICATIONS


def main() -> None:
    # 1. The paper's UHD30 denoising model, as the session's "denoise"
    #    workload; its plan serves the model's fixed-point program.
    session = Session(backend="ecnn", cache=ResultCache())
    network = session.workload("denoise").shared_network()
    plan = session.compile("denoise")
    print(network.describe())

    # 2. Block-based inference on a noisy synthetic image.
    clean = synthetic_image(192, 192, seed=7)
    noisy = add_gaussian_noise(clean, sigma=0.05, seed=8)
    result = session.execute("denoise", noisy)
    reference = frame_based_inference(plan.network, noisy)
    exact = np.array_equal(result.output.data, reference.data)
    print(f"block-based output == frame-based output: {exact}")
    overheads = overhead_report(network, plan.input_block)
    print(f"blocks: {result.num_blocks}, measured NBR: {result.grids[0].measured_nbr():.2f}")
    print(f"analytic NCR: {overheads.ncr:.2f}  "
          f"(effective {overheads.effective_kop_per_pixel:.0f} KOP/pixel)")
    print(f"output PSNR vs clean reference: "
          f"{psnr(clean.data, result.output.data):.2f} dB "
          "(untrained weights — quality numbers come from the calibrated model)")

    # 3. Compile to FBISA: the six-line program of Fig. 18.
    compiled = compile_network(network, input_block=128)
    print("\nFBISA program:")
    print(compiled.program.listing())

    # 4. Hardware cost at 4K UHD 30 fps, through the repro.api session layer:
    #    the session compiles + characterizes the workload once and answers
    #    every later query (here, the second profile call) from its
    #    content-addressed cache.
    spec = SPECIFICATIONS["UHD30"]
    profile = session.profile("denoise")
    session.profile("denoise")  # repeated analytic query: a cache hit
    cost = session.cost()
    print(f"\n{spec.name}: {profile.fps:.1f} fps "
          f"({profile.frame_latency_s * 1e3:.1f} ms/frame, budget {1000 / spec.fps:.1f} ms)")
    print(f"processor power: {profile.power_w:.2f} W, "
          f"silicon: {cost.area_mm2:.1f} mm^2 at {cost.technology_nm} nm")
    print(f"DRAM: {profile.dram_gb_s:.2f} GB/s -> "
          f"{select_dram(profile.dram_gb_s).name} is enough")
    print(f"analytic cache: {session.cache.stats.describe()}")

    # 5. The same workload on every registered accelerator backend — the
    #    pluggable-backend API serves each one through the same session
    #    machinery, no per-accelerator code.
    print(f"\ndenoise at {spec.name} across {len(available_backends())} backends:")
    for other in session.compare("denoise"):
        realtime = "real-time" if other.supports(spec.fps) else "too slow"
        print(f"  {other.backend:12s} {other.frame_latency_s * 1e3:10.2f} ms/frame  "
              f"{other.power_w:6.2f} W  {other.dram_gb_s:7.2f} GB/s  ({realtime})")


if __name__ == "__main__":
    main()
