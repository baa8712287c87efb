"""Style transfer at the edge (Section 7.3 case study).

Builds the FBISA-compatible style-transfer network, splits it into two
sub-models to tame the recomputation overhead its downsamplers would cause,
compiles both the single-model and split executions, and reports the
throughput/DRAM trade-off on the eCNN model.

Run with::

    python examples/style_transfer_edge.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.partition import partition_into_submodels
from repro.fbisa import compile_network
from repro.hw.config import DEFAULT_CONFIG
from repro.models.complexity import kop_per_pixel, parameter_count
from repro.models.vision import STYLE_TRANSFER_SUMMARY, build_style_transfer_network
from repro.runtime import ResultCache
from repro.specs import SPECIFICATIONS


def main() -> None:
    network = build_style_transfer_network()
    spec = SPECIFICATIONS["HD30"]
    print(network.describe())
    print(f"intrinsic complexity: {kop_per_pixel(network):.0f} KOP/pixel, "
          f"{parameter_count(network) / 1e6:.2f} M parameters")

    # Compile the fixed-point program and check it on one block, bit for bit.
    compiled = compile_network(network, input_block=128)
    image = synthetic_image(128, 128, seed=11)
    same = np.array_equal(
        compiled.execute_block(image).data, compiled.network.forward(image).data
    )
    print(f"compiled FBISA program ({compiled.program.num_lines} lines) "
          f"matches the served fixed-point program: {same}")

    # Single-model vs two-sub-model execution.
    print("\nsub-model split trade-off (Full HD 30 fps):")
    for pieces in (1, 2):
        plan = partition_into_submodels(network, pieces, 128)
        required_tops = (
            kop_per_pixel(network) * 1e3 * plan.combined_ncr * spec.pixel_rate / 1e12
        )
        fps = DEFAULT_CONFIG.peak_tops * 0.85 / (
            kop_per_pixel(network) * 1e3 * plan.combined_ncr * spec.pixels_per_frame / 1e12
        )
        dram_gb_s = (
            (6.0 * 1.35 + plan.extra_dram_bytes_per_pixel) * spec.pixel_rate / 1e9
        )
        print(f"  {pieces} sub-model(s): NCR {plan.combined_ncr:5.2f}, "
              f"needs {required_tops:5.1f} TOPS for 30 fps, "
              f"sustains ~{fps:5.1f} fps, DRAM ~{dram_gb_s:4.2f} GB/s")

    # The session layer charges exactly the two-sub-model execution per
    # frame; its cached profile should agree with the split row above.
    session = Session(backend="ecnn", cache=ResultCache())
    profile = session.profile("style_transfer")
    print(f"\nruntime serving profile: {profile.fps:.1f} fps capacity, "
          f"{profile.frame_latency_s * 1e3:.1f} ms/frame, "
          f"{profile.dram_gb_s:.2f} GB/s, {profile.power_w:.2f} W "
          f"(cache: {session.cache.stats.describe()})")

    # And the same workload on the published comparison accelerators, one
    # line per registered backend.
    print("\nstyle transfer across backends (Full HD 30 fps target):")
    for other in session.compare("style_transfer", backends=("ecnn", "diffy", "scale_sim")):
        print(f"  {other.backend:10s} {1.0 / other.frame_latency_s:8.1f} fps  "
              f"{other.power_w:6.2f} W  {other.dram_gb_s:6.2f} GB/s")

    print(f"\npaper reference: {STYLE_TRANSFER_SUMMARY.fps_on_ecnn} fps at "
          f"{STYLE_TRANSFER_SUMMARY.dram_bandwidth_gb_s} GB/s with "
          f"{STYLE_TRANSFER_SUMMARY.num_submodels} sub-models "
          "(vs 512x512 at 20 fps on a Titan X GPU)")


if __name__ == "__main__":
    main()
