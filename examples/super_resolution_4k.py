"""4K super-resolution deployment study.

Reproduces the headline use case of the paper: choosing an SR4ERNet for each
real-time specification, quantizing it to dynamic 8-bit fixed point,
compiling it to FBISA, and checking that the eCNN processor sustains the
frame rate on low-end DRAM — with a functional check that the compiled
program produces exactly the pixels of the fixed-point program it lowers.

Run with::

    python examples/super_resolution_4k.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.workloads import bicubic_like_downsample, synthetic_image
from repro.fbisa import compile_network, pack_parameters
from repro.hw import dram_traffic, evaluate_performance, power_report, select_dram
from repro.hw.config import DEFAULT_CONFIG
from repro.models import build_ernet
from repro.models.ernet import PAPER_MODELS
from repro.models.quality import REFERENCE_PSNR
from repro.quant import simulate_fine_tuning
from repro.quant.fixed import fixed_point_network
from repro.specs import SPECIFICATIONS


def main() -> None:
    print("=== SR4ERNet deployment across the three real-time targets ===\n")
    for spec_name in ("UHD30", "HD60", "HD30"):
        spec = SPECIFICATIONS[spec_name]
        network = build_ernet(PAPER_MODELS["sr4"][spec_name])

        # Dynamic fixed-point quantization + modelled fine-tuning recovery.
        program = fixed_point_network(network)
        tuned = simulate_fine_tuning(network, program)
        float_psnr = REFERENCE_PSNR[f"SR4ERNet@{spec_name}"]

        # Compile the fixed-point program and pack its parameter bitstreams.
        compiled = compile_network(program, input_block=128)
        packed = pack_parameters(network.name, [p for p in compiled.parameters if p])

        # Hardware figures.
        perf = evaluate_performance(program, spec)
        power = power_report(
            network.name, compiled.program, utilization=perf.realtime_utilization(spec.fps)
        )
        traffic = dram_traffic(network, spec)

        print(f"{network.name} @ {spec_name}")
        print(f"  program: {compiled.program.num_lines} lines, "
              f"parameters: {packed.total_encoded_bytes // 1024} KB coded "
              f"(x{packed.compression_ratio:.2f}), fits 1288 KB: "
              f"{packed.fits_in(DEFAULT_CONFIG.parameter_memory_bytes)}")
        print(f"  quality: {float_psnr:.2f} dB float, "
              f"-{tuned.final_loss_db:.2f} dB after 8-bit fine-tuning (modelled)")
        print(f"  throughput: {perf.fps:.1f} fps (target {spec.fps:.0f}), "
              f"NCR {perf.ncr:.2f}")
        print(f"  power: {power.total:.2f} W, "
              f"DRAM: {traffic.total_gb_s:.2f} GB/s -> {select_dram(traffic.total_gb_s).name}")
        print()

    # Functional check on a small frame: compiled program == fixed-point program.
    print("=== functional check (quantized, compiled, block-based) ===")
    network = build_ernet(PAPER_MODELS["sr4"]["UHD30"])
    compiled = compile_network(network, input_block=96)
    high_res = synthetic_image(64, 64, seed=3)
    low_res = bicubic_like_downsample(high_res, 4)
    # Pad the low-res frame so one 96-px block covers it, then compare.
    block = np.pad(low_res.data, ((0, 0), (40, 40), (40, 40)))
    from repro.nn.tensor import FeatureMap

    block_fm = FeatureMap(block)
    served = compiled.network.forward(block_fm)
    via_fbisa = compiled.execute_block(block_fm)
    print("compiled FBISA output equals the served fixed-point program's pixels:",
          np.array_equal(served.data, via_fbisa.data))


if __name__ == "__main__":
    main()
