"""End-to-end denoising pipeline on the eCNN processor model.

Runs the DnERNet family (plain and 12-channel variants) through the full
stack: a session serving an image block by block through its 8-bit
fixed-point program, the cycles of the compiled FBISA program on the
:class:`~repro.hw.processor.EcnnProcessor`, and the DRAM/power accounting
of Figs. 20-21 — the low-DRAM story that motivates the whole design.

Run with::

    python examples/denoising_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.analysis.workloads import add_gaussian_noise, synthetic_image
from repro.api import Session
from repro.core.blockflow import frame_based_inference
from repro.baselines.frame_based import frame_based_feature_bandwidth
from repro.fbisa import compile_network
from repro.hw import (
    EcnnProcessor,
    dram_traffic,
    dynamic_power_mw,
    evaluate_performance,
    power_report,
    select_dram,
)
from repro.hw.dram import DRAM_CONFIGS
from repro.models import build_ernet
from repro.models.ernet import PAPER_MODELS
from repro.runtime import ResultCache
from repro.specs import SPECIFICATIONS


def run_on_processor() -> None:
    """Serve one image block by block and count its cycles on the processor model."""
    session = Session(backend="ecnn", cache=ResultCache())
    plan = session.compile("denoise")
    processor = EcnnProcessor()
    processor.load(plan.payload)  # the FBISA program compiled at the plan's block

    clean = synthetic_image(192, 224, seed=21)
    noisy = add_gaussian_noise(clean, sigma=0.1, seed=22)
    result = session.execute("denoise", noisy)
    reference = frame_based_inference(plan.network, noisy)
    print("block-flow output equals frame-based reference:",
          np.array_equal(result.output.data, reference.data))
    report = processor.block_report()
    print(f"cycles per block: {report.pipelined_cycles}, "
          f"blocks: {result.num_blocks}, "
          f"IDU-bound stages: {report.idu_bound_stages}")


def dram_story() -> None:
    """The Fig. 21 table: bandwidth, DRAM choice and dynamic power."""
    rows = []
    ddr4 = DRAM_CONFIGS["DDR4-3200"]
    for task in ("dn", "dn12"):
        for spec_name in ("UHD30", "HD60", "HD30"):
            spec = SPECIFICATIONS[spec_name]
            network = build_ernet(PAPER_MODELS[task][spec_name])
            perf = evaluate_performance(network, spec)
            compiled = compile_network(
                network, input_block=network.metadata["input_block"]
            )
            power = power_report(
                network.name,
                compiled.program,
                utilization=perf.realtime_utilization(spec.fps),
            )
            traffic = dram_traffic(network, spec)
            rows.append(
                (
                    network.name,
                    spec_name,
                    round(traffic.total_gb_s, 2),
                    select_dram(traffic.total_gb_s).name,
                    round(dynamic_power_mw(traffic.total_gb_s, ddr4), 0),
                    round(power.total, 2),
                    round(perf.fps, 1),
                )
            )
    print(format_table(
        "Denoising on eCNN — DRAM and power",
        ["model", "spec", "GB/s", "DRAM", "DRAM dyn. mW", "core W", "fps"],
        rows,
    ))
    frame_based = frame_based_feature_bandwidth(20, 64, SPECIFICATIONS["UHD30"])
    print(f"\nfor contrast, frame-based VDSR at UHD30 would need {frame_based:.0f} GB/s "
          "of DRAM bandwidth for feature maps alone")


def main() -> None:
    run_on_processor()
    print()
    dram_story()


if __name__ == "__main__":
    main()
