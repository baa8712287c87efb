"""Fig. 20: power per ERNet model and breakdown by circuit type."""

import pytest

from conftest import emit
from repro.analysis.report import format_table
from repro.fbisa.compiler import compile_network
from repro.hw.area_power import average_power, power_report
from repro.hw.performance import evaluate_performance, recommended_input_block
from repro.models.ernet import PAPER_MODELS, build_ernet
from repro.specs import SPECIFICATIONS


def _power_sweep():
    rows = []
    reports = {}
    for task in ("sr4", "sr2", "dn"):
        for spec_name in ("UHD30", "HD60", "HD30"):
            spec = SPECIFICATIONS[spec_name]
            network = build_ernet(PAPER_MODELS[task][spec_name])
            block = recommended_input_block(network)
            compiled = compile_network(network, input_block=block)
            perf = evaluate_performance(
                network, spec, input_block=block, compiled=compiled
            )
            power = power_report(
                network.name,
                compiled.program,
                utilization=perf.realtime_utilization(spec.fps),
            )
            reports[(task, spec_name)] = power
            breakdown = power.breakdown_by_circuit_type()
            rows.append(
                (
                    network.name,
                    spec_name,
                    round(power.total, 2),
                    round(breakdown["combinational"], 3),
                    round(breakdown["sequential"], 3),
                    round(breakdown["sram"], 3),
                )
            )
    return rows, reports


def test_fig20_power_breakdown(benchmark):
    rows, reports = benchmark(_power_sweep)
    emit(
        format_table(
            "Fig. 20 — power per ERNet and circuit-type breakdown",
            ["model", "spec", "power (W)", "combinational", "sequential", "SRAM"],
            rows,
        )
    )
    totals = {key: report.total for key, report in reports.items()}
    # Average power across the ERNet workloads lands near the paper's 6.94 W.
    mean = average_power(reports.values())
    assert mean == pytest.approx(6.94, rel=0.12)
    # HD30 workloads draw ~7-7.5 W; UHD30 denoising noticeably less (its
    # shallow model leaves compute headroom), giving DnERNet the largest
    # spread across specifications.
    assert 6.5 <= totals[("sr4", "HD30")] <= 8.0
    assert totals[("dn", "UHD30")] < totals[("dn", "HD30")]
    dn_spread = totals[("dn", "HD30")] - totals[("dn", "UHD30")]
    sr4_spread = abs(totals[("sr4", "HD30")] - totals[("sr4", "UHD30")])
    assert dn_spread >= sr4_spread - 0.15
    # Circuit-type breakdown: combinational dominates (82-87%), sequential
    # ~10%, SRAM a few percent.
    for report in reports.values():
        breakdown = report.breakdown_by_circuit_type()
        assert 0.75 <= breakdown["combinational"] <= 0.92
        assert 0.05 <= breakdown["sequential"] <= 0.18
        assert breakdown["sram"] <= 0.10
