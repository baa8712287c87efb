"""Table 7: comparison of computational-imaging processors (eCNN vs IDEAL vs Diffy)."""


from conftest import emit
from repro.analysis.report import format_table
from repro.baselines.diffy import DIFFY_FFDNET, DIFFY_VDSR
from repro.baselines.ideal import IDEAL_BM3D
from repro.fbisa.compiler import compile_network
from repro.hw.area_power import power_report
from repro.hw.dram import dram_traffic, select_dram
from repro.hw.performance import evaluate_performance
from repro.models.ernet import PAPER_MODELS, build_ernet
from repro.specs import SPECIFICATIONS


def _compare():
    rows = []
    ecnn_rows = {}
    for task, label in (("dn", "DnERNet"), ("sr4", "SR4ERNet")):
        spec = SPECIFICATIONS["HD30"]
        network = build_ernet(PAPER_MODELS[task]["HD30"])
        compiled = compile_network(network, input_block=128)
        perf = evaluate_performance(network, spec, input_block=128, compiled=compiled)
        power = power_report(
            network.name, compiled.program, utilization=perf.realtime_utilization(spec.fps)
        )
        traffic = dram_traffic(network, spec)
        dram = select_dram(traffic.total_gb_s)
        ecnn_rows[task] = (power.total, dram, traffic)
        rows.append(
            (
                "eCNN",
                network.name,
                "up to UHD30",
                dram.name,
                round(traffic.total_gb_s, 2),
                round(power.total, 2),
                "constant",
            )
        )
    for figure in (IDEAL_BM3D, DIFFY_FFDNET, DIFFY_VDSR):
        rows.append(
            (
                figure.name,
                figure.workload,
                figure.specification,
                figure.dram_setting,
                round(figure.dram_bandwidth_gb_s, 1),
                figure.power_w,
                "input dependent",
            )
        )
    return rows, ecnn_rows


def test_table07_processor_comparison(benchmark):
    rows, ecnn = benchmark(_compare)
    emit(
        format_table(
            "Table 7 — comparison of computational-imaging processors",
            ["processor", "workload", "max spec", "DRAM", "DRAM GB/s", "power (W)", "throughput"],
            rows,
        )
    )
    dn_power, dn_dram, dn_traffic = ecnn["dn"]
    sr_power, sr_dram, sr_traffic = ecnn["sr4"]
    # eCNN denoising: ~7.3 W vs IDEAL's 12.05 W (BM3D) and Diffy's 27.16 W (FFDNet).
    assert dn_power < IDEAL_BM3D.power_w
    assert IDEAL_BM3D.power_w / dn_power > 1.4
    assert DIFFY_FFDNET.power_w / dn_power > 3.0
    # eCNN SR: ~7.1 W vs Diffy's 54.32 W for VDSR.
    assert DIFFY_VDSR.power_w / sr_power > 6.0
    # eCNN only needs low-end single-channel DDR; the comparators need
    # dual-channel DDR3.
    assert dn_dram.is_low_end and sr_dram.is_low_end
    assert DIFFY_VDSR.dram_bandwidth_gb_s / dn_traffic.total_gb_s > 10
    assert IDEAL_BM3D.dram_bandwidth_gb_s > 20
    # eCNN throughput is constant (pixel-rate based), unlike the comparators.
    assert not DIFFY_VDSR.throughput_is_constant
