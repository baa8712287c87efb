"""The eCNN processor model (Section 6 of the paper).

This subpackage models the embedded eCNN processor at the level the paper's
evaluation needs: instruction-pipelined cycle counts of FBISA programs for
the IDU/CIU, the eight-bank block-buffer mapping, and analytical area, power
and DRAM models calibrated to the layout results of Table 6.  It computes no
pixels: every pixel comes from :func:`repro.core.blockflow.staged_inference`
behind ``Session.execute``.

Modules
-------
* :mod:`repro.hw.config` — the hardware configuration of Table 2;
* :mod:`repro.hw.idu` — information decode unit timing (parameter decoding);
* :mod:`repro.hw.ciu` — CNN inference unit timing (LCONV3x3 / LCONV1x1);
* :mod:`repro.hw.blockbuffer` — eight-bank block buffer mapping;
* :mod:`repro.hw.processor` — the cycle-accurate executor;
* :mod:`repro.hw.performance` — frame-level throughput / real-time analysis;
* :mod:`repro.hw.area_power` — area and power model (Table 6, Fig. 20);
* :mod:`repro.hw.dram` — DRAM bandwidth and power model (Fig. 21, Table 7).
"""

from repro.hw.config import EcnnConfig, DEFAULT_CONFIG
from repro.hw.idu import idu_cycles
from repro.hw.ciu import ciu_cycles, engine_activity
from repro.hw.blockbuffer import BlockBuffer, BankMapping
from repro.hw.processor import EcnnProcessor, BlockExecutionReport
from repro.hw.performance import PerformanceReport, evaluate_performance
from repro.hw.area_power import AreaReport, PowerReport, area_report, power_report
from repro.hw.dram import (
    DramConfig,
    DRAM_CONFIGS,
    dram_traffic,
    dynamic_power_mw,
    select_dram,
)

__all__ = [
    "AreaReport",
    "BankMapping",
    "BlockBuffer",
    "BlockExecutionReport",
    "DEFAULT_CONFIG",
    "DRAM_CONFIGS",
    "DramConfig",
    "EcnnConfig",
    "EcnnProcessor",
    "PerformanceReport",
    "PowerReport",
    "area_report",
    "ciu_cycles",
    "dram_traffic",
    "dynamic_power_mw",
    "engine_activity",
    "evaluate_performance",
    "idu_cycles",
    "power_report",
    "select_dram",
]
