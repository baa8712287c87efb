"""Area and power model of the eCNN processor (Table 6, Fig. 20).

The paper's layout results are summarised by per-component constants; this
module exposes them as an analytical model so the paper-figure benchmarks
can regenerate Table 6 and Fig. 20 and so what-if studies (e.g. tripling the
parameter memory for the recognition case study, Section 7.3) scale the
right components.

Component calibration (40 nm, 250 MHz, 0.9 V):

===================  ==========  =================
component            area share  full-activity power share
===================  ==========  =================
LCONV3x3 engine      65.8 %      87.4 %
LCONV1x1 engine      7.0 %       6.6 %
block buffers        11.3 %      }
parameter memory     7.9 %       }  3.9 % (all SRAM)
IDU + datapath       8.0 %       remainder (~2.1 %)
===================  ==========  =================

Total area 55.23 mm^2; average power 6.94 W across the six ERNet workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.fbisa.isa import Instruction
from repro.hw.ciu import engine_activity
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig

#: Total layout area of the default configuration in mm^2.
TOTAL_AREA_MM2 = 55.23

#: Area shares of the default configuration (Table 6).
AREA_SHARES: Dict[str, float] = {
    "lconv3x3": 0.658,
    "lconv1x1": 0.070,
    "block_buffers": 0.113,
    "parameter_memory": 0.079,
    "idu_datapath": 0.080,
}

#: Power of each component when fully active, in watts, calibrated so a
#: typical high-utilization ERNet workload lands at ~7.3 W and the average
#: across the six ERNet operating points is ~6.94 W (Table 6 / Fig. 20).
FULL_ACTIVITY_POWER_W: Dict[str, float] = {
    "lconv3x3": 6.42,
    "lconv1x1": 0.49,
    "sram": 0.29,
    "idu_datapath": 0.16,
}

#: Clock-tree, pipeline-register and parameter-register power that is largely
#: activity independent (the "sequential" ~10% slice of Fig. 20).
SEQUENTIAL_BASE_W = 0.60


@dataclass(frozen=True)
class AreaReport:
    """Per-component area in mm^2."""

    lconv3x3: float
    lconv1x1: float
    block_buffers: float
    parameter_memory: float
    idu_datapath: float

    @property
    def total(self) -> float:
        return (
            self.lconv3x3
            + self.lconv1x1
            + self.block_buffers
            + self.parameter_memory
            + self.idu_datapath
        )

    def share(self, component: str) -> float:
        return getattr(self, component) / self.total

    def as_dict(self) -> Dict[str, float]:
        return {
            "lconv3x3": self.lconv3x3,
            "lconv1x1": self.lconv1x1,
            "block_buffers": self.block_buffers,
            "parameter_memory": self.parameter_memory,
            "idu_datapath": self.idu_datapath,
        }


def area_report(config: EcnnConfig = DEFAULT_CONFIG) -> AreaReport:
    """Area of an eCNN configuration, scaling memories with their capacity."""
    reference = DEFAULT_CONFIG
    scale_bb = config.total_block_buffer_bytes / reference.total_block_buffer_bytes
    scale_pm = config.parameter_memory_bytes / reference.parameter_memory_bytes
    scale_3x3 = config.lconv3x3_multipliers / reference.lconv3x3_multipliers
    scale_1x1 = config.lconv1x1_multipliers / reference.lconv1x1_multipliers
    return AreaReport(
        lconv3x3=TOTAL_AREA_MM2 * AREA_SHARES["lconv3x3"] * scale_3x3,
        lconv1x1=TOTAL_AREA_MM2 * AREA_SHARES["lconv1x1"] * scale_1x1,
        block_buffers=TOTAL_AREA_MM2 * AREA_SHARES["block_buffers"] * scale_bb,
        parameter_memory=TOTAL_AREA_MM2 * AREA_SHARES["parameter_memory"] * scale_pm,
        idu_datapath=TOTAL_AREA_MM2 * AREA_SHARES["idu_datapath"],
    )


@dataclass(frozen=True)
class PowerReport:
    """Power consumption of one workload on the processor, in watts."""

    model_name: str
    lconv3x3: float
    lconv1x1: float
    sram: float
    idu_datapath: float
    sequential: float

    @property
    def total(self) -> float:
        return self.lconv3x3 + self.lconv1x1 + self.sram + self.idu_datapath + self.sequential

    @property
    def combinational(self) -> float:
        """Combinational-logic slice of Fig. 20's circuit-type breakdown."""
        return self.lconv3x3 + self.lconv1x1 + self.idu_datapath

    def breakdown_by_circuit_type(self) -> Dict[str, float]:
        """Fractions per circuit type (combinational / sequential / SRAM)."""
        total = self.total
        return {
            "combinational": self.combinational / total,
            "sequential": self.sequential / total,
            "sram": self.sram / total,
        }


def power_report(
    model_name: str,
    instructions: Iterable[Instruction],
    *,
    utilization: float,
    config: EcnnConfig = DEFAULT_CONFIG,
) -> PowerReport:
    """Power of one workload.

    ``utilization`` is the fraction of cycles the CIU is doing useful work at
    the target frame rate (from :class:`~repro.hw.performance.PerformanceReport`);
    ``instructions`` determine how that activity splits across the two
    convolution engines (ER-heavy models exercise LCONV1x1).
    """
    if not 0.0 <= utilization <= 1.0:
        raise ValueError("utilization must be in [0, 1]")
    activity = engine_activity(instructions, config)
    scale_3x3 = config.lconv3x3_multipliers / DEFAULT_CONFIG.lconv3x3_multipliers
    scale_1x1 = config.lconv1x1_multipliers / DEFAULT_CONFIG.lconv1x1_multipliers
    return PowerReport(
        model_name=model_name,
        lconv3x3=FULL_ACTIVITY_POWER_W["lconv3x3"] * utilization * activity.lconv3x3 * scale_3x3,
        lconv1x1=FULL_ACTIVITY_POWER_W["lconv1x1"] * utilization * activity.lconv1x1 * scale_1x1,
        sram=FULL_ACTIVITY_POWER_W["sram"] * (0.4 + 0.6 * utilization),
        idu_datapath=FULL_ACTIVITY_POWER_W["idu_datapath"] * (0.3 + 0.7 * utilization),
        sequential=SEQUENTIAL_BASE_W * (0.5 + 0.5 * utilization),
    )


def average_power(reports: Iterable[PowerReport]) -> float:
    """Average total power across workloads (the paper's 6.94 W figure)."""
    reports = list(reports)
    if not reports:
        raise ValueError("no power reports to average")
    return sum(report.total for report in reports) / len(reports)
