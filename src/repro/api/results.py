"""Frozen result types shared by every accelerator backend.

The pre-existing evaluation surface grew one result shape per module:
:class:`repro.hw.performance.PerformanceReport` for eCNN throughput,
:class:`repro.hw.area_power.AreaReport` for silicon cost, and ad-hoc dicts or
published-figure dataclasses for each baseline.  The session layer unifies
them behind two frozen dataclasses — :class:`PerfProfile` (what serving one
frame costs) and :class:`CostReport` (what the silicon costs) — plus
:class:`CompiledPlan`, the handle produced by ``AcceleratorBackend.compile``,
charged by ``profile`` and executed by the session.

The eCNN backend fills these bit-for-bit from the legacy reports (the parity
tests pin this), so nothing is lost in translation; baseline backends fill
the same fields from their own models or published figures, which is what
makes cross-backend sweeps a one-liner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.blockflow import Stage
from repro.nn.network import Network
from repro.specs import RealTimeSpec


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """A network lowered for one backend at one operating point.

    ``stages`` is what the session executes and the same for every backend
    (:func:`repro.core.partition.plan_stages`), so pixels never depend on
    the timing model.  The session compiles every workload's fixed-point
    program (:func:`repro.quant.fixed.fixed_point_network`), which mirrors
    the float network layer for layer, so the analytic models read either
    alike.
    ``payload`` is backend-specific (the eCNN backend stores its :class:`~repro.fbisa.compiler.CompiledModel`, the SCALE-Sim
    backend its simulation report; published-figure backends store nothing)
    and must only be interpreted by the backend that produced the plan.
    """

    backend: str
    model_name: str
    spec_name: str
    network: Network
    spec: RealTimeSpec
    #: Consecutive layer ranges run by block flow, each at its input block.
    stages: Tuple[Stage, ...] = ()
    payload: Any = None
    #: The served arithmetic: one entry per fixed-point convolution of
    #: ``network`` (:func:`repro.quant.fixed.fixed_point_formats`); empty
    #: when ``network`` is the float model.
    formats: Tuple[str, ...] = ()

    @property
    def input_block(self) -> int:
        """Input block of the first stage (0 for a plan without stages)."""
        return self.stages[0].input_block if self.stages else 0


@dataclass(frozen=True)
class PlanHandle:
    """A picklable reference to a :class:`CompiledPlan`.

    A :class:`CompiledPlan` carries the full network (hundreds of kilobytes
    of weights) and a backend-private payload, so shipping plans to worker
    processes would serialize megabytes per workload and — worse — give each
    worker a *copy* that can never share the process-level compilation memos.
    A handle instead names the plan by (backend, workload): workers
    :meth:`resolve` it against their own :class:`~repro.api.session.Session`,
    which recompiles through the content-addressed cache and the
    ``fbisa-compilations`` memo, so the bits are identical to the parent's
    plan and the cost is paid once per worker process.
    """

    backend: str
    workload: str

    def resolve(self, session: Any) -> CompiledPlan:
        """Compile this handle's plan inside ``session`` (cache-resident).

        ``session`` is a :class:`~repro.api.session.Session`; its backend
        must match the handle's so a plan handle can never silently resolve
        against a different timing model.
        """
        if session.backend_name != self.backend:
            raise ValueError(
                f"plan handle is for backend {self.backend!r} but the session "
                f"runs {session.backend_name!r}"
            )
        return session.compile(self.workload)


@dataclass(frozen=True)
class PerfProfile:
    """Per-frame serving performance of one workload on one backend.

    For the eCNN backend every field is taken verbatim from the legacy
    :class:`~repro.hw.performance.PerformanceReport` /
    :class:`~repro.hw.area_power.PowerReport` /
    :class:`~repro.hw.dram.DramTraffic` trio; derived quantities
    (:attr:`fps`, :attr:`utilization`, ...) therefore agree exactly with the
    legacy properties of the same name.
    """

    backend: str
    model_name: str
    spec_name: str
    #: Time one output frame occupies the accelerator, seconds.
    frame_latency_s: float
    #: DRAM bandwidth while streaming this workload, GB/s.
    dram_gb_s: float
    #: Accelerator power while streaming this workload, watts.
    power_w: float
    #: One-time model (re)load cost charged on a workload switch, seconds.
    load_time_s: float
    #: Peak compute of the backend configuration, TOPS.
    peak_tops: float
    #: Useful operations per second actually delivered, TOPS.
    achieved_tops: float

    @property
    def fps(self) -> float:
        """Frames per second one dedicated accelerator sustains."""
        return 1.0 / self.frame_latency_s

    def supports(self, target_fps: float) -> bool:
        """Whether the backend sustains the target frame rate in real time."""
        return self.fps >= target_fps

    @property
    def utilization(self) -> float:
        """Achieved over peak TOPS when the accelerator runs flat out."""
        return self.achieved_tops / self.peak_tops

    @property
    def throughput_efficiency(self) -> float:
        """Frames per second per TOPS of peak compute (the paper's fps/TOPS)."""
        return self.fps / self.peak_tops

    @property
    def energy_per_frame_j(self) -> float:
        """Accelerator energy to produce one output frame, joules."""
        return self.power_w * self.frame_latency_s


@dataclass(frozen=True)
class CostReport:
    """Silicon cost of one backend configuration.

    ``breakdown`` is a (component, mm^2) tuple sequence — a tuple rather
    than a dict so the report stays hashable and content-addressable.
    ``source`` records whether the figures come from this repository's
    calibrated model (``"modelled"``) or from the comparison system's
    publication (``"published"``).
    """

    backend: str
    area_mm2: float
    technology_nm: int
    breakdown: Tuple[Tuple[str, float], ...] = ()
    source: str = "modelled"

    def component(self, name: str) -> float:
        """Area of one named component in mm^2."""
        for component, area in self.breakdown:
            if component == name:
                return area
        raise KeyError(
            f"no component {name!r}; expected one of "
            f"{[component for component, _ in self.breakdown]}"
        )

    def share(self, name: str) -> float:
        """Fraction of the total area one named component occupies."""
        return self.component(name) / self.area_mm2

    def as_dict(self) -> Dict[str, float]:
        return dict(self.breakdown)
