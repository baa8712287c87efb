"""Per-workload analytics of a serving session.

:func:`analyze` answers the deep analytic questions the runtime CLI's
``--analyze`` prints for one workload: the serving profile the scheduler
charges time from, the backend's cost report and, on the eCNN backend, the
per-instruction layer timing of the compiled FBISA program plus the area
report.  Every answer goes through the session's
:class:`~repro.runtime.cache.ResultCache`, so a workload is compiled and
characterized once no matter how many reports ask.

Admission, batching and placement are the serving cluster's
(:class:`~repro.runtime.cluster.ServingCluster`, whose workers call the
:class:`~repro.runtime.scheduler.Scheduler`); pixels are the session's
(:meth:`repro.api.Session.execute`, ``execute_many``, ``execute_stream``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.api.results import CostReport, PerfProfile
from repro.api.session import Session
from repro.hw.area_power import AreaReport, area_report
from repro.hw.processor import BlockExecutionReport, EcnnProcessor
from repro.runtime.cache import ResultCache
from repro.runtime.workloads import RuntimeWorkload


@dataclass(frozen=True)
class WorkloadAnalytics:
    """Deep analytic answers for one workload (all cache-resident)."""

    workload: str
    model_name: str
    profile: PerfProfile
    #: Per-instruction (label, CIU cycles, IDU cycles) — the layer timing.
    #: Empty for backends without an FBISA program (everything but eCNN).
    layer_timing: Tuple[Tuple[str, int, int], ...]
    cost: CostReport
    #: The eCNN per-component area report; ``None`` on other backends.
    area: Optional[AreaReport] = None
    backend: str = "ecnn"

    @property
    def cycles_per_block(self) -> int:
        """Block latency under the IDU/CIU instruction pipeline.

        Delegates to the processor's own
        :attr:`~repro.hw.processor.BlockExecutionReport.pipelined_cycles`
        (while the CIU computes instruction *i* the IDU decodes instruction
        *i+1*), so the analytics can never drift from the timing model —
        when parameter decoding dominates a stage, the IDU cycles are what
        the block pays, not the CIU cycles.
        """
        return BlockExecutionReport(
            ciu_cycles_per_instruction=tuple(ciu for _, ciu, _ in self.layer_timing),
            idu_cycles_per_instruction=tuple(idu for _, _, idu in self.layer_timing),
        ).pipelined_cycles


def analyze(session: Session, workload_name: str) -> WorkloadAnalytics:
    """Cached deep analytics: layer timing (eCNN), serving profile, cost."""
    entry = session.workload(workload_name)
    key = ResultCache.key(
        "workload-analytics", session.backend_name, entry.cache_key(session.config)
    )
    return session.cache.get_or_compute(key, lambda: _compute_analytics(session, entry))


def _compute_analytics(session: Session, entry: RuntimeWorkload) -> WorkloadAnalytics:
    backend = session.backend_name
    profile = session.profile(entry.name)
    cost = session.cost()
    if backend != "ecnn":
        return WorkloadAnalytics(
            workload=entry.name,
            model_name=profile.model_name,
            profile=profile,
            layer_timing=(),
            cost=cost,
            area=None,
            backend=backend,
        )
    # The eCNN backend additionally exposes per-instruction layer timing
    # from the processor's IDU/CIU model, reusing the session's cached
    # plan so analytics and profiles are guaranteed to describe the same
    # compilation (same input block, same evaluation config).
    plan = session.compile(entry.name)
    config = session.backend.evaluation_config(plan.network)
    compiled = plan.payload
    processor = EcnnProcessor(config)
    processor.load(compiled)
    report = processor.block_report()
    timing = tuple(
        (
            instruction.label or instruction.opcode.value,
            report.ciu_cycles_per_instruction[index],
            report.idu_cycles_per_instruction[index],
        )
        for index, instruction in enumerate(compiled.program)
    )
    return WorkloadAnalytics(
        workload=entry.name,
        model_name=plan.model_name,
        profile=profile,
        layer_timing=timing,
        cost=cost,
        area=area_report(config),
        backend=backend,
    )
