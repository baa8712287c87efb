"""The serving engine: queue + scheduler + content-addressed cache.

:class:`ServingEngine` is the runtime's front door.  Requests are admitted
per stream, traces replay into the queue, and :meth:`ServingEngine.run`
drains everything through the batching scheduler over the configured number
of simulated accelerator instances.  Since PR 2 the engine serves through a
:class:`repro.api.Session`, so the accelerator is pluggable: pass
``backend="eyeriss"`` (or any name from
:func:`repro.api.available_backends`) and every profile the scheduler
charges comes from that backend's model instead of the eCNN processor.

All analytic questions — the per-workload serving profile the scheduler
charges time from, and the deeper layer-timing / cost queries
:meth:`ServingEngine.analyze` answers — go through the session's
:class:`~repro.runtime.cache.ResultCache`, so a workload is compiled and
characterized once no matter how many batches or reports ask.

Pixel-level serving (functional results, not just timing) belongs to the
session itself — :meth:`repro.api.Session.execute`, ``execute_many`` and
``execute_stream`` — reachable as ``engine.session``; the engine adds only
what pixels do not need: admission, batching and placement over instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.analysis.report import format_table
from repro.api.results import CostReport, PerfProfile
from repro.api.session import Session
from repro.hw.area_power import AreaReport, area_report
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.hw.processor import BlockExecutionReport, EcnnProcessor
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.scheduler import RequestQueue, ScheduleResult, Scheduler
from repro.runtime.trace import TrafficTrace
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


@dataclass(frozen=True)
class ServingReport:
    """Outcome of one :meth:`ServingEngine.run`: schedule plus cache stats."""

    schedule: ScheduleResult
    cache: CacheStats
    backend: str = "ecnn"

    def render(self) -> str:
        """The CLI's throughput/latency report."""
        schedule = self.schedule
        streams = format_table(
            "Per-stream serving report",
            ["stream", "workload(s)", "requests", "frames", "fps", "mean latency (ms)", "max latency (ms)"],
            [
                (
                    stats.stream_id,
                    "+".join(stats.workloads),
                    stats.requests,
                    stats.frames,
                    round(stats.fps, 2),
                    round(stats.mean_latency_s * 1e3, 2),
                    round(stats.max_latency_s * 1e3, 2),
                )
                for stats in schedule.stream_stats().values()
            ],
        )
        instances = format_table(
            "Instance utilization",
            ["instance", "busy (ms)", "utilization"],
            [
                (index, round(schedule.instance_busy_s[index] * 1e3, 2),
                 f"{schedule.utilization(index):.0%}")
                for index in range(schedule.num_instances)
            ],
        )
        summary = (
            f"served {schedule.total_frames} frames in {len(schedule.batches)} batches "
            f"on {schedule.num_instances} {self.backend} instance(s); "
            f"makespan {schedule.makespan_s * 1e3:.2f} ms, "
            f"aggregate {schedule.throughput_fps:.1f} fps\n"
            f"analytic cache: {self.cache.describe()}"
        )
        percentiles = schedule.latency_percentiles()
        if percentiles:
            summary += "\nlatency " + " ".join(
                f"p{int(q * 100)} {value * 1e3:.2f} ms" for q, value in percentiles.items()
            )
        if schedule.deadline_requests:
            summary += (
                f"\ndeadlines: {schedule.deadline_misses}/{schedule.deadline_requests} "
                f"missed ({schedule.deadline_miss_rate:.1%})"
            )
        return "\n\n".join([streams, instances, summary])


class ServingEngine:
    """Serve catalogue workloads on a pool of simulated accelerator instances.

    Parameters
    ----------
    num_instances:
        Simulated accelerator processors serving in parallel.
    max_batch_frames:
        Scheduler batch budget (see :class:`~repro.runtime.scheduler.Scheduler`).
    config:
        Hardware configuration shared by all instances.
    cache:
        Result cache; defaults to the process-wide
        :data:`~repro.runtime.cache.DEFAULT_CACHE`.
    backend:
        Accelerator backend name (default ``"ecnn"``), or a pre-built
        :class:`repro.api.Session` whose backend/cache/config take precedence.
    policy:
        Queue/scheduler ordering — ``"fifo"`` (default, bit-identical to
        the historical engine) or ``"edf"`` for deadline-aware serving.
    """

    def __init__(
        self,
        *,
        num_instances: int = 2,
        max_batch_frames: int = 8,
        config: EcnnConfig = DEFAULT_CONFIG,
        cache: Optional[ResultCache] = None,
        backend: Union[str, Session] = "ecnn",
        policy: str = "fifo",
    ) -> None:
        if isinstance(backend, Session):
            self.session = backend
        else:
            self.session = Session(backend=backend, config=config, cache=cache)
        self.config = self.session.config
        self.cache = self.session.cache
        self.policy = policy
        self.queue = RequestQueue(policy=policy)
        self.scheduler = Scheduler(
            self.session.profile,
            num_instances=num_instances,
            max_batch_frames=max_batch_frames,
            policy=policy,
        )

    @property
    def backend_name(self) -> str:
        return self.session.backend_name

    # ------------------------------------------------------------------ admission
    def submit(
        self,
        stream_id: str,
        workload_name: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
        deadline_s: float = math.inf,
        priority: int = 0,
    ) -> None:
        """Admit one request (validates the workload name)."""
        self.session.workload(workload_name)
        self.queue.submit(
            stream_id,
            workload_name,
            frames=frames,
            arrival_s=arrival_s,
            deadline_s=deadline_s,
            priority=priority,
        )

    def play(self, trace: TrafficTrace) -> int:
        """Replay a traffic trace into the queue; returns requests admitted."""
        for event in trace.events:
            self.session.workload(event.workload)
        return trace.submit_to(self.queue)

    # ------------------------------------------------------------------ serving
    def run(self) -> ServingReport:
        """Drain the queue through the scheduler and report."""
        schedule = self.scheduler.run(self.queue.drain())
        return ServingReport(
            schedule=schedule,
            cache=self.cache.stats,
            backend=self.backend_name,
        )

    # ------------------------------------------------------------------ analytics
    def analyze(self, workload_name: str) -> WorkloadAnalytics:
        """Cached deep analytics: layer timing (eCNN), serving profile, cost."""
        entry = self.session.workload(workload_name)
        key = ResultCache.key(
            "workload-analytics", self.backend_name, entry.cache_key(self.config)
        )
        return self.cache.get_or_compute(key, lambda: self._compute_analytics(entry))

    def _compute_analytics(self, entry: RuntimeWorkload) -> WorkloadAnalytics:
        profile = self.session.profile(entry.name)
        cost = self.session.cost()
        if self.backend_name != "ecnn":
            return WorkloadAnalytics(
                workload=entry.name,
                model_name=profile.model_name,
                profile=profile,
                layer_timing=(),
                cost=cost,
                area=None,
                backend=self.backend_name,
            )
        # The eCNN backend additionally exposes per-instruction layer timing
        # from the processor's IDU/CIU model, reusing the session's cached
        # plan so analytics and profiles are guaranteed to describe the same
        # compilation (same input block, same evaluation config).
        plan = self.session.compile(entry.name)
        config = self.session.backend.evaluation_config(plan.network)
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
            backend=self.backend_name,
        )
