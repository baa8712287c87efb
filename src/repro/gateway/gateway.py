"""The SLO gateway: deadline admission control over the serving tier.

:class:`SLOGateway` fronts a :class:`~repro.runtime.engine.ServingEngine`
or a :class:`~repro.runtime.cluster.ServingCluster`.  Each request resolves
to an :class:`~repro.gateway.slo.SLOClass` (deadline budget + priority),
and admission asks one question against a calibrated :class:`CostModel`:
*can the owning shard complete this request inside its budget, given the
work already admitted ahead of it?*  If yes, the request enters the target
with an absolute deadline and the EDF policy orders it.  If not, the
degradation ladder runs in order — serve on the fallback backend's separate
capacity, halve the requested frames, or answer cache-only — and every
rung taken is recorded as a :class:`DegradeDecision`.  When nothing fits,
:class:`AdmissionRejected` is raised with a ``retry_after_s`` hint instead
of queueing the request unboundedly.

The gateway is synchronous: callers (the soak harness, perfbench) drive
admissions through :meth:`SLOGateway.admit` and run the admitted work with
:meth:`SLOGateway.drain_now`.

Cost-model calibration
----------------------
Costs seed from each workload's :meth:`repro.api.Session.profile` (the
per-frame latency and parameter-load time the scheduler itself charges) and
are re-calibrated after every drain from the observed schedules: each
batch's busy seconds over its frames feeds an EWMA of the workload's
effective per-frame cost, so amortized load time and batching effects fold
into future estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.stats import LatencyHistogram
from repro.runtime.cluster import ClusterReport, ServingCluster
from repro.runtime.engine import ServingEngine, ServingReport
from repro.runtime.scheduler import ScheduleResult
from repro.gateway.slo import (
    DEFAULT_SLO_CLASSES,
    DEFAULT_WORKLOAD_SLO,
    SLOClass,
    resolve_slo,
)
from repro.gateway.stats import GatewayStats

#: Shard index the gateway reports for its fallback engine's schedules.
FALLBACK_SHARD = -1

#: The degradation ladder, tried in order when the primary misses a budget.
DEFAULT_LADDER: Tuple[str, ...] = ("fallback_backend", "reduce_frames", "cache_only")


class AdmissionRejected(RuntimeError):
    """Typed shed: the deadline cannot be met, retry after ``retry_after_s``."""

    def __init__(
        self,
        message: str,
        *,
        retry_after_s: float,
        stream_id: str,
        workload: str,
        slo: str,
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.stream_id = stream_id
        self.workload = workload
        self.slo = slo


@dataclass(frozen=True)
class AdmissionTicket:
    """What the gateway actually admitted (possibly degraded).

    The ledger identity of the admitted request is ``(stream_id, workload,
    frames, arrival_s)`` with the *admitted* frame count — a frame-reducing
    degrade changes ``frames`` here, and exactly-once accounting must key
    on the ticket, not the original ask.  All scheduling fields are plain
    numbers (ECNN206): the ticket crosses the cluster's pickle boundary.
    """

    stream_id: str
    workload: str
    #: Frames actually admitted (== ``requested_frames`` unless degraded).
    frames: int
    requested_frames: int
    arrival_s: float
    #: Absolute completion deadline (arrival + the SLO class budget).
    deadline_s: float
    priority: int
    slo: str
    #: ``"admit"`` or the degradation-ladder rung taken.
    action: str
    #: ``"primary"``, ``"fallback"``, or ``"none"`` (cache-only).
    target: str
    #: The cost model's completion estimate at admission time.
    estimated_s: float

    @property
    def degraded(self) -> bool:
        return self.action != "admit"

    @property
    def queued(self) -> bool:
        """Whether the request entered a queue (cache-only answers don't)."""
        return self.target != "none"


@dataclass(frozen=True)
class DegradeDecision:
    """One recorded degradation: which rung, for whom, and why."""

    stream_id: str
    workload: str
    slo: str
    action: str
    requested_frames: int
    admitted_frames: int
    #: The primary-path completion estimate that busted the budget.
    primary_estimate_s: float
    deadline_budget_s: float


class CostModel:
    """Per-workload service-cost estimates, seeded from the session's
    profiles and re-calibrated from observed schedules (EWMA)."""

    def __init__(
        self,
        profile_for: Callable[[str], Any],
        *,
        smoothing: float = 0.3,
    ) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self._profile_for = profile_for
        self._smoothing = smoothing
        self._frame_s: Dict[str, float] = {}
        self._load_s: Dict[str, float] = {}

    def _seed(self, workload: str) -> None:
        if workload not in self._frame_s:
            profile = self._profile_for(workload)
            self._frame_s[workload] = profile.frame_latency_s
            self._load_s[workload] = profile.load_time_s

    def frame_cost_s(self, workload: str, frames: int) -> float:
        self._seed(workload)
        return frames * self._frame_s[workload]

    def load_cost_s(self, workload: str) -> float:
        self._seed(workload)
        return self._load_s[workload]

    def observe(self, workload: str, frames: int, busy_s: float) -> None:
        """Fold one observed batch (``frames`` over ``busy_s``) into the model."""
        if frames < 1 or busy_s <= 0.0:
            return
        self._seed(workload)
        observed = busy_s / frames
        alpha = self._smoothing
        self._frame_s[workload] = (1 - alpha) * self._frame_s[workload] + alpha * observed

    def observe_schedule(self, schedule: ScheduleResult) -> None:
        """Calibrate from every batch of a drained schedule."""
        # Records of one batch share (instance, start_s); the batch's busy
        # seconds are its last completion minus its start, which includes
        # any parameter-load charge — so the EWMA learns the *effective*
        # per-frame cost with loads amortized in.
        groups: Dict[Tuple[int, float], List[Any]] = {}
        for record in schedule.records:
            groups.setdefault((record.instance, record.start_s), []).append(record)
        for records in groups.values():
            frames = sum(r.request.frames for r in records)
            busy = max(r.completion_s for r in records) - records[0].start_s
            self.observe(records[0].request.workload, frames, busy)


class SLOGateway:
    """Deadline-aware admission in front of an engine or cluster.

    Parameters
    ----------
    target:
        The serving tier to protect.  Build it with ``policy="edf"`` so
        admitted deadlines actually order the schedule; the gateway only
        decides *whether* work enters, the policy decides *in what order*.
    slo_classes / workload_slo:
        The SLO catalogue and the workload -> class mapping (defaults:
        :data:`~repro.gateway.slo.DEFAULT_SLO_CLASSES` /
        :data:`~repro.gateway.slo.DEFAULT_WORKLOAD_SLO`).
    fallback_backend:
        Backend name for the degrade ladder's separate-capacity engine
        (``None`` disables the rung).  Built lazily on first use.
    degrade_ladder:
        Rung order; subset of :data:`DEFAULT_LADDER`.
    headroom:
        Multiplier on completion estimates (>1 admits more conservatively).
    """

    def __init__(
        self,
        target: Union[ServingEngine, ServingCluster],
        *,
        slo_classes: Optional[Dict[str, SLOClass]] = None,
        workload_slo: Optional[Dict[str, str]] = None,
        fallback_backend: Optional[str] = "frame_based",
        degrade_ladder: Tuple[str, ...] = DEFAULT_LADDER,
        headroom: float = 1.0,
    ) -> None:
        unknown = set(degrade_ladder) - set(DEFAULT_LADDER)
        if unknown:
            raise ValueError(f"unknown degrade rungs {sorted(unknown)}")
        if headroom <= 0:
            raise ValueError("headroom must be positive")
        self.target = target
        self.slo_classes = dict(slo_classes or DEFAULT_SLO_CLASSES)
        self.workload_slo = dict(workload_slo or DEFAULT_WORKLOAD_SLO)
        self.degrade_ladder = tuple(degrade_ladder)
        self.headroom = headroom
        self._fallback_backend = fallback_backend
        self._fallback: Optional[ServingEngine] = None
        self._is_cluster = isinstance(target, ServingCluster)
        self.cost_model = CostModel(target.session.profile)
        self._fallback_cost: Optional[CostModel] = None
        self.stats = GatewayStats()
        self.latency = LatencyHistogram()
        self.degrade_log: List[DegradeDecision] = []
        #: Estimated queued busy-seconds per shard, per SLO class name —
        #: the admission-time backlog model, reset at every drain.
        self._backlog_s: Dict[int, Dict[str, float]] = {}
        #: Workloads already backlogged per shard (their parameter load is
        #: charged once per drain window, like the scheduler charges it
        #: once per switch).
        self._warm: Dict[int, Set[str]] = {}

    # ----------------------------------------------------------- internals
    @property
    def _instances_per_shard(self) -> int:
        if self._is_cluster:
            return self.target.instances_per_worker
        return self.target.scheduler.num_instances

    def _route(self, stream_id: str) -> int:
        if self._is_cluster:
            return self.target.route_stream(stream_id)
        return 0

    def _fallback_engine(self) -> ServingEngine:
        if self._fallback is None:
            from repro.runtime.cache import ResultCache

            self._fallback = ServingEngine(
                num_instances=1,
                backend=self._fallback_backend,
                cache=ResultCache(),
                policy="edf",
            )
            self._fallback_cost = CostModel(self._fallback.session.profile)
        return self._fallback

    def _estimate(
        self,
        cost_model: CostModel,
        backlog: Dict[str, float],
        warm: Set[str],
        instances: int,
        workload: str,
        frames: int,
        slo: SLOClass,
    ) -> float:
        """Completion estimate: competing backlog (shared across instances)
        plus this request's own cost, scaled by the headroom factor.

        Under EDF only work with an equal-or-tighter budget runs ahead of
        this request, so looser classes' backlog does not delay it.
        """
        competing = sum(
            seconds
            for name, seconds in backlog.items()
            if self.slo_classes[name].deadline_s <= slo.deadline_s
        )
        own = cost_model.frame_cost_s(workload, frames)
        if workload not in warm:
            own += cost_model.load_cost_s(workload)
        return self.headroom * (competing / instances + own)

    def _charge(
        self,
        backlog: Dict[str, float],
        warm: Set[str],
        cost_model: CostModel,
        workload: str,
        frames: int,
        slo: SLOClass,
    ) -> None:
        cost = cost_model.frame_cost_s(workload, frames)
        if workload not in warm:
            cost += cost_model.load_cost_s(workload)
            warm.add(workload)
        backlog[slo.name] = backlog.get(slo.name, 0.0) + cost

    def _record_admission(self, ticket: AdmissionTicket, slo: SLOClass) -> None:
        if ticket.degraded:
            self.stats.degraded += 1
            self.stats.by_action[ticket.action] = (
                self.stats.by_action.get(ticket.action, 0) + 1
            )
        else:
            self.stats.admitted += 1
        self.stats.by_class[slo.name] = self.stats.by_class.get(slo.name, 0) + 1

    # ----------------------------------------------------------- sync core
    def admit(
        self,
        stream_id: str,
        workload: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
        slo: Optional[str] = None,
    ) -> AdmissionTicket:
        """Admit, degrade, or shed one request (synchronous core).

        Raises :class:`AdmissionRejected` when no rung of the ladder meets
        the SLO budget, and propagates the target's backpressure
        (:class:`~repro.runtime.cluster.ClusterBackpressure`) unchanged —
        backpressure means "drain and retry", rejection means "slow down".
        """
        slo_class = resolve_slo(workload, slo, self.slo_classes, self.workload_slo)
        deadline_s = arrival_s + slo_class.deadline_s
        shard = self._route(stream_id)
        backlog = self._backlog_s.setdefault(shard, {})
        warm = self._warm.setdefault(shard, set())
        estimate = self._estimate(
            self.cost_model, backlog, warm, self._instances_per_shard,
            workload, frames, slo_class,
        )
        if estimate <= slo_class.deadline_s:
            self.target.submit(
                stream_id,
                workload,
                frames=frames,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                priority=slo_class.priority,
            )
            self._charge(backlog, warm, self.cost_model, workload, frames, slo_class)
            ticket = AdmissionTicket(
                stream_id=stream_id,
                workload=workload,
                frames=frames,
                requested_frames=frames,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                priority=slo_class.priority,
                slo=slo_class.name,
                action="admit",
                target="primary",
                estimated_s=estimate,
            )
            self._record_admission(ticket, slo_class)
            return ticket
        if slo_class.degradable:
            ticket = self._degrade(
                stream_id, workload, frames, arrival_s, deadline_s, slo_class, estimate
            )
            if ticket is not None:
                self._record_admission(ticket, slo_class)
                return ticket
        self.stats.shed += 1
        raise AdmissionRejected(
            f"cannot meet the {slo_class.name!r} deadline for {workload!r} on "
            f"stream {stream_id!r}: estimated {estimate:.3f}s against a "
            f"{slo_class.deadline_s:.3f}s budget",
            retry_after_s=max(0.0, estimate - slo_class.deadline_s),
            stream_id=stream_id,
            workload=workload,
            slo=slo_class.name,
        )

    def _degrade(
        self,
        stream_id: str,
        workload: str,
        frames: int,
        arrival_s: float,
        deadline_s: float,
        slo_class: SLOClass,
        primary_estimate: float,
    ) -> Optional[AdmissionTicket]:
        """Walk the ladder; returns the first ticket that fits, else None."""
        for action in self.degrade_ladder:
            if action == "fallback_backend" and self._fallback_backend is not None:
                fallback = self._fallback_engine()
                try:
                    fallback.session.workload(workload)
                except Exception:
                    continue  # the fallback backend cannot serve this workload
                backlog = self._backlog_s.setdefault(FALLBACK_SHARD, {})
                warm = self._warm.setdefault(FALLBACK_SHARD, set())
                assert self._fallback_cost is not None
                estimate = self._estimate(
                    self._fallback_cost, backlog, warm, 1, workload, frames, slo_class
                )
                if estimate <= slo_class.deadline_s:
                    fallback.submit(
                        stream_id,
                        workload,
                        frames=frames,
                        arrival_s=arrival_s,
                        deadline_s=deadline_s,
                        priority=slo_class.priority,
                    )
                    self._charge(
                        backlog, warm, self._fallback_cost, workload, frames, slo_class
                    )
                    self._log_degrade(
                        stream_id, workload, slo_class, action, frames, frames,
                        primary_estimate,
                    )
                    return AdmissionTicket(
                        stream_id=stream_id,
                        workload=workload,
                        frames=frames,
                        requested_frames=frames,
                        arrival_s=arrival_s,
                        deadline_s=deadline_s,
                        priority=slo_class.priority,
                        slo=slo_class.name,
                        action=action,
                        target="fallback",
                        estimated_s=estimate,
                    )
            elif action == "reduce_frames" and frames > 1:
                # Halving the ask is the resolution degrade of this serving
                # model: fewer frames of the same stream inside the budget.
                reduced = max(1, frames // 2)
                shard = self._route(stream_id)
                backlog = self._backlog_s.setdefault(shard, {})
                warm = self._warm.setdefault(shard, set())
                estimate = self._estimate(
                    self.cost_model, backlog, warm, self._instances_per_shard,
                    workload, reduced, slo_class,
                )
                if estimate <= slo_class.deadline_s:
                    self.target.submit(
                        stream_id,
                        workload,
                        frames=reduced,
                        arrival_s=arrival_s,
                        deadline_s=deadline_s,
                        priority=slo_class.priority,
                    )
                    self._charge(
                        backlog, warm, self.cost_model, workload, reduced, slo_class
                    )
                    self._log_degrade(
                        stream_id, workload, slo_class, action, frames, reduced,
                        primary_estimate,
                    )
                    return AdmissionTicket(
                        stream_id=stream_id,
                        workload=workload,
                        frames=reduced,
                        requested_frames=frames,
                        arrival_s=arrival_s,
                        deadline_s=deadline_s,
                        priority=slo_class.priority,
                        slo=slo_class.name,
                        action=action,
                        target="primary",
                        estimated_s=estimate,
                    )
            elif action == "cache_only":
                # Zero-cost degraded answer: serve whatever the caches hold
                # (stale video blocks, cached frames) without queueing new
                # work.  Always meets the deadline; never enters the ledger.
                self._log_degrade(
                    stream_id, workload, slo_class, action, frames, 0,
                    primary_estimate,
                )
                return AdmissionTicket(
                    stream_id=stream_id,
                    workload=workload,
                    frames=0,
                    requested_frames=frames,
                    arrival_s=arrival_s,
                    deadline_s=deadline_s,
                    priority=slo_class.priority,
                    slo=slo_class.name,
                    action=action,
                    target="none",
                    estimated_s=0.0,
                )
        return None

    def _log_degrade(
        self,
        stream_id: str,
        workload: str,
        slo_class: SLOClass,
        action: str,
        requested: int,
        admitted: int,
        primary_estimate: float,
    ) -> None:
        self.degrade_log.append(
            DegradeDecision(
                stream_id=stream_id,
                workload=workload,
                slo=slo_class.name,
                action=action,
                requested_frames=requested,
                admitted_frames=admitted,
                primary_estimate_s=primary_estimate,
                deadline_budget_s=slo_class.deadline_s,
            )
        )

    def drain_now(self) -> "GatewayReport":
        """Drain the target (and the fallback engine), account, report."""
        primary = self.target.run()
        fallback_report: Optional[ServingReport] = None
        if self._fallback is not None and len(self._fallback.queue):
            fallback_report = self._fallback.run()
        schedules: List[Tuple[int, ScheduleResult]] = []
        if isinstance(primary, ClusterReport):
            schedules.extend(
                (index, report.schedule) for index, report in primary.shard_reports
            )
        else:
            schedules.append((0, primary.schedule))
        if fallback_report is not None:
            schedules.append((FALLBACK_SHARD, fallback_report.schedule))
        for _, schedule in schedules:
            self.cost_model.observe_schedule(schedule)
            for record in schedule.records:
                self.stats.served += 1
                self.latency.observe(record.latency_s)
            self.stats.deadline_requests += schedule.deadline_requests
            self.stats.deadline_misses += schedule.deadline_misses
        # The backlog model resets with the queues: a drain runs them dry.
        self._backlog_s.clear()
        self._warm.clear()
        return GatewayReport(
            primary=primary,
            fallback=fallback_report,
            schedules=tuple(schedules),
            stats=self.stats.snapshot(),
            latency_s=self.latency.percentiles(),
            degrade_log=tuple(self.degrade_log),
        )


@dataclass(frozen=True)
class GatewayReport:
    """Outcome of one gateway drain plus cumulative admission counters."""

    #: The target's own report (per-shard reports for a cluster).
    primary: Union[ServingReport, ClusterReport]
    #: The fallback engine's report (``None`` when nothing was degraded
    #: onto it this drain).
    fallback: Optional[ServingReport]
    #: Every schedule this drain produced, as ``(shard index, schedule)``;
    #: the fallback engine reports as shard :data:`FALLBACK_SHARD`.
    schedules: Tuple[Tuple[int, ScheduleResult], ...]
    #: Cumulative gateway counters at report time.
    stats: GatewayStats
    #: Cumulative nearest-rank latency percentiles (``{"p50": ...}``).
    latency_s: Dict[str, float]
    #: Every degradation decision taken so far, in admission order.
    degrade_log: Tuple[DegradeDecision, ...]

    def render(self) -> str:
        from repro.analysis.report import format_table

        stats = self.stats
        rows = [
            ("admitted (primary)", stats.admitted),
            ("degraded", stats.degraded),
            ("shed", stats.shed),
            ("served", stats.served),
            ("deadline misses", f"{stats.deadline_misses}/{stats.deadline_requests}"),
            ("deadline miss rate", f"{stats.deadline_miss_rate:.1%}"),
        ]
        for action in sorted(stats.by_action):
            rows.append((f"degraded: {action}", stats.by_action[action]))
        if self.latency_s:
            rows.append(
                (
                    "latency p50/p95/p99 (ms)",
                    "/".join(
                        f"{self.latency_s[key] * 1e3:.2f}"
                        for key in ("p50", "p95", "p99")
                    ),
                )
            )
        return format_table("SLO gateway report", ["metric", "value"], rows)


__all__ = [
    "AdmissionRejected",
    "AdmissionTicket",
    "CostModel",
    "DEFAULT_LADDER",
    "DegradeDecision",
    "FALLBACK_SHARD",
    "GatewayReport",
    "SLOGateway",
]
