"""The SLO gateway: deadline admission control over the serving cluster.

:class:`SLOGateway` fronts a :class:`~repro.runtime.cluster.ServingCluster`.
Each request's workload maps to an :class:`~repro.gateway.slo.SLOClass`
(deadline budget + priority), and admission asks one question against a
calibrated :class:`CostModel`: *can the owning shard complete this request
inside its budget, given the work already admitted ahead of it?*  If yes,
the request enters the cluster with an absolute deadline and the EDF policy
orders it.  If not, a degradable class walks a fixed ladder — serve on the
``frame_based`` fallback's separate capacity (one EDF
:class:`~repro.runtime.scheduler.RequestQueue` and one single-instance
:class:`~repro.runtime.scheduler.Scheduler` over a ``frame_based``
:class:`~repro.api.Session`), or halve the requested frames on the owning
shard — and the rung taken is recorded as a :class:`DegradeDecision`.  A
request no rung fits, and any request of a class that cannot degrade, is
shed with :class:`AdmissionRejected` and a ``retry_after_s`` hint (the
primary estimate's overshoot of the budget) instead of queueing the request
unboundedly.

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
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from repro.api.session import Session
from repro.core.stats import LatencyHistogram
from repro.runtime.cache import ResultCache
from repro.runtime.cluster import ServingCluster
from repro.runtime.scheduler import RequestQueue, ScheduleResult, Scheduler
from repro.gateway.slo import DEFAULT_SLO_CLASSES, SLOClass, slo_class
from repro.gateway.stats import GatewayStats

#: Shard index the gateway reports for its fallback's schedules.
FALLBACK_SHARD = -1

#: Backend of the fallback, the degradation ladder's first rung.
FALLBACK_BACKEND = "frame_based"

#: EWMA weight of one observed batch in the cost model.
SMOOTHING = 0.3


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
    #: ``"primary"`` (the cluster) or ``"fallback"``.
    target: str
    #: The cost model's completion estimate at admission time.
    estimated_s: float

    @property
    def degraded(self) -> bool:
        return self.action != "admit"

    @property
    def queued(self) -> bool:
        """Whether the request entered a queue: every ticket's did, since a
        request no rung fits is shed instead of ticketed."""
        return True


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

    def __init__(self, profile_for: Callable[[str], Any]) -> None:
        self._profile_for = profile_for
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
        self._frame_s[workload] = (
            (1 - SMOOTHING) * self._frame_s[workload] + SMOOTHING * observed
        )

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


class _Ask(NamedTuple):
    """One admission request as asked, with its SLO class resolved."""

    stream_id: str
    workload: str
    frames: int
    arrival_s: float
    slo: SLOClass


class SLOGateway:
    """Deadline-aware admission in front of a serving cluster.

    Build the cluster with ``policy="edf"`` so admitted deadlines actually
    order the schedule; the gateway only decides *whether* work enters, the
    policy decides *in what order*.
    """

    def __init__(self, cluster: ServingCluster) -> None:
        self.cluster = cluster
        self.cost_model = CostModel(cluster.session.profile)
        #: The fallback's queue, scheduler and cost model, built on first degrade.
        self._fallback: Optional[Tuple[RequestQueue, Scheduler, CostModel]] = None
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

    def _fallback_path(self) -> Tuple[RequestQueue, Scheduler, CostModel]:
        if self._fallback is None:
            session = Session(backend=FALLBACK_BACKEND, cache=ResultCache())
            self._fallback = (
                RequestQueue(policy="edf"),
                Scheduler(session.profile, num_instances=1, policy="edf"),
                CostModel(session.profile),
            )
        return self._fallback

    def _place(
        self,
        target: Union[ServingCluster, RequestQueue],
        cost_model: CostModel,
        shard: int,
        instances: int,
        request: _Ask,
        frames: int,
        action: str,
        where: str,
    ) -> Tuple[float, Optional[AdmissionTicket]]:
        """Estimate ``frames`` of ``request`` on one shard; submit if it fits.

        The completion estimate is the competing backlog, shared across the
        shard's ``instances``, plus this request's own cost: its frames, and
        its parameter load unless the workload is already warm there.  Under
        EDF only work with an equal-or-tighter budget runs ahead of this
        request, so looser classes' backlog does not delay it.  Returns the
        estimate and the ticket, or ``None`` when the budget is busted.
        """
        slo = request.slo
        backlog = self._backlog_s.setdefault(shard, {})
        warm = self._warm.setdefault(shard, set())
        competing = sum(
            seconds
            for name, seconds in backlog.items()
            if DEFAULT_SLO_CLASSES[name].deadline_s <= slo.deadline_s
        )
        own = cost_model.frame_cost_s(request.workload, frames)
        if request.workload not in warm:
            own += cost_model.load_cost_s(request.workload)
        estimate = competing / instances + own
        if estimate > slo.deadline_s:
            return estimate, None
        ticket = AdmissionTicket(
            stream_id=request.stream_id,
            workload=request.workload,
            frames=frames,
            requested_frames=request.frames,
            arrival_s=request.arrival_s,
            deadline_s=request.arrival_s + slo.deadline_s,
            priority=slo.priority,
            slo=slo.name,
            action=action,
            target=where,
            estimated_s=estimate,
        )
        target.submit(
            request.stream_id,
            request.workload,
            frames=frames,
            arrival_s=request.arrival_s,
            deadline_s=ticket.deadline_s,
            priority=slo.priority,
        )
        backlog[slo.name] = backlog.get(slo.name, 0.0) + own
        warm.add(request.workload)
        return estimate, ticket

    def admit(
        self,
        stream_id: str,
        workload: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
    ) -> AdmissionTicket:
        """Admit, degrade, or shed one request (synchronous core).

        Raises :class:`AdmissionRejected` when the budget is busted and the
        class cannot degrade or no rung fits, and propagates the cluster's
        backpressure (:class:`~repro.runtime.cluster.ClusterBackpressure`)
        unchanged — backpressure means "drain and retry", rejection means
        "slow down".
        """
        request = _Ask(stream_id, workload, frames, arrival_s, slo_class(workload))
        slo = request.slo
        shard = self.cluster.route_stream(stream_id)
        estimate, ticket = self._place(
            self.cluster, self.cost_model, shard, self.cluster.instances_per_worker,
            request, frames, "admit", "primary",
        )
        if ticket is None and slo.degradable:
            ticket = self._degrade(request, shard)
        if ticket is None:
            self.stats.shed += 1
            raise AdmissionRejected(
                f"cannot meet the {slo.name!r} deadline for {workload!r} on "
                f"stream {stream_id!r}: estimated {estimate:.3f}s against a "
                f"{slo.deadline_s:.3f}s budget",
                retry_after_s=max(0.0, estimate - slo.deadline_s),
                stream_id=stream_id,
                workload=workload,
                slo=slo.name,
            )
        if ticket.degraded:
            self.degrade_log.append(
                DegradeDecision(
                    stream_id=stream_id,
                    workload=workload,
                    slo=slo.name,
                    action=ticket.action,
                    requested_frames=frames,
                    admitted_frames=ticket.frames,
                    primary_estimate_s=estimate,
                    deadline_budget_s=slo.deadline_s,
                )
            )
            self.stats.degraded += 1
            self.stats.by_action[ticket.action] = self.stats.by_action.get(ticket.action, 0) + 1
        else:
            self.stats.admitted += 1
        self.stats.by_class[slo.name] = self.stats.by_class.get(slo.name, 0) + 1
        return ticket

    def _degrade(self, request: _Ask, shard: int) -> Optional[AdmissionTicket]:
        """The first rung that fits: the fallback, else half the frames on
        the owning shard; ``None`` when neither does."""
        fallback_queue, _, fallback_cost = self._fallback_path()
        _, ticket = self._place(
            fallback_queue, fallback_cost, FALLBACK_SHARD, 1,
            request, request.frames, "fallback_backend", "fallback",
        )
        if ticket is None and request.frames > 1:
            # Halving the ask is the resolution degrade of this serving
            # model: fewer frames of the same stream inside the budget.
            _, ticket = self._place(
                self.cluster, self.cost_model, shard, self.cluster.instances_per_worker,
                request, request.frames // 2, "reduce_frames", "primary",
            )
        return ticket

    def drain_now(self) -> "GatewayReport":
        """Drain the cluster (and the fallback), account, report."""
        schedules = list(self.cluster.run().schedules)
        if self._fallback is not None and len(self._fallback[0]):
            fallback_queue, fallback_scheduler, _ = self._fallback
            schedules.append((FALLBACK_SHARD, fallback_scheduler.run(fallback_queue.drain())))
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
            schedules=tuple(schedules),
            stats=self.stats.snapshot(),
            latency_s=self.latency.percentiles(),
            degrade_log=tuple(self.degrade_log),
        )


@dataclass(frozen=True)
class GatewayReport:
    """Outcome of one gateway drain plus cumulative admission counters."""

    #: Every schedule this drain produced, as ``(shard index, schedule)``;
    #: the fallback reports as shard :data:`FALLBACK_SHARD`.
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
    "DegradeDecision",
    "FALLBACK_BACKEND",
    "FALLBACK_SHARD",
    "GatewayReport",
    "SLOGateway",
]
