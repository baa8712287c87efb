"""Request queue and batching scheduler over simulated eCNN instances.

The serving model: inference requests arrive on named streams (a camera, a
TV upscaler, ...), each asking for some frames of one catalogue workload.
The scheduler groups compatible requests into batches — one model load then
many frames, amortizing the parameter-decode step of Fig. 12 — and places
batches onto the earliest-free of ``num_instances`` simulated eCNN
processors.  Time is analytic: a frame occupies an instance for the
workload's :attr:`~repro.api.results.PerfProfile.frame_latency_s`
and switching workloads charges the profile's parameter-load time.

Everything is deterministic: requests order by the queue's scheduling
policy (FIFO by default: (arrival, sequence number); EDF: (deadline,
priority, arrival, sequence number)), batches form greedily in that order,
and instance ties break by index — the same trace always produces the same
schedule, which is what the regression tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.stats import percentiles_from_sorted

if TYPE_CHECKING:
    from repro.api.results import PerfProfile

#: Drain/batch orderings understood by :class:`RequestQueue` and
#: :class:`Scheduler`.  ``fifo`` is the historical (arrival, seq) order and
#: stays the bit-identical default; ``edf`` is earliest-deadline-first with
#: priority tie-break, used by the SLO gateway.
POLICIES: Tuple[str, ...] = ("fifo", "edf")


def policy_key(policy: str) -> Callable[["InferenceRequest"], Tuple]:
    """Sort key implementing a scheduling policy over requests."""
    if policy == "fifo":
        return lambda r: (r.arrival_s, r.seq)
    if policy == "edf":
        # Earlier absolute deadline first; among equal deadlines a higher
        # priority wins; FIFO order breaks the remaining ties so the
        # schedule stays a pure function of the trace.
        return lambda r: (r.deadline_s, -r.priority, r.arrival_s, r.seq)
    raise ValueError(f"unknown scheduling policy {policy!r}; expected one of {POLICIES}")


@dataclass(frozen=True)
class InferenceRequest:
    """One serving request: ``frames`` frames of ``workload`` on a stream.

    ``deadline_s`` is an *absolute* completion deadline on the same
    simulated clock as ``arrival_s`` (``math.inf`` means "no deadline");
    ``priority`` breaks ties between equal deadlines under the EDF policy.
    Both are plain numbers so requests stay picklable across the cluster's
    process boundary (lint rule ECNN206).
    """

    seq: int
    stream_id: str
    workload: str
    frames: int
    arrival_s: float
    deadline_s: float = math.inf
    priority: int = 0

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError("a request must ask for at least one frame")
        if self.arrival_s < 0:
            raise ValueError("arrival time cannot be negative")
        if math.isnan(self.deadline_s):
            raise ValueError("deadline cannot be NaN (use math.inf for none)")

    @property
    def has_deadline(self) -> bool:
        return math.isfinite(self.deadline_s)


class QueueFull(RuntimeError):
    """Admission refused: a bounded request queue is at capacity.

    The serving cluster maps this to backpressure — the caller must either
    drain (run the schedule) or route the request to another shard.
    """


class RequestQueue:
    """Admission queue assigning globally-ordered sequence numbers.

    Parameters
    ----------
    max_pending:
        Optional bound on queued (undrained) requests.  When the bound is
        reached, :meth:`submit` raises :class:`QueueFull` instead of
        accepting the request — the backpressure signal the cluster's
        per-shard queues rely on.  Unbounded by default (the gateway's fallback
        queue drains synchronously, so depth is naturally limited).
    policy:
        Drain ordering — ``"fifo"`` (default, bit-identical to the
        historical queue) or ``"edf"`` (earliest absolute deadline first,
        priority tie-break).
    """

    def __init__(
        self, max_pending: Optional[int] = None, *, policy: str = "fifo"
    ) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be positive (or None for unbounded)")
        self.max_pending = max_pending
        self.policy = policy
        self._key = policy_key(policy)
        self._pending: List[InferenceRequest] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._pending)

    def submit(
        self,
        stream_id: str,
        workload: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
        deadline_s: float = math.inf,
        priority: int = 0,
    ) -> InferenceRequest:
        """Admit a request; returns the queued record.

        Raises :class:`QueueFull` when a ``max_pending`` bound is set and
        the queue is at capacity.
        """
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            raise QueueFull(
                f"request queue is at capacity ({self.max_pending} pending); "
                "drain the queue or route elsewhere"
            )
        request = InferenceRequest(
            seq=self._next_seq,
            stream_id=stream_id,
            workload=workload,
            frames=frames,
            arrival_s=arrival_s,
            deadline_s=deadline_s,
            priority=priority,
        )
        self._next_seq += 1
        self._pending.append(request)
        return request

    def drain(self) -> List[InferenceRequest]:
        """Remove and return all pending requests in policy order."""
        requests = sorted(self._pending, key=self._key)
        self._pending.clear()
        return requests


@dataclass(frozen=True)
class Batch:
    """Requests of one workload served back-to-back under one model load."""

    workload: str
    requests: Tuple[InferenceRequest, ...]

    @property
    def frames(self) -> int:
        return sum(request.frames for request in self.requests)

    @property
    def ready_s(self) -> float:
        """A batch starts once its last member has arrived."""
        return max(request.arrival_s for request in self.requests)


def form_batches(
    requests: Sequence[InferenceRequest],
    *,
    max_batch_frames: int = 8,
    policy: str = "fifo",
) -> List[Batch]:
    """Group ordered requests into per-workload batches.

    Requests are visited in policy order (FIFO: (arrival, seq); EDF:
    (deadline, -priority, arrival, seq)); each joins the open batch of its
    workload unless that would exceed ``max_batch_frames``, in which case
    the open batch is sealed and a new one starts.  Batches are emitted
    ordered by their first member's policy key, so batch order is a pure
    function of the request set and the policy.
    """
    if max_batch_frames < 1:
        raise ValueError("max_batch_frames must be positive")
    key = policy_key(policy)
    ordered = sorted(requests, key=key)
    sealed: List[Tuple[Tuple, Batch]] = []
    open_batches: Dict[str, List[InferenceRequest]] = {}

    def seal(members: List[InferenceRequest]) -> None:
        first = members[0]
        sealed.append((key(first), Batch(first.workload, tuple(members))))

    for request in ordered:
        members = open_batches.get(request.workload)
        if members is not None and (
            sum(m.frames for m in members) + request.frames > max_batch_frames
        ):
            seal(members)
            members = None
        if members is None:
            open_batches[request.workload] = [request]
        else:
            members.append(request)
    for members in open_batches.values():
        seal(members)
    sealed.sort(key=lambda item: item[0])
    return [batch for _, batch in sealed]


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one served request."""

    request: InferenceRequest
    instance: int
    start_s: float
    completion_s: float

    @property
    def latency_s(self) -> float:
        """Arrival-to-last-frame latency."""
        return self.completion_s - self.request.arrival_s

    @property
    def missed_deadline(self) -> bool:
        """True when the request carried a deadline and completed after it."""
        return self.request.has_deadline and self.completion_s > self.request.deadline_s

    @property
    def lateness_s(self) -> float:
        """Completion minus deadline (negative = early); 0 for no deadline."""
        if not self.request.has_deadline:
            return 0.0
        return self.completion_s - self.request.deadline_s


@dataclass(frozen=True)
class StreamStats:
    """Per-stream serving statistics (the per-stream FPS accounting)."""

    stream_id: str
    workloads: Tuple[str, ...]
    requests: int
    frames: int
    first_arrival_s: float
    last_completion_s: float
    mean_latency_s: float
    max_latency_s: float

    @property
    def span_s(self) -> float:
        return self.last_completion_s - self.first_arrival_s

    @property
    def fps(self) -> float:
        """Frames delivered per second of stream wall time."""
        return self.frames / self.span_s


@dataclass(frozen=True)
class ScheduleResult:
    """The complete outcome of scheduling one drained queue."""

    records: Tuple[RequestRecord, ...]
    batches: Tuple[Batch, ...]
    num_instances: int
    instance_busy_s: Tuple[float, ...]

    @property
    def makespan_s(self) -> float:
        return max((record.completion_s for record in self.records), default=0.0)

    @property
    def total_frames(self) -> int:
        return sum(record.request.frames for record in self.records)

    @property
    def throughput_fps(self) -> float:
        """Aggregate frames per second across all instances."""
        makespan = self.makespan_s
        return self.total_frames / makespan if makespan else 0.0

    def utilization(self, instance: int) -> float:
        makespan = self.makespan_s
        return self.instance_busy_s[instance] / makespan if makespan else 0.0

    def latency_percentiles(
        self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> Dict[float, float]:
        """Nearest-rank latency percentiles over the served requests.

        Exact (no interpolation) and therefore deterministic: quantile
        ``q`` maps to the ``ceil(q * n)``-th smallest latency — for a
        single record every quantile returns that record's latency.
        Returns ``{}`` when nothing was served; invalid quantiles raise
        regardless of whether anything was served.  Rank selection is the
        shared :mod:`repro.core.stats` helper (one implementation for the
        scheduler and the soak accounting).
        """
        latencies = sorted(record.latency_s for record in self.records)
        return percentiles_from_sorted(latencies, quantiles)

    @property
    def deadline_requests(self) -> int:
        """Served requests that carried a finite deadline."""
        return sum(1 for record in self.records if record.request.has_deadline)

    @property
    def deadline_misses(self) -> int:
        """Served requests that completed after their deadline."""
        return sum(1 for record in self.records if record.missed_deadline)

    @property
    def deadline_miss_rate(self) -> float:
        """Misses over deadline-carrying requests (0.0 when none carried one)."""
        carrying = self.deadline_requests
        return self.deadline_misses / carrying if carrying else 0.0

    @property
    def max_lateness_s(self) -> float:
        """Worst completion-minus-deadline over deadline-carrying requests."""
        latenesses = [r.lateness_s for r in self.records if r.request.has_deadline]
        return max(latenesses, default=0.0)

    def stream_stats(self) -> Dict[str, StreamStats]:
        """Per-stream FPS/latency, keyed by stream id (sorted iteration order)."""
        by_stream: Dict[str, List[RequestRecord]] = {}
        for record in self.records:
            by_stream.setdefault(record.request.stream_id, []).append(record)
        stats: Dict[str, StreamStats] = {}
        for stream_id in sorted(by_stream):
            records = by_stream[stream_id]
            latencies = [record.latency_s for record in records]
            stats[stream_id] = StreamStats(
                stream_id=stream_id,
                workloads=tuple(sorted({r.request.workload for r in records})),
                requests=len(records),
                frames=sum(r.request.frames for r in records),
                first_arrival_s=min(r.request.arrival_s for r in records),
                last_completion_s=max(r.completion_s for r in records),
                mean_latency_s=sum(latencies) / len(latencies),
                max_latency_s=max(latencies),
            )
        return stats


@dataclass
class _Instance:
    """Mutable dispatch state of one simulated eCNN processor."""

    index: int
    free_at_s: float = 0.0
    loaded: Optional[str] = None
    busy_s: float = 0.0


class Scheduler:
    """Batch requests and place them on ``num_instances`` eCNN processors.

    Parameters
    ----------
    profiles:
        ``name -> profile`` callable giving each workload's serving figures;
        each cluster worker passes its session's cached ``profile``.
    num_instances:
        Simulated processors serving in parallel.
    max_batch_frames:
        Frame budget per batch; bounds how long one stream can monopolize an
        instance before others get a turn.
    policy:
        Batch-formation ordering — ``"fifo"`` (default, bit-identical to
        the historical scheduler) or ``"edf"``.
    """

    def __init__(
        self,
        profiles: Callable[[str], "PerfProfile"],
        *,
        num_instances: int = 1,
        max_batch_frames: int = 8,
        policy: str = "fifo",
    ) -> None:
        if num_instances < 1:
            raise ValueError("need at least one instance")
        policy_key(policy)  # validate eagerly
        self._profile_for = profiles
        self.num_instances = num_instances
        self.max_batch_frames = max_batch_frames
        self.policy = policy

    def run(self, requests: Sequence[InferenceRequest]) -> ScheduleResult:
        """Schedule ``requests`` and return the full timing record."""
        batches = form_batches(
            requests, max_batch_frames=self.max_batch_frames, policy=self.policy
        )
        instances = [_Instance(index) for index in range(self.num_instances)]
        records: List[RequestRecord] = []
        for batch in batches:
            profile = self._profile_for(batch.workload)
            instance = min(instances, key=lambda i: (i.free_at_s, i.index))
            start = max(instance.free_at_s, batch.ready_s)
            cursor = start
            if instance.loaded != batch.workload:
                cursor += profile.load_time_s
                instance.loaded = batch.workload
            for request in batch.requests:
                cursor += request.frames * profile.frame_latency_s
                records.append(
                    RequestRecord(
                        request=request,
                        instance=instance.index,
                        start_s=start,
                        completion_s=cursor,
                    )
                )
            instance.busy_s += cursor - start
            instance.free_at_s = cursor
        return ScheduleResult(
            records=tuple(records),
            batches=tuple(batches),
            num_instances=self.num_instances,
            instance_busy_s=tuple(instance.busy_s for instance in instances),
        )
