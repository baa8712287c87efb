"""The soak harness: replay a seeded trace through the cluster, kill workers,
prove nothing was lost.

:func:`run_soak` drives a :class:`~repro.runtime.cluster.ServingCluster`
with a lazy trace from :mod:`repro.soak.tracegen` in fixed-size admission
*windows*: submit up to ``window`` requests, drain (:meth:`run`), account
every served request against the admission ledger, repeat.  A chaos schedule
of ``kill-worker@F`` events kills a live worker once a fraction ``F`` of the
trace has been replayed; after every applied kill the harness re-verifies
that a surviving shard's pixel output is **bit-identical** to a
pre-computed single-process reference (the repository's parity discipline).

Exactly-once accounting
-----------------------
Every admitted request increments a ledger counter keyed by its identity
``(stream, workload, frames, arrival)``; every served request record
decrements it.  A positive residue at the end is a *lost* request, a
negative residue a *duplicated* one — either raises
:class:`SoakIntegrityError`.  The ledger only holds in-flight keys
(entries are deleted at zero), so memory stays O(window), not O(requests).

Admission either goes straight to the cluster or, with
``SoakConfig.gateway``, through an SLO gateway
(:class:`~repro.gateway.SLOGateway`) fronting an EDF-policy cluster:
requests carry per-class deadlines, overload is shed or gracefully
degraded, and the report gains deadline/degradation counters.  Either way
a :class:`~repro.runtime.cluster.ClusterBackpressure` does not fail the
window: the submit loop drains and retries, and sheds only after
``submit_retries`` retries.

Everything in the :class:`SoakReport` except ``wall_s`` is deterministic
for a fixed config (:meth:`SoakReport.deterministic_dict`).
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.workloads import synthetic_image
from repro.api import Session
from repro.core.stats import LatencyHistogram
from repro.gateway import AdmissionRejected, SLOGateway
from repro.runtime.cache import ResultCache
from repro.runtime.cluster import ClusterBackpressure, ServingCluster
from repro.soak.tracegen import ARRIVALS, arrival_trace

#: Accelerator backend every soak worker and the parity reference serve;
#: the cluster's other sizing (instances per worker, batch frames) is its
#: default.
BACKEND = "ecnn"

#: Workload + square frame size of the post-kill parity probe.
PARITY_WORKLOAD = "denoise"
PARITY_SIZE = 24

LedgerKey = Tuple[str, str, int, float]


class SoakError(RuntimeError):
    """Base class for soak harness failures."""


class SoakIntegrityError(SoakError):
    """Exactly-once accounting was violated (lost or duplicated requests)."""


class SoakParityError(SoakError):
    """Post-kill pixels diverged from the single-process reference."""


class ChaosSpecError(ValueError):
    """A chaos spec string could not be parsed."""


@dataclass(frozen=True)
class ChaosEvent:
    """Kill one live worker once ``at_fraction`` of the trace is replayed."""

    at_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.at_fraction <= 1.0:
            raise ChaosSpecError(f"chaos fraction {self.at_fraction} outside [0, 1]")

    @classmethod
    def parse(cls, spec: str) -> "ChaosEvent":
        """Parse ``kill-worker@50%`` or ``kill-worker@0.5``."""
        kind, at, where = spec.partition("@")
        if not at:
            raise ChaosSpecError(
                f"bad chaos spec {spec!r}: expected kill-worker@fraction "
                "(e.g. kill-worker@50%)"
            )
        if kind.strip() != "kill-worker":
            raise ChaosSpecError(
                f"unknown chaos kind {kind.strip()!r}; expected 'kill-worker'"
            )
        where = where.strip()
        try:
            fraction = (
                float(where[:-1]) / 100.0 if where.endswith("%") else float(where)
            )
        except ValueError as exc:
            raise ChaosSpecError(f"bad chaos fraction {where!r} in {spec!r}") from exc
        return cls(at_fraction=fraction)

    def render(self) -> str:
        return f"kill-worker@{self.at_fraction:.0%}"


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs; fully determines the report
    (modulo ``wall_s``)."""

    requests: int = 10_000
    workers: int = 2
    #: Arrival process, a key of :data:`~repro.soak.tracegen.ARRIVALS`.
    arrival: str = "poisson"
    users: int = 1_000
    seed: int = 0
    #: Admission window: submit this many requests, then drain.
    window: int = 2_048
    max_pending: int = 4_096
    cluster_mode: str = "auto"
    #: Kill schedule (parsed :class:`ChaosEvent` entries).
    chaos: Tuple[ChaosEvent, ...] = ()
    #: Serve through an SLO gateway (EDF cluster policy, deadline admission
    #: control, graceful degradation) instead of raw FIFO submission.
    gateway: bool = False
    #: Drain-and-retry attempts per backpressured submit before shedding.
    submit_retries: int = 4

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; expected one of "
                f"{sorted(ARRIVALS)}"
            )
        if self.submit_retries < 0:
            raise ValueError("submit_retries cannot be negative")


@dataclass(frozen=True)
class SoakReport:
    """The outcome of one soak run; :meth:`save` writes it as JSON."""

    config: Dict[str, Any]
    live_workers_end: int
    admitted: int
    served: int
    shed: int
    backpressure_hits: int
    #: Backpressured submits retried after a drain.
    retries: int
    #: Requests served degraded by the gateway (0 without ``gateway``).
    degraded: int
    #: Deadline-carrying requests served / served past their deadline.
    deadline_requests: int
    deadline_misses: int
    lost: int
    duplicated: int
    requeued: int
    total_frames: int
    #: Nearest-rank latency percentiles, e.g. ``{"p50": ..., "p99": ...}``.
    latency_s: Dict[str, float]
    #: One entry per scheduled kill, in firing order.
    chaos_applied: List[Dict[str, Any]]
    #: Post-kill parity probes executed (every one was bit-identical).
    parity_checks: int
    #: Wall-clock seconds — the only nondeterministic field.
    wall_s: float

    def deterministic_dict(self) -> Dict[str, Any]:
        """The report minus ``wall_s`` — byte-stable for a fixed config."""
        data = asdict(self)
        del data["wall_s"]
        return data

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path

    def render(self) -> str:
        """The human soak report."""
        from repro.analysis.report import format_table

        counters = format_table(
            "Soak outcome",
            ["metric", "value"],
            [
                ("requests admitted", self.admitted),
                ("requests served", self.served),
                ("requests shed", self.shed),
                ("backpressure hits", self.backpressure_hits),
                ("backpressure retries", self.retries),
                ("requests degraded", self.degraded),
                (
                    "deadline misses",
                    f"{self.deadline_misses}/{self.deadline_requests}"
                    if self.deadline_requests
                    else "n/a",
                ),
                ("requests requeued", self.requeued),
                ("lost", self.lost),
                ("duplicated", self.duplicated),
                ("frames served", self.total_frames),
                (
                    "latency p50/p95/p99 (ms)",
                    "/".join(
                        f"{self.latency_s[key] * 1e3:.2f}"
                        for key in ("p50", "p95", "p99")
                    )
                    if self.latency_s
                    else "n/a",
                ),
                ("post-chaos parity checks", self.parity_checks),
            ],
        )
        chaos_rows = [
            (
                f"kill-worker@{entry['at_fraction']:.0%}",
                entry["fired_at"],
                "yes" if entry["applied"] else "no (last live shard)",
                "-" if entry["victim"] is None else entry["victim"],
            )
            for entry in self.chaos_applied
        ] or [("(none)", "-", "-", "-")]
        chaos = format_table(
            "Chaos events", ["event", "fired at", "applied", "victim"], chaos_rows
        )
        summary = (
            f"soak of {self.admitted} requests on {self.config['workers']} "
            f"worker(s), {self.live_workers_end} live at end; "
            f"exactly-once verified, {self.parity_checks} parity probes "
            f"bit-identical; wall {self.wall_s:.1f}s"
        )
        return "\n\n".join([counters, chaos, summary])


@dataclass
class _Accounting:
    """Mutable run state: the ledger and every counter the report needs."""

    ledger: Dict[LedgerKey, int] = field(default_factory=dict)
    admitted: int = 0
    served: int = 0
    shed: int = 0
    backpressure_hits: int = 0
    retries: int = 0
    degraded: int = 0
    deadline_requests: int = 0
    deadline_misses: int = 0
    total_frames: int = 0
    #: Log-binned (not a raw latency list): percentile memory stays O(1).
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def admit(self, key: LedgerKey) -> None:
        self.admitted += 1
        count = self.ledger.get(key, 0) + 1
        if count:
            self.ledger[key] = count
        else:
            del self.ledger[key]

    def serve(self, key: LedgerKey) -> None:
        self.served += 1
        count = self.ledger.get(key, 0) - 1
        if count:
            self.ledger[key] = count
        else:
            self.ledger.pop(key, None)

    def residue(self) -> Tuple[int, int]:
        """(lost, duplicated) request counts left in the ledger."""
        lost = sum(count for count in self.ledger.values() if count > 0)
        duplicated = -sum(count for count in self.ledger.values() if count < 0)
        return lost, duplicated


def _drain(
    cluster: ServingCluster,
    accounting: _Accounting,
    gateway: Optional[SLOGateway] = None,
) -> None:
    """Run the queues dry and account every served record.

    With a gateway, the drain goes through it, so the fallback's degraded
    schedules are accounted too.
    """
    report = gateway.drain_now() if gateway is not None else cluster.run()
    for _, schedule in report.schedules:
        for record in schedule.records:
            request = record.request
            accounting.serve(
                (request.stream_id, request.workload, request.frames, request.arrival_s)
            )
            accounting.total_frames += request.frames
            accounting.latency.observe(record.latency_s)
        accounting.deadline_requests += schedule.deadline_requests
        accounting.deadline_misses += schedule.deadline_misses


def _submit_with_retry(
    submit_once: Callable[[], LedgerKey],
    drain: Callable[[], None],
    accounting: _Accounting,
    retries: int,
) -> Optional[LedgerKey]:
    """One admission, draining and retrying on backpressure.

    Returns the admitted ledger key (``None`` when the request was shed
    after ``retries`` retries).  Cluster time is simulated, so the drain
    between attempts is what frees capacity.
    :class:`~repro.gateway.AdmissionRejected` is *not* retried: rejection
    means "slow down", not "drain and retry".
    """
    for attempt in range(retries + 1):
        try:
            return submit_once()
        except ClusterBackpressure:
            accounting.backpressure_hits += 1
            if attempt == retries:
                accounting.shed += 1
                return None
            accounting.retries += 1
            drain()
    return None


def _kill(cluster: ServingCluster, event: ChaosEvent, progress: int) -> Dict[str, Any]:
    """Fire one kill; skipped (``applied: False``) on the last live shard."""
    entry: Dict[str, Any] = {
        "at_fraction": event.at_fraction,
        "fired_at": progress,
        "applied": False,
        "victim": None,
        "displaced_hint": 0,
    }
    if len(cluster.live_shard_indices()) > 1:
        depth_before = cluster.queue_depths()
        victim = cluster.kill_worker()
        entry.update(
            applied=True, victim=victim, displaced_hint=depth_before.get(victim, 0)
        )
    return entry


def run_soak(config: SoakConfig) -> SoakReport:
    """Run one soak: replay, kill, verify, report (see the module docstring)."""
    started = time.monotonic()
    probe = synthetic_image(PARITY_SIZE, PARITY_SIZE, seed=config.seed)
    reference = (
        Session(backend=BACKEND, cache=ResultCache())
        .execute(PARITY_WORKLOAD, probe, cached=False)
        .output.data
    )
    accounting = _Accounting()
    kills = sorted(config.chaos, key=lambda event: event.at_fraction)
    chaos_applied: List[Dict[str, Any]] = []
    parity_checks = 0
    events = itertools.islice(
        arrival_trace(
            users=config.users, seed=config.seed, burst_size=ARRIVALS[config.arrival]
        ),
        config.requests,
    )
    with ServingCluster(
        workers=config.workers,
        backend=BACKEND,
        max_pending=config.max_pending,
        mode=config.cluster_mode,
        policy="edf" if config.gateway else "fifo",
    ) as cluster:
        gateway = SLOGateway(cluster) if config.gateway else None

        def drain() -> None:
            _drain(cluster, accounting, gateway)

        def submit_once(event: Any) -> LedgerKey:
            """One admission; the ledger key of what actually entered a queue.

            Through the gateway the key carries the *ticket's* identity —
            a frame-reducing degrade changes the admitted frame count, and
            exactly-once accounting must reconcile against what was
            admitted, not what was asked.
            """
            if gateway is None:
                cluster.submit(
                    event.stream_id,
                    event.workload,
                    frames=event.frames,
                    arrival_s=event.time_s,
                )
                return (event.stream_id, event.workload, event.frames, event.time_s)
            ticket = gateway.admit(
                event.stream_id,
                event.workload,
                frames=event.frames,
                arrival_s=event.time_s,
            )
            if ticket.degraded:
                accounting.degraded += 1
            return (ticket.stream_id, ticket.workload, ticket.frames, ticket.arrival_s)

        for processed, event in enumerate(events, start=1):
            try:
                key = _submit_with_retry(
                    lambda event=event: submit_once(event),
                    drain,
                    accounting,
                    config.submit_retries,
                )
            except AdmissionRejected:
                accounting.shed += 1
                key = None
            # Kill thresholds are fractions of the *trace*, so kills still
            # fire mid-burst when the gateway sheds or degrades most of the
            # overload and the admitted count lags far behind.
            while kills and processed >= kills[0].at_fraction * config.requests:
                entry = _kill(cluster, kills.pop(0), processed)
                chaos_applied.append(entry)
                if entry["applied"]:
                    result = cluster.execute_frame(PARITY_WORKLOAD, probe, cached=False)
                    if not np.array_equal(result.output.data, reference):
                        raise SoakParityError(
                            f"post-kill parity violation on {PARITY_WORKLOAD!r}: "
                            "surviving-shard pixels diverged from the "
                            "single-process reference"
                        )
                    parity_checks += 1
            if key is None:
                continue  # rejected, or shed after retries
            accounting.admit(key)
            if accounting.admitted % config.window == 0:
                drain()
        drain()  # whatever the last partial window admitted
        lost, duplicated = accounting.residue()
        if lost or duplicated:
            raise SoakIntegrityError(
                f"exactly-once violated: {lost} lost, {duplicated} duplicated "
                f"of {accounting.admitted} admitted requests"
            )
        stats = cluster.stats()
        return SoakReport(
            config={
                "requests": config.requests,
                "workers": config.workers,
                "arrival": config.arrival,
                "users": config.users,
                "seed": config.seed,
                "window": config.window,
                "max_pending": config.max_pending,
                "cluster_mode": config.cluster_mode,
                "gateway": config.gateway,
                "submit_retries": config.submit_retries,
                "chaos": [event.render() for event in config.chaos],
            },
            live_workers_end=stats.live_workers,
            admitted=accounting.admitted,
            served=accounting.served,
            shed=accounting.shed,
            backpressure_hits=accounting.backpressure_hits,
            retries=accounting.retries,
            degraded=accounting.degraded,
            deadline_requests=accounting.deadline_requests,
            deadline_misses=accounting.deadline_misses,
            lost=lost,
            duplicated=duplicated,
            requeued=stats.requeued,
            total_frames=accounting.total_frames,
            latency_s=accounting.latency.percentiles(),
            chaos_applied=chaos_applied,
            parity_checks=parity_checks,
            wall_s=time.monotonic() - started,
        )
