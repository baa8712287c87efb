"""Sharded multi-worker serving: the scale-out tier above the engine.

:class:`ServingCluster` spreads the serving catalogue across a pool of
worker *processes*.  Each worker is one pinned :class:`~repro.api.Session`
— rebuilt inside the worker from a picklable
:class:`~repro.api.SessionHandle`, with its own scoped analytic and frame
caches and process-local hot-path memos.  Pixel, profile, stats and
eviction commands are answered straight from that session; only ``run``
goes through a :class:`~repro.runtime.engine.ServingEngine` over it, which
schedules the shard's queued requests on ``instances_per_worker``
simulated accelerator instances.  The cluster is to the engine what the
engine is to one processor: the engine batches requests across instances,
the cluster shards streams across engines.

Semantics (documented in ``docs/serving.md``):

* **Routing** — one route function ranks the live shards by
  highest-random-weight hashing: a pixel frame by the content digest its
  frame-cache key names (alone or in a burst, it lands on the worker that
  caches it), a profile by workload name; only a dead shard's keys move.
  Streams get a sticky placement that also balances streams per shard
  (ties break by hash rank), so their requests stay ordered on one shard.
* **Backpressure** — every shard fronts a bounded
  :class:`~repro.runtime.scheduler.RequestQueue`; when a shard's queue is
  at ``max_pending`` requests, :meth:`ServingCluster.submit` raises
  :class:`ClusterBackpressure` instead of buffering unboundedly.
* **Failure recovery** — every serving call goes through one scatter/gather
  loop (``ServingCluster._scatter``): a worker that dies or stops answering
  is marked dead, the items it held are re-routed through the remaining
  live shards (the ``requeued`` counter in :class:`ClusterStats` counts
  each displaced item once per call), and routing re-assigns its
  streams and frames.  The cluster only fails when no shard is left.
* **Fallback** — worker processes are started with the cheapest available
  start method (``fork`` where the platform allows, so workers inherit the
  parent's warm memos; ``spawn`` otherwise).  A worker builds only its
  ``warm_plans`` at startup; any other plan or profile is built on first
  use.  Sandboxes that forbid spawning processes fall back to in-process
  shards transparently (``mode == "inline"``), mirroring
  :class:`~repro.runtime.sweep.ParallelSweep`.
* **Fault injection** — :meth:`ServingCluster.kill_worker` kills a live
  worker (the OS process in process mode — death is *discovered* at the
  next dispatch, exactly like a real crash — or an immediate mark-dead
  inline); the soak harness (:mod:`repro.soak`) fires it on a
  ``kill-worker@F`` schedule.  :meth:`ServingCluster.evict_frame_caches`
  drops the workers' pixel caches — whole-frame cache *and* video-stream
  delta state, through the one shared invalidation path
  (:meth:`repro.api.Session.evict_pixel_caches`).  A pluggable
  ``fault_hook`` callable is invoked at documented points inside
  :meth:`ServingCluster.run` (``"run:start"``, ``"run:round"``) so tests
  can inject failures deterministically *while requests are in flight*.

Outputs are bit-identical to a single-process :class:`~repro.api.Session`
on the same backend — every worker runs the very same deterministic
execution paths — which the cluster and parity test suites pin.
"""

from __future__ import annotations

import hashlib
import math
import queue as queue_module
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.results import PerfProfile, PlanHandle
from repro.api.session import Session, SessionHandle, frame_digest
from repro.core.pipeline import InferenceResult
from repro.hw.config import DEFAULT_CONFIG, EcnnConfig
from repro.nn.tensor import FeatureMap
from repro.runtime.cache import CacheStats, ResultCache
from repro.runtime.engine import ServingEngine, ServingReport
from repro.runtime.scheduler import QueueFull, RequestQueue, policy_key
from repro.runtime.trace import TrafficTrace
from repro.runtime.video import StreamFrameResult, VideoStreamStats


class ClusterError(RuntimeError):
    """The cluster cannot serve: no live shard is left (or it is closed)."""


class ClusterBackpressure(QueueFull):
    """A shard's bounded queue refused admission (drain or retry later)."""


class ClusterWorkerError(RuntimeError):
    """A worker raised while executing a command (the work itself failed)."""


class _ShardFailure(Exception):
    """Internal: the shard (not the work) failed — requeue elsewhere."""


#: Exception types a worker may legitimately raise for *bad requests*; they
#: re-raise under the same type at the coordinator so callers see the usual
#: contract (unknown workload -> KeyError, recognition pixels -> ValueError).
_RERAISABLE = {"ValueError": ValueError, "KeyError": KeyError, "TypeError": TypeError}

#: Request id of the one-time worker startup acknowledgement.
_READY = -1


def _describe_error(exc: BaseException) -> Tuple[str, str]:
    return (type(exc).__name__, str(exc))


def _reraise(kind: str, message: str) -> None:
    if kind in _RERAISABLE:
        raise _RERAISABLE[kind](message)
    raise ClusterWorkerError(f"{kind}: {message}")


# --------------------------------------------------------------------- worker
class _WorkerState:
    """Everything one worker owns: pinned session, its ``run`` engine, warm plans."""

    def __init__(
        self,
        handle: SessionHandle,
        instances: int,
        max_batch_frames: int,
        warm_plans: Tuple[PlanHandle, ...],
        policy: str = "fifo",
    ) -> None:
        self.session = handle.create()
        self.engine = ServingEngine(
            num_instances=instances,
            max_batch_frames=max_batch_frames,
            backend=self.session,
            policy=policy,
        )
        # Build only the plans the cluster was told it serves; every other
        # plan and profile is built on first use and memoized by the
        # session's cache.  Under the fork start method whatever the parent
        # built before starting the cluster arrives copy-on-write.
        for plan in warm_plans:
            plan.resolve(self.session)


def _execute_command(state: _WorkerState, command: str, payload: Any) -> Any:
    """The one dispatch table shared by process workers and inline shards.

    ``run`` drains through the worker's engine (queue + scheduler); every
    other command is answered straight from the worker's session.
    """
    session = state.session
    if command == "run":
        for stream_id, workload_name, frames, arrival_s, deadline_s, priority in payload:
            state.engine.submit(
                stream_id,
                workload_name,
                frames=frames,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                priority=priority,
            )
        return state.engine.run()
    if command == "execute_frames":
        workload_name, frames, digests, cached = payload
        return session.execute_many(workload_name, frames, cached=cached, digests=digests)
    if command == "execute_stream":
        stream_id, workload_name, frame, output_block = payload
        return session.execute_stream(
            stream_id, workload_name, frame, output_block=output_block
        )
    if command == "profile":
        return session.profile(payload)
    if command == "stats":
        return session.cache.stats, session.frame_cache_stats, session.video_stream_stats
    if command == "evict_frame_cache":
        # One shared invalidation path: the whole-frame cache and every
        # video stream's block cache (plus its predecessor frame) drop
        # together, so a chaos eviction can never leave a stale delta
        # block servable (see Session.evict_pixel_caches).
        return session.evict_pixel_caches()
    raise ValueError(f"unknown cluster command {command!r}")


def _worker_main(
    handle: SessionHandle,
    instances: int,
    max_batch_frames: int,
    warm_plans: Tuple[PlanHandle, ...],
    policy: str,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Worker process entry point: build state, ack, serve the command loop."""
    try:
        state = _WorkerState(handle, instances, max_batch_frames, warm_plans, policy)
    except Exception as exc:  # startup failed: report instead of dying silently
        result_queue.put((_READY, False, _describe_error(exc)))
        return
    result_queue.put((_READY, True, None))
    while True:
        message = task_queue.get()
        if message is None:
            return
        request_id, command, payload = message
        try:
            result_queue.put((request_id, True, _execute_command(state, command, payload)))
        except Exception as exc:
            result_queue.put((request_id, False, _describe_error(exc)))


# --------------------------------------------------------------------- shards
class _InlineShard:
    """An in-process shard: same dispatch table, no process boundary."""

    def __init__(
        self,
        index: int,
        handle: SessionHandle,
        instances: int,
        max_batch_frames: int,
        warm_plans: Tuple[PlanHandle, ...],
        max_pending: Optional[int],
        policy: str = "fifo",
    ) -> None:
        self.index = index
        self.alive = True
        self.queue = RequestQueue(max_pending=max_pending, policy=policy)
        self._state = _WorkerState(handle, instances, max_batch_frames, warm_plans, policy)
        self._results: Dict[int, Tuple[bool, Any]] = {}
        self._next_id = 0

    def send(self, command: str, payload: Any) -> int:
        """Execute immediately (inline has no concurrency) and stash the result."""
        if not self.alive:
            # Same contract as a dead worker process: dispatching to a
            # killed inline shard is a shard failure, so chaos injection
            # (kill_worker, the run() fault hook) exercises the very same
            # recovery paths without needing real processes.
            raise _ShardFailure(f"shard {self.index} is dead")
        self._next_id += 1
        try:
            self._results[self._next_id] = (True, _execute_command(self._state, command, payload))
        except Exception as exc:
            self._results[self._next_id] = (False, _describe_error(exc))
        return self._next_id

    def receive(self, request_id: int, timeout_s: float) -> Any:
        ok, value = self._results.pop(request_id)
        if not ok:
            _reraise(*value)
        return value

    def close(self) -> None:
        self.alive = False


class _ProcessShard:
    """A shard backed by one worker process and a private queue pair."""

    #: Poll interval while waiting on the result queue; short enough that a
    #: killed worker is noticed promptly, long enough not to spin.
    _POLL_S = 0.1

    def __init__(
        self,
        index: int,
        context: Any,
        handle: SessionHandle,
        instances: int,
        max_batch_frames: int,
        warm_plans: Tuple[PlanHandle, ...],
        max_pending: Optional[int],
        policy: str = "fifo",
    ) -> None:
        self.index = index
        self.alive = True
        self.queue = RequestQueue(max_pending=max_pending, policy=policy)
        self._tasks = context.Queue()
        self._results = context.Queue()
        self._next_id = 0
        self._process = context.Process(
            target=_worker_main,
            args=(handle, instances, max_batch_frames, warm_plans, policy,
                  self._tasks, self._results),
            daemon=True,
            name=f"repro-cluster-shard-{index}",
        )
        self._process.start()

    def wait_ready(self, timeout_s: float) -> None:
        """Block until the worker acks its startup (raises on failure)."""
        request_id, ok, value = self._drain_until(_READY, timeout_s)
        if not ok:
            raise _ShardFailure(f"shard {self.index} failed to start: {value}")

    def send(self, command: str, payload: Any) -> int:
        if not self.alive:
            raise _ShardFailure(f"shard {self.index} is dead")
        self._next_id += 1
        try:
            self._tasks.put((self._next_id, command, payload))
        except (OSError, ValueError) as exc:
            raise _ShardFailure(f"shard {self.index}: cannot dispatch: {exc}") from exc
        return self._next_id

    def receive(self, request_id: int, timeout_s: float) -> Any:
        _, ok, value = self._drain_until(request_id, timeout_s)
        if not ok:
            _reraise(*value)
        return value

    def _drain_until(self, request_id: int, timeout_s: float) -> Tuple[int, bool, Any]:
        """Pull replies until ``request_id`` answers, watching worker health."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                message = self._results.get(timeout=self._POLL_S)
            except queue_module.Empty:
                if not self._process.is_alive():
                    raise _ShardFailure(
                        f"shard {self.index}: worker process died "
                        f"(exit code {self._process.exitcode})"
                    ) from None
                if time.monotonic() > deadline:
                    raise _ShardFailure(
                        f"shard {self.index}: no reply within {timeout_s:.0f}s"
                    ) from None
                continue
            if message[0] == request_id:
                return message
            # Stale reply from a call that was abandoned after a timeout.

    def close(self) -> None:
        self.alive = False
        if self._process.is_alive():
            try:
                self._tasks.put(None)
                self._process.join(timeout=5.0)
            except (OSError, ValueError):
                pass
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
        # Drop the queue feeder threads so interpreter shutdown never blocks.
        for channel in (self._tasks, self._results):
            try:
                channel.cancel_join_thread()
                channel.close()
            except (OSError, ValueError):
                pass


# ------------------------------------------------------------------- reports
@dataclass(frozen=True)
class ShardStats:
    """One shard's health and counters inside :class:`ClusterStats`."""

    shard: int
    alive: bool
    #: Requests admitted but not yet drained into a schedule.
    queue_depth: int
    #: Streams currently routed to this shard.
    streams: Tuple[str, ...]
    served_requests: int
    served_frames: int
    #: The worker session's analytic cache counters (``None`` for a dead shard).
    cache: Optional[CacheStats] = None
    #: The worker session's pixel frame-cache counters (``None`` for a dead shard).
    frame_cache: Optional[CacheStats] = None
    #: Delta-reuse counters of the worker's video streams (empty for a dead
    #: shard or a worker that served no ``execute_stream`` traffic).
    video_streams: Tuple[VideoStreamStats, ...] = ()


@dataclass(frozen=True)
class ClusterStats:
    """Aggregated health of a :class:`ServingCluster`."""

    backend: str
    mode: str
    shards: Tuple[ShardStats, ...]
    #: Requests displaced by worker failures.  Each queued or in-flight
    #: request counts **once per serving call**, no matter how many shards
    #: die underneath it before it lands (a rapid double-kill moves a
    #: request twice but displaces it once) — so the counter reconciles
    #: against admissions: within one call, ``requeued`` can never exceed
    #: the number of distinct requests dispatched.  A frame repeated within
    #: one burst is dispatched once, so it counts once here while the
    #: shard's ``served_frames`` counts every position it filled.
    requeued: int

    @property
    def workers(self) -> int:
        return len(self.shards)

    @property
    def live_workers(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    @property
    def total_queue_depth(self) -> int:
        return sum(shard.queue_depth for shard in self.shards)

    @property
    def total_served_frames(self) -> int:
        return sum(shard.served_frames for shard in self.shards)

    def describe(self) -> str:
        return (
            f"{self.live_workers}/{self.workers} workers live ({self.mode}), "
            f"{self.total_queue_depth} queued, "
            f"{self.total_served_frames} frames served, "
            f"{self.requeued} requeued"
        )


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of one :meth:`ServingCluster.run`: per-shard serving reports."""

    backend: str
    mode: str
    workers: int
    #: (shard index, that shard's engine report), sorted by shard index;
    #: shards that had no routed requests are omitted, and a shard that
    #: absorbed requeued work after a failure contributes one report per
    #: schedule it ran.
    shard_reports: Tuple[Tuple[int, ServingReport], ...]

    @property
    def total_frames(self) -> int:
        return sum(
            report.schedule.total_frames for _, report in self.shard_reports
        )

    @property
    def makespan_s(self) -> float:
        """Simulated wall time: shards serve concurrently from a shared origin."""
        return max(
            (report.schedule.makespan_s for _, report in self.shard_reports),
            default=0.0,
        )

    @property
    def throughput_fps(self) -> float:
        makespan = self.makespan_s
        return self.total_frames / makespan if makespan else 0.0

    def render(self) -> str:
        """The CLI's per-shard throughput report."""
        from repro.analysis.report import format_table

        rows = []
        for shard, report in self.shard_reports:
            schedule = report.schedule
            streams = schedule.stream_stats()
            rows.append(
                (
                    shard,
                    "+".join(sorted(streams)),
                    len(schedule.records),
                    schedule.total_frames,
                    round(schedule.makespan_s * 1e3, 2),
                    round(schedule.throughput_fps, 1),
                    f"{report.cache.hit_rate:.0%}",
                )
            )
        table = format_table(
            "Per-shard serving report",
            ["shard", "streams", "requests", "frames", "makespan (ms)", "fps", "cache hits"],
            rows,
        )
        summary = (
            f"cluster served {self.total_frames} frames on {self.workers} "
            f"{self.backend} worker(s) ({self.mode} shards); "
            f"makespan {self.makespan_s * 1e3:.2f} ms, "
            f"aggregate {self.throughput_fps:.1f} fps"
        )
        return "\n\n".join([table, summary])


# -------------------------------------------------------------------- cluster
class ServingCluster:
    """Shard catalogue serving across a pool of worker processes.

    Parameters
    ----------
    workers:
        Number of shards (one pinned session + engine per shard).
    backend:
        Backend registry name, or a :class:`~repro.api.Session` whose
        :meth:`~repro.api.Session.handle` describes the workers' sessions.
    config:
        Hardware configuration forwarded to every worker session.
    instances_per_worker:
        Simulated accelerator instances inside each worker's engine.
    max_batch_frames:
        Scheduler batch budget inside each worker.
    max_pending:
        Bound of each shard's admission queue (requests); when a shard is
        full, :meth:`submit` raises :class:`ClusterBackpressure`.
    warm_plans:
        :class:`~repro.api.PlanHandle` list every worker resolves at
        startup, pre-compiling the pixel workloads it will serve; every
        other plan and profile is built on first use.
    mode:
        ``"process"`` (require worker processes), ``"inline"`` (in-process
        shards, no parallelism — tests and constrained sandboxes), or
        ``"auto"`` (processes when the platform allows, inline fallback).
    policy:
        Queue/scheduler ordering inside every shard — ``"fifo"`` (default,
        bit-identical to the historical cluster) or ``"edf"`` for the SLO
        gateway's deadline-aware serving.
    start_timeout_s / call_timeout_s:
        How long to wait for worker startup acks / command replies before
        declaring a shard dead.
    fault_hook:
        Optional callable ``hook(cluster, point)`` invoked at documented
        injection points inside :meth:`run` (``"run:start"`` once per
        call, ``"run:round"`` before every dispatch round).  Chaos tests
        use it to kill shards deterministically while their requests are
        in flight; it must not submit or drain work itself.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        backend: Union[str, Session] = "ecnn",
        config: EcnnConfig = DEFAULT_CONFIG,
        instances_per_worker: int = 1,
        max_batch_frames: int = 8,
        max_pending: Optional[int] = 256,
        warm_plans: Sequence[PlanHandle] = (),
        frame_cache_entries: Optional[int] = 64,
        mode: str = "auto",
        policy: str = "fifo",
        start_timeout_s: float = 120.0,
        call_timeout_s: float = 600.0,
        fault_hook: Optional[Callable[["ServingCluster", str], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if instances_per_worker < 1:
            raise ValueError("instances_per_worker must be positive")
        if mode not in ("auto", "process", "inline"):
            raise ValueError(f"unknown cluster mode {mode!r}")
        policy_key(policy)  # validate eagerly
        if isinstance(backend, Session):
            self.session = backend
            self._handle = backend.handle()
        else:
            self.session = Session(
                backend=backend,
                config=config,
                cache=ResultCache(),
                frame_cache_entries=frame_cache_entries,
            )
            self._handle = self.session.handle()
        self.workers = workers
        self.instances_per_worker = instances_per_worker
        self.max_batch_frames = max_batch_frames
        self.max_pending = max_pending
        self.policy = policy
        self.call_timeout_s = call_timeout_s
        self.fault_hook = fault_hook
        self.requeued = 0
        self._closed = False
        #: Per-shard-index serving counters behind :class:`ShardStats`.
        self._served_requests: Counter[int] = Counter()
        self._served_frames: Counter[int] = Counter()
        self._stream_shard: Dict[str, int] = {}
        #: Live-stream count per shard index, maintained incrementally so
        #: balanced routing stays O(workers) per placement even with
        #: millions of streams (the soak harness's user populations).
        self._stream_counts: Dict[int, int] = {}
        warm = tuple(warm_plans)
        for plan in warm:
            if plan.backend != self.backend_name:
                raise ValueError(
                    f"warm plan {plan.workload!r} targets backend "
                    f"{plan.backend!r}, cluster runs {self.backend_name!r}"
                )
        self.mode = "inline"
        self._shards: List[Any] = []
        if mode in ("auto", "process"):
            try:
                self._shards = self._start_processes(warm, start_timeout_s)
                self.mode = "process"
            except (_ShardFailure, OSError, ValueError, ImportError) as exc:
                for shard in self._shards:
                    shard.close()
                self._shards = []
                if mode == "process":
                    raise ClusterError(f"cannot start worker processes: {exc}") from exc
        if not self._shards:  # inline fallback (or explicit inline mode)
            self._shards = [
                _InlineShard(
                    index,
                    self._handle,
                    instances_per_worker,
                    max_batch_frames,
                    warm,
                    max_pending,
                    policy,
                )
                for index in range(workers)
            ]

    def _start_processes(
        self, warm: Tuple[PlanHandle, ...], start_timeout_s: float
    ) -> List[_ProcessShard]:
        import multiprocessing

        # fork inherits the parent's warm memos copy-on-write; under spawn
        # each worker builds what it serves itself.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        shards = [
            _ProcessShard(
                index,
                context,
                self._handle,
                self.instances_per_worker,
                self.max_batch_frames,
                warm,
                self.max_pending,
                self.policy,
            )
            for index in range(self.workers)
        ]
        try:
            for shard in shards:
                shard.wait_ready(start_timeout_s)
        except _ShardFailure:
            for shard in shards:
                shard.close()
            raise
        return shards

    # ------------------------------------------------------------- lifecycle
    @property
    def backend_name(self) -> str:
        return self.session.backend_name

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            shard.close()

    def __del__(self) -> None:  # best-effort: never leak worker processes
        try:
            self.close()
        except Exception:
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("the cluster is closed")

    # --------------------------------------------------------------- routing
    def _live_shards(self) -> List[Any]:
        live = [shard for shard in self._shards if shard.alive]
        if not live:
            raise ClusterError("no live shard left in the cluster")
        return live

    @staticmethod
    def _hash_rank(key: str, shard_index: int) -> int:
        digest = hashlib.sha256(f"{key}|{shard_index}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def _route_stream(self, stream_id: str) -> Any:
        """Sticky, balanced stream placement (see the module docstring)."""
        index = self._stream_shard.get(stream_id)
        if index is not None and self._shards[index].alive:
            return self._shards[index]
        live = self._live_shards()
        chosen = max(
            live,
            key=lambda shard: (
                -self._stream_counts.get(shard.index, 0),
                self._hash_rank(stream_id, shard.index),
            ),
        )
        if index is not None:  # moving off a dead shard
            self._stream_counts[index] = self._stream_counts.get(index, 1) - 1
        self._stream_shard[stream_id] = chosen.index
        self._stream_counts[chosen.index] = self._stream_counts.get(chosen.index, 0) + 1
        return chosen

    def _route(self, key: str) -> Any:
        """The live shard owning ``key``: plain HRW, so only a dead shard's keys move."""
        return max(self._live_shards(), key=lambda shard: self._hash_rank(key, shard.index))

    def _mark_dead(self, shard: Any) -> None:
        shard.alive = False
        shard.close()

    # -------------------------------------------------------------- dispatch
    def _scatter(
        self,
        size: int,
        route: Callable[[List[int]], Dict[int, List[int]]],
        command: str,
        payload: Callable[[List[int]], Any],
        on_reply: Callable[[int, List[int], Any], None],
        *,
        displaced: Iterable[int] = (),
    ) -> None:
        """Answer items ``0 .. size-1`` through the live shards, failing over.

        The one failover loop behind every serving call.  Each round,
        ``route`` groups the unanswered item positions by shard index;
        every group is sent (``payload(group)``) before any reply is
        gathered (``on_reply(shard index, group, reply)``), so worker
        processes serve their groups concurrently.  A shard that fails to
        take or answer its group is marked dead and the group goes round
        again through the smaller live set, until every item is answered or
        no shard is left (routing raises :class:`ClusterError`).  Each item
        counts in ``requeued`` at most once per call, however many shards
        die under it; ``displaced`` items count before the first round.
        """
        counted = set(displaced)
        self.requeued += len(counted)
        pending = list(range(size))
        while pending:
            in_flight: List[Tuple[Any, List[int], int]] = []
            failed: List[int] = []
            for index, group in sorted(route(pending).items()):
                shard = self._shards[index]
                try:
                    in_flight.append((shard, group, shard.send(command, payload(group))))
                except _ShardFailure:
                    self._mark_dead(shard)
                    failed.extend(group)
            for shard, group, request_id in in_flight:
                try:
                    reply = shard.receive(request_id, self.call_timeout_s)
                except _ShardFailure:
                    self._mark_dead(shard)
                    failed.extend(group)
                    continue
                on_reply(shard.index, group, reply)
            fresh = set(failed) - counted
            self.requeued += len(fresh)
            counted |= fresh
            pending = failed

    def _call(self, owner: Callable[[], Any], command: str, payload: Any, frames: int) -> Any:
        """One item through :meth:`_scatter`, served by the shard ``owner`` picks."""
        replies: List[Any] = []

        def on_reply(index: int, group: List[int], reply: Any) -> None:
            replies.append(reply)
            self._served_frames[index] += frames

        self._scatter(
            1, lambda pending: {owner().index: pending}, command, lambda group: payload, on_reply
        )
        return replies[0]

    def _broadcast(self, command: str) -> Dict[int, Any]:
        """Ask every live shard once, no retry; a shard that fails is marked dead."""
        replies: Dict[int, Any] = {}
        for shard in self._shards:
            if shard.alive:
                try:
                    replies[shard.index] = shard.receive(
                        shard.send(command, None), self.call_timeout_s
                    )
                except _ShardFailure:
                    self._mark_dead(shard)
        return replies

    # ------------------------------------------------------- fault injection
    def _fire_hook(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(self, point)

    def live_shard_indices(self) -> Tuple[int, ...]:
        """Indices of the shards still alive."""
        return tuple(shard.index for shard in self._shards if shard.alive)

    def kill_worker(self, shard_index: Optional[int] = None) -> int:
        """Chaos primitive: kill one live worker; returns the victim's index.

        In process mode the worker *process* is terminated but the shard is
        **not** marked dead — exactly like a real crash, death is discovered
        at the next dispatch, so in-flight and queued requests go through
        the ordinary requeue/recovery paths.  Inline shards have no process
        to kill, so they are marked dead immediately (their
        :meth:`_InlineShard.send` then raises the same shard failure).

        Refuses to kill the last live shard: the cluster's contract is that
        it only fails when *no* shard is left, and a chaos schedule that
        beheads the whole cluster is a broken schedule, not a survivable
        fault.
        """
        self._check_open()
        live = self._live_shards()
        if len(live) <= 1:
            raise ClusterError("refusing to kill the last live shard")
        if shard_index is None:
            victim = live[0]
        else:
            matches = [shard for shard in live if shard.index == shard_index]
            if not matches:
                raise ValueError(f"shard {shard_index} is not alive")
            victim = matches[0]
        if isinstance(victim, _ProcessShard):
            victim._process.terminate()
            victim._process.join(timeout=5.0)
        else:
            self._mark_dead(victim)
        return victim.index

    def evict_frame_caches(self) -> int:
        """Chaos primitive: drop every live worker's pixel caches.

        One shared invalidation path per worker
        (:meth:`repro.api.Session.evict_pixel_caches`): the whole-frame
        cache and every video stream's delta state (block cache +
        predecessor frame) drop together, so a stream that survives the
        eviction recomputes its next frame in full instead of serving a
        stale block.  Returns the total number of evicted entries; a worker
        that fails to answer is marked dead (the usual failure contract).
        """
        self._check_open()
        return sum(self._broadcast("evict_frame_cache").values())

    # ------------------------------------------------------------- admission
    def submit(
        self,
        stream_id: str,
        workload_name: str,
        *,
        frames: int = 1,
        arrival_s: float = 0.0,
        deadline_s: float = math.inf,
        priority: int = 0,
    ) -> int:
        """Admit one request; returns the owning shard's index.

        Raises :class:`ClusterBackpressure` when the owning shard's bounded
        queue is full — the caller should :meth:`run` (drain) or back off.
        """
        self._check_open()
        self.session.workload(workload_name)  # validate at the coordinator
        shard = self._route_stream(stream_id)
        try:
            shard.queue.submit(
                stream_id,
                workload_name,
                frames=frames,
                arrival_s=arrival_s,
                deadline_s=deadline_s,
                priority=priority,
            )
        except QueueFull as exc:
            raise ClusterBackpressure(
                f"shard {shard.index} is at capacity "
                f"({self.max_pending} pending requests)"
            ) from exc
        return shard.index

    def play(self, trace: TrafficTrace) -> int:
        """Replay a traffic trace into the shard queues; returns admissions."""
        for event in trace.events:
            self.submit(
                event.stream_id,
                event.workload,
                frames=event.frames,
                arrival_s=event.time_s,
            )
        return len(trace.events)

    def queue_depths(self) -> Dict[int, int]:
        """Pending (undrained) request count per shard index."""
        return {shard.index: len(shard.queue) for shard in self._shards}

    def route_stream(self, stream_id: str) -> int:
        """The shard index that would own ``stream_id``'s next request.

        Resolves (and pins) the stream's sticky placement without
        submitting anything — the SLO gateway asks this before deciding
        whether the owning shard can meet a deadline.
        """
        self._check_open()
        return self._route_stream(stream_id).index

    # --------------------------------------------------------------- serving
    def run(self) -> ClusterReport:
        """Drain every shard's queue through its worker engine and aggregate.

        Shards schedule concurrently (in process mode the workers really do
        run in parallel); a shard that fails mid-run has its requests
        requeued onto the remaining live shards.
        """
        self._check_open()
        self._fire_hook("run:start")
        items: List[Tuple[str, str, int, float, float, int]] = []
        orphaned: List[Tuple[str, str, int, float, float, int]] = []
        for shard in self._shards:
            # Requests still queued on a shard an earlier dispatch found
            # dead go last and count as displaced up front.
            (items if shard.alive else orphaned).extend(
                (r.stream_id, r.workload, r.frames, r.arrival_s, r.deadline_s, r.priority)
                for r in shard.queue.drain()
            )
        displaced = range(len(items), len(items) + len(orphaned))
        items.extend(orphaned)
        # A list, not a dict: after a failure the requeued requests run as a
        # *second* schedule on a surviving shard, so one shard index may
        # legitimately contribute more than one report.
        reports: List[Tuple[int, ServingReport]] = []

        def route(pending: List[int]) -> Dict[int, List[int]]:
            groups: Dict[int, List[int]] = {}
            for position in pending:
                owner = self._route_stream(items[position][0])
                groups.setdefault(owner.index, []).append(position)
            # After routing, before sending: chaos sees this round's owners.
            self._fire_hook("run:round")
            return groups

        def on_reply(index: int, group: List[int], report: ServingReport) -> None:
            reports.append((index, report))
            self._served_requests[index] += len(group)
            self._served_frames[index] += sum(items[position][2] for position in group)

        self._scatter(
            len(items),
            route,
            "run",
            lambda group: tuple(items[position] for position in group),
            on_reply,
            displaced=displaced,
        )
        return ClusterReport(
            backend=self.backend_name,
            mode=self.mode,
            workers=self.workers,
            shard_reports=tuple(sorted(reports, key=lambda pair: pair[0])),
        )

    # ---------------------------------------------------------------- pixels
    def execute_frame(
        self,
        workload_name: str,
        image: FeatureMap,
        *,
        cached: bool = True,
    ) -> InferenceResult:
        """Run one frame on the shard that owns its content digest.

        Same contract (and bit-identical pixels) as
        :meth:`~repro.api.Session.execute`; repeats of a frame hit the
        owning worker's bounded frame cache, whether they came alone or in
        an :meth:`execute_frames` burst.
        """
        return self._execute(workload_name, [image], cached)[0]

    def execute_frames(
        self,
        workload_name: str,
        images: Sequence[FeatureMap],
        *,
        cached: bool = True,
    ) -> List[InferenceResult]:
        """Serve a burst of frames, each on the shard that owns its digest.

        The owners' groups execute concurrently, each through the worker's
        :meth:`~repro.api.Session.execute_many`.  A frame repeated in the
        burst is sent and computed once, and its result fills every
        position it was asked at.  Results come back in input order,
        bit-identical to per-frame execution.
        """
        return self._execute(workload_name, list(images), cached)

    def _execute(
        self, workload_name: str, images: List[FeatureMap], cached: bool
    ) -> List[InferenceResult]:
        """The one pixel path: hash each frame once, scatter each distinct
        frame to the shard that owns its digest, fan the results out."""
        self._check_open()
        self.session.workload(workload_name)
        # One item per frame identity the frame cache keys on: equal bytes
        # at another shape or dtype are another frame.
        positions: Dict[Tuple[Any, str, str], List[int]] = {}
        for position, image in enumerate(images):
            identity = (image.shape, image.data.dtype.str, frame_digest(image))
            positions.setdefault(identity, []).append(position)
        digests = [identity[2] for identity in positions]
        fanout = list(positions.values())
        results: List[Any] = [None] * len(images)

        def route(pending: List[int]) -> Dict[int, List[int]]:
            groups: Dict[int, List[int]] = {}
            for item in pending:
                groups.setdefault(self._route(digests[item]).index, []).append(item)
            return groups

        def on_reply(index: int, group: List[int], chunk: List[InferenceResult]) -> None:
            for item, result in zip(group, chunk):
                for position in fanout[item]:
                    results[position] = result
                self._served_frames[index] += len(fanout[item])

        self._scatter(
            len(digests),
            route,
            "execute_frames",
            lambda group: (
                workload_name,
                [images[fanout[item][0]] for item in group],
                [digests[item] for item in group],
                cached,
            ),
            on_reply,
        )
        return results

    def execute_stream(
        self,
        stream_id: str,
        workload_name: str,
        image: FeatureMap,
        *,
        output_block: Optional[int] = None,
    ) -> StreamFrameResult:
        """Serve a video stream's next frame on the shard owning the stream.

        Routing is the *sticky stream* placement (not the content hash):
        ordered frames of one stream land on one worker, so the stream's
        predecessor frame and block cache stay shard-local.  If the owning
        shard dies the stream fails over to a live shard, whose fresh
        stream state recomputes the next frame in full — failover costs
        reuse, never correctness.
        """
        self._check_open()
        self.session.workload(workload_name)
        stream_id = str(stream_id)
        return self._call(
            lambda: self._route_stream(stream_id),
            "execute_stream",
            (stream_id, workload_name, image, output_block),
            frames=1,
        )

    # ------------------------------------------------------------- analytics
    def profile(self, workload_name: str) -> PerfProfile:
        """The workload's :meth:`Session.profile`, answered by the shard owning it."""
        self._check_open()
        self.session.workload(workload_name)
        return self._call(
            lambda: self._route(workload_name), "profile", workload_name, frames=0
        )

    def stats(self) -> ClusterStats:
        """Aggregated per-shard health, queue depth and cache counters."""
        self._check_open()
        snapshots = self._broadcast("stats")
        shards: List[ShardStats] = []
        for shard in self._shards:
            cache, frame_cache, video_streams = snapshots.get(shard.index, (None, None, ()))
            shards.append(
                ShardStats(
                    shard=shard.index,
                    alive=shard.alive,
                    queue_depth=len(shard.queue),
                    streams=tuple(
                        sorted(
                            stream
                            for stream, index in self._stream_shard.items()
                            if index == shard.index
                        )
                    ),
                    served_requests=self._served_requests[shard.index],
                    served_frames=self._served_frames[shard.index],
                    cache=cache,
                    frame_cache=frame_cache,
                    video_streams=video_streams,
                )
            )
        return ClusterStats(
            backend=self.backend_name,
            mode=self.mode,
            shards=tuple(shards),
            requeued=self.requeued,
        )
