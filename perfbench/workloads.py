"""The four benchmark workloads, each driven through the program's public API.

A workload is a closed loop with one client.  The runner calls, per
operation: :meth:`prepare` (make the inputs, untimed), :meth:`request` (the
timed call into the program) and :meth:`check` (the correctness oracle,
untimed).  ``request`` returns an :class:`Op`; an op is one request, except
in ``gateway_replay`` where it is one drain window of many requests whose
individual latencies the op carries.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench import inputs


class SetupError(RuntimeError):
    """The program could not be brought into the state the workload measures."""


@dataclass
class Op:
    #: Requests the op completed (or resolved, for the gateway).
    requests: int
    #: Output pixels served (height x width, all channels count once).
    pixels: int
    #: Per-request latencies; ``None`` means the op is one request whose
    #: latency is the op's wall time.
    latencies: Optional[List[float]] = None
    #: Blocks the block flow executed in this process.
    blocks: int = 0
    #: (workload, input shape) of every frame computed in this process.
    frames: List[Tuple[str, Tuple[int, ...]]] = field(default_factory=list)
    #: Whatever :meth:`check` needs.
    payload: Any = None


def _frame(data: np.ndarray):
    from repro.nn.tensor import FeatureMap

    return FeatureMap(data=data)


def _output_pixels(result: Any) -> int:
    shape = result.output.data.shape
    return int(shape[-2] * shape[-1])


class Workload:
    name = ""
    #: Untimed, checked operations run after setup before measuring.
    warmup_ops = 0
    #: Operations every measurement runs at least (a whole trace pass).
    min_ops = 0
    #: Worker mode actually obtained (``"in-process"`` or the cluster's mode).
    mode = "in-process"
    #: Rates from the median op rather than from slices of the run (see
    #: ``Phase.median_rate`` in ``run.py``); for workloads whose ops are alike.
    rate_per_op = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session: Any = None

    # Subclasses implement these.
    def digest(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        """Bring the program to ready: the part ``setup_s`` times."""
        raise NotImplementedError

    def load_inputs(self) -> None:
        """Generate the seeded inputs (untimed, after :meth:`setup`)."""

    def prepare(self, index: int) -> Any:
        raise NotImplementedError

    def request(self, item: Any) -> Op:
        raise NotImplementedError

    def check(self, item: Any, op: Op) -> int:
        """Number of the op's requests that failed the oracle."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, float]:
        """Program counters read through public APIs (untimed)."""
        return {}

    def sim_metrics(self) -> Dict[str, float]:
        """Simulated-clock outputs of the workload (exact, seed-determined)."""
        return {}

    def close(self) -> None:
        pass

    # Shared helpers.
    def _session(self, **kwargs: Any):
        from repro.api import Session

        self.session = Session(**kwargs)
        return self.session

    def _frame_cache_counters(self) -> Dict[str, float]:
        stats = self.session.frame_cache_stats
        return {
            "cache.hits": stats.hits,
            "cache.lookups": stats.hits + stats.misses,
            "cache.evictions": stats.evictions,
        }


# ----------------------------------------------------------------- stills
class StillsFresh(Workload):
    name = "stills_fresh"
    warmup_ops = len(inputs.STILLS)

    def digest(self) -> str:
        return inputs.stills_digest(self.seed)

    def setup(self) -> None:
        session = self._session()
        for workload, _ in inputs.STILLS:
            session.compile(workload)
        warm = np.random.default_rng([self.seed, 0]).random((3, 32, 32))
        session.execute("denoise", _frame(warm))

    def prepare(self, index: int) -> Any:
        workload, data = inputs.still(self.seed, index)
        return workload, _frame(data)

    def request(self, item: Any) -> Op:
        workload, frame = item
        result = self.session.execute(workload, frame)
        return Op(
            1, _output_pixels(result), blocks=result.num_blocks,
            frames=[(workload, frame.data.shape)], payload=result,
        )

    def check(self, item: Any, op: Op) -> int:
        from repro.core.blockflow import frame_based_inference

        workload, frame = item
        reference = frame_based_inference(self.session.compile(workload).network, frame)
        return 0 if np.allclose(op.payload.output.data, reference.data) else 1

    def snapshot(self) -> Dict[str, float]:
        return self._frame_cache_counters()


# ----------------------------------------------------------------- cameras
class CameraStreams(Workload):
    name = "camera_streams"
    warmup_ops = len(inputs.CAMERA_SCHEDULE)
    #: Frames of each stream checked against a fresh full execution.
    CHECK_EVERY = 6

    def digest(self) -> str:
        return inputs.cameras_digest(self.seed)

    def setup(self) -> None:
        session = self._session()
        for _, workload, _, _ in inputs.CAMERAS:
            session.compile(workload)
        warm = np.random.default_rng([self.seed, 0]).random((3, 32, 32))
        session.execute("denoise", _frame(warm))

    def load_inputs(self) -> None:
        self._scripts = [
            inputs.CameraScript(self.seed, index, side, move_every)
            for index, (_, _, side, move_every) in enumerate(inputs.CAMERAS)
        ]
        self._served = [0] * len(inputs.CAMERAS)

    def prepare(self, index: int) -> Any:
        stream = inputs.CAMERA_SCHEDULE[index % len(inputs.CAMERA_SCHEDULE)]
        frame_index = self._served[stream]
        self._served[stream] += 1
        return stream, frame_index, _frame(self._scripts[stream].next_frame())

    def request(self, item: Any) -> Op:
        stream, _, frame = item
        stream_id, workload, _, _ = inputs.CAMERAS[stream]
        result = self.session.execute_stream(stream_id, workload, frame)
        return Op(
            1, _output_pixels(result), blocks=result.blocks_recomputed,
            frames=[(workload, frame.data.shape)], payload=result,
        )

    def check(self, item: Any, op: Op) -> int:
        stream, frame_index, frame = item
        if frame_index % self.CHECK_EVERY != 2:
            return 0
        workload = inputs.CAMERAS[stream][1]
        reference = self.session.execute(workload, frame, cached=False)
        return 0 if np.array_equal(op.payload.output.data, reference.output.data) else 1

    def snapshot(self) -> Dict[str, float]:
        counters = self._frame_cache_counters()
        streams = self.session.video_stream_stats
        counters["video.blocks_reused"] = sum(s.blocks_reused for s in streams)
        counters["video.blocks_total"] = sum(s.blocks_total for s in streams)
        counters["video.evictions"] = sum(s.cache_evictions for s in streams)
        return counters


# ----------------------------------------------------------------- clusters
def _process_cluster(session: Any, **kwargs: Any):
    """A 2-worker process-mode cluster; anything else is a setup failure."""
    from repro.runtime import ServingCluster

    cluster = ServingCluster(workers=2, backend=session, mode="process", **kwargs)
    if cluster.mode != "process" or cluster.stats().mode != "process":
        cluster.close()
        raise SetupError(f"cluster started in {cluster.mode!r} mode, not 'process'")
    return cluster


def _shard_counters(cluster: Any) -> Dict[str, float]:
    stats = cluster.stats()
    counters: Dict[str, float] = {"cluster.requeued": stats.requeued}
    hits = lookups = evictions = 0
    for shard in stats.shards:
        counters[f"cluster.served.{shard.shard}"] = shard.served_frames
        if shard.frame_cache is not None:
            hits += shard.frame_cache.hits
            lookups += shard.frame_cache.hits + shard.frame_cache.misses
            evictions += shard.frame_cache.evictions
    counters.update({"cache.hits": hits, "cache.lookups": lookups, "cache.evictions": evictions})
    return counters


class PopularCluster(Workload):
    name = "popular_cluster"
    warmup_ops = 64
    #: Per-worker frame-cache bound; the catalogue holds 96 distinct frames.
    FRAME_CACHE = 16

    def digest(self) -> str:
        return inputs.popular_digest(self.seed)

    def setup(self) -> None:
        session = self._session(frame_cache_entries=self.FRAME_CACHE)
        session.compile(inputs.CATALOGUE_WORKLOAD)
        self.cluster = _process_cluster(
            session, warm_plans=[session.plan_handle(inputs.CATALOGUE_WORKLOAD)]
        )
        self.mode = self.cluster.mode
        warm = np.random.default_rng([self.seed, 0]).random((3, 32, 32))
        self.cluster.execute_frame("denoise", _frame(warm))

    def load_inputs(self) -> None:
        self._catalogue = [_frame(data) for data in inputs.catalogue(self.seed)]
        self._requests = inputs.PopularRequests(self.seed)
        self._reference_session: Any = None
        self._reference: Dict[int, np.ndarray] = {}

    def prepare(self, index: int) -> Any:
        items = self._requests.next_op()
        return items, [self._catalogue[item] for item in items]

    def request(self, item: Any) -> Op:
        _, frames = item
        workload = inputs.CATALOGUE_WORKLOAD
        if len(frames) == 1:
            results = [self.cluster.execute_frame(workload, frames[0])]
        else:
            results = self.cluster.execute_frames(workload, frames)
        return Op(1, sum(_output_pixels(result) for result in results), payload=results)

    def check(self, item: Any, op: Op) -> int:
        from repro.api import Session

        items, frames = item
        if self._reference_session is None:
            self._reference_session = Session()
        for key, frame, result in zip(items, frames, op.payload):
            reference = self._reference.get(key)
            if reference is None:
                reference = self._reference_session.execute(
                    inputs.CATALOGUE_WORKLOAD, frame, cached=False
                ).output.data
                self._reference[key] = reference
            if not np.array_equal(result.output.data, reference):
                return 1
        return 0

    def snapshot(self) -> Dict[str, float]:
        return _shard_counters(self.cluster)

    def close(self) -> None:
        self.cluster.close()


class GatewayReplay(Workload):
    name = "gateway_replay"
    #: Requests admitted between drains.  Windows of equal size make the
    #: latency of every window the same kind of sample, whatever the
    #: simulated time a window spans.
    DRAIN_EVERY = 256
    rate_per_op = True

    def digest(self) -> str:
        return inputs.gateway_digest(self.seed)

    def setup(self) -> None:
        from repro.gateway import SLOGateway

        session = self._session()
        for workload in inputs.GATEWAY_WORKLOADS:
            session.compile(workload)
            session.serving_profile(workload)
        self.cluster = _process_cluster(session, policy="edf", max_pending=None)
        self.mode = self.cluster.mode
        # Pin every stream's shard in a fixed order, so placement (and with
        # it each shard's workload mix) does not depend on the seed.
        for stream in range(inputs.GATEWAY_STREAMS):
            self.cluster.route_stream(inputs.gateway_stream(stream))
        warm = SLOGateway(self.cluster)
        for workload in inputs.GATEWAY_WORKLOADS:
            warm.admit(f"warm-{workload}", workload, frames=1, arrival_s=0.0)
        warm.drain_now()
        self._out_pixels = {
            workload: session.workload(workload).spec.width * session.workload(workload).spec.height
            for workload in inputs.GATEWAY_WORKLOADS
        }

    def load_inputs(self) -> None:
        self._windows = inputs.gateway_windows(inputs.gateway_trace(self.seed), self.DRAIN_EVERY)
        self._pass_requests = sum(len(window) for window in self._windows)
        self.min_ops = len(self._windows)
        self.sim_passes: List[Tuple[int, ...]] = []
        self._gateway: Any = None

    def prepare(self, index: int) -> Any:
        from repro.gateway import SLOGateway

        window = index % len(self._windows)
        if window == 0:
            # Every pass replays the trace through a fresh gateway, so its
            # simulated outcome must repeat exactly.
            self._gateway = SLOGateway(self.cluster)
            self._log_seen = 0
        return window, self._windows[window]

    def request(self, item: Any) -> Op:
        from repro.gateway import AdmissionRejected

        _, requests = item
        gateway = self._gateway
        latencies: List[float] = []
        tickets = []
        shed = pixels = 0
        for stream_id, workload, frames, arrival_s in requests:
            start = time.perf_counter()
            try:
                ticket = gateway.admit(stream_id, workload, frames=frames, arrival_s=arrival_s)
            except AdmissionRejected:
                shed += 1
            else:
                tickets.append(ticket)
                if ticket.queued:
                    pixels += ticket.frames * self._out_pixels[workload]
            # A request's host latency is its admission call: the answer
            # (admit, degrade or shed) is final there, and serving happens on
            # the simulated clock.  The drain below is charged to the op's
            # wall time, so it counts in requests_per_s; timing each request
            # to the end of its drain would let one host stall inflate every
            # request of the window.
            latencies.append(time.perf_counter() - start)
        report = gateway.drain_now()
        return Op(len(requests), pixels, latencies=latencies, payload=(tickets, shed, report))

    def check(self, item: Any, op: Op) -> int:
        window, requests = item
        tickets, shed, report = op.payload
        key = lambda r: (r.stream_id, r.workload, r.frames, r.arrival_s)  # noqa: E731
        queued = Counter(key(ticket) for ticket in tickets if ticket.queued)
        served = Counter(key(record.request) for _, schedule in report.schedules for record in schedule.records)
        degraded = sum(1 for ticket in tickets if ticket.degraded)
        stats = report.stats
        ok = (
            queued == served  # exactly once: nothing lost, nothing duplicated
            and len(tickets) + shed == len(requests)
            and len(report.degrade_log) - self._log_seen == degraded
            and stats.degraded == len(report.degrade_log)
            and sum(stats.by_action.values()) == stats.degraded
        )
        self._log_seen = len(report.degrade_log)
        if ok and window == len(self._windows) - 1:
            outcome = (
                stats.admitted, stats.degraded, stats.shed, stats.served,
                stats.deadline_requests, stats.deadline_misses, len(self._windows),
            )
            ok = stats.admitted + stats.degraded + stats.shed == self._pass_requests and (
                not self.sim_passes or outcome == self.sim_passes[0]
            )
            self.sim_passes.append(outcome)
        return 0 if ok else len(requests)

    def sim_metrics(self) -> Dict[str, float]:
        """Simulated-clock outcome of one trace pass."""
        if not self.sim_passes:
            return {}
        admitted, degraded, shed, served, _, misses, drains = self.sim_passes[0]
        return {
            "sim.deadline_miss_ratio": (misses + shed) / self._pass_requests,
            "gateway.admitted": admitted,
            "gateway.degraded": degraded,
            "gateway.shed": shed,
            "scheduler.requests_per_drain": served / drains,
        }

    def snapshot(self) -> Dict[str, float]:
        return _shard_counters(self.cluster)

    def close(self) -> None:
        self.cluster.close()


WORKLOADS = {cls.name: cls for cls in (StillsFresh, CameraStreams, PopularCluster, GatewayReplay)}
