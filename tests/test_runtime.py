"""Serving runtime: cache, batching scheduler, traces and parallel sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import parallel_sweep, sweep
from repro.api import PerfProfile, Session, create_backend
from repro.core.overheads import normalized_bandwidth_ratio
from repro.fbisa.compiler import compile_network
from repro.hw.performance import evaluate_performance
from repro.hw.processor import EcnnProcessor
from repro.models.ernet import PAPER_MODELS, build_ernet
from repro.runtime import (
    ParallelSweep,
    RequestQueue,
    ResultCache,
    Scheduler,
    ServingCluster,
    analyze,
    fingerprint,
    form_batches,
    trace,
    workload,
)
from repro.specs import SPECIFICATIONS


# ---------------------------------------------------------------------- cache
class TestResultCache:
    def test_hit_and_miss_counters(self):
        cache = ResultCache()
        calls = []
        key = cache.key("answer", 42)
        assert cache.get_or_compute(key, lambda: calls.append(1) or "value") == "value"
        assert cache.get_or_compute(key, lambda: calls.append(1) or "other") == "value"
        assert len(calls) == 1  # the second lookup never recomputes
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.entries == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_content_addressing_is_structural(self):
        # Equal content produces equal keys regardless of construction order.
        assert fingerprint({"a": 1, "b": 2.5}) == fingerprint({"b": 2.5, "a": 1})
        assert fingerprint([1, 2]) == fingerprint((1, 2))
        spec = SPECIFICATIONS["UHD30"]
        assert fingerprint(spec) == fingerprint(SPECIFICATIONS["UHD30"])
        assert fingerprint(spec) != fingerprint(SPECIFICATIONS["HD30"])
        # Float keys are exact, not formatted.
        assert fingerprint(0.1) != fingerprint(0.1000001)

    def test_identity_repr_objects_are_rejected(self):
        # Objects whose repr embeds their address cannot be content-addressed.
        class Opaque:
            pass

        with pytest.raises(TypeError):
            fingerprint(Opaque())

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        for value in ("a", "b", "c"):
            cache.get_or_compute(cache.key(value), lambda v=value: v)
        assert len(cache) == 2
        assert cache.key("a") not in cache  # least recently used fell out
        assert cache.key("c") in cache

    def test_eviction_counter_in_stats(self):
        cache = ResultCache(max_entries=2)
        for value in ("a", "b", "c", "d"):
            cache.get_or_compute(cache.key(value), lambda v=value: v)
        stats = cache.stats
        assert stats.evictions == 2
        assert stats.entries == 2
        assert "2 evicted" in stats.describe()
        # Unbounded caches never evict and the line stays clean.
        unbounded = ResultCache()
        unbounded.get_or_compute(unbounded.key("x"), lambda: "x")
        assert unbounded.stats.evictions == 0
        assert "evicted" not in unbounded.stats.describe()
        # reset_stats clears the eviction counter with the others.
        cache.reset_stats()
        assert cache.stats.evictions == 0

    def test_workload_profile_is_cached(self):
        cache = ResultCache()
        first = Session(cache=cache).profile("denoise")
        second = Session(cache=cache).profile("denoise")
        assert first is second
        assert cache.stats.misses == 2  # the profile and the plan it charges
        assert cache.stats.hits == 1


# ------------------------------------------------------------ shared networks
class TestSharedNetworkMemos:
    """Catalogue networks, their compilations and block reports are built once
    per process, and the memoized answers equal freshly built ones."""

    def test_shared_network_is_memoized_and_marked(self):
        entry = workload("denoise")
        first = entry.shared_network()
        assert entry.shared_network() is first
        assert first.metadata.get("shared") is True

    def test_build_network_stays_fresh_and_unmarked(self):
        entry = workload("denoise")
        built = entry.build_network()
        assert built is not entry.shared_network()
        assert built is not entry.build_network()
        assert "shared" not in built.metadata

    def test_memoized_compilation_and_block_report_match_fresh_ones(self):
        entry = workload("denoise")
        plan = Session(backend="ecnn", cache=ResultCache()).compile("denoise")
        again = Session(backend="ecnn", cache=ResultCache()).compile("denoise")
        assert again.payload is plan.payload  # memoized across fresh caches
        fresh = compile_network(entry.build_network(), input_block=plan.input_block)
        assert plan.payload.program == fresh.program

        def block_report(model):
            processor = EcnnProcessor()
            processor.load(model)
            return processor.block_report()

        memoized = block_report(plan.payload)
        assert block_report(plan.payload) is memoized
        assert memoized == block_report(fresh)

    def test_fresh_networks_are_never_memoized(self):
        entry = workload("denoise")
        backend = create_backend("ecnn")
        first = backend.compile(entry.build_network(), entry.spec)
        second = backend.compile(first.network, entry.spec)
        assert second.payload is not first.payload


# ------------------------------------------------------------------ scheduler
def _profiles():
    """Hand-sized profiles so expected completions are exact by construction."""
    return {
        "a": PerfProfile(
            backend="test", model_name="A", spec_name="S",
            frame_latency_s=0.01, dram_gb_s=1.0, power_w=5.0, load_time_s=0.002,
            peak_tops=1.0, achieved_tops=1.0,
        ),
        "b": PerfProfile(
            backend="test", model_name="B", spec_name="S",
            frame_latency_s=0.02, dram_gb_s=1.0, power_w=5.0, load_time_s=0.004,
            peak_tops=1.0, achieved_tops=1.0,
        ),
    }


def _queue_four_requests():
    queue = RequestQueue()
    queue.submit("s1", "a", frames=2, arrival_s=0.0)
    queue.submit("s2", "b", frames=1, arrival_s=0.0)
    queue.submit("s1", "a", frames=2, arrival_s=0.0)
    queue.submit("s3", "a", frames=1, arrival_s=0.1)
    return queue


class TestScheduler:
    def test_deterministic_batching_order(self):
        requests = _queue_four_requests().drain()
        batches = form_batches(requests, max_batch_frames=4)
        # Same-workload requests coalesce up to the frame budget; batch order
        # follows each batch's first request.
        assert [(b.workload, tuple(r.seq for r in b.requests)) for b in batches] == [
            ("a", (0, 2)),
            ("b", (1,)),
            ("a", (3,)),
        ]
        # Batching is a pure function of the request set.
        again = form_batches(_queue_four_requests().drain(), max_batch_frames=4)
        assert again == batches

    def test_exact_schedule_timing(self):
        scheduler = Scheduler(_profiles().__getitem__, num_instances=2, max_batch_frames=4)
        result = scheduler.run(_queue_four_requests().drain())
        by_seq = {record.request.seq: record for record in result.records}
        # Instance 0: load a (2 ms) + 2x2 frames at 10 ms.
        assert by_seq[0].completion_s == pytest.approx(0.022)
        assert by_seq[2].completion_s == pytest.approx(0.042)
        # Instance 1: load b (4 ms) + 1 frame at 20 ms.
        assert by_seq[1].completion_s == pytest.approx(0.024)
        # Third batch waits for its arrival (0.1), pays the a-load again.
        assert by_seq[3].instance == 1
        assert by_seq[3].completion_s == pytest.approx(0.112)
        assert result.makespan_s == pytest.approx(0.112)
        # Re-running the same queue reproduces the schedule exactly.
        assert scheduler.run(_queue_four_requests().drain()) == result

    def test_per_stream_fps_accounting(self):
        scheduler = Scheduler(_profiles().__getitem__, num_instances=2, max_batch_frames=4)
        stats = scheduler.run(_queue_four_requests().drain()).stream_stats()
        assert sorted(stats) == ["s1", "s2", "s3"]
        s1 = stats["s1"]
        assert s1.frames == 4
        assert s1.fps == pytest.approx(4 / 0.042)
        assert s1.mean_latency_s == pytest.approx((0.022 + 0.042) / 2)
        assert s1.max_latency_s == pytest.approx(0.042)
        assert stats["s3"].max_latency_s == pytest.approx(0.012)  # 0.112 - 0.1

    def test_latency_percentiles_nearest_rank(self):
        scheduler = Scheduler(_profiles().__getitem__, num_instances=2, max_batch_frames=4)
        result = scheduler.run(_queue_four_requests().drain())
        # Sorted latencies: 0.012, 0.022, 0.024, 0.042 (see the timing test).
        percentiles = result.latency_percentiles((0.25, 0.5, 0.95, 0.99, 1.0))
        assert percentiles[0.25] == pytest.approx(0.012)
        assert percentiles[0.5] == pytest.approx(0.022)
        assert percentiles[0.95] == pytest.approx(0.042)
        assert percentiles[0.99] == pytest.approx(0.042)
        assert percentiles[1.0] == pytest.approx(0.042)
        assert scheduler.run([]).latency_percentiles() == {}
        with pytest.raises(ValueError):
            result.latency_percentiles((0.0,))
        with pytest.raises(ValueError):
            result.latency_percentiles((1.5,))

    def test_batches_order_by_arrival_not_submission(self):
        # A request submitted first but arriving later must not be scheduled
        # ahead of an earlier-arriving one.
        queue = RequestQueue()
        queue.submit("s1", "a", frames=1, arrival_s=10.0)  # seq 0, arrives late
        queue.submit("s2", "b", frames=1, arrival_s=0.0)   # seq 1, arrives first
        requests = queue.drain()
        batches = form_batches(requests, max_batch_frames=4)
        assert [batch.workload for batch in batches] == ["b", "a"]
        result = Scheduler(_profiles().__getitem__, num_instances=1).run(requests)
        by_stream = {rec.request.stream_id: rec for rec in result.records}
        # The early arrival is served immediately, not queued behind seq 0.
        assert by_stream["s2"].completion_s == pytest.approx(0.024)

    def test_batch_budget_validation(self):
        with pytest.raises(ValueError):
            form_batches([], max_batch_frames=0)
        with pytest.raises(ValueError):
            Scheduler(_profiles().__getitem__, num_instances=0)
        with pytest.raises(ValueError):
            RequestQueue().submit("s", "a", frames=0)


# -------------------------------------------------------------------- serving
def _serve_trace(session: Session, name: str = "demo", instances: int = 2):
    """Schedule a built-in trace over a session's profiles, as a worker does."""
    queue = RequestQueue()
    for event in trace(name).events:
        queue.submit(event.stream_id, event.workload, frames=event.frames, arrival_s=event.time_s)
    return Scheduler(session.profile, num_instances=instances).run(queue.drain())


class TestServingEngine:
    """Trace -> queue -> scheduler over ``Session.profile``, plus analytics."""

    def test_demo_trace_multi_stream_fps_regression(self):
        """The demo trace serves all four workloads at stable per-stream rates."""
        session = Session(cache=ResultCache())
        demo = trace("demo")
        schedule = _serve_trace(session)
        stats = schedule.stream_stats()
        assert sorted(stats) == ["art0", "cam0", "gate0", "tv0"]
        # Per-stream FPS regression: the video streams must hold a video-rate
        # cadence on two shared instances, and every request must finish.
        assert len(schedule.records) == len(demo.events)
        assert schedule.total_frames == demo.total_frames
        assert stats["cam0"].fps > 15.0
        assert stats["tv0"].fps > 12.0
        for stream in stats.values():
            assert stream.max_latency_s < 1.0
        # The scheduler asked the profile cache once per workload (each
        # profile compiling its plan once), then hit.
        assert session.cache.stats.misses == 8
        assert session.cache.stats.hits > 0
        # Replaying the identical trace yields the identical schedule.
        assert _serve_trace(Session(cache=ResultCache())) == schedule

    @pytest.mark.parametrize("backend", ["ecnn", "eyeriss"])
    def test_one_plan_and_one_profile_per_workload(self, backend):
        """The scheduler charges ``Session.profile``: serving the demo trace
        and then asking every workload's profile adds no second entry."""
        cache = ResultCache()
        session = Session(backend=backend, cache=cache)
        _serve_trace(session)
        misses = cache.stats.misses
        names = session.catalogue()
        for name in names:
            session.profile(name)
        assert len(cache) == 2 * len(names)
        assert cache.stats.misses == misses

    def test_profile_matches_performance_model(self):
        """Serving latency is exactly the Fig. 19 frame-time of the model."""
        profile = Session(cache=ResultCache()).profile("denoise")
        network = build_ernet(PAPER_MODELS["dn"]["UHD30"])
        perf = evaluate_performance(network, SPECIFICATIONS["UHD30"])
        assert profile.frame_latency_s == pytest.approx(perf.frame_time_s)
        assert profile.fps == pytest.approx(perf.fps)
        assert profile.fps > SPECIFICATIONS["UHD30"].fps  # real time

    def test_analytics_cached_and_consistent(self):
        session = Session(cache=ResultCache())
        first = analyze(session, "denoise")
        second = analyze(session, "denoise")
        assert first is second
        assert first.layer_timing  # one entry per FBISA line
        assert first.profile.model_name == "DnERNet-B3R1N0"

    def test_unknown_workload_rejected(self):
        session = Session(cache=ResultCache())
        with pytest.raises(KeyError):
            analyze(session, "no-such-workload")
        with ServingCluster(workers=1, mode="inline", backend=session) as cluster:
            with pytest.raises(KeyError):
                cluster.submit("s0", "no-such-workload")

    def test_cycles_per_block_matches_processor_timing_model(self):
        """Regression: analytics must charge IDU-bound pipeline stages.

        ``cycles_per_block`` used to sum CIU cycles only, undercounting
        whenever the IDU's parameter decode dominated a stage; it must equal
        the processor's pipelined block latency exactly.
        """
        from repro.fbisa.compiler import compile_network
        from repro.hw.processor import EcnnProcessor

        session = Session(cache=ResultCache())
        for name in ("denoise", "super_resolution"):
            analytics = analyze(session, name)
            plan = session.compile(name)
            config = session.backend.evaluation_config(plan.network)
            compiled = compile_network(
                workload(name).build_network(), input_block=plan.input_block
            )
            processor = EcnnProcessor(config)
            processor.load(compiled)
            assert analytics.cycles_per_block == processor.block_report().pipelined_cycles

    def test_cycles_per_block_idu_bound_synthetic(self):
        """When parameter decode dominates every stage, IDU cycles set the pace."""
        from repro.api.results import CostReport
        from repro.runtime.engine import WorkloadAnalytics

        analytics = WorkloadAnalytics(
            workload="w",
            model_name="M",
            profile=_profiles()["a"],
            layer_timing=(("l0", 10, 100), ("l1", 10, 100)),
            cost=CostReport(backend="ecnn", area_mm2=1.0, technology_nm=40),
        )
        # Pipeline: first decode (100) + max(10, 100) + max(10, 0) = 210,
        # not the CIU-only 20 the old accounting reported.
        assert analytics.cycles_per_block == 210


# ---------------------------------------------------------------------- sweep
class TestParallelSweep:
    def test_bit_identical_to_serial_sweep(self):
        betas = [0.05, 0.1, 0.2, 0.3, 0.4]
        serial = sweep(betas, normalized_bandwidth_ratio)
        engine = ParallelSweep(max_workers=2)
        parallel = engine.run(betas, normalized_bandwidth_ratio)
        assert parallel == serial
        assert engine.last_mode == "parallel"

    def test_unpicklable_function_falls_back_to_serial(self):
        offset = 10
        engine = ParallelSweep(max_workers=2)
        result = engine.run([1, 2, 3], lambda x: x + offset)
        assert result == [(1, 11), (2, 12), (3, 13)]
        assert engine.last_mode == "serial"

    def test_empty_and_single_point_sweeps(self):
        engine = ParallelSweep()
        assert engine.run([], normalized_bandwidth_ratio) == []
        assert engine.run([0.1], normalized_bandwidth_ratio) == sweep(
            [0.1], normalized_bandwidth_ratio
        )
        assert engine.last_mode == "serial"  # one point never spawns a pool

    def test_parallel_sweep_helper_routes_through_runtime(self):
        betas = (0.05, 0.2)
        assert parallel_sweep(betas, normalized_bandwidth_ratio) == sweep(
            list(betas), normalized_bandwidth_ratio
        )
