"""The default bench suite: every serving hot path, measured.

Scenario families (see ``docs/performance.md`` for the full reading guide):

* ``profile_*`` — :meth:`repro.api.Session.compile` / ``profile`` across
  the catalogue, cold (fresh cache, cleared memos), memoized (fresh cache,
  warm process memos) and warm (every answer already in the
  :class:`~repro.runtime.cache.ResultCache`);
* ``sweep_backends`` — :func:`repro.analysis.sweeps.cross_backend_sweep`
  over every registered backend;
* ``serving_*`` — :meth:`repro.runtime.engine.ServingEngine.run` draining
  synthetic traffic traces at several instance counts and batch budgets;
* ``cluster_scale`` — the scale-out scenario:
  :class:`~repro.runtime.cluster.ServingCluster` serving the demo trace at
  1/2/4 workers, recording the (deterministic, simulated) aggregate
  throughput curve, asserting it increases monotonically with the worker
  count, and re-verifying on every run that cluster pixel outputs are
  bit-identical to a single-process :class:`ServingEngine`;
* ``cluster_frames`` — pixel serving *through the cluster*: a batch of
  distinct frames scattered across worker processes
  (:meth:`ServingCluster.execute_frames`) against the in-process per-frame
  baseline, outputs verified bit-identical;
* ``soak_chaos`` — the soak & chaos tier (:mod:`repro.soak`): thousands of
  Poisson requests replayed through :class:`ServingCluster` at 1/2/4
  workers with a ``kill-worker@50%`` injected mid-run, recording the
  max-sustainable-fps capacity curve (monotonic in the worker count),
  proving exactly-once request accounting and re-verifying post-chaos
  pixels bit-identical to the single-process reference;
* ``gateway_slo`` — the SLO-gateway A/B (:mod:`repro.gateway`): a seeded
  bursty overload trace served FIFO with no admission control (baseline)
  vs through :class:`~repro.gateway.SLOGateway` with the EDF policy on
  identical capacity (optimized), gating on the gateway holding tail
  latency and deadline-miss rate (FIFO must miss at least 2x more
  deadlines), proving exactly-once accounting of admitted requests,
  counting every degradation, and re-verifying non-degraded pixels
  bit-identical to the single-process reference;
* ``execute_frame_*`` — the pixel-serving path on the block-based eCNN
  backend and a whole-frame baseline (steady-state serving: repeats of the
  same frame are answered from the session's content-addressed frame
  cache);
* ``execute_frame_parallel`` — the pixel A/B scenario: one frame served
  fresh through the block flow (baseline) and through the cached serving
  steady state (optimized), verifying on every run that both produce
  bit-identical pixels (the id predates the removal of the fused
  block-parallel twin and is kept for BENCH trajectory comparisons);
* ``video_stream`` — the video delta-reuse A/B: seeded static / panning /
  scene-cut camera sequences served frame by frame, full block inference
  (baseline) vs :class:`~repro.runtime.video.VideoStream` exact-reuse
  delta serving (optimized), recording the per-motion-model reuse curve,
  requiring at least a 5x static-camera speedup and verifying every
  served frame bit-identical to full re-inference at the same block
  geometry;
* ``hotpath_memoization`` — the A/B scenario: the same profile pass with
  the process-level memos disabled (baseline) and enabled (optimized),
  recording the measured speedup and checking the analytic figures are
  bit-identical between the two modes.

Every scenario is deterministic in its *figures* (seeded workloads, stable
scenario ids); only wall time varies run to run.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np

from repro import hotpath
from repro.analysis.sweeps import cross_backend_sweep
from repro.analysis.workloads import synthetic_image
from repro.api import Session, available_backends
from repro.bench.harness import BenchScenario, BenchSuite, PhaseRecorder, ScenarioOutcome
from repro.runtime.cache import ResultCache
from repro.runtime.cluster import ServingCluster
from repro.runtime.engine import ServingEngine
from repro.runtime.trace import trace

#: The four deployment scenarios of Sections 7.2-7.3, in catalogue order.
CATALOGUE: Tuple[str, ...] = ("denoise", "super_resolution", "style_transfer", "recognition")


def _cache_pairs(cache: ResultCache):
    stats = cache.stats
    return (
        ("hits", float(stats.hits)),
        ("misses", float(stats.misses)),
        ("hit_rate", stats.hit_rate),
        ("entries", float(stats.entries)),
    )


def _profile_pass(recorder: PhaseRecorder, session: Session):
    """Compile + profile the whole catalogue on ``session``; returns figures."""
    figures = []
    for name in CATALOGUE:
        with recorder.phase("compile"):
            session.compile(name)
        with recorder.phase("profile"):
            profile = session.profile(name)
        figures.append((f"fps:{name}", 1.0 / profile.frame_latency_s))
    return tuple(figures)


def _profile_scenario(name: str, description: str, *, cold: bool, setup_prime: bool):
    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        if cold:
            hotpath.clear_all()
        cache = ResultCache()
        session = Session(backend="ecnn", cache=cache)
        figures = _profile_pass(recorder, session)
        return ScenarioOutcome(
            units=float(len(CATALOGUE)), figures=figures, cache=_cache_pairs(cache)
        )

    setup = None
    if setup_prime:

        def setup() -> None:
            _profile_pass(PhaseRecorder(), Session(backend="ecnn", cache=ResultCache()))

    return BenchScenario(
        name=name,
        description=description,
        backends=("ecnn",),
        unit="profiles",
        run=run,
        setup=setup,
    )


def _warm_cache_scenario():
    session = Session(backend="ecnn", cache=ResultCache())

    def setup() -> None:
        _profile_pass(PhaseRecorder(), session)

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        figures = _profile_pass(recorder, session)
        return ScenarioOutcome(
            units=float(len(CATALOGUE)), figures=figures, cache=_cache_pairs(session.cache)
        )

    return BenchScenario(
        name="profile_warm_cache",
        description="catalogue profiles answered from one warm ResultCache",
        backends=("ecnn",),
        unit="profiles",
        run=run,
        setup=setup,
    )


def _sweep_scenario():
    backends = available_backends()

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        cache = ResultCache()
        with recorder.phase("sweep"):
            rows = cross_backend_sweep(CATALOGUE, backends, cache=cache)
        figures = tuple(
            (f"fps:{workload}:{backend}", 1.0 / profile.frame_latency_s)
            for workload, backend, profile in rows
        )
        return ScenarioOutcome(
            units=float(len(rows)), figures=figures, cache=_cache_pairs(cache)
        )

    def setup() -> None:
        cross_backend_sweep(CATALOGUE, backends, cache=ResultCache())

    return BenchScenario(
        name="sweep_backends",
        description="cross_backend_sweep: catalogue x every registered backend",
        backends=backends,
        unit="profiles",
        run=run,
        setup=setup,
    )


def _serving_scenario(
    trace_name: str, backend: str, instances: int, batch_frames: int
):
    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        cache = ResultCache()
        engine = ServingEngine(
            num_instances=instances,
            max_batch_frames=batch_frames,
            backend=backend,
            cache=cache,
        )
        selected = trace(trace_name)
        with recorder.phase("admit"):
            engine.play(selected)
        with recorder.phase("schedule"):
            report = engine.run()
        schedule = report.schedule
        return ScenarioOutcome(
            units=float(schedule.total_frames),
            figures=(
                ("makespan_s", schedule.makespan_s),
                ("throughput_fps", schedule.throughput_fps),
                ("batches", float(len(schedule.batches))),
            ),
            cache=_cache_pairs(cache),
        )

    def setup() -> None:
        # Prime the process memos so the scenario measures the serving
        # machinery (queueing, batching, placement), not a first cold build.
        for name in CATALOGUE:
            Session(backend=backend, cache=ResultCache()).serving_profile(name)

    return BenchScenario(
        name=f"serving_{trace_name}_i{instances}_b{batch_frames}",
        description=(
            f"ServingEngine.run on the {trace_name!r} trace, "
            f"{instances} instance(s), batch budget {batch_frames}"
        ),
        backends=(backend,),
        unit="frames",
        run=run,
        setup=setup,
    )


def _cluster_scale_scenario(worker_counts: Tuple[int, ...] = (1, 2, 4)):
    image = synthetic_image(64, 64, seed=7)

    def setup() -> None:
        # Prime the process memos so worker startup (fork) inherits warm
        # network builds and the measured passes time serving, not builds.
        for name in CATALOGUE:
            Session(backend="ecnn", cache=ResultCache()).serving_profile(name)

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        figures = []
        fps_curve = []
        total_frames = 0
        clustered = None
        for workers in worker_counts:
            with recorder.phase(f"workers_{workers}"):
                with ServingCluster(
                    workers=workers, backend="ecnn", instances_per_worker=1
                ) as cluster:
                    cluster.play(trace("demo"))
                    report = cluster.run()
                    if workers == worker_counts[-1]:
                        # The widest cluster also serves one pixel frame so
                        # the verify phase can hold the scale-out tier to
                        # the bit-identity bar every other optimization met.
                        clustered = cluster.execute_frame(
                            "denoise", image, cached=False
                        )
            fps_curve.append(report.throughput_fps)
            total_frames += report.total_frames
            figures.append((f"throughput_fps:w{workers}", report.throughput_fps))
        for before, after in zip(fps_curve, fps_curve[1:]):
            if after <= before:
                raise AssertionError(
                    "cluster throughput must increase with the worker count; "
                    f"measured {fps_curve} fps for {worker_counts} workers"
                )
        with recorder.phase("verify"):
            engine = ServingEngine(backend="ecnn", cache=ResultCache())
            reference = engine.execute_frame("denoise", image, cached=False)
        if not np.array_equal(clustered.output.data, reference.output.data):
            raise AssertionError(
                "cluster pixel output differs from the single-process engine"
            )
        figures.append(
            ("output_mean_abs", float(abs(reference.output.data).mean()))
        )
        return ScenarioOutcome(
            units=float(total_frames),
            figures=tuple(figures),
            extra=(("scaling", fps_curve[-1] / fps_curve[0]),),
        )

    return BenchScenario(
        name="cluster_scale",
        description=(
            "ServingCluster on the 'demo' trace at "
            f"{'/'.join(str(count) for count in worker_counts)} workers "
            "(1 instance each): aggregate throughput must increase "
            "monotonically, and cluster pixels are verified bit-identical "
            "to a single-process ServingEngine on every run"
        ),
        backends=("ecnn",),
        unit="frames",
        run=run,
        setup=setup,
    )


def _cluster_frames_scenario(size: int = 64, frames: int = 16, workers: int = 2):
    session = Session(backend="ecnn", cache=ResultCache())
    images = [synthetic_image(size, size, seed=seed) for seed in range(frames)]

    def setup() -> None:
        session.execute("denoise", images[0], cached=False)

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        with recorder.phase("in_process"):
            start = time.perf_counter()
            reference = [
                session.execute("denoise", image, cached=False) for image in images
            ]
            in_process_s = time.perf_counter() - start
        with recorder.phase("spawn"):
            cluster = ServingCluster(
                workers=workers,
                backend="ecnn",
                warm_plans=(session.plan_handle("denoise"),),
            )
        try:
            with recorder.phase("cluster"):
                start = time.perf_counter()
                scattered = cluster.execute_frames("denoise", images, cached=False)
                cluster_s = time.perf_counter() - start
        finally:
            cluster.close()
        for index, (one, many) in enumerate(zip(reference, scattered)):
            if not np.array_equal(one.output.data, many.output.data):
                raise AssertionError(
                    f"cluster serving changed frame {index}'s pixels"
                )
        mean_abs = float(
            np.mean([abs(result.output.data).mean() for result in scattered])
        )
        return ScenarioOutcome(
            units=float(frames),
            figures=(("output_mean_abs", mean_abs),),
            extra=(
                ("baseline_s", in_process_s),
                ("optimized_s", cluster_s),
                ("speedup", in_process_s / cluster_s),
            ),
        )

    return BenchScenario(
        name="cluster_frames",
        description=(
            f"cluster pixel serving: {frames} distinct {size}x{size} denoise "
            f"frames scattered across {workers} worker shards "
            "(ServingCluster.execute_frames), verified bit-for-bit against "
            "in-process per-frame execution; the recorded speedup is "
            "core-bound (about parity on a single-core machine)"
        ),
        backends=("ecnn",),
        unit="frames",
        run=run,
        setup=setup,
    )


def _soak_chaos_scenario(
    worker_counts: Tuple[int, ...] = (1, 2, 4), requests: int = 2_500
):
    from repro.soak import ChaosEvent, SoakConfig, run_soak

    def setup() -> None:
        for name in CATALOGUE:
            Session(backend="ecnn", cache=ResultCache()).serving_profile(name)

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        figures = []
        extra = []
        capacity_curve = []
        total_served = 0
        for workers in worker_counts:
            # Single-worker clusters cannot survive a kill (beheading is a
            # broken schedule, not a survivable fault), so w=1 soaks clean
            # and anchors the capacity curve's origin.
            chaos = (ChaosEvent.parse("kill-worker@50%"),) if workers > 1 else ()
            with recorder.phase(f"workers_{workers}"):
                report = run_soak(
                    SoakConfig(
                        requests=requests,
                        workers=workers,
                        window=512,
                        seed=7,
                        chaos=chaos,
                        cluster_mode="auto",
                    )
                )
            if report.lost or report.duplicated:
                raise AssertionError(
                    f"soak at {workers} workers lost {report.lost} / "
                    f"duplicated {report.duplicated} requests"
                )
            capacity_curve.append(report.capacity_fps)
            total_served += report.served
            figures.extend(
                [
                    (f"capacity_fps:w{workers}", report.capacity_fps),
                    (f"served:w{workers}", float(report.served)),
                    (f"lost:w{workers}", float(report.lost)),
                    (f"duplicated:w{workers}", float(report.duplicated)),
                    (f"parity_checks:w{workers}", float(report.parity_checks)),
                ]
            )
            extra.append((f"requeued:w{workers}", float(report.requeued)))
        for before, after in zip(capacity_curve, capacity_curve[1:]):
            if after <= before:
                raise AssertionError(
                    "soak capacity must increase with the worker count; "
                    f"measured {capacity_curve} fps for {worker_counts} workers"
                )
        return ScenarioOutcome(
            units=float(total_served),
            figures=tuple(figures),
            extra=tuple(extra),
        )

    return BenchScenario(
        name="soak_chaos",
        description=(
            f"repro.soak chaos soak: {requests} Poisson requests through "
            "ServingCluster at "
            f"{'/'.join(str(count) for count in worker_counts)} workers "
            "with a kill-worker@50% mid-run (skipped at one worker); "
            "records the max-sustainable-fps capacity curve (must increase "
            "monotonically), proves exactly-once request accounting, and "
            "re-verifies post-chaos pixels bit-identical to the "
            "single-process reference on every run"
        ),
        backends=("ecnn",),
        unit="requests",
        run=run,
        setup=setup,
    )


def _gateway_slo_scenario(
    requests: int = 400,
    instances: int = 2,
    rate_rps: float = 120.0,
    seed: int = 11,
):
    from itertools import islice

    from repro.gateway import AdmissionRejected, SLOGateway
    from repro.gateway.slo import DEFAULT_SLO_CLASSES, DEFAULT_WORKLOAD_SLO, resolve_slo
    from repro.soak.tracegen import bursty_trace

    image = synthetic_image(64, 64, seed=seed)

    def overload_events():
        # Regenerated from the seed on every pass so a run's admission
        # decisions (and therefore its figures) are repeat-deterministic.
        return list(
            islice(bursty_trace(rate_rps=rate_rps, users=64, seed=seed), requests)
        )

    def setup() -> None:
        for name in CATALOGUE:
            Session(backend="ecnn", cache=ResultCache()).serving_profile(name)
            try:
                Session(backend="frame_based", cache=ResultCache()).serving_profile(name)
            except Exception:
                pass  # fallback backend cannot serve this workload

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        events = overload_events()
        # Baseline: FIFO order, no admission control — every request is
        # queued with the deadline its SLO class would have given it.
        fifo_engine = ServingEngine(
            num_instances=instances, backend="ecnn", cache=ResultCache()
        )
        with recorder.phase("fifo"):
            for event in events:
                slo_class = resolve_slo(
                    event.workload, None, DEFAULT_SLO_CLASSES, DEFAULT_WORKLOAD_SLO
                )
                fifo_engine.submit(
                    event.stream_id,
                    event.workload,
                    frames=event.frames,
                    arrival_s=event.time_s,
                    deadline_s=event.time_s + slo_class.deadline_s,
                    priority=slo_class.priority,
                )
            fifo_schedule = fifo_engine.run().schedule
        fifo_misses = fifo_schedule.deadline_misses
        fifo_p99 = fifo_schedule.latency_percentiles()[0.99]

        # Optimized: the SLO gateway fronting identical capacity with the
        # EDF policy — admission control sheds or degrades what cannot
        # meet its budget instead of letting the queue rot.
        engine = ServingEngine(
            num_instances=instances, backend="ecnn", cache=ResultCache(), policy="edf"
        )
        gateway = SLOGateway(engine)
        ledger = {}
        with recorder.phase("gateway"):
            for event in events:
                try:
                    ticket = gateway.admit(
                        event.stream_id,
                        event.workload,
                        frames=event.frames,
                        arrival_s=event.time_s,
                    )
                except AdmissionRejected:
                    continue
                if ticket.queued:
                    key = (ticket.stream_id, ticket.workload, ticket.frames, ticket.arrival_s)
                    ledger[key] = ledger.get(key, 0) + 1
            report = gateway.drain_now()
        stats = report.stats
        served = {}
        for _, schedule in report.schedules:
            for record in schedule.records:
                request = record.request
                key = (request.stream_id, request.workload, request.frames, request.arrival_s)
                served[key] = served.get(key, 0) + 1
        lost = sum(count - served.get(key, 0) for key, count in ledger.items() if count > served.get(key, 0))
        duplicated = sum(count - ledger.get(key, 0) for key, count in served.items() if count > ledger.get(key, 0))
        if lost or duplicated:
            raise AssertionError(
                f"gateway serving lost {lost} / duplicated {duplicated} "
                "admitted requests (exactly-once violated)"
            )
        gateway_misses = stats.deadline_misses
        if fifo_misses < 2 * max(gateway_misses, 1):
            raise AssertionError(
                "FIFO without admission control must miss at least 2x more "
                f"deadlines than the gateway; measured FIFO {fifo_misses} vs "
                f"gateway {gateway_misses}"
            )
        gateway_p99 = report.latency_s["p99"]
        if gateway_p99 > fifo_p99:
            raise AssertionError(
                "the gateway must hold p99 latency at or below the FIFO "
                f"baseline; measured {gateway_p99:.3f}s vs {fifo_p99:.3f}s"
            )
        if stats.degraded != len(report.degrade_log):
            raise AssertionError(
                f"degraded count {stats.degraded} does not match the degrade "
                f"log ({len(report.degrade_log)} decisions)"
            )
        with recorder.phase("verify"):
            # Non-degraded serving must stay bit-identical: probe one pixel
            # frame through the gateway's primary engine against a fresh
            # single-process reference.
            probe = engine.execute_frame("denoise", image, cached=False)
            reference = ServingEngine(
                backend="ecnn", cache=ResultCache()
            ).execute_frame("denoise", image, cached=False)
        if not np.array_equal(probe.output.data, reference.output.data):
            raise AssertionError(
                "gateway-fronted engine pixel output differs from the "
                "single-process reference"
            )
        return ScenarioOutcome(
            units=float(requests),
            figures=(
                ("fifo_misses", float(fifo_misses)),
                ("fifo_miss_rate", fifo_schedule.deadline_miss_rate),
                ("fifo_p99_s", fifo_p99),
                ("gateway_misses", float(gateway_misses)),
                ("gateway_miss_rate", stats.deadline_miss_rate),
                ("gateway_p99_s", gateway_p99),
                ("admitted", float(stats.admitted)),
                ("degraded", float(stats.degraded)),
                ("shed", float(stats.shed)),
                ("served", float(stats.served)),
            ),
            extra=(
                ("baseline_s", fifo_p99),
                ("optimized_s", gateway_p99),
                ("speedup", fifo_p99 / gateway_p99),
            ),
        )

    return BenchScenario(
        name="gateway_slo",
        description=(
            f"SLO gateway A/B under bursty overload: {requests} heavy-tailed "
            f"requests at {rate_rps:g} rps on {instances} instances, FIFO "
            "without admission control (baseline) vs SLOGateway + EDF on "
            "identical capacity (optimized); gates on the gateway holding "
            "p99 and missing at most half the deadlines FIFO misses, proves "
            "exactly-once accounting of admitted work, counts every "
            "degradation, and re-verifies non-degraded pixels bit-identical "
            "to the single-process reference"
        ),
        backends=("ecnn",),
        unit="requests",
        run=run,
        setup=setup,
    )


def _execute_frame_scenario(backend: str, size: int = 96):
    session = Session(backend=backend, cache=ResultCache())
    image = synthetic_image(size, size, seed=7)

    def setup() -> None:
        session.execute("denoise", image)

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        with recorder.phase("execute"):
            result = session.execute("denoise", image)
        output = result.output.data
        return ScenarioOutcome(
            units=float(output.shape[-2] * output.shape[-1]),
            figures=(("output_mean_abs", float(abs(output).mean())),),
            cache=_cache_pairs(session.cache),
        )

    return BenchScenario(
        name=f"execute_frame_denoise_{size}px",
        description=(
            f"pixel serving: one {size}x{size} denoise frame end to end "
            "(steady state: block-flow execution + frame cache)"
        ),
        backends=(backend,),
        unit="pixels",
        run=run,
        setup=setup,
    )


def _execute_frame_parallel_scenario(size: int = 96, serving_passes: int = 5):
    session = Session(backend="ecnn", cache=ResultCache())
    image = synthetic_image(size, size, seed=7)

    def setup() -> None:
        # Prime the plan compile and process memos so the fresh baseline
        # phase of the first repeat measures execution, not a cold build.
        session.execute("denoise", image, cached=False)

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        with recorder.phase("fresh"):
            start = time.perf_counter()
            fresh = session.execute("denoise", image, cached=False)
            fresh_s = time.perf_counter() - start
        with recorder.phase("serving"):
            # Prime once: the serving steady state (frame answered from the
            # session's content-addressed cache) is what repeat traffic pays.
            session.execute("denoise", image)
            start = time.perf_counter()
            for _ in range(serving_passes):
                served = session.execute("denoise", image)
            serving_s = (time.perf_counter() - start) / serving_passes
        if not np.array_equal(served.output.data, fresh.output.data):
            raise AssertionError(
                "cached serving changed the pixels: served and fresh outputs differ"
            )
        output = fresh.output.data
        return ScenarioOutcome(
            units=float(1 + serving_passes),
            figures=(("output_mean_abs", float(abs(output).mean())),),
            cache=_cache_pairs(session.cache),
            extra=(
                ("baseline_s", fresh_s),
                ("optimized_s", serving_s),
                ("speedup", fresh_s / serving_s),
            ),
        )

    return BenchScenario(
        name="execute_frame_parallel",
        description=(
            f"pixel A/B on one {size}x{size} denoise frame: fresh block flow "
            "vs cached serving steady state (outputs verified bit-identical "
            "every run)"
        ),
        backends=("ecnn",),
        unit="frames",
        run=run,
        setup=setup,
    )


def _video_bench_sequence(kind: str, *, frames: int, seed: int, size: int):
    """Seeded synthetic camera footage for the video-stream scenario.

    ``static`` holds one frame; ``pan`` translates two columns per frame;
    ``cut`` draws an unrelated frame each step.  Deterministic from the
    seed (rule ECNN205), so the recorded reuse curve is reproducible.
    """
    from repro.nn.tensor import FeatureMap

    current = synthetic_image(size, size, seed=seed)
    sequence = [current]
    for step in range(1, frames):
        if kind == "pan":
            current = FeatureMap(data=np.roll(current.data, 2, axis=2))
        elif kind == "cut":
            current = synthetic_image(size, size, seed=seed + 97 * step)
        elif kind != "static":
            raise ValueError(f"unknown sequence kind {kind!r}")
        sequence.append(current)
    return sequence


def _video_stream_scenario(
    size: int = 64,
    output_block: int = 16,
    static_frames: int = 16,
    pan_frames: int = 6,
    cut_frames: int = 4,
):
    from repro.core.blockflow import block_based_inference

    def setup() -> None:
        # Warm the plan compile and kernel memos so the first baseline
        # phase times inference, not a cold build.
        Session(backend="ecnn", cache=ResultCache()).execute(
            "denoise", synthetic_image(size, size, seed=0), cached=False
        )

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        # A fresh session per pass: stream counters (and the figures built
        # from them) must not accumulate across repeats.
        session = Session(backend="ecnn", cache=ResultCache())
        network = session.compile("denoise").network
        figures = []
        extra = []
        speedups = {}
        total_frames = 0
        for kind, count, seed in (
            ("static", static_frames, 101),
            ("pan", pan_frames, 202),
            ("cut", cut_frames, 303),
        ):
            frames = _video_bench_sequence(kind, frames=count, seed=seed, size=size)
            with recorder.phase(f"baseline_{kind}"):
                start = time.perf_counter()
                references = [
                    block_based_inference(network, frame, output_block=output_block)[0]
                    for frame in frames
                ]
                baseline_s = time.perf_counter() - start
            stream = session.video_stream(
                f"bench-{kind}", "denoise", output_block=output_block
            )
            with recorder.phase(f"delta_{kind}"):
                start = time.perf_counter()
                served = [stream.submit(frame) for frame in frames]
                delta_s = time.perf_counter() - start
            # Exact-reuse mode must be bit-identical to full per-frame
            # re-inference at the stream's block geometry — every frame,
            # every run.
            for index, (result, reference) in enumerate(zip(served, references)):
                if not np.array_equal(result.output.data, reference.data):
                    raise AssertionError(
                        f"delta reuse changed pixels: {kind} frame {index} "
                        "differs from full re-inference"
                    )
            stats = stream.stats
            speedups[kind] = baseline_s / delta_s
            total_frames += count
            # The reuse curve is deterministic (seeded footage, exact-mode
            # reuse decisions); wall-time ratios go in ``extra``.
            figures.extend(
                [
                    (f"reuse_rate:{kind}", stats.reuse_rate),
                    (f"blocks_reused:{kind}", float(stats.blocks_reused)),
                    (f"bytes_saved:{kind}", float(stats.bytes_saved)),
                ]
            )
            extra.append((f"speedup:{kind}", speedups[kind]))
            if kind == "static":
                static_baseline_s, static_delta_s = baseline_s, delta_s
            if kind == "cut" and stats.blocks_reused:
                raise AssertionError(
                    "scene cuts must never reuse a block; reused "
                    f"{stats.blocks_reused}"
                )
        if speedups["static"] < 5.0:
            raise AssertionError(
                "static-camera delta serving must be at least 5x faster than "
                f"full per-frame re-inference; measured {speedups['static']:.2f}x"
            )
        return ScenarioOutcome(
            units=float(total_frames),
            figures=tuple(figures),
            extra=tuple(extra)
            + (
                ("baseline_s", static_baseline_s),
                ("optimized_s", static_delta_s),
                ("speedup", speedups["static"]),
            ),
        )

    return BenchScenario(
        name="video_stream",
        description=(
            f"video delta serving: static / panning / scene-cut {size}x{size} "
            f"denoise sequences at output block {output_block}, full "
            "per-frame block inference (baseline) vs VideoStream exact-reuse "
            "delta serving (optimized); records the reuse curve per motion "
            "model, requires >=5x on the static camera, and verifies every "
            "served frame bit-identical to full re-inference"
        ),
        backends=("ecnn",),
        unit="frames",
        run=run,
        setup=setup,
    )


def _hotpath_scenario(optimized_passes: int = 5):
    def one_pass() -> Tuple[Tuple[str, float], ...]:
        session = Session(backend="ecnn", cache=ResultCache())
        return tuple(
            (f"fps:{name}", 1.0 / session.profile(name).frame_latency_s)
            for name in CATALOGUE
        )

    def run(recorder: PhaseRecorder) -> ScenarioOutcome:
        with recorder.phase("baseline"):
            with hotpath.disabled():
                start = time.perf_counter()
                baseline_figures = one_pass()
                baseline_s = time.perf_counter() - start
        with recorder.phase("optimized"):
            hotpath.clear_all()
            one_pass()  # prime: the steady state is what the memos buy
            start = time.perf_counter()
            for _ in range(optimized_passes):
                optimized_figures = one_pass()
            optimized_s = (time.perf_counter() - start) / optimized_passes
        if optimized_figures != baseline_figures:
            raise AssertionError(
                "hot-path memoization changed analytic figures: "
                f"{baseline_figures} != {optimized_figures}"
            )
        return ScenarioOutcome(
            units=2.0,
            figures=baseline_figures,
            extra=(
                ("baseline_s", baseline_s),
                ("optimized_s", optimized_s),
                ("speedup", baseline_s / optimized_s),
            ),
        )

    return BenchScenario(
        name="hotpath_memoization",
        description=(
            "A/B of the fresh-session catalogue profile pass with process "
            "memos disabled vs enabled (figures must be bit-identical)"
        ),
        backends=("ecnn",),
        unit="passes",
        run=run,
    )


def default_suite() -> BenchSuite:
    """The standard ``repro-bench`` suite (what ``BENCH_<n>.json`` records)."""
    scenarios = [
        _profile_scenario(
            "profile_cold",
            "catalogue compile+profile from scratch (fresh cache, cleared memos)",
            cold=True,
            setup_prime=False,
        ),
        _profile_scenario(
            "profile_memoized",
            "catalogue compile+profile on a fresh cache with warm process memos",
            cold=False,
            setup_prime=True,
        ),
        _warm_cache_scenario(),
        _sweep_scenario(),
        _serving_scenario("demo", "ecnn", 1, 8),
        _serving_scenario("demo", "ecnn", 2, 8),
        _serving_scenario("demo", "ecnn", 4, 16),
        _serving_scenario("steady", "ecnn", 2, 8),
        _serving_scenario("burst", "eyeriss", 2, 8),
        _cluster_scale_scenario(),
        _cluster_frames_scenario(),
        _soak_chaos_scenario(),
        _gateway_slo_scenario(),
        _execute_frame_scenario("ecnn"),
        _execute_frame_scenario("frame_based"),
        _execute_frame_parallel_scenario(),
        _video_stream_scenario(),
        _hotpath_scenario(),
    ]
    return BenchSuite("default", scenarios)


def suite_backends(suite: BenchSuite) -> Tuple[str, ...]:
    """Sorted union of every backend the suite's scenarios touch."""
    names = sorted({name for scenario in suite.scenarios for name in scenario.backends})
    return tuple(names)
