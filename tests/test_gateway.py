"""repro.gateway: SLO classes, cost model, admission control, EDF vs FIFO.

The EDF-vs-FIFO property tests are deliberately set up as the single-machine
sequencing problem Jackson's rule solves exactly — one instance, one
workload (so parameter-load charges cancel), every request available at
``t=0`` — because there EDF is *provably* optimal for maximum lateness:
whenever FIFO meets every deadline EDF must too, and EDF's worst lateness
can never exceed FIFO's.  Seeded trials turn that theorem into a pinned
regression property.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.gateway import (
    AdmissionRejected,
    CostModel,
    DEFAULT_CLASS,
    DEFAULT_SLO_CLASSES,
    DEFAULT_WORKLOAD_SLO,
    LatencyHistogram,
    SLOClass,
    SLOGateway,
)
from repro.gateway.gateway import FALLBACK_SHARD
from repro.gateway.slo import slo_class
from repro.runtime.cache import ResultCache
from repro.runtime.cluster import ServingCluster
from repro.runtime.scheduler import RequestQueue, ScheduleResult, Scheduler
from repro.soak import ChaosEvent, SoakConfig, run_soak
from repro.soak.tracegen import ARRIVALS, arrival_trace


def _session() -> Session:
    return Session(backend="ecnn", cache=ResultCache())


def _serve(policy: str, *submissions: dict) -> ScheduleResult:
    """Queue ``submissions`` (``submit`` keyword arguments) under
    ``policy`` and schedule them on one instance, as a cluster worker does."""
    queue = RequestQueue(policy=policy)
    for submission in submissions:
        queue.submit(**submission)
    return Scheduler(_session().profile, policy=policy).run(queue.drain())


def _cluster(instances: int = 1) -> ServingCluster:
    """A one-shard EDF cluster for the gateway to front."""
    return ServingCluster(
        workers=1, instances_per_worker=instances, mode="inline", policy="edf"
    )


# ---------------------------------------------------------------- SLO classes
class TestSLOClasses:
    def test_defaults_cover_the_catalogue(self):
        for workload, class_name in DEFAULT_WORKLOAD_SLO.items():
            slo = slo_class(workload)
            assert slo.name == class_name
            assert slo.deadline_s > 0

    def test_interactive_is_tightest_and_batch_is_not_degradable(self):
        classes = DEFAULT_SLO_CLASSES
        assert classes["interactive"].deadline_s < classes["standard"].deadline_s
        assert classes["standard"].deadline_s < classes["batch"].deadline_s
        assert not classes["batch"].degradable

    def test_unknown_workload_falls_back_to_standard(self):
        assert slo_class("mystery").name == "standard"

    def test_unknown_class_and_bad_deadline_raise(self):
        # The workload map and its default name only catalogue classes, so
        # no workload resolves to an unknown class.
        assert set(DEFAULT_WORKLOAD_SLO.values()) | {DEFAULT_CLASS} <= set(DEFAULT_SLO_CLASSES)
        with pytest.raises(ValueError, match="positive"):
            SLOClass("broken", deadline_s=0.0, priority=1)


# ---------------------------------------------------------- latency histogram
class TestLatencyHistogram:
    def test_percentiles_are_ordered_and_bracket_the_samples(self):
        histogram = LatencyHistogram()
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.001, 2.0, size=500)
        for sample in samples:
            histogram.observe(float(sample))
        out = histogram.percentiles()
        assert set(out) == {"p50", "p95", "p99"}
        assert out["p50"] <= out["p95"] <= out["p99"]
        # Nearest-rank on log bins: each label is an upper bin edge, so it
        # sits within one bin width (~4.6%) above the true percentile.
        assert out["p99"] <= samples.max() * 1.05
        assert histogram.total == 500

    def test_empty_histogram_reports_nothing(self):
        assert LatencyHistogram().percentiles() == {}

    def test_empty_histogram_still_rejects_bad_quantiles(self):
        # Validation does not depend on whether anything was observed.
        with pytest.raises(ValueError, match="outside"):
            LatencyHistogram().percentiles((("bad", 1.5),))

    def test_invalid_quantile_raises(self):
        histogram = LatencyHistogram()
        histogram.observe(0.01)
        with pytest.raises(ValueError, match="outside"):
            histogram.percentiles((("p0", 0.0),))


# -------------------------------------------------------------- cost model
class TestCostModel:
    def test_seeds_from_the_serving_profile(self):
        session = _session()
        model = CostModel(session.profile)
        profile = session.profile("denoise")
        assert model.frame_cost_s("denoise", 3) == pytest.approx(
            3 * profile.frame_latency_s
        )
        assert model.load_cost_s("denoise") == pytest.approx(profile.load_time_s)

    def test_observation_moves_the_estimate_toward_measurements(self):
        model = CostModel(_session().profile)
        before = model.frame_cost_s("denoise", 1)
        model.observe("denoise", 1, before * 4)
        after = model.frame_cost_s("denoise", 1)
        assert before < after < before * 4

    def test_observe_schedule_calibrates_from_a_real_drain(self):
        schedule = _serve(
            "fifo",
            *(
                dict(stream_id=f"s{index}", workload="denoise", frames=2, arrival_s=index * 0.01)
                for index in range(6)
            ),
        )
        model = CostModel(_session().profile)
        before = model.frame_cost_s("denoise", 1)
        model.observe_schedule(schedule)
        assert model.frame_cost_s("denoise", 1) > 0
        # Batch busy time folds the amortized load in, so the calibrated
        # per-frame cost can only grow from the pure-profile seed.
        assert model.frame_cost_s("denoise", 1) >= before


# ------------------------------------------------------------- admission core
class TestAdmission:
    def test_uncontended_request_is_admitted_with_an_absolute_deadline(self):
        gateway = SLOGateway(_cluster())
        ticket = gateway.admit("cam-0", "recognition", frames=1, arrival_s=2.0)
        assert ticket.action == "admit" and ticket.target == "primary"
        assert not ticket.degraded and ticket.queued
        assert ticket.slo == "interactive"
        assert ticket.deadline_s == pytest.approx(
            2.0 + DEFAULT_SLO_CLASSES["interactive"].deadline_s
        )
        assert gateway.stats.admitted == 1

    def test_overload_walks_the_degradation_ladder(self):
        gateway = SLOGateway(_cluster())
        tickets = []
        for index in range(120):
            try:
                tickets.append(gateway.admit(f"u{index}", "denoise", frames=4, arrival_s=0.0))
            except AdmissionRejected:
                pass
        degraded = [ticket for ticket in tickets if ticket.degraded]
        assert degraded, "a 120-request instantaneous burst must overload one instance"
        assert gateway.stats.degraded == len(degraded) == len(gateway.degrade_log)
        assert gateway.stats.shed == 120 - len(tickets)
        actions = {ticket.action for ticket in degraded}
        assert actions <= {"fallback_backend", "reduce_frames"}
        for ticket, decision in zip(degraded, gateway.degrade_log):
            assert decision.action == ticket.action
            assert decision.primary_estimate_s > DEFAULT_SLO_CLASSES["standard"].deadline_s

    def test_request_no_rung_fits_is_shed_with_the_primary_overshoot(self):
        gateway = SLOGateway(_cluster())
        tickets = []
        with pytest.raises(AdmissionRejected) as excinfo:
            for index in range(300):
                tickets.append(gateway.admit(f"u{index}", "denoise", frames=1, arrival_s=0.0))
        rejected = excinfo.value
        # A shed is no degrade: it logs no decision and queues nothing.
        assert gateway.stats.shed == 1
        assert gateway.stats.degraded == len(gateway.degrade_log) == sum(
            ticket.degraded for ticket in tickets
        )
        assert all(ticket.action == "fallback_backend" for ticket in tickets if ticket.degraded)
        # The primary estimate: the owning shard's one parameter load, every
        # frame queued there, and this request's own frame.
        model = gateway.cost_model
        estimate = (
            model.load_cost_s("denoise")
            + sum(model.frame_cost_s("denoise", t.frames) for t in tickets if t.target == "primary")
            + model.frame_cost_s("denoise", 1)
        )
        budget = DEFAULT_SLO_CLASSES["standard"].deadline_s
        assert rejected.retry_after_s == pytest.approx(estimate - budget)
        assert rejected.retry_after_s > 0
        report = gateway.drain_now()
        assert sum(len(schedule.records) for _, schedule in report.schedules) == len(tickets)

    def test_non_degradable_class_is_shed_with_a_retry_hint(self):
        gateway = SLOGateway(_cluster())
        with pytest.raises(AdmissionRejected) as excinfo:
            for index in range(400):
                gateway.admit(f"u{index}", "style_transfer", frames=4, arrival_s=0.0)
        rejected = excinfo.value
        assert rejected.slo == "batch"
        assert rejected.workload == "style_transfer"
        assert rejected.retry_after_s > 0
        assert gateway.stats.shed == 1

    def test_drain_resets_the_backlog_model(self):
        gateway = SLOGateway(_cluster())
        first = None
        for index in range(200):
            ticket = gateway.admit(f"u{index}", "denoise", frames=2, arrival_s=0.0)
            if first is None:
                first = ticket
            if ticket.degraded:
                break
        assert ticket.degraded
        gateway.drain_now()
        again = gateway.admit("fresh", "denoise", frames=2, arrival_s=100.0)
        assert again.action == "admit", "a drained gateway has an empty backlog"


# ------------------------------------------------------- EDF vs FIFO property
class TestEdfVersusFifo:
    @staticmethod
    def _schedule(policy, deadlines, frames):
        return _serve(
            policy,
            *(
                dict(
                    stream_id=f"s{index}",
                    workload="denoise",
                    frames=count,
                    arrival_s=0.0,
                    deadline_s=deadline,
                    priority=0,
                )
                for index, (deadline, count) in enumerate(zip(deadlines, frames))
            ),
        )

    @pytest.mark.parametrize("trial", range(10))
    def test_edf_meets_every_deadline_fifo_meets(self, trial):
        """Jackson's rule, pinned: same burst, same capacity — if FIFO
        misses nothing then EDF misses nothing, and EDF's worst lateness
        never exceeds FIFO's."""
        rng = np.random.default_rng(trial)
        count = int(rng.integers(4, 14))
        deadlines = [float(d) for d in rng.uniform(0.05, 4.0, size=count)]
        frames = [int(f) for f in rng.integers(1, 4, size=count)]
        fifo = self._schedule("fifo", deadlines, frames)
        edf = self._schedule("edf", deadlines, frames)
        assert fifo.total_frames == edf.total_frames
        assert fifo.deadline_requests == edf.deadline_requests == count
        if fifo.deadline_misses == 0:
            assert edf.deadline_misses == 0
        assert edf.max_lateness_s <= fifo.max_lateness_s + 1e-9

    def test_edf_rescues_a_trace_fifo_loses(self):
        # Arrival order is the *reverse* of deadline order: FIFO serves the
        # loose deadlines first and blows the tight ones, EDF reorders.
        deadlines = [4.0, 3.0, 2.0, 0.4, 0.2]
        frames = [4, 4, 4, 1, 1]
        fifo = self._schedule("fifo", deadlines, frames)
        edf = self._schedule("edf", deadlines, frames)
        assert edf.deadline_misses < fifo.deadline_misses
        assert edf.max_lateness_s < fifo.max_lateness_s

    def test_priority_breaks_deadline_ties(self):
        schedule = _serve(
            "edf",
            dict(stream_id="low", workload="denoise", deadline_s=1.0, priority=0),
            dict(stream_id="high", workload="denoise", deadline_s=1.0, priority=5),
        )
        order = [record.request.stream_id for record in schedule.records]
        assert order == ["high", "low"]


# -------------------------------------------------------- drain and reporting
class TestGatewayDrain:
    def _flood(self, gateway, requests=150, seed=5):
        from itertools import islice

        ledger = {}
        for event in islice(
            arrival_trace(
                rate_rps=150.0, users=32, seed=seed, burst_size=ARRIVALS["bursty"]
            ),
            requests,
        ):
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
        return ledger

    def test_admitted_work_is_served_exactly_once(self):
        gateway = SLOGateway(_cluster(instances=2))
        ledger = self._flood(gateway)
        report = gateway.drain_now()
        served = {}
        for _, schedule in report.schedules:
            for record in schedule.records:
                request = record.request
                key = (request.stream_id, request.workload, request.frames, request.arrival_s)
                served[key] = served.get(key, 0) + 1
        assert served == ledger
        assert report.stats.served == sum(ledger.values())

    def test_report_surfaces_percentiles_and_degradations(self):
        gateway = SLOGateway(_cluster(instances=2))
        self._flood(gateway)
        report = gateway.drain_now()
        assert set(report.latency_s) == {"p50", "p95", "p99"}
        assert report.latency_s["p50"] <= report.latency_s["p99"]
        assert report.stats.degraded == len(report.degrade_log)
        assert report.stats.deadline_requests > 0
        rendered = report.render()
        assert "deadline miss rate" in rendered
        assert "latency p50/p95/p99" in rendered

    def test_fallback_schedules_report_under_the_fallback_shard(self):
        gateway = SLOGateway(_cluster())
        self._flood(gateway, requests=250)
        report = gateway.drain_now()
        if any(d.action == "fallback_backend" for d in report.degrade_log):
            assert any(
                shard == FALLBACK_SHARD and schedule.records
                for shard, schedule in report.schedules
            )

    @pytest.mark.parametrize(
        "instances, requests, outcome",
        [
            (1, 250, (94, 3, {"fallback_backend": 2, "reduce_frames": 1}, 153, 97, 97, 19)),
            (2, 150, (79, 3, {"fallback_backend": 2, "reduce_frames": 1}, 68, 82, 82, 9)),
        ],
    )
    def test_flood_outcome_is_pinned(self, instances, requests, outcome):
        """Every admission decision of a seeded bursty flood, pinned: a
        change to placement, the ladder or the cost model moves a count."""
        gateway = SLOGateway(_cluster(instances=instances))
        self._flood(gateway, requests=requests)
        report = gateway.drain_now()
        stats = report.stats
        assert (
            stats.admitted, stats.degraded, stats.by_action, stats.shed,
            stats.served, stats.deadline_requests, stats.deadline_misses,
        ) == outcome
        assert {shard for shard, _ in report.schedules} == {FALLBACK_SHARD, 0}

    def test_engine_report_mentions_latency_and_deadlines(self):
        with _cluster() as cluster:
            cluster.submit("a", "denoise", frames=1, arrival_s=0.0, deadline_s=0.001)
            cluster.submit("b", "denoise", frames=1, arrival_s=0.0, deadline_s=10.0)
            rendered = cluster.run().render()
        assert "latency p50" in rendered
        assert "deadlines: 1/2 missed (50.0%)" in rendered

    def test_cluster_target_routes_and_accounts_deadlines(self):
        with ServingCluster(
            workers=2, backend="ecnn", mode="inline", policy="edf"
        ) as cluster:
            gateway = SLOGateway(cluster)
            tickets = [
                gateway.admit(f"cam-{index}", "recognition", frames=1, arrival_s=0.01 * index)
                for index in range(8)
            ]
            report = gateway.drain_now()
            shards = {shard for shard, _ in report.schedules}
            assert shards <= {0, 1}
            assert report.stats.served == sum(t.queued for t in tickets)
            assert report.stats.deadline_requests == sum(
                schedule.deadline_requests for _, schedule in report.schedules
            )
            assert report.stats.deadline_requests == report.stats.served


# --------------------------------------------------- gateway under chaos soak
class TestGatewaySoak:
    def test_chaos_under_gateway_keeps_exactly_once(self):
        """Kill a worker mid-burst while the gateway is admitting: the
        exactly-once ledger must reconcile — nothing lost, nothing served
        twice — and degradations must be counted, not dropped."""
        report = run_soak(
            SoakConfig(
                requests=800,
                workers=3,
                arrival="bursty",
                users=60,
                window=256,
                seed=5,
                cluster_mode="inline",
                chaos=(ChaosEvent.parse("kill-worker@50%"),),
                gateway=True,
            )
        )
        assert report.lost == 0
        assert report.duplicated == 0
        assert report.served == report.admitted
        # The kill must actually fire: chaos thresholds track replay
        # progress, not admissions, so gateway shedding cannot starve it.
        (kill,) = report.chaos_applied
        assert kill["applied"] is True
        assert report.live_workers_end == 2
        assert report.deadline_requests > 0
        # Every request is either ledgered (``degraded`` overlaps
        # ``admitted``: a degrade still enters a queue) or shed.
        assert report.admitted + report.shed == report.config["requests"]
        assert report.degraded <= report.admitted
        assert report.config["gateway"] is True

    def test_gateway_soak_is_deterministic(self):
        import json

        config = SoakConfig(
            requests=400,
            workers=2,
            arrival="bursty",
            users=40,
            window=128,
            seed=9,
            cluster_mode="inline",
            gateway=True,
        )
        first = json.dumps(run_soak(config).deterministic_dict(), sort_keys=True)
        second = json.dumps(run_soak(config).deterministic_dict(), sort_keys=True)
        assert first == second

    def test_gateway_soak_render_mentions_degradations(self):
        report = run_soak(
            SoakConfig(
                requests=300,
                workers=2,
                arrival="bursty",
                users=30,
                window=128,
                seed=3,
                cluster_mode="inline",
                gateway=True,
            )
        )
        rendered = report.render()
        assert "requests degraded" in rendered
        assert "deadline misses" in rendered
