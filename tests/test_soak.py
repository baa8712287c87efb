"""The soak & chaos tier: generators, schedules, exactly-once, determinism.

Property-style coverage of :mod:`repro.soak`:

* trace-generator statistics — empirical arrival rates of the Poisson /
  bursty / diurnal processes within tolerance at n=100k, strictly
  increasing timestamps, O(1) memory (no materialized trace);
* chaos specs and seeded random schedules;
* soak properties under seeded random kill/saturate/flip/evict schedules —
  no request lost or double-served (exactly-once ledger), requeue counters
  reconcile with the kill victims' queue depths, and the whole report is
  byte-deterministic for a fixed seed;
* SoakReport JSON round-trip + schema validation, and the CLI.
"""

from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from repro.soak import (
    CHAOS_KINDS,
    ChaosEvent,
    ChaosSpecError,
    SCHEMA,
    SoakConfig,
    SoakReport,
    bursty_trace,
    diurnal_trace,
    poisson_trace,
    random_schedule,
    run_soak,
    validate_report,
)
from repro.soak.cli import main as soak_main
from repro.soak.harness import SoakSchemaError

RATE = 500.0


def _generators():
    """Each arrival process with kwargs that make its mean rate measurable."""
    return (
        ("poisson", poisson_trace, {}),
        ("bursty", bursty_trace, {}),
        # A short period so n=100k spans many whole diurnal cycles (the
        # sinusoid only averages out over complete periods).
        ("diurnal", diurnal_trace, {"period_s": 5.0}),
    )


# ------------------------------------------------------------ trace generators
class TestTraceGenerators:
    @pytest.mark.parametrize("name,factory,kwargs", _generators())
    def test_empirical_rate_within_tolerance_at_100k(self, name, factory, kwargs):
        count = 100_000
        last = -1.0
        for event in itertools.islice(
            factory(rate_rps=RATE, users=1_000, seed=2, **kwargs), count
        ):
            assert event.time_s > last, f"{name}: timestamps must strictly increase"
            last = event.time_s
        empirical = count / last
        assert empirical == pytest.approx(RATE, rel=0.05), (
            f"{name}: configured {RATE} rps, measured {empirical:.1f}"
        )

    def test_streaming_memory_stays_o1(self):
        # 150k events consumed one at a time must not allocate anywhere
        # near a materialized trace (~tens of MB); the generators draw in
        # fixed 4096-element chunks.
        generator = poisson_trace(rate_rps=RATE, users=10_000, seed=5)
        tracemalloc.start()
        for event in itertools.islice(generator, 150_000):
            pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB is not O(1)"

    def test_deterministic_and_seed_sensitive(self):
        take = lambda seed: list(
            itertools.islice(poisson_trace(rate_rps=RATE, users=100, seed=seed), 2_000)
        )
        assert take(7) == take(7)
        assert take(7) != take(8)

    def test_payload_draws_respect_population_mix_and_frames(self):
        users = 17
        events = list(
            itertools.islice(
                bursty_trace(
                    rate_rps=RATE,
                    users=users,
                    seed=3,
                    workload_mix=(("denoise", 0.5), ("recognition", 0.5)),
                    frames_range=(2, 3),
                ),
                5_000,
            )
        )
        assert {event.workload for event in events} == {"denoise", "recognition"}
        assert {event.frames for event in events} == {2, 3}
        streams = {event.stream_id for event in events}
        assert len(streams) <= users
        assert all(0 <= int(stream[1:]) < users for stream in streams)

    def test_diurnal_intensity_actually_varies(self):
        # Bucket arrivals by period phase: the peak half of the sine must
        # see substantially more traffic than the trough half.
        period = 4.0
        counts = [0, 0]
        for event in itertools.islice(
            diurnal_trace(rate_rps=RATE, users=100, seed=9, period_s=period, depth=0.8),
            50_000,
        ):
            counts[int((event.time_s % period) >= period / 2)] += 1
        assert counts[0] > 1.5 * counts[1]

    def test_validation(self):
        with pytest.raises(KeyError, match="unknown arrival"):
            from repro.soak import arrival_trace

            arrival_trace("bogus", rate_rps=1.0, users=1, seed=0)
        with pytest.raises(ValueError):
            next(poisson_trace(rate_rps=0.0, users=10, seed=0))
        with pytest.raises(ValueError):
            next(poisson_trace(rate_rps=1.0, users=0, seed=0))
        with pytest.raises(ValueError):
            next(poisson_trace(rate_rps=1.0, users=1, seed=0, frames_range=(3, 2)))
        with pytest.raises(ValueError):
            next(bursty_trace(rate_rps=1.0, users=1, seed=0, burst_size=0))
        with pytest.raises(ValueError):
            next(diurnal_trace(rate_rps=1.0, users=1, seed=0, depth=1.0))


# ----------------------------------------------------------------- chaos specs
class TestChaosSpecs:
    def test_parse_percent_and_fraction(self):
        assert ChaosEvent.parse("kill-worker@50%") == ChaosEvent("kill-worker", 0.5)
        assert ChaosEvent.parse("flip-mode@0.25") == ChaosEvent("flip-mode", 0.25)
        assert ChaosEvent.parse("evict-frame-cache@100%").at_fraction == 1.0
        assert ChaosEvent.parse("saturate-shard@30%").render() == "saturate-shard@30%"

    @pytest.mark.parametrize(
        "spec", ["kill-worker", "kill-worker@x%", "reboot@50%", "kill-worker@150%"]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ChaosSpecError):
            ChaosEvent.parse(spec)

    def test_random_schedule_is_seeded_and_sorted(self):
        first = random_schedule(4, events=5)
        assert first == random_schedule(4, events=5)
        assert first != random_schedule(5, events=5)
        assert [event.at_fraction for event in first] == sorted(
            event.at_fraction for event in first
        )
        assert all(event.kind in CHAOS_KINDS for event in first)


# ------------------------------------------------------------- soak properties
def _inline_config(seed: int, chaos=(), **overrides) -> SoakConfig:
    settings = dict(
        requests=1_200,
        workers=3,
        users=60,
        window=256,
        seed=seed,
        cluster_mode="inline",
        chaos=tuple(chaos),
    )
    settings.update(overrides)
    return SoakConfig(**settings)


class TestSoakProperties:
    @pytest.mark.parametrize("case_seed", range(4))
    def test_random_chaos_schedule_preserves_exactly_once(self, case_seed):
        """Seeded random kill/saturate/flip/evict schedules: nothing lost,
        nothing double-served, counters reconcile against admissions."""
        schedule = random_schedule(case_seed, events=3)
        report = run_soak(_inline_config(case_seed, chaos=schedule))
        assert report.lost == 0
        assert report.duplicated == 0
        assert report.served == report.admitted
        assert report.admitted + report.shed == report.config["requests"]
        assert report.live_workers_end >= 1
        validate_report(report.to_json_dict())

    def test_kill_requeues_reconcile_with_victim_queue_depths(self):
        """Inline kill-only soak: the requeue counter equals the victims'
        queue depths at kill time, plus at most one pixel-probe failover
        per kill (the sticky probe owner may have been the victim)."""
        schedule = (
            ChaosEvent.parse("kill-worker@30%"),
            ChaosEvent.parse("kill-worker@70%"),
        )
        report = run_soak(_inline_config(21, chaos=schedule))
        kills = [
            entry for entry in report.chaos_applied
            if entry["kind"] == "kill-worker" and entry["applied"]
        ]
        assert len(kills) == 2
        displaced = sum(entry["displaced_hint"] for entry in kills)
        assert displaced <= report.requeued <= displaced + len(kills)

    def test_fixed_seed_is_byte_deterministic(self):
        config = _inline_config(
            11,
            chaos=(
                ChaosEvent.parse("saturate-shard@20%"),
                ChaosEvent.parse("kill-worker@40%"),
                ChaosEvent.parse("evict-frame-cache@60%"),
            ),
        )
        first = json.dumps(run_soak(config).deterministic_dict(), sort_keys=True)
        second = json.dumps(run_soak(config).deterministic_dict(), sort_keys=True)
        assert first == second

    def test_single_worker_chaos_kill_is_skipped_not_fatal(self):
        report = run_soak(
            _inline_config(
                2, chaos=(ChaosEvent.parse("kill-worker@50%"),), workers=1,
                requests=400, window=128,
            )
        )
        (entry,) = report.chaos_applied
        assert entry["applied"] is False
        assert report.lost == 0
        assert report.live_workers_end == 1

    def test_saturation_forces_backpressure_then_recovers(self):
        report = run_soak(
            _inline_config(
                6,
                chaos=(ChaosEvent.parse("saturate-shard@40%"),),
                workers=2,
                max_pending=64,
                requests=800,
                window=512,
            )
        )
        assert report.backpressure_hits >= 1
        assert report.shed == 0
        assert report.served == report.admitted == 800

    def test_cache_curve_and_latency_are_populated(self):
        report = run_soak(_inline_config(13, requests=600, window=128))
        assert report.cache_curve, "curve must be sampled"
        assert report.cache_curve[-1][0] == report.admitted
        assert set(report.latency_s) == {"p50", "p95", "p99"}
        assert (
            0.0
            < report.latency_s["p50"]
            <= report.latency_s["p95"]
            <= report.latency_s["p99"]
        )
        assert report.capacity_fps > 0.0
        assert report.achieved_fps > 0.0


# ------------------------------------------------------------- report + schema
class TestSoakReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_soak(
            _inline_config(17, chaos=(ChaosEvent.parse("kill-worker@50%"),))
        )

    def test_round_trips_through_json(self, report, tmp_path):
        path = report.save(tmp_path / "soak.json")
        loaded = SoakReport.load(path)
        assert loaded.deterministic_dict() == report.deterministic_dict()
        assert loaded.schema == SCHEMA

    def test_render_mentions_the_headline_numbers(self, report):
        rendered = report.render()
        assert "exactly-once verified" in rendered
        assert "kill-worker" in rendered
        assert str(report.admitted) in rendered

    def test_schema_rejects_bad_documents(self, report):
        good = report.to_json_dict()
        validate_report(good)
        with pytest.raises(SoakSchemaError, match="schema mismatch"):
            validate_report({**good, "schema": "repro-soak/99"})
        missing = dict(good)
        del missing["requeued"]
        with pytest.raises(SoakSchemaError, match="missing field"):
            validate_report(missing)
        with pytest.raises(SoakSchemaError, match="type"):
            validate_report({**good, "admitted": "many"})
        with pytest.raises(SoakSchemaError, match="cache_curve"):
            validate_report({**good, "cache_curve": [[1, 2]]})
        with pytest.raises(SoakSchemaError, match="chaos_applied"):
            validate_report({**good, "chaos_applied": [{"kind": "kill-worker"}]})
        with pytest.raises(SoakSchemaError):
            validate_report("not a dict")


# -------------------------------------------------------------- submit backoff
class TestSubmitBackoff:
    """The bounded-exponential-backoff retry path of the submit loop."""

    @staticmethod
    def _helper():
        from repro.soak.harness import _Accounting, _submit_with_backoff

        return _Accounting, _submit_with_backoff

    @staticmethod
    def _rng(seed: int = 0):
        return np.random.default_rng(np.random.SeedSequence([seed, 0xB0FF]))

    def test_clean_submit_touches_no_counters(self):
        _Accounting, backoff = self._helper()
        accounting = _Accounting()
        key = backoff(
            lambda: ("s", "denoise", 1, 0.0),
            lambda: None,
            accounting,
            SoakConfig(requests=1),
            self._rng(),
        )
        assert key == ("s", "denoise", 1, 0.0)
        assert accounting.retries == 0
        assert accounting.backpressure_hits == 0
        assert accounting.backoff_wait_s == 0.0

    def test_retries_then_succeeds_with_bounded_jittered_delay(self):
        from repro.runtime.cluster import ClusterBackpressure

        _Accounting, backoff = self._helper()
        accounting = _Accounting()
        config = SoakConfig(
            requests=1, submit_retries=4, backoff_base_s=0.01, backoff_cap_s=0.25
        )
        attempts = []
        drains = []

        def submit_once():
            attempts.append(True)
            if len(attempts) < 3:
                raise ClusterBackpressure("full")
            return ("s", "denoise", 1, 0.0)

        key = backoff(submit_once, lambda: drains.append(True), accounting, config, self._rng())
        assert key == ("s", "denoise", 1, 0.0)
        assert accounting.retries == 2
        assert accounting.backpressure_hits == 2
        assert len(drains) == 2, "every retry drains to free capacity first"
        # Two delays: base*2^0 and base*2^1, each jittered into [0.5x, 1.5x).
        low = 0.5 * (0.01 + 0.02)
        high = 1.5 * (0.01 + 0.02)
        assert low <= accounting.backoff_wait_s <= high
        assert accounting.shed == 0

    def test_exhausted_retries_shed_exactly_once(self):
        from repro.runtime.cluster import ClusterBackpressure

        _Accounting, backoff = self._helper()
        accounting = _Accounting()
        config = SoakConfig(requests=1, submit_retries=3)

        def submit_once():
            raise ClusterBackpressure("full")

        key = backoff(submit_once, lambda: None, accounting, config, self._rng())
        assert key is None
        assert accounting.shed == 1
        assert accounting.retries == 3
        assert accounting.backpressure_hits == 4

    def test_delay_is_capped_and_seed_deterministic(self):
        from repro.runtime.cluster import ClusterBackpressure

        _Accounting, backoff = self._helper()
        config = SoakConfig(
            requests=1, submit_retries=6, backoff_base_s=0.1, backoff_cap_s=0.15
        )

        def run(seed):
            accounting = _Accounting()

            def submit_once():
                raise ClusterBackpressure("full")

            backoff(submit_once, lambda: None, accounting, config, self._rng(seed))
            return accounting.backoff_wait_s

        waits = run(1)
        # Six computed delays, each capped at 0.15 then jittered below 1.5x.
        assert waits <= 6 * 0.15 * 1.5
        assert run(1) == waits, "same seed, same simulated wait"
        assert run(2) != waits, "different seed, different jitter"

    def test_admission_rejection_is_not_retried(self):
        from repro.gateway import AdmissionRejected

        _Accounting, backoff = self._helper()
        accounting = _Accounting()
        attempts = []

        def submit_once():
            attempts.append(True)
            raise AdmissionRejected(
                "no", retry_after_s=0.1, stream_id="s", workload="denoise", slo="batch"
            )

        with pytest.raises(AdmissionRejected):
            backoff(submit_once, lambda: None, accounting, SoakConfig(requests=1), self._rng())
        assert len(attempts) == 1, "rejection means slow down, not drain-and-retry"
        assert accounting.retries == 0

    def test_saturated_soak_retries_instead_of_shedding(self):
        report = run_soak(
            _inline_config(
                6,
                chaos=(ChaosEvent.parse("saturate-shard@40%"),),
                workers=2,
                max_pending=64,
                requests=800,
                window=512,
            )
        )
        assert report.retries >= 1
        assert report.retries <= report.backpressure_hits
        assert report.shed == 0
        assert report.served == report.admitted == 800
        assert report.backoff_wait_s > 0.0

    def test_config_validates_retry_knobs(self):
        with pytest.raises(ValueError):
            SoakConfig(requests=1, submit_retries=-1)


# ------------------------------------------------------------------------- CLI
class TestSoakCli:
    def test_smoke_run_writes_schema_valid_report(self, tmp_path, capsys):
        output = tmp_path / "soak-ci.json"
        code = soak_main(
            [
                "--requests", "400",
                "--workers", "2",
                "--cluster-mode", "inline",
                "--window", "128",
                "--chaos", "kill-worker@50%",
                "--seed", "7",
                "--output", str(output),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Soak outcome" in printed
        validate_report(json.loads(output.read_text()))

    def test_bad_chaos_spec_fails_fast(self, capsys):
        assert soak_main(["--chaos", "reboot@50%"]) == 1
        assert "reboot" in capsys.readouterr().out

    def test_module_entry_point(self):
        import repro.soak.__main__  # noqa: F401  (import side: no execution)
