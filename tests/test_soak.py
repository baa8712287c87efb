"""The soak tier: trace generator, kill schedules, exactly-once, determinism.

Property-style coverage of :mod:`repro.soak`:

* trace-generator statistics — empirical arrival rates of the Poisson and
  bursty configurations within tolerance at n=100k, strictly increasing
  timestamps, O(1) memory (no materialized trace);
* ``kill-worker@F`` spec parsing;
* soak properties under seeded random kill schedules — no request lost or
  double-served (exactly-once ledger), requeue counters reconcile with the
  kill victims' queue depths, and the whole report is byte-deterministic
  for a fixed seed;
* backpressure: a window larger than the shard queues forces drain-and-
  retry instead of shedding;
* the SoakReport JSON document and the CLI.
"""

from __future__ import annotations

import itertools
import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from repro.soak import (
    ARRIVALS,
    ChaosEvent,
    ChaosSpecError,
    SoakConfig,
    SoakReport,
    arrival_trace,
    run_soak,
)
from repro.soak.cli import main as soak_main

RATE = 500.0


# ------------------------------------------------------------- trace generator
class TestTraceGenerators:
    @pytest.mark.parametrize("arrival", sorted(ARRIVALS))
    def test_empirical_rate_within_tolerance_at_100k(self, arrival):
        count = 100_000
        last = -1.0
        for event in itertools.islice(
            arrival_trace(
                rate_rps=RATE, users=1_000, seed=2, burst_size=ARRIVALS[arrival]
            ),
            count,
        ):
            assert event.time_s > last, f"{arrival}: timestamps must strictly increase"
            last = event.time_s
        empirical = count / last
        assert empirical == pytest.approx(RATE, rel=0.05), (
            f"{arrival}: configured {RATE} rps, measured {empirical:.1f}"
        )

    def test_streaming_memory_stays_o1(self):
        # 150k events consumed one at a time must not allocate anywhere
        # near a materialized trace (~tens of MB); the generator draws in
        # fixed 4096-element chunks.
        generator = arrival_trace(rate_rps=RATE, users=10_000, seed=5)
        tracemalloc.start()
        for event in itertools.islice(generator, 150_000):
            pass
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * 1024 * 1024, f"peak {peak / 1e6:.1f} MB is not O(1)"

    def test_deterministic_and_seed_sensitive(self):
        take = lambda seed: list(
            itertools.islice(arrival_trace(rate_rps=RATE, users=100, seed=seed), 2_000)
        )
        assert take(7) == take(7)
        assert take(7) != take(8)

    def test_payload_draws_respect_population_mix_and_frames(self):
        users = 17
        events = list(
            itertools.islice(
                arrival_trace(
                    rate_rps=RATE,
                    users=users,
                    seed=3,
                    burst_size=ARRIVALS["bursty"],
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

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            SoakConfig(arrival="diurnal")
        with pytest.raises(ValueError):
            next(arrival_trace(rate_rps=0.0, users=10, seed=0))
        with pytest.raises(ValueError):
            next(arrival_trace(rate_rps=1.0, users=0, seed=0))
        with pytest.raises(ValueError):
            next(arrival_trace(rate_rps=1.0, users=1, seed=0, frames_range=(3, 2)))
        with pytest.raises(ValueError):
            next(arrival_trace(rate_rps=1.0, users=1, seed=0, burst_size=0))


# ----------------------------------------------------------------- chaos specs
class TestChaosSpecs:
    def test_parse_percent_and_fraction(self):
        assert ChaosEvent.parse("kill-worker@50%") == ChaosEvent(0.5)
        assert ChaosEvent.parse("kill-worker@0.25") == ChaosEvent(0.25)
        assert ChaosEvent.parse("kill-worker@100%").at_fraction == 1.0
        assert ChaosEvent.parse("kill-worker@30%").render() == "kill-worker@30%"

    @pytest.mark.parametrize(
        "spec",
        [
            "kill-worker",
            "kill-worker@x%",
            "reboot@50%",
            "kill-worker@150%",
            "flip-mode@50%",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ChaosSpecError):
            ChaosEvent.parse(spec)


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


def _backpressured_config() -> SoakConfig:
    """A drain window (512) far larger than two shard queues (2 x 64)."""
    return _inline_config(6, workers=2, max_pending=64, requests=800, window=512)


class TestSoakProperties:
    @pytest.mark.parametrize("case_seed", range(4))
    def test_random_chaos_schedule_preserves_exactly_once(self, case_seed):
        """Seeded random kill schedules: nothing lost, nothing double-served,
        counters reconcile against admissions."""
        rng = np.random.default_rng(case_seed)
        fractions = rng.uniform(0.1, 0.9, size=int(rng.integers(1, 3)))
        report = run_soak(
            _inline_config(case_seed, chaos=[ChaosEvent(float(f)) for f in fractions])
        )
        assert report.lost == 0
        assert report.duplicated == 0
        assert report.served == report.admitted
        assert report.admitted + report.shed == report.config["requests"]
        assert [entry["applied"] for entry in report.chaos_applied] == [True] * len(
            fractions
        )
        assert report.parity_checks == len(fractions)
        assert report.live_workers_end == 3 - len(fractions)

    def test_kill_requeues_reconcile_with_victim_queue_depths(self):
        """Inline kill-only soak: the requeue counter equals the victims'
        queue depths at kill time, plus at most one pixel-probe failover
        per kill (the sticky probe owner may have been the victim)."""
        schedule = (
            ChaosEvent.parse("kill-worker@30%"),
            ChaosEvent.parse("kill-worker@70%"),
        )
        report = run_soak(_inline_config(21, chaos=schedule))
        kills = [entry for entry in report.chaos_applied if entry["applied"]]
        assert len(kills) == 2
        displaced = sum(entry["displaced_hint"] for entry in kills)
        assert displaced <= report.requeued <= displaced + len(kills)

    def test_fixed_seed_is_byte_deterministic(self):
        config = _inline_config(
            11,
            chaos=(
                ChaosEvent.parse("kill-worker@40%"),
                ChaosEvent.parse("kill-worker@60%"),
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
        report = run_soak(_backpressured_config())
        assert report.backpressure_hits >= 1
        assert report.retries >= 1
        assert report.shed == 0
        assert report.served == report.admitted == 800


# ------------------------------------------------------------------- report
class TestSoakReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_soak(
            _inline_config(17, chaos=(ChaosEvent.parse("kill-worker@50%"),))
        )

    def test_round_trips_through_json(self, report, tmp_path):
        path = report.save(tmp_path / "soak.json")
        loaded = SoakReport(**json.loads(path.read_text()))
        assert loaded == report

    def test_render_mentions_the_headline_numbers(self, report):
        rendered = report.render()
        assert "exactly-once verified" in rendered
        assert "kill-worker@50%" in rendered
        assert str(report.admitted) in rendered

    def test_latency_percentiles_are_ordered(self, report):
        assert set(report.latency_s) == {"p50", "p95", "p99"}
        assert (
            0.0
            < report.latency_s["p50"]
            <= report.latency_s["p95"]
            <= report.latency_s["p99"]
        )


# -------------------------------------------------------------- submit retry
class TestSubmitBackoff:
    """The drain-and-retry path of the submit loop."""

    @staticmethod
    def _helper():
        from repro.soak.harness import _Accounting, _submit_with_retry

        return _Accounting, _submit_with_retry

    def test_clean_submit_touches_no_counters(self):
        _Accounting, retry = self._helper()
        accounting = _Accounting()
        key = retry(lambda: ("s", "denoise", 1, 0.0), lambda: None, accounting, 4)
        assert key == ("s", "denoise", 1, 0.0)
        assert accounting.retries == 0
        assert accounting.backpressure_hits == 0

    def test_retries_then_succeeds(self):
        from repro.runtime.cluster import ClusterBackpressure

        _Accounting, retry = self._helper()
        accounting = _Accounting()
        attempts = []
        drains = []

        def submit_once():
            attempts.append(True)
            if len(attempts) < 3:
                raise ClusterBackpressure("full")
            return ("s", "denoise", 1, 0.0)

        key = retry(submit_once, lambda: drains.append(True), accounting, 4)
        assert key == ("s", "denoise", 1, 0.0)
        assert accounting.retries == 2
        assert accounting.backpressure_hits == 2
        assert len(drains) == 2, "every retry drains to free capacity first"
        assert accounting.shed == 0

    def test_exhausted_retries_shed_exactly_once(self):
        from repro.runtime.cluster import ClusterBackpressure

        _Accounting, retry = self._helper()
        accounting = _Accounting()

        def submit_once():
            raise ClusterBackpressure("full")

        key = retry(submit_once, lambda: None, accounting, 3)
        assert key is None
        assert accounting.shed == 1
        assert accounting.retries == 3
        assert accounting.backpressure_hits == 4

    def test_admission_rejection_is_not_retried(self):
        from repro.gateway import AdmissionRejected

        _Accounting, retry = self._helper()
        accounting = _Accounting()
        attempts = []

        def submit_once():
            attempts.append(True)
            raise AdmissionRejected(
                "no", retry_after_s=0.1, stream_id="s", workload="denoise", slo="batch"
            )

        with pytest.raises(AdmissionRejected):
            retry(submit_once, lambda: None, accounting, 4)
        assert len(attempts) == 1, "rejection means slow down, not drain-and-retry"
        assert accounting.retries == 0

    def test_saturated_soak_retries_instead_of_shedding(self):
        report = run_soak(_backpressured_config())
        assert report.backpressure_hits >= 1
        assert 1 <= report.retries <= report.backpressure_hits
        assert report.shed == 0
        assert report.served == report.admitted == 800

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
        written = json.loads(output.read_text())
        assert set(written) == {f.name for f in fields(SoakReport)}
        assert written["lost"] == written["duplicated"] == 0
        assert written["parity_checks"] == 1

    def test_bad_chaos_spec_fails_fast(self, capsys):
        assert soak_main(["--chaos", "reboot@50%"]) == 1
        assert "reboot" in capsys.readouterr().out
        # kill-worker is the only chaos kind; any other spec is rejected.
        assert soak_main(["--chaos", "flip-mode@50%"]) == 1
        assert "flip-mode" in capsys.readouterr().out

    def test_module_entry_point(self):
        import repro.soak.__main__  # noqa: F401  (import side: no execution)
