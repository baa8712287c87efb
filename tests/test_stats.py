"""Shared nearest-rank percentile helpers (:mod:`repro.core.stats`).

``latency_percentiles`` used to be implemented twice — over raw sorted
latencies in the scheduler and over log-binned counts in the soak harness —
so the PR-9 edge-case fixes only provably covered one copy.  These tests pin
the consolidation: both call sites route through :mod:`repro.core.stats`,
and the two forms agree exactly whenever every sample is represented by its
bin's upper edge (identical rank selection).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import (
    nearest_rank,
    percentiles_from_counts,
    percentiles_from_sorted,
)

QUANTILES = (0.5, 0.95, 0.99)


class TestNearestRank:
    def test_matches_ceil_rank(self):
        assert nearest_rank(0.5, 10) == 5
        assert nearest_rank(0.95, 10) == 10
        assert nearest_rank(0.99, 200) == 198
        assert nearest_rank(1.0, 7) == 7

    def test_rank_floor_is_one(self):
        assert nearest_rank(0.01, 3) == 1
        assert nearest_rank(0.5, 0) == 1

    @pytest.mark.parametrize("bad", (0.0, -0.5, 1.0001, 2.0))
    def test_invalid_quantile_raises_even_with_no_samples(self, bad):
        with pytest.raises(ValueError):
            nearest_rank(bad, 0)
        with pytest.raises(ValueError):
            percentiles_from_sorted([], [bad])
        with pytest.raises(ValueError):
            percentiles_from_counts(np.zeros(2, dtype=np.int64), [1.0, 2.0], [bad])


class TestPercentilesFromSorted:
    def test_empty_returns_empty(self):
        assert percentiles_from_sorted([], QUANTILES) == {}

    def test_single_sample_answers_every_quantile(self):
        out = percentiles_from_sorted([3.25], QUANTILES)
        assert out == {q: 3.25 for q in QUANTILES}

    def test_duplicate_values(self):
        out = percentiles_from_sorted([2.0, 2.0, 2.0, 9.0], (0.5, 0.75, 1.0))
        assert out == {0.5: 2.0, 0.75: 2.0, 1.0: 9.0}

    def test_nearest_rank_no_interpolation(self):
        out = percentiles_from_sorted([1.0, 2.0, 3.0, 4.0], (0.5, 0.51))
        assert out[0.5] == 2.0  # rank ceil(0.5*4)=2, never (2+3)/2
        assert out[0.51] == 3.0


class TestPercentilesFromCounts:
    def test_empty_histogram_returns_empty(self):
        assert percentiles_from_counts(
            np.zeros(4, dtype=np.int64), [1.0, 2.0, 3.0, 4.0], QUANTILES
        ) == {}

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            percentiles_from_counts(np.ones(3, dtype=np.int64), [1.0, 2.0], (0.5,))

    def test_single_sample_and_duplicates(self):
        edges = [0.1, 1.0, 10.0]
        single = np.array([0, 1, 0], dtype=np.int64)
        assert percentiles_from_counts(single, edges, QUANTILES) == {
            q: 1.0 for q in QUANTILES
        }
        duplicates = np.array([0, 5, 1], dtype=np.int64)
        out = percentiles_from_counts(duplicates, edges, QUANTILES)
        assert out == {0.5: 1.0, 0.95: 10.0, 0.99: 10.0}

    def test_counts_equal_sorted_on_upper_edge_samples(self):
        # The consolidation contract: when every sample *is* its bin's upper
        # edge, the histogram path and the raw-sorted path are the same
        # computation — identical rank selection, identical answers.
        rng = np.random.default_rng(7)
        edges = [float(e) for e in np.logspace(-3, 2, 33)]
        counts = rng.integers(0, 9, size=len(edges)).astype(np.int64)
        samples = sorted(
            edge for edge, count in zip(edges, counts) for _ in range(int(count))
        )
        quantiles = (0.25, 0.5, 0.9, 0.95, 0.99, 1.0)
        assert percentiles_from_counts(counts, edges, quantiles) == (
            percentiles_from_sorted(samples, quantiles)
        )


class TestCallSitesShareTheHelper:
    def test_scheduler_routes_through_shared_helper(self):
        from repro.core import stats
        from repro.runtime import scheduler

        assert scheduler.percentiles_from_sorted is stats.percentiles_from_sorted

    def test_soak_accounting_routes_through_shared_helper(self):
        from repro.core import stats
        from repro.gateway import gateway
        from repro.soak import harness

        assert harness.LatencyHistogram is stats.LatencyHistogram
        assert gateway.LatencyHistogram is stats.LatencyHistogram
        # Behavioural pin on the soak accounting itself: empty histogram,
        # one sample, duplicate-heavy histogram.
        accounting = harness._Accounting()
        assert accounting.latency.percentiles() == {}
        one = harness._Accounting()
        one.latency.counts[100] = 1
        upper = float(stats.LATENCY_EDGES[101])
        assert one.latency.percentiles() == {"p50": upper, "p95": upper, "p99": upper}
        # 95 duplicates low, 5 high: p50/p95 ranks (50, 95) stay in the low
        # bin, p99 rank 99 crosses into the high bin.
        heavy = harness._Accounting()
        heavy.latency.counts[10] = 95
        heavy.latency.counts[400] = 5
        low = float(stats.LATENCY_EDGES[11])
        high = float(stats.LATENCY_EDGES[401])
        assert heavy.latency.percentiles() == {"p50": low, "p95": low, "p99": high}

    def test_scheduler_empty_and_single_record_behaviour(self):
        from repro.runtime.scheduler import ScheduleResult

        empty = ScheduleResult(
            records=(), batches=(), num_instances=1, instance_busy_s=(0.0,)
        )
        assert empty.latency_percentiles() == {}
        with pytest.raises(ValueError):
            empty.latency_percentiles(quantiles=(0.0,))


class TestLatencyHistogramBins:
    def test_observe_bins_like_the_numpy_expression(self):
        from repro.core.stats import LATENCY_EDGES, LatencyHistogram

        bins = len(LATENCY_EDGES) - 1
        rng = np.random.default_rng(7)
        values = [
            *(10.0 ** rng.uniform(-7.0, 7.0, 2000)).tolist(),
            *LATENCY_EDGES.tolist(),
            *np.nextafter(LATENCY_EDGES, 0.0).tolist(),
            0.0, -1.0, float("inf"), float("-inf"), float("nan"), 1e-5, 1e5,
        ]
        for value in values:
            histogram = LatencyHistogram()
            histogram.observe(value)
            reference = np.searchsorted(LATENCY_EDGES, value, side="right") - 1
            expected = int(np.clip(reference, 0, bins - 1))
            assert histogram.counts[expected] == 1 and histogram.total == 1, value
