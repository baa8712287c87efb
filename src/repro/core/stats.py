"""Shared deterministic statistics helpers: nearest-rank percentiles.

``latency_percentiles`` historically had two independent implementations —
:meth:`repro.runtime.scheduler.ScheduleResult.latency_percentiles` (over raw
sorted latencies) and the soak harness accounting (over log-binned counts) —
and the PR-9 nearest-rank edge-case fixes only provably covered one.  Both
now route through this module, so rank selection (validation, the
``max(1, ceil(q * n))`` rank, empty-input behaviour) is one piece of code
with one test surface.

Nearest-rank is exact (no interpolation) and therefore deterministic:
quantile ``q`` over ``n`` samples selects the ``ceil(q * n)``-th smallest
sample — for a single sample every quantile returns that sample.

:class:`LatencyHistogram` is the one O(1)-memory latency accumulator (the
SLO gateway's and the soak harness's): log-binned counts whose percentiles
go through :func:`percentiles_from_counts`.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Sequence, Tuple

import numpy as np


def nearest_rank(q: float, total: int) -> int:
    """1-based nearest rank of quantile ``q`` over ``total`` samples.

    Validates ``q`` (must lie in ``(0, 1]``) even when ``total`` is zero, so
    callers surface bad quantiles regardless of whether anything was served.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile {q} outside (0, 1]")
    return max(1, math.ceil(q * total))


def percentiles_from_sorted(
    values: Sequence[float], quantiles: Sequence[float]
) -> Dict[float, float]:
    """Nearest-rank percentiles over an ascending-sorted sample sequence.

    Returns ``{}`` when there are no samples; invalid quantiles raise
    regardless.
    """
    for q in quantiles:
        nearest_rank(q, 0)  # validate every quantile before any early return
    if not values:
        return {}
    return {q: values[nearest_rank(q, len(values)) - 1] for q in quantiles}


def percentiles_from_counts(
    counts: np.ndarray,
    upper_edges: Sequence[float],
    quantiles: Sequence[float],
) -> Dict[float, float]:
    """Nearest-rank percentiles over histogram-binned samples.

    ``counts[i]`` samples fell into the bin whose (conservative) upper edge
    is ``upper_edges[i]``; the selected rank maps to the upper edge of the
    bin containing it — identical rank selection to
    :func:`percentiles_from_sorted` with every sample represented by its
    bin's upper edge, which the consolidation test pins.
    """
    for q in quantiles:
        nearest_rank(q, 0)
    counts = np.asarray(counts)
    if len(counts) != len(upper_edges):
        raise ValueError(
            f"{len(counts)} bins but {len(upper_edges)} upper edges"
        )
    total = int(counts.sum())
    if not total:
        return {}
    cumulative = np.cumsum(counts)
    out: Dict[float, float] = {}
    for q in quantiles:
        rank = nearest_rank(q, total)
        bin_index = int(np.searchsorted(cumulative, rank))
        out[q] = float(upper_edges[bin_index])
    return out


#: Log-spaced latency bin edges: 512 bins spanning 10 µs .. 10^5 s.  A
#: nearest-rank percentile reports its bin's upper edge, which is exact to
#: the bin resolution (~4.6% relative) and fully deterministic.
LATENCY_EDGES = np.logspace(-5.0, 5.0, 513)
#: The edges as Python floats: bisect bins one sample without numpy scalars.
_EDGES = tuple(LATENCY_EDGES.tolist())


class LatencyHistogram:
    """Log-binned latency accumulator with nearest-rank percentiles.

    Memory stays constant no matter how many latencies are observed.
    """

    def __init__(self) -> None:
        self.counts = np.zeros(len(LATENCY_EDGES) - 1, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def observe(self, latency_s: float) -> None:
        bin_index = bisect.bisect_right(_EDGES, latency_s) - 1
        self.counts[min(max(bin_index, 0), len(self.counts) - 1)] += 1

    def percentiles(
        self,
        quantiles: Sequence[Tuple[str, float]] = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)),
    ) -> Dict[str, float]:
        """Nearest-rank percentiles as ``{label: upper bin edge}``.

        Returns ``{}`` when nothing was observed; invalid quantiles raise
        regardless.
        """
        found = percentiles_from_counts(
            self.counts, LATENCY_EDGES[1:], [q for _, q in quantiles]
        )
        return {label: found[q] for label, q in quantiles} if found else {}
