"""The soak trace generator: millions of requests, O(1) memory.

The built-in traces in :mod:`repro.runtime.trace` are small hand-written
lists; soak testing needs seeded traffic at a scale where materializing the
trace is not an option.  :func:`arrival_trace` is a *lazy iterator* of
:class:`~repro.runtime.trace.TraceEvent` — seeded, chunked (the RNG is drawn
in blocks of a few thousand for speed, never in proportion to the total
request count) and deterministic: the same arguments always yield the same
event stream.

The arrival process is compound Poisson: burst *epochs* arrive at
``rate_rps / burst_size``; each epoch releases its first request at the
epoch and the other ``burst_size - 1`` spread uniformly over the next
:data:`BURST_SPREAD_S`, so the long-run rate equals ``rate_rps`` while
arrivals clump (flash crowds, GOP boundaries).  ``burst_size=1`` is the
homogeneous Poisson process.  :data:`ARRIVALS` names the two burst sizes the
soak CLI offers as ``--arrival``.

Every event draws the requesting user uniformly from a ``users``-sized
population (stream ids ``u0000000`` …), the workload from a weighted mix of
the serving catalogue, and the frame count uniformly from ``frames_range``.
Event times are strictly increasing, so replay order is unambiguous.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.runtime.trace import TraceEvent

#: Default workload mix: video workloads dominate, recognition gates fire
#: occasionally — the deployment blend of the paper's edge scenarios.
DEFAULT_WORKLOAD_MIX: Tuple[Tuple[str, float], ...] = (
    ("denoise", 0.40),
    ("super_resolution", 0.30),
    ("style_transfer", 0.20),
    ("recognition", 0.10),
)

#: Mean offered load of a soak run, requests per second.
RATE_RPS = 200.0

#: Window over which a burst's trailing requests follow its epoch.
BURST_SPREAD_S = 0.05

#: Burst size per ``--arrival`` name of the soak CLI.
ARRIVALS: Dict[str, int] = {"poisson": 1, "bursty": 16}

#: Internal RNG block size: draws are vectorized in chunks this big, so
#: generator memory is O(chunk), independent of how many events are taken.
_CHUNK = 4096

#: Minimum gap enforced between consecutive events (keeps times strictly
#: increasing even when overlapping bursts interleave).
_MIN_GAP_S = 1e-9


def arrival_trace(
    *,
    users: int,
    seed: int,
    burst_size: int = 1,
    rate_rps: float = RATE_RPS,
    workload_mix: Sequence[Tuple[str, float]] = DEFAULT_WORKLOAD_MIX,
    frames_range: Tuple[int, int] = (1, 4),
) -> Iterator[TraceEvent]:
    """Compound Poisson arrivals at a long-run ``rate_rps`` requests per second.

    Arguments are validated when the first event is drawn.
    """
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    if burst_size < 1:
        raise ValueError("burst_size must be positive")
    if users < 1:
        raise ValueError("users must be positive")
    low, high = frames_range
    if not 1 <= low <= high:
        raise ValueError(f"bad frames_range {frames_range}")
    names = [name for name, _ in workload_mix]
    weights = np.array([weight for _, weight in workload_mix], dtype=float)
    if len(names) == 0 or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("workload_mix needs positive total weight")
    weights = weights / weights.sum()
    width = len(str(max(users - 1, 1)))
    rng = np.random.default_rng(seed)
    epoch_rate = rate_rps / burst_size
    epoch = 0.0
    t = 0.0
    payload = _CHUNK  # force an initial payload fill
    while True:
        epoch_gaps = rng.exponential(1.0 / epoch_rate, size=_CHUNK)
        offsets = rng.uniform(0.0, BURST_SPREAD_S, size=(_CHUNK, burst_size - 1))
        offsets.sort(axis=1)
        for e in range(_CHUNK):
            # Bursts anchor to their *epoch*, not to the previous burst's
            # tail, so the epoch process alone sets the long-run rate even
            # when bursts overlap; overlapping arrivals are nudged forward
            # by _MIN_GAP_S, preserving order without shifting that rate.
            epoch += float(epoch_gaps[e])
            for j in range(burst_size):
                when = epoch + (float(offsets[e, j - 1]) if j else 0.0)
                t = max(when, t + _MIN_GAP_S)
                if payload == _CHUNK:
                    user = rng.integers(0, users, size=_CHUNK)
                    workload = rng.choice(len(names), size=_CHUNK, p=weights)
                    frames = rng.integers(low, high + 1, size=_CHUNK)
                    payload = 0
                yield TraceEvent(
                    time_s=t,
                    stream_id=f"u{user[payload]:0{width}d}",
                    workload=names[workload[payload]],
                    frames=int(frames[payload]),
                )
                payload += 1
