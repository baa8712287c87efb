"""Soak tier: prove the serving cluster survives scale and worker death.

Replays a seeded streaming trace at scales where it cannot be
materialized, kills workers mid-run (``kill-worker@50%``), and proves per
run that no request is lost or double-served and that surviving shards'
pixels stay bit-identical to the single-process engine.

Modules
-------
* :mod:`repro.soak.tracegen` — one lazy, seeded, O(1)-memory
  compound-Poisson trace generator over a configurable user population;
* :mod:`repro.soak.harness` — :func:`~repro.soak.harness.run_soak`:
  windowed replay with exactly-once ledger accounting, backpressure
  retries, the kill schedule, post-kill parity probes and the
  :class:`~repro.soak.harness.SoakReport`;
* :mod:`repro.soak.cli` — ``repro-soak`` / ``python -m repro.soak``.

See ``docs/serving.md`` ("Soak & chaos").
"""

from repro.soak.harness import (
    ChaosEvent,
    ChaosSpecError,
    SoakConfig,
    SoakError,
    SoakIntegrityError,
    SoakParityError,
    SoakReport,
    run_soak,
)
from repro.soak.tracegen import ARRIVALS, DEFAULT_WORKLOAD_MIX, arrival_trace

__all__ = [
    "ARRIVALS",
    "ChaosEvent",
    "ChaosSpecError",
    "DEFAULT_WORKLOAD_MIX",
    "SoakConfig",
    "SoakError",
    "SoakIntegrityError",
    "SoakParityError",
    "SoakReport",
    "arrival_trace",
    "run_soak",
]
