"""Process-parallel design-space sweeps.

Design-space studies (Figs. 5, 8, 19-21) evaluate an analytic model at many
independent points — embarrassingly parallel work that the serial
:func:`repro.analysis.sweeps.sweep` walks one point at a time.
:class:`ParallelSweep` fans the same evaluation across a
:class:`~concurrent.futures.ProcessPoolExecutor` and returns the identical
``(x, y)`` pair list: results come back via ``Executor.map``, which preserves
input order, and each point runs the very same function on the very same
value, so a parallel sweep is bit-identical to the serial one.

Functions that cannot cross a process boundary (lambdas, closures) fall back
to serial evaluation transparently; :attr:`ParallelSweep.last_mode` records
which path ran so benchmarks can assert they exercised the pool.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.analysis.sweeps import sweep

X = TypeVar("X")
Y = TypeVar("Y")


def _picklable(function: Callable) -> bool:
    try:
        pickle.dumps(function)
        return True
    except Exception:
        return False


class ParallelSweep:
    """Evaluate a sweep across worker processes.

    Parameters
    ----------
    max_workers:
        Process count; defaults to the CPU count capped at 8 (analytic
        sweeps are short — a large pool costs more to spawn than it saves).
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        #: ``"parallel"`` or ``"serial"`` — how the last :meth:`run` executed.
        self.last_mode: Optional[str] = None

    def _worker_count(self, num_points: int) -> int:
        if self.max_workers is not None:
            return min(self.max_workers, num_points)
        return max(1, min(os.cpu_count() or 1, 8, num_points))

    def run(self, values: Sequence[X], function: Callable[[X], Y]) -> List[Tuple[X, Y]]:
        """Evaluate ``function`` over ``values``; same contract as ``sweep``.

        Exceptions raised by a sweep point propagate — a failing point is a
        real failure of the model under test, exactly as in the serial path.
        """
        points = list(values)
        if not points:
            self.last_mode = "serial"
            return []
        workers = self._worker_count(len(points))
        if workers < 2 or not _picklable(function):
            self.last_mode = "serial"
            return sweep(points, function)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(function, points))
        except (BrokenProcessPool, OSError):
            # A worker died or could not be spawned at all (a sandbox that
            # forbids fork raises PermissionError at pool start-up): the
            # sweep is still correct serially, just slower.
            self.last_mode = "serial"
            return sweep(points, function)
        self.last_mode = "parallel"
        return list(zip(points, results))
