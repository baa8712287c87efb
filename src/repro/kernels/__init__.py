"""Pluggable compute-kernel registry: the numeric floor of every hot path.

The serving stack's pixel arithmetic bottoms out in a handful of hot loops —
valid-mode convolution (im2col + gemm) and the Q-format
quantize/clip and fraction-search passes.  This package puts those loops
behind a registry, mirroring :mod:`repro.api.backend`:

* a **kernel set** is an object implementing the :class:`KernelSet` protocol
  (``conv2d``, ``quantize_to_codes``, ``fraction_search`` plus ``available()``/``warmup()`` lifecycle hooks), registered under a
  stable name with :func:`register_kernel`;
* the ``numpy`` set (:mod:`repro.kernels.numpy_set`) is the **reference
  oracle**: a verbatim extraction of the historical code paths, so routing
  the layers through it is bit-exact by construction (``tolerance == 0.0``);
* the ``numba`` set (:mod:`repro.kernels.numba_set`) is optional: it probes
  for numba without importing it at module-import time (rule ECNN207),
  compiles its ``@njit``/``@guvectorize`` kernels inside ``warmup()`` (off
  the hot path), and declares a documented non-zero ``tolerance`` because
  its fused MAC loops accumulate in a different order than BLAS;
* one set is **active** per process (:func:`active_kernel_set`);
  :func:`select_kernel_set` with ``"auto"`` prefers the fastest available
  set (numba when importable, numpy otherwise) and never fails in a
  no-numba environment.  :meth:`repro.api.session.Session` selects at
  construction and records the resolved name, which flows into
  :class:`~repro.api.results.PerfProfile` and bench metadata.

Selection is process-global (the layers cannot know which session invoked
them); the last selection wins.  Tests scope changes with
:func:`use_kernel_set`.  ``REPRO_KERNELS_DISABLE`` (comma-separated set
names) force-disables sets for fallback testing and no-numba CI legs.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, Protocol, Tuple, runtime_checkable

import numpy as np


class KernelUnavailableError(RuntimeError):
    """The requested kernel set cannot run in this environment."""


@runtime_checkable
class KernelSet(Protocol):
    """The surface every registered kernel set must implement.

    ``tolerance`` is the documented absolute tolerance of this set's outputs
    against the ``numpy`` reference oracle; ``0.0`` means bit-identical.
    The parity sweep (``tests/test_parity.py``) enforces exactly this
    contract on every path.
    """

    name: str
    description: str
    tolerance: float

    def available(self) -> bool:
        """Whether this set can run here (cheap probe, no heavy imports)."""
        ...

    def warmup(self):
        """Compile/prime everything off the hot path; idempotent (memoized).

        Returns the set's compiled-kernel bundle; repeated calls return the
        *same* object (the warm-compile memo contract pinned by
        ``tests/test_kernels.py``).  Raises :class:`KernelUnavailableError`
        when the set cannot run.
        """
        ...

    def conv2d(self, data: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Valid-mode convolution of one ``(C, H, W)`` map -> ``(O, Ho, Wo)``."""
        ...

    def quantize_to_codes(
        self, values: np.ndarray, step: float, min_code: int, max_code: int
    ) -> np.ndarray:
        """Round-to-nearest-even then clip to integer codes (int64)."""
        ...

    def fraction_search(
        self,
        values: np.ndarray,
        fracs: np.ndarray,
        min_code: int,
        max_code: int,
        norm: str,
    ) -> int:
        """Eq. (4) search: the error-minimising frac, ties toward larger."""
        ...


#: The registry: set name -> the (singleton) registered instance.
KERNEL_SETS: Dict[str, KernelSet] = {}

_REQUIRED_ATTRS = ("name", "description", "tolerance")
_REQUIRED_METHODS = (
    "available",
    "warmup",
    "conv2d",
    "quantize_to_codes",
    "fraction_search",
)

#: Auto-selection preference, fastest first; ``numpy`` is always available.
_PREFERENCE: Tuple[str, ...] = ("numba", "numpy")

#: Comma-separated set names treated as unavailable (fallback testing and
#: the no-numba CI leg force the numpy oracle through this).
_DISABLE_ENV = "REPRO_KERNELS_DISABLE"


def register_kernel(cls):
    """Class decorator registering a kernel set (validates the protocol).

    The registry stores one instance per set (kernel sets own compile memos,
    so they are long-lived singletons, unlike backends which are constructed
    per session).  Registration fails fast on a missing protocol member or
    a duplicate name, so a half-implemented set can never be selected.
    """
    for attr in _REQUIRED_ATTRS:
        if not hasattr(cls, attr):
            raise TypeError(f"kernel set {cls.__name__} is missing attribute {attr!r}")
    for method in _REQUIRED_METHODS:
        if not callable(getattr(cls, method, None)):
            raise TypeError(f"kernel set {cls.__name__} is missing method {method!r}")
    instance = cls()
    name = instance.name
    if not name or not isinstance(name, str):
        raise TypeError(f"kernel set {cls.__name__} has an invalid name {name!r}")
    if name in KERNEL_SETS:
        raise ValueError(f"kernel set {name!r} is already registered")
    KERNEL_SETS[name] = instance
    return cls


def unregister_kernel(name: str) -> None:
    """Remove a registered set (tests); the active set falls back to numpy."""
    KERNEL_SETS.pop(name, None)
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE.name == name:
        _ACTIVE = KERNEL_SETS["numpy"]


def _disabled_names() -> Tuple[str, ...]:
    raw = os.environ.get(_DISABLE_ENV, "")
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def kernel_set(name: str) -> KernelSet:
    """Look up a registered set by name (available or not)."""
    try:
        return KERNEL_SETS[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown kernel set {name!r}; expected one of {sorted(KERNEL_SETS)}"
        ) from exc


def set_is_available(name: str) -> bool:
    """Whether a registered set can be selected here (honours the disable env)."""
    if name in _disabled_names():
        return False
    return kernel_set(name).available()


def available_kernel_sets() -> Tuple[str, ...]:
    """Names of the sets selectable in this environment, sorted."""
    return tuple(sorted(name for name in KERNEL_SETS if set_is_available(name)))


def describe_kernel_sets() -> Dict[str, str]:
    """Name -> one-line description of every registered set, sorted by name."""
    return {name: KERNEL_SETS[name].description for name in sorted(KERNEL_SETS)}


#: The process-wide active set; assigned after the built-in sets register.
_ACTIVE: KernelSet = None  # type: ignore[assignment]


def active_kernel_set() -> KernelSet:
    """The kernel set the hot paths currently route through."""
    return _ACTIVE


def select_kernel_set(name: str = "auto", *, warmup: bool = True) -> KernelSet:
    """Activate a kernel set process-wide and return it.

    ``"auto"`` picks the fastest available set (preference order
    ``numba`` > ``numpy``) and therefore never fails: the numpy reference
    is always available, so a no-numba environment cleanly falls back to
    the bit-exact oracle.  Naming an unavailable set explicitly raises
    :class:`KernelUnavailableError` instead of silently degrading.

    ``warmup=True`` (the default) compiles/primes the set now, off the
    serving hot path; warmup is memoized so repeated selection is cheap.
    """
    global _ACTIVE
    if name == "auto":
        chosen = next(
            (
                KERNEL_SETS[candidate]
                for candidate in _PREFERENCE
                if candidate in KERNEL_SETS and set_is_available(candidate)
            ),
            KERNEL_SETS["numpy"],
        )
    else:
        chosen = kernel_set(name)
        if not set_is_available(name):
            raise KernelUnavailableError(
                f"kernel set {name!r} is not available in this environment "
                f"(available: {available_kernel_sets()})"
            )
    if warmup:
        chosen.warmup()
    _ACTIVE = chosen
    return chosen


@contextlib.contextmanager
def use_kernel_set(name: str) -> Iterator[KernelSet]:
    """Scope the active set to a block, restoring the previous one after."""
    global _ACTIVE
    previous = _ACTIVE
    chosen = select_kernel_set(name)
    try:
        yield chosen
    finally:
        _ACTIVE = previous


# Register the built-in sets (decorator side effect) and activate the
# reference oracle; imports stay at the bottom so the registry surface above
# is defined when the set modules import it back.
from repro.kernels import numpy_set as _numpy_set  # noqa: E402,F401
from repro.kernels import numba_set as _numba_set  # noqa: E402,F401

_ACTIVE = KERNEL_SETS["numpy"]
