"""Content-addressed cache for analytic query results.

Throughput, DRAM-traffic, power and layer-timing queries are pure functions
of (network specification, hardware configuration, input geometry).  The
scheduler asks the same questions for every batch of a workload, and
design-space sweeps ask them for every point, so the runtime computes each
answer once and addresses it by a digest of its inputs.  Keys are built by
:func:`fingerprint`, which canonicalizes dataclasses, mappings and sequences
before hashing, so two structurally-equal specifications share one entry no
matter how they were constructed.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from typing import Any, Callable, Optional, TypeVar

T = TypeVar("T")


def _canonical(value: Any) -> Any:
    """A hashable, order-independent canonical form of ``value``.

    Dataclass instances flatten to ``(class name, (field, value)...)``,
    mappings sort by key, sequences canonicalize element-wise and floats use
    ``repr`` so the digest is exact (no formatting-precision aliasing).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, _canonical(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, dict):
        return tuple(sorted((str(key), _canonical(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if type(value).__repr__ is object.__repr__:
        # The default repr embeds the object's address: hashing it would make
        # the key identity-based (equal values never share an entry, and a
        # recycled address could alias two different objects).  Content
        # addressing must be exact, so refuse rather than mis-key.
        raise TypeError(
            f"cannot content-address {type(value).__name__!r}: it has no "
            "value-based repr (use a dataclass or a primitive key part)"
        )
    return ("repr", type(value).__name__, repr(value))


def fingerprint(*parts: Any) -> str:
    """A stable hex digest content-addressing the given key parts."""
    return hashlib.sha256(repr(_canonical(parts)).encode("utf-8")).hexdigest()


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """Hit/miss/eviction counters of one :class:`ResultCache`."""

    hits: int
    misses: int
    entries: int
    evictions: int = 0
    #: The cache's residency bound (``None`` for an unbounded cache).
    max_entries: Optional[int] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        evicted = f", {self.evictions} evicted" if self.evictions else ""
        bound = "" if self.max_entries is None else f", bound {self.max_entries}"
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate, {self.entries} entries{evicted}{bound})"
        )


class ResultCache:
    """An LRU cache addressed by content fingerprints.

    Parameters
    ----------
    max_entries:
        Optional bound on resident entries; the least-recently-used entry is
        evicted when the bound is exceeded.  Unbounded by default — analytic
        results are small (dataclasses of floats), not pixel data.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @staticmethod
    def key(*parts: Any) -> str:
        """Build a content-addressed key (see :func:`fingerprint`)."""
        return fingerprint(*parts)

    def get_or_compute(self, key: str, compute: Callable[[], T]) -> T:
        """Return the cached value for ``key``, computing and storing on miss."""
        if key in self._entries:
            self._hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self._misses += 1
        value = compute()
        self._entries[key] = value
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        return value

    def clear(self) -> None:
        """Drop all entries (counters are kept; see :meth:`reset_stats`)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            entries=len(self._entries),
            evictions=self._evictions,
            max_entries=self.max_entries,
        )


#: Process-wide cache shared by every session built without one and the
#: cached analytic helpers; scoped instances can be passed wherever isolation or a
#: bounded footprint matters (tests construct their own).
DEFAULT_CACHE = ResultCache()
