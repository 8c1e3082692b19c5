"""Bounded operator cache shared by the simulation engine.

Protocols repeatedly rebuild identical operators: the SWAP projector of a
fixed register dimension, the right-end accept operator of a fingerprint
string, the exact chain acceptance operator of a soundness sweep.  The
:class:`OperatorCache` memoizes them under hashable keys (by convention a
tuple starting with a kind tag and including the owning scheme/protocol
object, which keeps the key unambiguous across instances).

Cached arrays are frozen copies (``writeable = False``) so that a cache hit
can be returned without a defensive copy and the caller's own array stays
both mutable and decoupled from the cache; callers that need a mutable
array from a hit must copy explicitly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

import numpy as np

from repro.engine.array_ops import to_host


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of an :class:`OperatorCache`."""

    hits: int
    misses: int
    entries: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain-dict form for benchmark metadata / JSON exports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class OperatorCache:
    """A bounded LRU cache for numpy operators and other immutable values."""

    def __init__(self, max_entries: int = 512):
        if max_entries <= 0:
            raise ValueError("cache must allow at least one entry")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @staticmethod
    def _freeze(value: Any) -> Any:
        # Freeze a *copy*, never the caller's array: flipping ``writeable``
        # on the argument itself would silently freeze an array the caller
        # still owns, and a frozen view would share the buffer — letting the
        # caller mutate the cached entry through its own reference after
        # insertion.  The copy costs one allocation per miss; the hit path
        # stays copy-free.  Device-resident arrays (torch/cupy tensors, mock
        # device arrays) are pulled back to host numpy first: cached
        # operators are always plain host-side arrays, whichever backend
        # built them.
        value = to_host(value)
        if isinstance(value, np.ndarray):
            frozen = value.copy()
            frozen.setflags(write=False)
            return frozen
        return value

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or ``None``; updates the hit/miss counters."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._hits += 1
            return self._entries[key]
        self._misses += 1
        return None

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert (or refresh) a value, evicting the least recently used entry.

        Returns the stored (frozen) value, so a miss hands out the same
        read-only object every later hit will.
        """
        frozen = self._freeze(value)
        self._entries[key] = frozen
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
        return frozen

    def get_or_build(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """The cached value for ``key``, building and inserting it on a miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._hits += 1
            return self._entries[key]
        self._misses += 1
        return self.put(key, builder())

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def stats(self) -> CacheStats:
        """A snapshot of the cache counters (surfaced in benchmark metadata)."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            entries=len(self._entries),
            evictions=self._evictions,
        )
