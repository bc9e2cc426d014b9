"""Bounded LRU caches used by the counting engine.

The seed implementation silently *stopped caching* once its mask cache filled up,
which turns long detection runs into cache-miss storms exactly when caching matters
most.  :class:`LRUCache` instead evicts the least recently used entry, so a full
cache keeps serving the hot working set (the upper levels of the pattern lattice)
while cold deep-lattice entries cycle through the tail.

The cache also keeps hit / miss / eviction counters; the engine publishes them on
:class:`~repro.core.stats.SearchStats` at the end of a detection run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping with least-recently-used eviction and usage counters."""

    __slots__ = ("_capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self._capacity = capacity
        self._entries: OrderedDict[K, V] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: K) -> V | None:
        """Return the cached value (refreshing its recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: K, value: V) -> None:
        """Insert ``value``, evicting the least recently used entry when full."""
        if self._capacity == 0:
            return
        entries = self._entries
        if key in entries:
            entries[key] = value
            entries.move_to_end(key)
            return
        if len(entries) >= self._capacity:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = value

    def clear(self) -> None:
        """Drop every entry (usage counters are preserved)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)
