"""Bounded, thread-safe caches for compiled automata.

Repeated FD checks over the same document compile the same edge regexes
again and again: every ``_MatchContext`` used to re-derive per-edge DFAs
and live-state sets.  This module provides the process-wide memoization
layer behind :func:`repro.regex.dfa.compile_regex` — a bounded LRU keyed
by ``(expression, alphabet)`` — plus the hit/miss/eviction accounting
surfaced through :func:`cache_stats` and reported by the T7/T8 benches.

The cache is safe to share across threads: lookups and insertions hold a
lock, while compilation itself runs outside it (a racing duplicate
compile wastes a little work but never corrupts the table, and both
racers produce equivalent minimal DFAs).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterator
from typing import TypeVar

from repro.obs.metrics import GAUGE

Value = TypeVar("Value")

DEFAULT_COMPILE_CACHE_SIZE = 1024


class CacheStats:
    """Monotonic hit/miss/eviction counters for one cache."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> dict[str, int]:
        """The counters as a plain dict (for reports and benches)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions}>"
        )


class LRUCache:
    """A bounded least-recently-used map with counters.

    ``maxsize <= 0`` disables bounding (the cache grows without
    eviction); this is occasionally useful in long benches where the
    working set is known to be small.
    """

    def __init__(self, maxsize: int = DEFAULT_COMPILE_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> object | None:
        """The cached value, or ``None``; refreshes recency on a hit."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.stats.misses += 1
                return None
            self._data.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            if self.maxsize > 0:
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self.stats.evictions += 1

    def get_or_create(
        self, key: Hashable, factory: Callable[[], Value]
    ) -> Value:
        """Cached value for ``key``, computing it with ``factory`` on miss.

        The factory runs without the lock held, so a slow compilation
        never blocks concurrent lookups of other keys.
        """
        cached = self.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        value = factory()
        self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change the bound, evicting immediately if now over it."""
        with self._lock:
            self.maxsize = maxsize
            if maxsize > 0:
                while len(self._data) > maxsize:
                    self._data.popitem(last=False)
                    self.stats.evictions += 1

    def __repr__(self) -> str:
        return f"<LRUCache {len(self._data)}/{self.maxsize} {self.stats!r}>"


#: Process-wide memo for :func:`repro.regex.dfa.compile_regex`, keyed by
#: ``(expression, frozenset(extra_alphabet))``.
compile_cache = LRUCache(DEFAULT_COMPILE_CACHE_SIZE)


def cache_stats() -> dict[str, dict[str, int]]:
    """Counters of the regex-layer caches, for reports and benches."""
    compile_stats = compile_cache.stats.snapshot()
    compile_stats["size"] = len(compile_cache)
    return {"compile": compile_stats}


def cache_metrics() -> Iterator[tuple[str, str, int]]:
    """Metrics source: :func:`cache_stats` as ``cache.<cache>.<counter>``
    gauges, exactly the values ``--cache-stats`` prints (gauges, since
    the counters are already monotonic process state)."""
    for cache_name, counters in cache_stats().items():
        for key, value in counters.items():
            yield GAUGE, f"cache.{cache_name}.{key}", value


def clear_caches(reset_stats: bool = False) -> None:
    """Empty the regex-layer caches (tests, memory pressure)."""
    compile_cache.clear()
    if reset_stats:
        compile_cache.stats.reset()
