"""LRU result cache keyed by (fingerprint, method, machine, options).

A repeated request must cost *zero algorithm work* — not "a fast
re-run" but a dictionary move-to-front.  The key is fully canonical:

* the graph enters as its content fingerprint, so equal graphs share
  entries regardless of object identity;
* options enter as the resolved frozen dataclass (every front door
  path — typed or defaulted — normalizes to one), so
  ``ThriftyOptions()`` and ``options=None`` hit the same entry;
* the machine enters by name (MachineSpec instances are frozen and
  registry-owned, but the name keeps keys printable).

Eviction is plain LRU over distinct keys.  Stored CCResults are
returned as-is — they are treated as immutable by convention
(callers get the same labels array a fresh run would return).

Lookup vs peek
--------------

``get`` is the *client-visible* lookup: it counts toward
``hits``/``misses`` and refreshes recency.  Internal existence probes
— the executor's dequeue-time re-check, the flag-replay fallback
probe, the incremental tier's delta-seed search — go through ``peek``,
which touches no statistics and no recency, so ``hit_rate`` reflects
only what clients actually experienced.  ``touch`` refreshes recency
alone, for when a peeked entry ends up being served.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable

from ..core.result import CCResult

__all__ = ["ResultCache", "result_cache_key"]


def result_cache_key(fingerprint: str, method: str, machine_name: str,
                     options: Hashable) -> tuple:
    """Canonical cache key for one (graph, algorithm, config) request."""
    return (fingerprint, method, machine_name, options)


class ResultCache:
    """Bounded LRU mapping canonical request keys to CCResults."""

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._store: OrderedDict[tuple, CCResult] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def get(self, key: tuple) -> CCResult | None:
        """Client-visible lookup; counts hit/miss, refreshes recency."""
        result = self._store.get(key)
        if result is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return result

    def peek(self, key: tuple) -> CCResult | None:
        """Stat-neutral probe: no hit/miss counted, no recency change.

        For internal bookkeeping lookups that are not client requests.
        """
        return self._store.get(key)

    def touch(self, key: tuple) -> None:
        """Refresh a key's LRU recency without counting a lookup."""
        if key in self._store:
            self._store.move_to_end(key)

    def put(self, key: tuple, result: CCResult) -> None:
        """Insert (or refresh) a result, evicting the LRU entry if full.

        Re-putting an existing key replaces the value in place — it
        occupies one slot before and after, so it never triggers an
        eviction (capacity is counted over distinct keys, not puts).
        """
        if key in self._store:
            self._store.move_to_end(key)
            self._store[key] = result
            return
        self._store[key] = result
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def invalidate(self, key: tuple) -> bool:
        """Drop one entry (e.g. after a graph mutation); True if present.

        Counted in :attr:`invalidations` (surfaced through
        ``ServiceMetrics.snapshot()``), so post-mutation cache churn is
        observable instead of silently looking like cold misses.
        """
        if self._store.pop(key, None) is None:
            return False
        self.invalidations += 1
        return True

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry for one graph fingerprint; returns count.

        The bulk path for quarantined graphs: a fingerprint whose
        content is gone (in-place mutation detected) has every cached
        result for it invalidated at once.
        """
        doomed = [k for k in self._store if k[0] == fingerprint]
        for key in doomed:
            del self._store[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: tuple) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._store.clear()
