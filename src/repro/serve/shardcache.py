"""Sharded, budgeted facade over the content-addressed result cache.

:class:`ShardedResultCache` duck-types the :class:`repro.engine.cache.
ResultCache` surface the sweep engine consumes (``load``/``store``/
``discard``/``corrupt_entries``/``stats``), so it drops straight into
``SweepEngine(cache=...)`` — but spreads entries over N independent
on-disk shards, each with its own lock, LRU order, and byte ledger.

Budget discipline: a global ``byte_budget`` is split evenly across
shards, and each shard evicts its own least-recently-used entries under
its own lock *before* an insert can push it over.  Because every shard
individually respects ``budget // shards``, the whole cache respects the
global budget at every instant without any cross-shard lock — the
concurrency-correctness property the ``serve-cache-budget`` conformance
invariant checks (and whose mutant self-test breaks the ledger to prove
the check has teeth).

Telemetry: ``serve.cache.{hits,misses,evictions}`` counters and a
``serve.cache.bytes`` gauge in the PR 1 metrics registry, plus local
counts for status snapshots that work with metrics disabled.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from repro.engine.cache import ResultCache
from repro.observability.metrics import get_metrics

#: Default shard count; 8 keeps per-shard lock contention negligible for
#: the worker counts the service runs while staying cheap to scan.
DEFAULT_SHARDS = 8


class ShardedResultCache:
    """N locked LRU shards over N :class:`ResultCache` stores.

    Args:
        root: directory holding the ``shard-NN`` subdirectories.
        shards: shard count (key space is split by key prefix).
        byte_budget: global byte ceiling, or ``None`` for unbounded.
            Each shard enforces ``byte_budget // shards``; a budget
            smaller than the shard count is rejected rather than
            silently rounding every shard's share to zero.
    """

    def __init__(
        self,
        root: str,
        shards: int = DEFAULT_SHARDS,
        byte_budget: int | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if byte_budget is not None and byte_budget < shards:
            raise ValueError(
                f"byte_budget {byte_budget} is smaller than one byte per "
                f"shard ({shards} shards)"
            )
        self.root = root
        self.shards = shards
        self.byte_budget = byte_budget
        self.shard_budget = (
            byte_budget // shards if byte_budget is not None else None
        )
        self._stores = [
            ResultCache(os.path.join(root, f"shard-{index:02d}"))
            for index in range(shards)
        ]
        self._locks = [threading.Lock() for _ in range(shards)]
        # Per-shard LRU: key -> stored size; least-recent first.
        self._lru = [OrderedDict() for _ in range(shards)]
        self._bytes = [0] * shards
        self._peak_lock = threading.Lock()
        self.peak_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._rebuild()

    # ------------------------------------------------------------------
    # ResultCache surface (what SweepEngine consumes)
    # ------------------------------------------------------------------

    @property
    def corrupt_entries(self) -> int:
        """Damaged entries seen across all shards (engine telemetry)."""
        return sum(store.corrupt_entries for store in self._stores)

    def shard_for(self, key: str) -> int:
        """Shard index for a point key (stable prefix hash)."""
        return int(key[:8], 16) % self.shards

    def load(self, key: str) -> dict | None:
        """Point payload or ``None``; a hit refreshes the LRU position."""
        index = self.shard_for(key)
        with self._locks[index]:
            point = self._stores[index].load(key)
            lru = self._lru[index]
            if point is None:
                self.misses += 1
                if key in lru:
                    # The file vanished or decoded damaged underneath us
                    # (quarantine removed it) — drop it from the ledger.
                    self._bytes[index] -= lru.pop(key)
                get_metrics().counter("serve.cache.misses").inc()
                return None
            self.hits += 1
            lru.move_to_end(key)
            get_metrics().counter("serve.cache.hits").inc()
            return point

    def store(self, key: str, point: dict, config: dict | None = None) -> str:
        """Write one entry, evicting LRU entries to stay under budget."""
        index = self.shard_for(key)
        with self._locks[index]:
            store = self._stores[index]
            lru = self._lru[index]
            if key in lru:
                self._bytes[index] -= lru.pop(key)
            path = store.store(key, point, config)
            size = self._entry_bytes(path)
            budget = self.shard_budget
            # Evict oldest-first *before* booking the new entry: other
            # shards sum the ledgers without this lock, so this shard's
            # cell must never exceed its budget, not even between two
            # statements.  An entry that alone exceeds the shard budget is
            # evicted too: the budget bound is absolute.
            if budget is not None:
                while lru and self._bytes[index] + size > budget:
                    self._evict_locked(index, next(iter(lru)))
            if budget is None or size <= budget:
                lru[key] = size
                self._bytes[index] += size
            else:
                store.remove(key)
                self.evictions += 1
                get_metrics().counter("serve.cache.evictions").inc()
            self._note_total()
            get_metrics().gauge("serve.cache.bytes").set(self.total_bytes())
            return path

    def discard(self, key: str, reason: str) -> None:
        """Engine-initiated drop of a decoded-but-invalid entry."""
        index = self.shard_for(key)
        with self._locks[index]:
            if key in self._lru[index]:
                self._bytes[index] -= self._lru[index].pop(key)
            self._stores[index].discard(key, reason)

    # ------------------------------------------------------------------
    # budget / telemetry
    # ------------------------------------------------------------------

    @staticmethod
    def _entry_bytes(path: str) -> int:
        """Ledger size of one stored entry (its on-disk byte size)."""
        return os.path.getsize(path)

    def _evict_locked(self, index: int, key: str) -> None:
        """Evict one entry; caller holds the shard lock."""
        self._bytes[index] -= self._lru[index].pop(key)
        self._stores[index].remove(key)
        self.evictions += 1
        get_metrics().counter("serve.cache.evictions").inc()

    def _note_total(self) -> None:
        total = self.total_bytes()
        with self._peak_lock:
            if total > self.peak_bytes:
                self.peak_bytes = total

    def total_bytes(self) -> int:
        """Ledger bytes across all shards (may be read without locks —
        each cell is updated under its shard lock)."""
        return sum(self._bytes)

    def disk_bytes(self) -> int:
        """Actual on-disk bytes across all shards — the ground truth the
        conformance invariant compares the ledger against."""
        total = 0
        for store in self._stores:
            for path in store._entry_paths():
                try:
                    total += os.path.getsize(path)
                except OSError:
                    pass
        return total

    def entry_count(self) -> int:
        """Tracked entries across all shards."""
        return sum(len(lru) for lru in self._lru)

    def keys(self) -> list:
        """All tracked keys, least-recently-used first per shard."""
        out = []
        for index in range(self.shards):
            with self._locks[index]:
                out.extend(self._lru[index].keys())
        return out

    def _rebuild(self) -> None:
        """Re-index entries already on disk (warm service restart).

        Pre-existing entries enter LRU order by sorted path — a neutral,
        deterministic order — and the budget is enforced immediately, so
        a restart under a smaller budget trims the cache up front.
        """
        for index, store in enumerate(self._stores):
            with self._locks[index]:
                for path in store._entry_paths():
                    key = os.path.splitext(os.path.basename(path))[0]
                    try:
                        size = self._entry_bytes(path)
                    except OSError:
                        continue
                    self._lru[index][key] = size
                    self._bytes[index] += size
                budget = self.shard_budget
                if budget is not None:
                    lru = self._lru[index]
                    while self._bytes[index] > budget and lru:
                        victim, _ = next(iter(lru.items()))
                        self._evict_locked(index, victim)
        self._note_total()

    def stats(self) -> dict:
        """Status-endpoint document (deterministic given cache state)."""
        return {
            "root": self.root,
            "shards": self.shards,
            "byte_budget": self.byte_budget,
            "entries": self.entry_count(),
            "bytes": self.total_bytes(),
            "peak_bytes": self.peak_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt_entries": self.corrupt_entries,
            "per_shard": [
                {"entries": len(self._lru[i]), "bytes": self._bytes[i]}
                for i in range(self.shards)
            ],
        }


__all__ = ["DEFAULT_SHARDS", "ShardedResultCache"]
