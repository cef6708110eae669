"""LRU + TTL cache for served predictions.

Predictive queries repeat: a dashboard polls the same object at the same
horizon, many clients ask "where is bus 42 at 9:00" within the same few
seconds.  The model pass is deterministic given (recent window, query
time, k), so the service memoises answers keyed by exactly that — with
the window's coordinates quantised to a grid so GPS jitter far below the
model's region size (``eps``) does not defeat the cache.

Eviction is twofold: least-recently-used beyond ``max_entries``, and a
per-entry TTL so a cached answer can never outlive the freshness window
the operator configured.  ``invalidate`` drops every entry for an object
the moment new fixes arrive, keeping served answers consistent with the
tracker state.  It also bumps the object's generation, so a ``put`` of
an answer computed before the invalidation is dropped.

Thread-safe; the clock is injectable for deterministic tests.

:class:`Doorkeeper` is the serve path's admission filter in front of the
cache: most served queries are never repeated, so an answer is stored
only on its key's second sighting.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from collections import OrderedDict
from typing import Any, Callable, Hashable, Sequence

from ..trajectory.point import TimedPoint
from .metrics import InstrumentMemo

__all__ = ["Doorkeeper", "PredictionCache"]


class PredictionCache:
    """Bounded memoisation of predictive-query answers.

    Parameters
    ----------
    max_entries:
        LRU capacity; the oldest entry is evicted when exceeded.
    ttl:
        Seconds an entry stays valid (``None`` disables expiry).
    quantum:
        Grid size for quantising window coordinates in :meth:`make_key`.
        Jitter smaller than the quantum maps to the same key.
    clock:
        Monotonic time source (injectable for tests).
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry`; hit/miss/
        eviction counters and a size gauge are maintained when given.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        ttl: float | None = 30.0,
        quantum: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.max_entries = max_entries
        self.ttl = ttl
        self.quantum = quantum
        self.clock = clock
        self.metrics = metrics
        self._instruments = (
            InstrumentMemo(metrics) if metrics is not None else None
        )
        self._entries: OrderedDict[tuple, tuple[float, Any]] = OrderedDict()
        self._by_object: dict[str, set[tuple]] = {}
        self._generations: dict[str, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def make_key(
        self,
        object_id: str,
        recent: Sequence[TimedPoint],
        query_time: int,
        k: int | None,
    ) -> tuple:
        """Cache key: (object, quantised recent window, query time, k).

        The window packs into int64 ``(t, round(x/q), round(y/q))``
        triples; a non-finite or out-of-range fix raises ``ValueError``.
        """
        q = self.quantum
        values = [v for p in recent for v in (p.t, p.x / q, p.y / q)]
        try:
            window = struct.pack(f"<{len(values)}q", *map(round, values))
        except (OverflowError, ValueError, struct.error):
            raise ValueError("non-finite or out-of-range fix in window") from None
        return (object_id, window, int(query_time), k)

    def generation(self, object_id: str) -> int:
        """How many times ``object_id`` has been invalidated."""
        return self._generations.get(object_id, 0)

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Any | None:
        """Return the cached value for ``key``, or ``None`` on miss/expiry."""
        now = self.clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_at, value = entry
                if self.ttl is None or now - stored_at <= self.ttl:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._count("serve_cache_hits_total")
                    return value
                self._remove(key)
                self.expirations += 1
                self._count("serve_cache_expirations_total")
            self.misses += 1
            self._count("serve_cache_misses_total")
            return None

    def lookup(self, key: tuple) -> tuple[Any | None, bool]:
        """Like :meth:`get`, but a TTL-expired entry is *returned* as
        ``(value, False)`` instead of being dropped.

        This is the serve path's stale-while-refit read: a fresh entry
        answers immediately (``(value, True)``, counted as a hit); an
        expired one counts as a miss but its value rides along so the
        graceful-degradation ladder can serve it if the recomputation
        blows its deadline.  The expired entry stays stored (bounded by
        the LRU capacity) until the recomputation's ``put`` replaces it
        or :meth:`invalidate` drops it — invalidated entries are gone
        for stale reads too, because their window has moved.
        """
        now = self.clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_at, value = entry
                if self.ttl is None or now - stored_at <= self.ttl:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._count("serve_cache_hits_total")
                    return value, True
                self.expirations += 1
                self._count("serve_cache_expirations_total")
                self.misses += 1
                self._count("serve_cache_misses_total")
                return value, False
            self.misses += 1
            self._count("serve_cache_misses_total")
            return None, False

    def put(self, key: tuple, value: Any, generation: int) -> None:
        """Store ``value`` computed at the object's ``generation``; evicts
        the LRU entry beyond capacity.  Dropped if the object has been
        invalidated since."""
        with self._lock:
            if generation != self.generation(key[0]):
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (self.clock(), value)
            self._by_object.setdefault(key[0], set()).add(key)
            while len(self._entries) > self.max_entries:
                victim, _ = self._entries.popitem(last=False)
                self._forget_object_key(victim)
                self.evictions += 1
                self._count("serve_cache_evictions_total")
            self._gauge_size()

    def invalidate(self, object_id: str) -> int:
        """Drop every entry for ``object_id``; returns how many."""
        with self._lock:
            self._generations[object_id] = self.generation(object_id) + 1
            keys = self._by_object.pop(object_id, set())
            for key in keys:
                self._entries.pop(key, None)
            self.invalidations += len(keys)
            if keys:
                self._count("serve_cache_invalidations_total", len(keys))
            self._gauge_size()
            return len(keys)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_object.clear()
            self._gauge_size()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, float]:
        return {
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
        }

    # ------------------------------------------------------------------
    # internals (call with the lock held)
    # ------------------------------------------------------------------
    def _remove(self, key: tuple) -> None:
        self._entries.pop(key, None)
        self._forget_object_key(key)

    def _forget_object_key(self, key: tuple) -> None:
        keys = self._by_object.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_object[key[0]]

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._instruments is not None:
            self._instruments.counter(name).inc(amount)

    def _gauge_size(self) -> None:
        if self._instruments is not None:
            self._instruments.gauge("serve_cache_entries").set(
                len(self._entries)
            )

    def __repr__(self) -> str:
        return (
            f"PredictionCache(size={len(self._entries)}/{self.max_entries}, "
            f"hit_rate={self.hit_rate:.2f})"
        )


class Doorkeeper:
    """Remembers which cache keys were offered before, in a fixed 64 KiB
    bit table (TinyLFU's doorkeeper; Einziger, Friedman and Manes, ACM
    ToS 2017).

    :meth:`offer` reports whether ``key`` was offered before and marks it
    seen.  A key sets one bit, chosen by a CRC-32 of the key, so the
    answer does not depend on ``PYTHONHASHSEED``.  Two keys may share a
    bit; a false "seen" only admits an answer one sighting early.  The
    table is cleared after ``reset_after`` first sightings, so it keeps
    up with the current traffic and its false "seen" rate stays low.

    Not locked: the service offers keys from the event loop only.
    """

    BITS = 1 << 19  # 64 KiB

    def __init__(self, reset_after: int):
        if reset_after < 1:
            raise ValueError(f"reset_after must be >= 1, got {reset_after}")
        self.reset_after = reset_after
        self._table = bytearray(self.BITS >> 3)
        self._first_sightings = 0

    def offer(self, key: tuple) -> bool:
        """True when ``key`` was offered before; marks it seen either way."""
        object_id, window, query_time, k = key
        head = f"{object_id}\0{query_time}\0{k}".encode("utf-8", "surrogatepass")
        bit = zlib.crc32(window, zlib.crc32(head)) & (self.BITS - 1)
        index, mask = bit >> 3, 1 << (bit & 7)
        if self._table[index] & mask:
            return True
        if self._first_sightings == self.reset_after:
            self._table = bytearray(self.BITS >> 3)
            self._first_sightings = 0
        self._first_sightings += 1
        self._table[index] |= mask
        return False
