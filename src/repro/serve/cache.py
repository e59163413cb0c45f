"""Exactness-preserving query cache: one entry per query, every smaller k.

The paper's workload analysis (§7, Fig. 9) shows recommender query traffic
is heavily skewed: a small set of hot users dominates.  This module turns
that skew into served work saved, without ever surrendering FEXIPRO's
exactness guarantee.  It has one rule.

**One entry per query, served as a prefix.**  The cache keeps one entry
per (variant, canonical query bytes): that query's longest complete exact
answer.  A lookup at depth ``k`` is a hit when the entry's depth ``k'`` is
at least ``k``, the entry is bound to the live catalog snapshot, its TTL
holds and its query bytes are equal; the hit serves the entry's first
``k`` ids and scores.  That prefix *is* the answer a fresh scan at ``k``
returns, bit for bit: every engine keeps the k best by (score desc,
length-sorted position asc) whatever order candidates arrive in, and the
first ``k`` of the ``k'`` best under one total order are the ``k`` best.
Scores are the one row-stable kernel's (:mod:`repro.core.score`), so a
score does not depend on the depth that computed it.  The same-``k`` hit
is the case ``k' = k``.  In budget mode the certified band is cut the
same way: ``lower`` keeps its first ``k`` entries and ``tail_upper``
stays, since it still caps every item the longer scan never visited.

**Snapshot binding.**  Every entry records the
:attr:`~repro.core.delta.LiveCatalog.token` — ``(uid, state_version)`` —
of the catalog snapshot that produced it, and the live catalog
(:mod:`repro.core.delta`) bumps ``state_version`` on every ``add_items``,
``remove_items`` and ``compact``.  A compaction keeps the visible items
but refits the SVD basis, so a fresh scan rounds their scores differently
at the ulp level; binding to the snapshot means a cached answer is served
only while it equals what a fresh scan would return, bit for bit.  A
stale entry is structurally unservable — it is dropped (and counted) at
lookup, never returned.

The cache itself is a thread-safe LRU with optional TTL; its capacity
counts queries.  It is index-agnostic: one cache may sit in front of
several services, and entries from different indexes (or different
snapshots of the same index) can coexist — the token keeps them from
ever crossing.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..core.budget import ResultBounds
from ..core.stats import RetrievalResult
from ..exceptions import ValidationError

#: Caches whose LRU lock must be re-initialized in a forked child (the
#: fork can land mid-``store`` on another thread, leaving the child's
#: copy of the lock held forever).  Scan worker processes never consult
#: the parent's cache — lookups and stores happen in the serving parent —
#: so a fresh unlocked lock is always the correct child state.
_LIVE_CACHES: "weakref.WeakSet[QueryCache]" = weakref.WeakSet()


def _reinit_locks_after_fork() -> None:
    for cache in list(_LIVE_CACHES):
        cache._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython has it
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)

__all__ = [
    "CacheEntry",
    "CacheLookup",
    "QueryCache",
    "canonical_query_bytes",
]

#: Default number of queries a :class:`QueryCache` retains.
DEFAULT_CAPACITY = 256


def canonical_query_bytes(q: np.ndarray) -> bytes:
    """Canonical byte representation of a query vector (the cache key).

    Queries are hashed as contiguous float64 with negative zeros
    normalized to positive (``q + 0.0`` is exact for every finite value
    and maps ``-0.0`` to ``+0.0``).  Two queries that differ only in zero
    signs produce value-identical inner products, so folding them onto one
    fingerprint trades nothing; every other bit pattern stays distinct —
    there is **no** lossy quantization.
    """
    arr = np.ascontiguousarray(q, dtype=np.float64) + 0.0
    return arr.tobytes()


def _key(snap, qbytes: bytes) -> Tuple[str, bytes]:
    """The entry key: the variant (an enum on an index, a str on a snap)
    and a digest of the canonical query bytes."""
    return (getattr(snap.variant, "name", snap.variant),
            hashlib.blake2b(qbytes, digest_size=16).digest())


def _snap(index):
    """The live catalog snapshot behind ``index`` (or ``index`` itself).

    Cache methods accept either a :class:`~repro.core.index.FexiproIndex`
    (whose ``_live`` may be swapped by a concurrent writer mid-probe) or
    an already captured :class:`~repro.core.delta.LiveCatalog` — the
    serving layer passes its per-batch snapshot so lookup and store both
    validate against one frozen catalog state.
    """
    return getattr(index, "_live", index)


@dataclass
class CacheEntry:
    """One query's longest cached exact answer, bound to its snapshot.

    ``token`` is the producing snapshot's ``(uid, state_version)`` pair;
    the entry serves hits at any depth up to ``k`` only while it matches
    the live snapshot's.
    """

    key: Tuple[str, bytes]
    token: Tuple[str, int]
    qbytes: bytes
    k: int
    result: RetrievalResult
    created: float


@dataclass
class CacheLookup:
    """Outcome of one cache probe.

    ``kind`` is ``"hit"`` (``result`` is a private copy of the cached
    answer's first ``k`` items, servable as-is) or ``"miss"``.
    """

    kind: str
    result: Optional[RetrievalResult] = None


def _copy_result(result: RetrievalResult, k: int) -> RetrievalResult:
    """An independent copy of the first ``k`` items of ``result``.

    Cache internals must never alias caller state.  A budget-mode band
    keeps its first ``k`` lower bounds and its tail cap.
    """
    bounds = result.bounds
    if bounds is not None:
        bounds = ResultBounds(lower=tuple(bounds.lower[:k]),
                              tail_upper=bounds.tail_upper,
                              certified=bounds.certified)
    return RetrievalResult(
        ids=list(result.ids[:k]),
        scores=list(result.scores[:k]),
        stats=replace(result.stats),
        elapsed=result.elapsed,
        bounds=bounds,
    )


class QueryCache:
    """LRU cache of exact answers, one entry per query, for FEXIPRO serving.

    Parameters
    ----------
    capacity:
        Maximum number of queries kept; least-recently-used entries are
        evicted beyond it.
    ttl_s:
        Optional time-to-live in seconds (measured on ``clock``); expired
        entries are dropped at lookup.  ``None`` disables expiry.
    clock:
        Injectable monotonic time source for TTL tests.

    Thread-safe; all bookkeeping runs under one lock (lookups are a dict
    probe and a hash — noise next to a scan).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 ttl_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if not isinstance(capacity, int) or isinstance(capacity, bool) \
                or capacity < 1:
            raise ValidationError(
                f"cache capacity must be a positive integer; got {capacity!r}"
            )
        if ttl_s is not None and not (
                isinstance(ttl_s, (int, float))
                and not isinstance(ttl_s, bool) and ttl_s > 0):
            raise ValidationError(
                f"ttl_s must be a positive number or None; got {ttl_s!r}"
            )
        self.capacity = capacity
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        _LIVE_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, index, q: np.ndarray, k: int) -> CacheLookup:
        """Probe the cache for ``(index, q, k)``.

        A hit needs the query's entry to hold at least ``k`` items, match
        the live snapshot's token and the TTL, and carry the same query
        bytes; it serves the entry's first ``k`` items.  ``k`` must
        already be clamped to the visible catalog size (the serving layer
        clamps before probing, so an oversized request and its clamped
        twin share an entry).  A stale or expired entry is dropped and
        counted — a poisoned entry is never served.
        """
        snap = _snap(index)
        qbytes = canonical_query_bytes(q)
        key = _key(snap, qbytes)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._usable(entry, snap.token) \
                    and entry.k >= k and entry.qbytes == qbytes:
                self._entries.move_to_end(key)
                self.hits += 1
                return CacheLookup("hit", result=_copy_result(entry.result, k))
            self.misses += 1
            return CacheLookup("miss")

    def store(self, index, q: np.ndarray, k: int,
              result: RetrievalResult) -> bool:
        """Cache one exact answer; returns whether it was accepted.

        Only *complete* (no deadline or budget truncation), *full* (``k``
        items — after clamping, every untruncated scan yields exactly
        ``k``) results are cacheable: anything else is not the exact
        top-k of the whole index and must never be replayed as one.  A
        usable entry for the same query with a larger ``k`` already
        answers this one, so it is kept and the store is refused.
        """
        if not result.complete or len(result.ids) != k:
            return False
        snap = _snap(index)
        qbytes = canonical_query_bytes(q)
        entry = CacheEntry(key=_key(snap, qbytes), token=snap.token,
                           qbytes=qbytes, k=k, result=_copy_result(result, k),
                           created=self._clock())
        with self._lock:
            old = self._entries.get(entry.key)
            if old is not None and old.k > k and old.qbytes == qbytes \
                    and self._usable(old, entry.token):
                return False
            self._entries.pop(entry.key, None)
            self._entries[entry.key] = entry
            self.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return True

    def invalidate(self, uid: Optional[str] = None) -> int:
        """Drop every entry (or every entry produced by index ``uid``).

        Token binding already makes stale entries unservable, so this hook
        is about *capacity*: releasing slots held by an index that was
        rebuilt or retired.  Returns the number of entries dropped.
        """
        with self._lock:
            keys = [key for key, entry in self._entries.items()
                    if uid is None or entry.token[0] == uid]
            for key in keys:
                del self._entries[key]
            self.invalidations += len(keys)
            return len(keys)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self.invalidate()

    def _usable(self, entry: CacheEntry, token: Tuple[str, int]) -> bool:
        """Validate one entry against the live catalog token and TTL.

        Must be called under the lock.  Drops (and counts) failures so a
        poisoned entry costs at most one probe.
        """
        if entry.token != token:
            del self._entries[entry.key]
            self.invalidations += 1
            return False
        if self.ttl_s is not None \
                and self._clock() - entry.created > self.ttl_s:
            del self._entries[entry.key]
            self.expirations += 1
            return False
        return True

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable counters and configuration of this cache."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryCache(size={len(self._entries)}, "
            f"capacity={self.capacity}, hits={self.hits}, "
            f"misses={self.misses})"
        )
