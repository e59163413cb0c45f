"""Exactness-preserving query cache with threshold warm-start.

The paper's workload analysis (§7, Fig. 9) shows recommender query traffic
is heavily skewed: a small set of hot users dominates.  This module turns
that skew into served work saved, without ever surrendering FEXIPRO's
exactness guarantee.  Two mechanisms, in decreasing order of payoff:

**Exact result reuse.**  A query whose canonical fingerprint, ``k`` and
catalog snapshot all match a cached entry is answered straight from the
cache — the returned :class:`~repro.core.stats.RetrievalResult` is a copy
of the one the original scan produced, so ids and scores are bitwise
identical by construction.  Safety comes from *snapshot binding*: every
entry records the :attr:`~repro.core.delta.LiveCatalog.token` —
``(uid, state_version)`` — of the catalog snapshot that produced it, and
the live catalog (:mod:`repro.core.delta`) bumps ``state_version`` on
every ``add_items``, ``remove_items`` and ``compact``.  A compaction
keeps the visible items but refits the SVD basis, so a fresh scan rounds
their scores differently at the ulp level; binding to the snapshot means
a cached answer is served only while it equals what a fresh scan would
return, bit for bit.  A stale entry is structurally unservable — it is
dropped (and counted) at lookup, never returned.

**Threshold warm-start.**  A near-hit cannot reuse the cached *answer*,
but it can reuse the cached *evidence*.  FEXIPRO's pruning cascade is
driven by a live threshold ``t`` that is sound for any value strictly
below the query's true k-th inner product: every pruning test in both
engines discards on ``bound <= t``, so a strict lower bound can never
touch an item whose score ties or beats the true k-th value.  The cache
derives such bounds from two kinds of neighbours:

- *same query, larger k*: a cached exact top-``k'`` result with
  ``k' >= k`` pins the true k-th score exactly — it is ``scores[k-1]``;
- *similarity bucket*: a cached result for a query that rounds to the
  same coarse bucket names ``k'`` concrete items; re-scoring those items
  for the **new** query (with :func:`~repro.core.score.exact_scores`, the
  engines' own row-stable score, so round-off matches bitwise) yields
  ``k'`` real achieved scores, whose k-th largest is a valid lower bound
  on the new query's true k-th score.

In both cases the seed handed to the engines is ``nextafter(B, -inf)`` —
one ulp *below* the bound ``B`` — making it strictly smaller than the true
k-th score even when ``B`` equals it.  Seeding only the threshold (never
pre-populating the :class:`~repro.core.topk.TopKBuffer`) means the scan's
admission sequence over surviving items is untouched, so tie-breaking is
bit-for-bit the cold scan's (property-tested across all variants, both
engines and the sharded scan, including adversarial duplicates and ties).

Warm starts follow the same one rule.  Cached scores (the larger-``k``
bound) and cached scan positions (the bucket's coordinate system) are
expressed in the producing snapshot's basis; across a compaction a seed
one ulp below an old-basis score could land *above* the new-basis k-th
value and misprune, and the token mismatch refuses it.

The cache itself is a thread-safe LRU with optional TTL.  It is index-
agnostic: one cache may sit in front of several services, and entries from
different indexes (or different snapshots of the same index) can
coexist — the token keeps them from ever crossing.
"""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.score import exact_scores
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
    "bucket_query_bytes",
]

#: Default number of entries a :class:`QueryCache` retains.
DEFAULT_CAPACITY = 256


def canonical_query_bytes(q: np.ndarray) -> bytes:
    """Canonical byte representation of a query vector (the cache key).

    Queries are hashed as contiguous float64 with negative zeros
    normalized to positive (``q + 0.0`` is exact for every finite value
    and maps ``-0.0`` to ``+0.0``).  Two queries that differ only in zero
    signs produce value-identical inner products, so folding them onto one
    fingerprint trades nothing; every other bit pattern stays distinct —
    there is **no** lossy quantization on the exact-hit path.
    """
    arr = np.ascontiguousarray(q, dtype=np.float64) + 0.0
    return arr.tobytes()


def bucket_query_bytes(q: np.ndarray, decimals: int) -> bytes:
    """Coarse byte representation for the warm-start similarity bucket.

    Unlike :func:`canonical_query_bytes` this *is* lossy — queries that
    round to the same ``decimals``-places grid share a bucket.  That is
    safe because bucket neighbours never exchange results, only candidate
    item lists that are re-scored exactly for the new query.
    """
    arr = np.round(np.ascontiguousarray(q, dtype=np.float64), decimals) + 0.0
    return arr.tobytes()


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def _snap(index):
    """The live catalog snapshot behind ``index`` (or ``index`` itself).

    Cache methods accept either a :class:`~repro.core.index.FexiproIndex`
    (whose ``_live`` may be swapped by a concurrent writer mid-probe) or
    an already captured :class:`~repro.core.delta.LiveCatalog` — the
    serving layer passes its per-batch snapshot so lookup, seeding and
    store all validate against one frozen catalog state.
    """
    return getattr(index, "_live", index)


def _variant_name(snap) -> str:
    """Variant as a string (an enum on the index, already a str on a snap)."""
    return getattr(snap.variant, "name", snap.variant)


@dataclass
class CacheEntry:
    """One cached exact answer, bound to the catalog state that produced it.

    ``token`` is the producing snapshot's ``(uid, state_version)`` pair;
    hits and warm seeds are served only from an entry whose token matches
    the live snapshot's.  ``positions`` are the result items' positions
    in that snapshot's scan coordinates — base items in length-sorted
    order, delta items at ``n_base + delta_index`` — kept so bucket
    neighbours can re-score the items without an id → position search.
    """

    key: Tuple
    qkey: Tuple
    bkey: Optional[Tuple]
    token: Tuple[str, int]
    qbytes: bytes
    k: int
    result: RetrievalResult
    positions: Tuple[int, ...]
    created: float


@dataclass
class CacheLookup:
    """Outcome of one cache probe.

    ``kind`` is ``"hit"`` (``result`` is a private copy of the cached
    answer, servable as-is), ``"warm"`` (the scan should be seeded —
    either ``seed`` is already a valid strict lower bound, or ``entry``
    names a bucket neighbour to re-score via
    :meth:`QueryCache.bucket_seed`) or ``"miss"``.
    """

    kind: str
    result: Optional[RetrievalResult] = None
    seed: float = -math.inf
    entry: Optional[CacheEntry] = None


def _copy_result(result: RetrievalResult) -> RetrievalResult:
    """An independent copy: cache internals must never alias caller state."""
    return RetrievalResult(
        ids=list(result.ids),
        scores=list(result.scores),
        stats=replace(result.stats),
        elapsed=result.elapsed,
    )


class QueryCache:
    """LRU result cache + warm-start seed source for FEXIPRO serving.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used entries are evicted
        beyond it.
    ttl_s:
        Optional time-to-live in seconds (measured on ``clock``); expired
        entries are dropped at lookup.  ``None`` disables expiry.
    warm_start:
        When ``False``, near-hits are not consulted — the cache serves
        exact hits only.
    bucket_decimals:
        Decimal places for the similarity-bucket fingerprint.  ``None``
        (the default) disables bucket matching; same-query-larger-``k``
        warm-starts still work.  Small values (1–2) bucket aggressively;
        the setting only affects *speed*, never results.
    clock:
        Injectable monotonic time source for TTL tests.

    Thread-safe; all bookkeeping runs under one lock (lookups are a dict
    probe and a hash — noise next to a scan).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, *,
                 ttl_s: Optional[float] = None,
                 warm_start: bool = True,
                 bucket_decimals: Optional[int] = None,
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
        if bucket_decimals is not None and (
                not isinstance(bucket_decimals, int)
                or isinstance(bucket_decimals, bool) or bucket_decimals < 0):
            raise ValidationError(
                f"bucket_decimals must be a non-negative integer or None; "
                f"got {bucket_decimals!r}"
            )
        self.capacity = capacity
        self.ttl_s = None if ttl_s is None else float(ttl_s)
        self.warm_start = bool(warm_start)
        self.bucket_decimals = bucket_decimals
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self._by_query: Dict[Tuple, Dict[int, Tuple]] = {}
        self._by_bucket: Dict[Tuple, Tuple] = {}
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
        self.stores = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        _LIVE_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def lookup(self, index, q: np.ndarray, k: int) -> CacheLookup:
        """Probe the cache for ``(index, q, k)``.

        ``k`` must already be clamped to the visible catalog size (the
        serving layer clamps before probing, so an oversized request and
        its clamped twin share an entry).  Stale (token-mismatched) and
        expired entries encountered along the way are dropped and counted
        — a poisoned entry is never served and never seeds anything.
        """
        index = _snap(index)
        token = index.token
        qbytes = canonical_query_bytes(q)
        qkey = (_variant_name(index), _digest(qbytes))
        with self._lock:
            entry = self._entries.get((qkey, k))
            if entry is not None and self._usable(entry, token) \
                    and entry.qbytes == qbytes:
                self._entries.move_to_end(entry.key)
                self.hits += 1
                return CacheLookup("hit", result=_copy_result(entry.result))
            self.misses += 1
            if not self.warm_start:
                return CacheLookup("miss")
            # Same query cached at k' >= k: its scores[k-1] *is* the true
            # k-th inner product, so one ulp below it is a strict bound.
            ks = self._by_query.get(qkey)
            if ks:
                for cached_k in sorted(ks):
                    if cached_k < k:
                        continue
                    entry = self._entries.get(ks.get(cached_k))
                    if entry is not None and self._usable(entry, token) \
                            and entry.qbytes == qbytes:
                        self.warm_hits += 1
                        bound = float(entry.result.scores[k - 1])
                        return CacheLookup(
                            "warm", seed=math.nextafter(bound, -math.inf)
                        )
            # Similarity bucket: a neighbour's item list, re-scored later
            # for this query (needs the prepared query state — deferred to
            # bucket_seed()).
            if self.bucket_decimals is not None:
                bkey = (_variant_name(index),
                        _digest(bucket_query_bytes(q, self.bucket_decimals)))
                key = self._by_bucket.get(bkey)
                entry = self._entries.get(key) if key is not None else None
                if entry is not None and self._usable(entry, token) \
                        and entry.k >= k:
                    self.warm_hits += 1
                    return CacheLookup("warm", entry=entry)
            return CacheLookup("miss")

    def bucket_seed(self, index, qs, entry: CacheEntry, k: int) -> float:
        """A strict lower bound on ``qs``'s true k-th score from a neighbour.

        Re-scores the neighbour's cached item positions for the *new*
        query with :func:`~repro.core.score.exact_scores`, as the engines
        score them (delta-tier positions ``p >= n_base`` on the raw rows
        with ``w = d``), so every value is a genuinely achievable score of
        a real item.  The k-th largest of those is a lower bound on the
        true k-th score; one ulp below it is a strict one.  Returns
        ``-inf`` (cold scan) if the entry went stale or names fewer than
        ``k`` items.
        """
        index = _snap(index)
        if entry.token != index.token or len(entry.positions) < k:
            return -math.inf
        positions = np.asarray(entry.positions, dtype=np.int64)
        base = positions < index.n
        __, base_scores = exact_scores(index.items_bar, positions[base],
                                       qs.q_bar, index.w)
        __, delta_scores = exact_scores(index.delta_items,
                                        positions[~base] - index.n,
                                        qs.q, index.d)
        scores = np.sort(np.concatenate([base_scores, delta_scores]))
        return math.nextafter(float(scores[-k]), -math.inf)

    # ------------------------------------------------------------------
    # Store / invalidate
    # ------------------------------------------------------------------

    def store(self, index, q: np.ndarray, k: int,
              result: RetrievalResult, positions: Sequence[int]) -> bool:
        """Cache one exact answer; returns whether it was accepted.

        Only *complete* (no deadline truncation), *full* (``k`` items —
        after clamping, every untruncated scan yields exactly ``k``)
        results are cacheable: anything else is not the exact top-k of the
        whole index and must never be replayed as one.
        """
        if not result.complete or len(result.ids) != k:
            return False
        index = _snap(index)
        qbytes = canonical_query_bytes(q)
        qkey = (_variant_name(index), _digest(qbytes))
        bkey = None
        if self.bucket_decimals is not None:
            bkey = (_variant_name(index),
                    _digest(bucket_query_bytes(q, self.bucket_decimals)))
        entry = CacheEntry(
            key=(qkey, k), qkey=qkey, bkey=bkey, token=index.token,
            qbytes=qbytes,
            k=k, result=_copy_result(result), positions=tuple(positions),
            created=self._clock(),
        )
        with self._lock:
            old = self._entries.pop(entry.key, None)
            if old is not None:
                self._unlink(old)
            self._entries[entry.key] = entry
            self._by_query.setdefault(qkey, {})[k] = entry.key
            if bkey is not None:
                self._by_bucket[bkey] = entry.key
            self.stores += 1
            while len(self._entries) > self.capacity:
                __, evicted = self._entries.popitem(last=False)
                self._unlink(evicted)
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
                self._unlink(self._entries.pop(key))
            self.invalidations += len(keys)
            return len(keys)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self.invalidate()

    # ------------------------------------------------------------------
    # Internals / introspection
    # ------------------------------------------------------------------

    def _usable(self, entry: CacheEntry, token: Tuple[str, int]) -> bool:
        """Validate one entry against the live catalog token and TTL.

        Must be called under the lock.  Drops (and counts) failures so a
        poisoned entry costs at most one probe.
        """
        if entry.token != token:
            self._entries.pop(entry.key, None)
            self._unlink(entry)
            self.invalidations += 1
            return False
        if self.ttl_s is not None \
                and self._clock() - entry.created > self.ttl_s:
            self._entries.pop(entry.key, None)
            self._unlink(entry)
            self.expirations += 1
            return False
        return True

    def _unlink(self, entry: CacheEntry) -> None:
        """Remove an entry's secondary-map references (under the lock)."""
        ks = self._by_query.get(entry.qkey)
        if ks is not None and ks.get(entry.k) == entry.key:
            del ks[entry.k]
            if not ks:
                del self._by_query[entry.qkey]
        if entry.bkey is not None \
                and self._by_bucket.get(entry.bkey) == entry.key:
            del self._by_bucket[entry.bkey]

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable counters and configuration of this cache."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "ttl_s": self.ttl_s,
                "warm_start": self.warm_start,
                "bucket_decimals": self.bucket_decimals,
                "hits": self.hits,
                "misses": self.misses,
                "warm_hits": self.warm_hits,
                "stores": self.stores,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryCache(size={len(self._entries)}, "
            f"capacity={self.capacity}, hits={self.hits}, "
            f"warm_hits={self.warm_hits}, misses={self.misses})"
        )
