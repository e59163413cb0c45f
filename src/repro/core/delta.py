"""Live catalogs: the delta shard, tombstones, and catalog snapshots.

Algorithm 3 preprocessing (length sort, SVD, scaling, integer reduction)
is batch-only, so a mutable catalog cannot re-run it per write.  This
module adds the standard escape hatch — a two-tier *live catalog*:

- The **base tier** is the usual immutable preprocessed index: length
  sort, transform, scaled/reduced companions.  All three engines scan it
  unchanged.
- The **delta tier** is a small mutable tail absorbing ``add_items``:
  raw rows scanned brute-force, one exact inner product per alive row
  (:func:`~repro.core.score.exact_scores` with ``w = d``).
  No preprocessing means no bound machinery — but also no approximation,
  so the tier is *exact by construction* (the same exact-verification
  discipline as the re-rank step of "Quantization based Fast Inner
  Product Search", PAPERS.md).
- **Tombstones** implement ``remove_items`` as positional masks over
  both tiers; a background compactor periodically re-runs Algorithm 3
  over the visible rows and swaps the whole snapshot atomically.

:class:`LiveCatalog` is one immutable snapshot of all of that.  The
owning :class:`repro.core.index.FexiproIndex` publishes the current
snapshot as a single reference (``index._live``); mutators build a new
snapshot and swap the reference under a lock, so a query that captured a
snapshot keeps scanning a frozen, internally consistent catalog no
matter how many writes or compactions land mid-scan — the seqlock-style
invariant pinned by ``tests/test_live_catalog.py``.

Exactness of the combined scan (DESIGN §2.14):  the base engine runs
with an inflated capacity ``k_eff = k + base_dead_count``; among the top
``k_eff`` candidates at most ``base_dead_count`` are tombstoned, so
after masking the buffer still holds the true top-``k`` of the visible
catalog.  Delta rows (global positions ``n + i``) are pushed into the *same*
buffer, their exact scores acting as a tight bound.  Every row a scan
drops has ``k_eff`` rows ahead of it under the buffer's one order (score
descending, position ascending), at most ``base_dead_count`` of them
dead, so masking just drops dead candidates and keeps the ``k`` best.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .._validation import safe_row_norms
from ..exceptions import ValidationError
from .budget import ResultBounds, certified_bounds
from .driver import BlockCursor
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .score import exact_scores
from .stats import PruningStats, RetrievalResult, assemble_result
from .topk import TopKBuffer

__all__ = [
    "DELTA_BLOCK",
    "LiveCatalog",
    "apply_tombstones",
    "catalog_bounds",
    "catalog_result",
    "compacted_live",
    "delta_tail_bound",
    "effective_k",
    "finish_catalog_above",
    "finish_catalog_scan",
    "scan_delta",
]

#: Delta rows scanned between deadline/budget/threshold polls.  The tier
#: is meant to stay small (hundreds to low thousands of rows between
#: compactions), so one poll site per block keeps overhead negligible
#: while preserving the block-granular degradation contract.
DELTA_BLOCK = 256


def _empty_delta(d: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.empty((0, d), dtype=np.float64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
        np.empty(0, dtype=bool),
    )


class LiveCatalog:
    """One immutable snapshot of a mutable catalog: base + delta + masks.

    Engines receive a snapshot wherever they used to receive the index —
    it exposes the same scan-facing attributes (``n``, ``order``,
    ``items_bar``, ``norms_sorted``, ``bar_norms``, ``bar_tail_norms``,
    ``w``, ``scaled``, ``reduction``, ``block_size``, ``epoch``, ``uid``)
    with ``n`` meaning the *base* extent, so the preprocessed scan code
    needs no changes.  Delta and tombstone state ride alongside:

    - ``delta_items``/``delta_ids``/``delta_norms``: appended raw rows.
    - ``delta_dead``/``base_dead``: positional tombstone masks.
    - ``state_version`` bumps on every swap of any kind (add, remove,
      compaction).  Everything derived from a snapshot — cached answers,
      reverse thresholds, process-pool replicas — is either
      a field of the snapshot itself or keyed by :attr:`token`, the
      ``(uid, state_version)`` pair.
    - ``epoch`` bumps only when the preprocessed basis changes (build or
      compaction); only the engine cost model keys on it.

    Snapshots are cheap: mutators share the base arrays and copy only
    the small delta/mask arrays.
    """

    def __init__(self, *, uid: str, variant: str, block_size: int,
                 epoch: int, state_version: int,
                 order: np.ndarray, items_sorted: np.ndarray,
                 norms_sorted: np.ndarray, transform, w: int,
                 items_bar: np.ndarray, bar_norms: np.ndarray,
                 bar_tail_norms: np.ndarray, scaled, reduction,
                 delta_items: Optional[np.ndarray] = None,
                 delta_ids: Optional[np.ndarray] = None,
                 delta_norms: Optional[np.ndarray] = None,
                 delta_dead: Optional[np.ndarray] = None,
                 base_dead: Optional[np.ndarray] = None):
        self.uid = uid
        self.variant = variant
        self.block_size = block_size
        self.epoch = epoch
        self.state_version = state_version
        self.order = order
        self.items_sorted = items_sorted
        self.norms_sorted = norms_sorted
        self.transform = transform
        self.w = w
        self.items_bar = items_bar
        self.bar_norms = bar_norms
        self.bar_tail_norms = bar_tail_norms
        self.scaled = scaled
        self.reduction = reduction

        n, d = items_sorted.shape
        self.n = n
        self.d = d

        if delta_items is None:
            delta_items, delta_ids, delta_norms, delta_dead = _empty_delta(d)
        self.delta_items = delta_items
        self.delta_ids = delta_ids
        self.delta_norms = delta_norms
        self.delta_dead = delta_dead
        self.base_dead = (np.zeros(n, dtype=bool)
                          if base_dead is None else base_dead)

        # Derived, computed once per snapshot (snapshots are immutable).
        self.base_dead_count = int(self.base_dead.sum())
        self.delta_count = int(self.delta_ids.shape[0])
        self.delta_alive_idx = np.flatnonzero(~self.delta_dead)
        self.delta_alive_count = int(self.delta_alive_idx.size)
        self.visible_count = (n - self.base_dead_count
                              + self.delta_alive_count)
        self.full_order = (np.concatenate([order, self.delta_ids])
                           if self.delta_count else order)
        # Suffix maxima of alive delta norms in scan (append) order:
        # ``delta_suffix_max[j]`` bounds the norm of every alive delta
        # row the scan has not reached after visiting ``j`` of them.
        alive_norms = self.delta_norms[self.delta_alive_idx]
        if alive_norms.size:
            suffix = np.empty(alive_norms.size + 1, dtype=np.float64)
            suffix[-1] = -math.inf
            np.maximum.accumulate(alive_norms[::-1], out=suffix[-2::-1])
        else:
            suffix = np.full(1, -math.inf)
        self.delta_suffix_max = suffix

    # -- bookkeeping ---------------------------------------------------

    @property
    def token(self) -> Tuple[str, int]:
        """``(uid, state_version)``: the identity derived state keys on."""
        return (self.uid, self.state_version)

    @property
    def clean(self) -> bool:
        """Whether base alone is the whole catalog (nothing to compact)."""
        return self.delta_count == 0 and self.base_dead_count == 0

    @property
    def pending_mutations(self) -> int:
        """Delta rows plus tombstones — the compactor's trigger metric."""
        return self.delta_count + self.base_dead_count

    def is_dead(self, position: int) -> bool:
        """Whether a global scan position is tombstoned."""
        if position < self.n:
            return bool(self.base_dead[position])
        return bool(self.delta_dead[position - self.n])

    # -- snapshot algebra (mutators build new snapshots) ---------------

    def with_appended(self, rows: np.ndarray,
                      ids: np.ndarray) -> "LiveCatalog":
        """A new snapshot with ``rows`` appended to the delta tier."""
        if rows.shape[1] != self.d:
            raise ValidationError(
                f"appended rows have {rows.shape[1]} dimensions; "
                f"index has {self.d}"
            )
        return LiveCatalog(
            uid=self.uid, variant=self.variant, block_size=self.block_size,
            epoch=self.epoch, state_version=self.state_version + 1,
            order=self.order, items_sorted=self.items_sorted,
            norms_sorted=self.norms_sorted, transform=self.transform,
            w=self.w, items_bar=self.items_bar, bar_norms=self.bar_norms,
            bar_tail_norms=self.bar_tail_norms, scaled=self.scaled,
            reduction=self.reduction,
            delta_items=np.concatenate([self.delta_items, rows]),
            delta_ids=np.concatenate(
                [self.delta_ids, np.asarray(ids, dtype=np.int64)]),
            delta_norms=np.concatenate(
                [self.delta_norms, safe_row_norms(rows)]),
            delta_dead=np.concatenate(
                [self.delta_dead, np.zeros(rows.shape[0], dtype=bool)]),
            base_dead=self.base_dead,
        )

    def with_tombstones(self, ids) -> Tuple["LiveCatalog", int]:
        """A new snapshot with ``ids`` masked out of both tiers.

        Returns ``(snapshot, removed)`` where ``removed`` counts the
        items that were visible and are now tombstoned (already-dead or
        unknown ids are ignored, making removal idempotent).
        """
        wanted = np.asarray(list(ids), dtype=np.int64)
        base_hit = np.isin(self.order, wanted) & ~self.base_dead
        delta_hit = np.isin(self.delta_ids, wanted) & ~self.delta_dead
        removed = int(base_hit.sum()) + int(delta_hit.sum())
        if removed == 0:
            return self, 0
        out = LiveCatalog(
            uid=self.uid, variant=self.variant, block_size=self.block_size,
            epoch=self.epoch, state_version=self.state_version + 1,
            order=self.order, items_sorted=self.items_sorted,
            norms_sorted=self.norms_sorted, transform=self.transform,
            w=self.w, items_bar=self.items_bar, bar_norms=self.bar_norms,
            bar_tail_norms=self.bar_tail_norms, scaled=self.scaled,
            reduction=self.reduction,
            delta_items=self.delta_items, delta_ids=self.delta_ids,
            delta_norms=self.delta_norms,
            delta_dead=self.delta_dead | delta_hit,
            base_dead=self.base_dead | base_hit,
        )
        return out, removed

    def visible_rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All alive rows: ``(rows, external_ids, sources)``.

        ``sources`` encodes where each fed row lives in *this* snapshot
        — base position ``p`` as ``p``, delta index ``j`` as ``n + j`` —
        which is what lets a compaction swap re-derive tombstones that
        landed while the rebuild ran (see :func:`compacted_live`).
        """
        base_alive = np.flatnonzero(~self.base_dead)
        rows = [self.items_sorted[base_alive]]
        ids = [self.order[base_alive]]
        src = [base_alive]
        if self.delta_alive_count:
            rows.append(self.delta_items[self.delta_alive_idx])
            ids.append(self.delta_ids[self.delta_alive_idx])
            src.append(self.n + self.delta_alive_idx)
        return (np.concatenate(rows), np.concatenate(ids),
                np.concatenate(src))


def compacted_live(live0: LiveCatalog, live1: LiveCatalog, built: dict,
                   sources: np.ndarray) -> LiveCatalog:
    """Assemble the post-compaction snapshot.

    ``built`` is the offline Algorithm 3 rebuild over ``live0``'s
    visible rows (it must carry ``perm``, the new-position → fed-row
    permutation); ``live1`` is the snapshot current at swap time.
    Because the delta tier is append-only between compactions and
    removals only flip masks, everything that happened after ``live0``
    was captured is replayed *positionally*: rows appended after
    ``live0`` (``delta[m0:]``) become the new delta tier with their
    current masks, and any fed row tombstoned since is looked up through
    ``sources`` — id reuse (remove then re-add the same external id)
    therefore cannot cross-contaminate, which an id-set diff would get
    wrong.

    ``epoch`` bumps (new basis) and so does ``state_version``: the
    visible catalog is unchanged, but every score is now computed in the
    new basis, so no answer or threshold derived from ``live1`` carries
    over.
    """
    n0, m0 = live0.n, live0.delta_count
    fed_dead = np.empty(sources.size, dtype=bool)
    is_base = sources < n0
    fed_dead[is_base] = live1.base_dead[sources[is_base]]
    fed_dead[~is_base] = live1.delta_dead[sources[~is_base] - n0]
    return LiveCatalog(
        uid=live1.uid, variant=live1.variant, block_size=live1.block_size,
        epoch=live1.epoch + 1, state_version=live1.state_version + 1,
        order=built["order"], items_sorted=built["items_sorted"],
        norms_sorted=built["norms_sorted"], transform=built["transform"],
        w=built["w"], items_bar=built["items_bar"],
        bar_norms=built["bar_norms"],
        bar_tail_norms=built["bar_tail_norms"], scaled=built["scaled"],
        reduction=built["reduction"],
        delta_items=live1.delta_items[m0:],
        delta_ids=live1.delta_ids[m0:],
        delta_norms=live1.delta_norms[m0:],
        delta_dead=live1.delta_dead[m0:].copy(),
        base_dead=fed_dead[built["perm"]],
    )


def effective_k(snap: LiveCatalog, k: int) -> int:
    """Inflated base-scan capacity: ``k`` plus one slot per tombstone.

    Among the top ``k_eff`` candidates at most ``base_dead_count`` are
    dead (delta pushes are alive by construction), so masking leaves at
    least ``k`` alive survivors whenever the visible catalog has them —
    the exactness argument of DESIGN §2.14.
    """
    return k + snap.base_dead_count


def scan_delta(snap: LiveCatalog, qs, k: int,
               options: Optional[ScanOptions] = None,
               ) -> Tuple[TopKBuffer, PruningStats, str]:
    """Brute-force scan of the alive delta rows into a fresh buffer.

    Exact by construction: every alive row's raw inner product
    (:func:`~repro.core.score.exact_scores` with ``w = d``, one call per
    block) is offered against the running threshold, seeded from
    ``options.initial_threshold``.  The deadline, budget and
    shared-threshold cells in ``options`` are polled by the same
    :class:`~repro.core.driver.BlockCursor` as the base engines, at
    :data:`DELTA_BLOCK` granularity, charging ``rows * d`` coordinate
    units to the budget; ``options.span`` is not used (callers close
    their own span with the outcome).  Returns ``(buffer, stats,
    outcome)`` with outcome one of ``empty | skipped | deadline | budget
    | scanned``.
    """
    opts = DEFAULT_SCAN_OPTIONS if options is None else options
    buffer = TopKBuffer(k)
    stats = PruningStats()
    alive = snap.delta_alive_idx
    stats.delta_items = int(alive.size)
    cursor = BlockCursor(opts, stats, snap.d, label="delta", traced=False)
    t = cursor.refresh(float(opts.initial_threshold))
    if alive.size == 0:
        return buffer, stats, "empty"
    # Whole-tier Cauchy–Schwarz cut: nothing alive can beat the seed.
    if qs.q_norm * float(snap.delta_suffix_max[0]) <= t:
        return buffer, stats, "skipped"

    pos_base = snap.n
    m = int(alive.size)
    for i in range(0, m, DELTA_BLOCK):
        j = min(i + DELTA_BLOCK, m)
        t = cursor.enter(i, j, t)
        if cursor.reason is not None:
            break
        block = alive[i:j]
        __, scores = exact_scores(snap.delta_items, block, qs.q, snap.d)
        stats.delta_scanned += int(block.size)
        for a, value in zip(block.tolist(), scores.tolist()):
            if value > t:
                buffer.push(value, pos_base + a)
                if buffer.threshold > t:
                    t = buffer.threshold
    return buffer, stats, cursor.reason or "scanned"


def apply_tombstones(snap: LiveCatalog, buffer: TopKBuffer,
                     k: int) -> Tuple[TopKBuffer, int]:
    """Drop dead candidates and keep the ``k`` best survivors.

    The :class:`~repro.core.topk.TopKBuffer` order does not depend on
    push order, so survivors go into the ``k``-buffer as they come.
    """
    out = TopKBuffer(k)
    masked = 0
    for score, pos in buffer:
        if snap.is_dead(pos):
            masked += 1
            continue
        out.push(score, pos)
    return out, masked


def finish_catalog_scan(snap: LiveCatalog, qs, k: int, buffer: TopKBuffer,
                        stats: PruningStats, opts) -> Tuple[TopKBuffer,
                                                            PruningStats]:
    """Extend a base-engine scan to the full visible catalog.

    ``buffer`` holds the base tier's top-``k_eff`` candidates; the delta
    tier is scanned (seeded by the achieved base threshold — sound,
    because a delta row at or below it provably cannot enter the final
    alive top-``k``), merged, and tombstones are masked back down to
    capacity ``k``.
    """
    if snap.delta_alive_count:
        seed = buffer.threshold
        if opts.initial_threshold > seed:
            seed = float(opts.initial_threshold)
        span = (opts.span.child("scan.delta", items=snap.delta_alive_count)
                if opts.span is not None else None)
        dbuf, dstats, outcome = scan_delta(
            snap, qs, buffer.k, opts.replace(initial_threshold=seed))
        buffer.merge(dbuf)
        stats.merge(dstats)
        if span is not None:
            span.set(outcome=outcome, scanned=dstats.delta_scanned).end()
    if snap.base_dead_count:
        buffer, masked = apply_tombstones(snap, buffer, k)
        stats.tombstones_masked += masked
    return buffer, stats


def finish_catalog_above(snap: LiveCatalog, qs, positions: np.ndarray,
                         scores: np.ndarray, stats: PruningStats,
                         threshold: float,
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Extend a base-tier above-``t`` scan to the full visible catalog.

    Masks tombstoned base positions out of the qualifying set, appends
    every alive delta row whose exact product clears the threshold, and
    re-sorts by descending score (stable, base before delta — ascending
    global position within ties, the library-wide tie order).
    """
    if snap.base_dead_count and positions.size:
        keep = ~snap.base_dead[positions]
        stats.tombstones_masked += int(np.sum(~keep))
        positions, scores = positions[keep], scores[keep]
    alive = snap.delta_alive_idx
    stats.delta_items += int(alive.size)
    stats.delta_scanned += int(alive.size)
    __, d_scores = exact_scores(snap.delta_items, alive, qs.q, snap.d)
    above = d_scores > threshold
    positions = np.concatenate([positions, snap.n + alive[above]])
    scores = np.concatenate([scores, d_scores[above]])
    order = np.argsort(-scores, kind="stable")
    return positions[order], scores[order]


def delta_tail_bound(snap: LiveCatalog, q_norm: float,
                     delta_scanned: int) -> float:
    """Upper bound on any unvisited alive delta row's score.

    The delta scan visits alive rows in append order, so after
    ``delta_scanned`` visits the unseen rows are an order-suffix and the
    precomputed suffix maximum of their norms gives the Cauchy–Schwarz
    cap — the delta tier's contribution to the certified band.
    """
    if delta_scanned >= snap.delta_alive_count:
        return -math.inf
    return float(q_norm) * float(snap.delta_suffix_max[delta_scanned])


def catalog_bounds(snap: LiveCatalog, q_norm: float, scores,
                   base_segments, delta_scanned: int) -> ResultBounds:
    """Certified band over the *visible catalog*: base segments + delta tail.

    ``base_segments`` are the usual ``(start, stop, scanned)`` triples
    over the preprocessed tier; the delta tail cap is folded in via
    :func:`delta_tail_bound`.  Tombstoned rows need no term — a bound
    that also covers some dead rows is still a sound bound on the alive
    ones.
    """
    band = certified_bounds(q_norm, snap.norms_sorted, scores,
                            base_segments)
    tail = delta_tail_bound(snap, q_norm, delta_scanned)
    if tail > band.tail_upper:
        return ResultBounds(lower=band.lower, tail_upper=tail)
    return band


def catalog_result(snap: LiveCatalog, q_norm: float, positions, scores,
                   stats: PruningStats, elapsed: float, *,
                   budgeted: bool) -> RetrievalResult:
    """Finish one scan of ``snap`` into a :class:`RetrievalResult`.

    ``positions``/``scores`` are the scan's survivors by descending score.
    A ``budgeted`` scan also gets its certified band: a budgeted scan is
    always one single scan, so its base tier is the one ``(0, n,
    scanned)`` segment, and the delta tier's tail cap rides through the
    suffix-max bound inside :func:`catalog_bounds`.
    """
    bounds = None
    if budgeted:
        bounds = catalog_bounds(snap, q_norm, scores,
                                [(0, snap.n, stats.scanned)],
                                stats.delta_scanned)
    return assemble_result(snap.full_order, positions, scores, stats,
                           elapsed, bounds=bounds)
