"""Reference per-vector retrieval engine (Algorithms 4 and 5, verbatim).

This engine walks the length-sorted items one by one and applies the full
pruning cascade with a *live* threshold, exactly as the paper's pseudo-code
does.  It is the semantic ground truth: the vectorized engine in
:mod:`repro.core.blocked` must return identical results *and* identical
pruning counters (asserted by the test suite).

The engine operates on the prepared state objects built by
:class:`repro.core.index.FexiproIndex`; it holds no state of its own.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple

from .. import _faultsites
from .driver import BlockCursor
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .score import exact_scores
from .stats import PruningStats
from .topk import TopKBuffer

if TYPE_CHECKING:  # pragma: no cover - imported only for type checking
    from .index import FexiproIndex, QueryState

#: Cap on per-scan threshold-trajectory events recorded on a span; the
#: reference engine raises the threshold per admitted item, which is O(n)
#: worst-case — traces stay bounded regardless.
MAX_THRESHOLD_EVENTS = 96


def scan_reference(index: "FexiproIndex", qs: "QueryState", k: int, *,
                   options: Optional[ScanOptions] = None,
                   ) -> Tuple[TopKBuffer, PruningStats]:
    """Run Algorithm 4 with the Algorithm 5 coordinate scan, one item at a time.

    Parameters
    ----------
    index:
        A preprocessed :class:`~repro.core.index.FexiproIndex`.
    qs:
        Prepared per-query state (transformed query, scaled query, reduction
        constants) from :func:`repro.core.index.prepare_query_states`.
    k:
        Number of results; the returned buffer holds item positions in the
        index's *sorted* order (the index maps them back to original ids).
    options:
        A :class:`~repro.core.options.ScanOptions` bundle.  ``timings``
        accumulates per-stage wall time (per-item clock calls — use for
        analysis, not throughput runs); the full product comes out of
        the same :func:`~repro.core.score.exact_scores` call as the head
        partial, so its time counts as ``incremental``.  ``deadline``
        and ``budget`` are polled per item by
        :meth:`repro.core.driver.BlockCursor.poll`
        (this engine has no blocks); on a stop the buffer is the exact
        top-k of the length-sorted prefix visited, same contract as
        :func:`repro.core.blocked.scan_blocked`.  ``initial_threshold``
        warm-starts the live threshold ``t``; it must be a *strict* lower
        bound on the query's true k-th inner product (the
        ``ScanOptions.initial_threshold`` contract), making ids and
        scores bitwise identical to the cold scan with only pruning
        counters changed.
        ``span`` records the threshold trajectory (capped at
        :data:`MAX_THRESHOLD_EVENTS` raises) plus termination/deadline
        events.  ``shared`` is ignored — this engine never runs inside a
        shard fan-out.
    """
    opts = DEFAULT_SCAN_OPTIONS if options is None else options
    timings = opts.timings
    span = opts.span
    if _faultsites.active is not None:
        _faultsites.fire(_faultsites.SCAN, "scan_reference")
    buffer = TopKBuffer(k)
    stats = PruningStats(n_items=index.n)
    cursor = BlockCursor(opts, stats)

    items_bar = index.items_bar
    norms = index.norms_sorted
    tail_norms = index.bar_tail_norms
    w = index.w
    q_norm = qs.q_norm
    q_bar = qs.q_bar
    q_tail_norm = qs.q_bar_tail_norm

    use_integer = index.scaled is not None
    use_reduction = index.reduction is not None
    timed = timings is not None

    t = float(opts.initial_threshold)
    t_prime = -math.inf
    events_left = MAX_THRESHOLD_EVENTS if span is not None else 0
    if span is not None:
        span.set(engine="reference", initial_threshold=t)

    width = items_bar.shape[1]
    for i in range(index.n):
        if not cursor.poll(i, width, t):
            break
        # Line 11 of Algorithm 4: Cauchy-Schwarz early termination.  The
        # items are sorted by decreasing original length, so the first
        # failure ends the whole scan.
        if q_norm * norms[i] <= t:
            stats.length_terminated = 1
            if span is not None:
                span.event("length_terminated", position=i, threshold=t)
            break
        stats.scanned += 1

        ub1 = q_tail_norm * tail_norms[i]

        if use_integer:
            # Lines 2-5 of Algorithm 5: partial integer bound (Equation 6).
            if timed:
                tick = perf_counter()
            b_l = float(index.scaled.head_bound(qs.scaled, i))
            head_pruned = b_l + ub1 <= t
            full_pruned = False
            if not head_pruned:
                # Lines 6-8: full integer bound (Equation 3).
                b_h = float(index.scaled.tail_bound(qs.scaled, i))
                full_pruned = b_l + b_h <= t
            if timed:
                timings.integer += perf_counter() - tick
            if head_pruned:
                stats.pruned_integer_partial += 1
                continue
            if full_pruned:
                stats.pruned_integer_full += 1
                continue

        # Lines 9-13: exact partial product + incremental pruning (Eq. 1).
        # The one exact-score kernel also yields the full product, read
        # below only if the item survives to Lines 18-20.
        if timed:
            tick = perf_counter()
        head, score = exact_scores(items_bar, [i], q_bar, w)
        v = float(head[0])
        if timed:
            timings.incremental += perf_counter() - tick
        if v + ub1 <= t:
            stats.pruned_incremental += 1
            continue

        if use_reduction and t_prime > -math.inf:
            # Lines 14-17: monotone-space partial bound (Lemma 1/Theorem 4).
            if timed:
                tick = perf_counter()
            mono_pruned = index.reduction.monotone_bound(
                v, qs.monotone, i) <= t_prime
            if timed:
                timings.monotone += perf_counter() - tick
            if mono_pruned:
                stats.pruned_monotone += 1
                continue

        # Lines 18-20: the residue of the exact product.
        v = float(score[0])
        stats.full_products += 1

        if timed:
            tick = perf_counter()
        if buffer.push(v, i):
            # Guarded update: a warm-start seed can exceed the buffer's
            # own k-th best (the buffer may even still be filling, when
            # its threshold is -inf), in which case the seed stays in
            # charge — identical to the blocked engine's rule.
            if buffer.threshold > t:
                t = buffer.threshold
                if events_left:
                    span.event("threshold", position=i, value=t)
                    events_left -= 1
                    if not events_left:
                        span.set(threshold_events_truncated=True)
            if use_reduction and t > -math.inf and buffer.full:
                # Line 17 of Algorithm 4: refresh t' via Equation 8 using
                # the constants of the item now holding the k-th slot.
                t_prime = index.reduction.threshold(
                    t, qs.monotone, buffer.kth_item
                )
        if timed:
            timings.select += perf_counter() - tick

    cursor.finish(t)
    return buffer, stats
