"""Vectorized block-scan retrieval engine.

CPython's per-element loop overhead makes the literal Algorithm 4/5 scan
(:mod:`repro.core.scanner`) orders of magnitude slower than the same
algorithm in C++.  This engine restores the paper's cost profile by doing
all vector arithmetic with NumPy while keeping the *decisions* — and
therefore the results and every pruning counter — bit-identical to the
reference scan.

How equivalence is kept
-----------------------
Items are processed in length-sorted blocks.  Within a block, each pruning
stage's bound values are precomputed with vectorized kernels using the
threshold ``t0`` frozen at block entry; since the live threshold only grows,
any item a stage would prune under ``t0`` is also pruned under the live
threshold, so later-stage values are lazily computed *only* for
``t0``-survivors and are never needed for anything else.  A final scalar
replay loop then walks the block in order, re-applying the cascade with the
live threshold against the precomputed bound values — reproducing the exact
stage attribution and early termination of the reference scan, while all
O(n*d) arithmetic stays inside NumPy.

Head partials and full products come from one
:func:`~repro.core.score.exact_scores` call over the block's integer-stage
survivors — the row-stable function the reference engine calls per item —
so both engines test the same ``v_head`` floats and admit the same scores.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .driver import BlockCursor
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .score import exact_scores
from .stats import PruningStats
from .topk import TopKBuffer

if TYPE_CHECKING:  # pragma: no cover - imported only for type checking
    from .index import FexiproIndex, QueryState

#: Default (maximum) number of items per vectorized block.
DEFAULT_BLOCK_SIZE = 1024

#: First-block size of the geometric schedule (see :func:`block_schedule`).
INITIAL_BLOCK_SIZE = 32


def block_schedule(n: int, k: int, cap: int):
    """Yield ``(start, stop)`` block bounds with geometrically growing sizes.

    The scan's threshold ``t`` is useless (``-inf``) until ``k`` results
    exist, so a large first block would be computed exhaustively.  Starting
    small (just past ``k``) and doubling up to ``cap`` establishes the
    threshold cheaply while keeping the steady-state blocks large enough
    for NumPy to be efficient.  Block boundaries never change *decisions*
    (verified by the engine-equivalence tests), only constant factors.
    """
    size = min(cap, max(INITIAL_BLOCK_SIZE, 2 * k))
    start = 0
    while start < n:
        stop = min(start + size, n)
        yield start, stop
        start = stop
        size = min(size * 2, cap)


def scan_blocked(index: "FexiproIndex", qs: "QueryState", k: int,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 *, start: int = 0, stop: Optional[int] = None,
                 options: Optional[ScanOptions] = None,
                 ) -> Tuple[TopKBuffer, PruningStats]:
    """Blocked, vectorized equivalent of :func:`repro.core.scanner.scan_reference`.

    Per-call behaviour rides in ``options`` (a
    :class:`~repro.core.options.ScanOptions`).

    When ``options.timings`` is given, the wall time of each vectorized
    stage section is accumulated per block (a handful of clock calls per
    block — cheap enough to leave on in production serving), with the
    scalar replay loop attributed to ``select``.  Exact scores are
    computed with the head partials, so their time counts as
    ``incremental``.

    ``start``/``stop`` restrict the scan to a contiguous span of sorted
    positions (a length-band *shard*); the returned buffer then holds
    absolute positions, so per-shard buffers merge directly.

    Each block boundary runs the stop protocol of
    :class:`repro.core.driver.BlockCursor`: ``options.deadline`` and
    ``options.budget`` are polled, the ``scan`` fault site fires, the live
    threshold is raised to ``options.shared`` (the process fan-out's
    monotone cross-shard cell, holding only *achieved* k-th-best scores,
    so a stale read merely weakens pruning) and
    ``options.span`` gets a ``block`` event.  A stop leaves the **exact**
    top-k of the ``stats.scanned`` items visited — the length-sorted order
    makes them a contiguous prefix and every pruned item is provably below
    the achieved threshold.  A poll that never fires changes nothing, and
    with the defaults (full span, no cell) the scan is bit-identical to
    the reference engine.

    ``options.initial_threshold`` seeds the live threshold ``t`` before
    the first block (a warm start, as reverse verification uses it).
    The caller must guarantee it is a **strict** lower bound on the
    query's true k-th inner product; every pruning test discards on
    ``bound <= t``, so a strict bound can never touch an item whose score
    ties or beats the true k-th value — ids and scores stay bitwise
    identical to the cold scan (property-tested, including adversarial
    duplicates and ties), only the pruning *counters* change.

    ``options.span`` also records the length-termination event; a
    ``None`` span costs one branch per block.
    """
    opts = DEFAULT_SCAN_OPTIONS if options is None else options
    timings = opts.timings
    span = opts.span
    stop = index.n if stop is None else stop
    buffer = TopKBuffer(k)
    stats = PruningStats(n_items=stop - start)
    cursor = BlockCursor(opts, stats, index.items_bar.shape[1])
    timed = timings is not None

    items_bar = index.items_bar
    norms = index.norms_sorted
    tail_norms = index.bar_tail_norms
    w = index.w
    q_norm = qs.q_norm
    q_bar = qs.q_bar
    q_tail_norm = qs.q_bar_tail_norm

    scaled = index.scaled
    reduction = index.reduction
    use_integer = scaled is not None
    use_reduction = reduction is not None

    t = cursor.refresh(float(opts.initial_threshold))
    t_prime = -math.inf
    terminated = False
    if span is not None:
        span.set(engine="blocked", start=start, stop=stop,
                 initial_threshold=t)

    for bstart, bstop in block_schedule(stop - start, k, block_size):
        bstart += start
        bstop += start
        polled = cursor.enter(bstart, bstop, t)
        if cursor.reason is not None:
            break
        if polled > t:
            t = polled
            if use_reduction and buffer.full:
                t_prime = reduction.threshold(t, qs.monotone,
                                              buffer.kth_item)
        t0 = t

        # --- Vectorized precomputation under the frozen threshold t0 ----
        cs = q_norm * norms[bstart:bstop]
        # Everything at and after the first Cauchy-Schwarz failure is dead:
        # norms are sorted descending, so the scan would terminate there.
        dead = np.nonzero(cs <= t0)[0]
        prefix = int(dead[0]) if dead.size else bstop - bstart
        # Keep one failing row (if any) so the replay loop observes the
        # termination itself rather than inferring it.
        limit = prefix + (1 if dead.size else 0)
        block = slice(bstart, bstart + limit)
        local = np.arange(limit)

        ub1 = q_tail_norm * tail_norms[block]

        alive = local[:prefix]
        b_l = np.full(limit, np.nan)
        b_h = np.full(limit, np.nan)
        if timed:
            tick = perf_counter()
        if use_integer and alive.size:
            b_l[alive] = scaled.head_bound(qs.scaled, alive + bstart)
            survivors = alive[b_l[alive] + ub1[alive] > t0]
            b_h[survivors] = scaled.tail_bound(qs.scaled, survivors + bstart)
            alive = survivors[b_l[survivors] + b_h[survivors] > t0]
        if timed:
            now = perf_counter()
            timings.integer += now - tick
            tick = now

        # The replay reads ``full`` for the rows reaching Lines 18-20.
        v_head = np.full(limit, np.nan)
        full = np.full(limit, np.nan)
        if alive.size:
            v_head[alive], full[alive] = exact_scores(
                items_bar, alive + bstart, q_bar, w)
            alive = alive[v_head[alive] + ub1[alive] > t0]
        if timed:
            now = perf_counter()
            timings.incremental += now - tick
            tick = now

        mono = np.full(limit, np.nan)
        if use_reduction and alive.size:
            mono[alive] = reduction.monotone_bound(
                v_head[alive], qs.monotone, alive + bstart)
            if t_prime > -math.inf:
                alive = alive[mono[alive] > t_prime]
        if timed:
            now = perf_counter()
            timings.monotone += now - tick
            tick = now

        # --- Scalar replay with the live threshold ----------------------
        for i in range(limit):
            if cs[i] <= t:
                stats.length_terminated = 1
                terminated = True
                if span is not None:
                    span.event("length_terminated", position=bstart + i,
                               threshold=t)
                break
            stats.scanned += 1
            if use_integer:
                if b_l[i] + ub1[i] <= t:
                    stats.pruned_integer_partial += 1
                    continue
                if b_l[i] + b_h[i] <= t:
                    stats.pruned_integer_full += 1
                    continue
            v = v_head[i]
            if v + ub1[i] <= t:
                stats.pruned_incremental += 1
                continue
            if use_reduction and t_prime > -math.inf:
                if mono[i] <= t_prime:
                    stats.pruned_monotone += 1
                    continue
            row = bstart + i
            stats.full_products += 1
            if buffer.push(float(full[i]), row):
                # The live threshold only ever grows: a seeded/polled
                # cross-shard value may exceed the local buffer's own
                # k-th best, in which case it stays in charge.
                if buffer.threshold > t:
                    t = buffer.threshold
                if use_reduction and t > -math.inf and buffer.full:
                    t_prime = reduction.threshold(
                        t, qs.monotone, buffer.kth_item
                    )
        if timed:
            timings.select += perf_counter() - tick
        if terminated:
            break
    cursor.finish(t)
    return buffer, stats
