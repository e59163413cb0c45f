"""First-class GEMM top-k engine and the shared BLAS select kernel.

"To Index or Not to Index" (Abuzaid et al.) observes that a blocked dense
matrix multiply frequently beats pruning indexes outright: when pruning
selectivity collapses (small d, large k, flat spectra) the FEXIPRO cascade
touches almost every coordinate *and* pays its bound arithmetic on top,
while one BLAS call streams the whole matrix at hardware speed.  This
module promotes that fast path out of ``baselines/`` into a real engine
that speaks the same contract as :func:`repro.core.scanner.scan_reference`
and :func:`repro.core.blocked.scan_blocked` — frozen
:class:`~repro.core.options.ScanOptions`, :class:`~repro.core.stats.
PruningStats`, :class:`~repro.core.topk.TopKBuffer` results, span scans
for shards, shared-threshold and deadline polling at block boundaries —
and returns ids and scores **bitwise identical** to the reference scan.

How exactness is kept
---------------------
The admitted score of a row is :func:`repro.core.score.exact_scores`'s
— the one row-stable formula every engine uses.  BLAS matmul results
are *not* row-stable across batch shapes (the same row's product can
round differently depending on which rows share the call), so the GEMM
product only *selects*; it is never returned.  Each block is processed
in two steps:

1. **Candidate selection.**  ``g = items_bar[block] @ q_bar`` (inner
   products are preserved exactly by the variant transforms, Theorem 1),
   then every row with ``g + e >= tau`` is kept, where ``tau`` is the
   live threshold frozen at block entry and ``e`` is a rigorous per-row
   floating-point margin (:func:`dot_error_margin`).  Any dropped row
   provably has an exact score *strictly* below ``tau`` — and ``tau``
   never exceeds the final k-th score — so no member of the final top-k
   is ever dropped.
2. **Exact rescore.**  All kept rows are scored by one ``exact_scores``
   call — each float is the one the reference scan admits for that row —
   and pushed into the :class:`~repro.core.topk.TopKBuffer`, whose order
   does not depend on push order: ties resolve as in the reference scan.

The Cauchy–Schwarz cut (``||q||*||p|| <= tau``) still applies inside each
block — norms are length-sorted, so the scan terminates at the first
failure, exactly like the other engines.

:func:`scan_gemm_many` runs the same two steps for a chunk of queries at
once: one ``Q_live @ items_bar[block].T`` product per block selects
against a per-(query, block) margin, one ``exact_scores`` call rescores
every kept (query, row) pair, and an array merge in the buffer's order
replaces the pushes — bitwise the per-query scan, counters included.

The raw batched kernel (:func:`gemm_topk` / :func:`topk_select`) is also
the *single* score/select implementation behind the Table-5 baselines
(:class:`repro.baselines.minibatch.MiniBatch`,
:class:`repro.baselines.naive.NaiveBlas`), so the baseline numbers and
the engine can never diverge.  ``topk_select`` clamps the
``argpartition`` pivot and falls back to a full argsort for tiny
catalogs, fixing the historical ``k >= n_items`` crash class.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from .._validation import safe_norm
from .blocked import block_schedule
from .driver import BlockCursor
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .score import exact_scores
from .stats import PruningStats, StageTimings
from .topk import TopKBuffer

if TYPE_CHECKING:  # pragma: no cover - imported only for type checking
    from .index import FexiproIndex, QueryState

__all__ = [
    "DEFAULT_GEMM_BLOCK",
    "dot_error_margin",
    "GEMM_CHUNK",
    "gemm_topk",
    "scan_gemm",
    "scan_gemm_many",
    "topk_select",
]

#: Default (maximum) rows per GEMM block.  Larger than the cascade
#: engine's default: the whole point is to amortize BLAS call overhead.
DEFAULT_GEMM_BLOCK = 4096

#: Queries per fused product (:func:`scan_gemm_many`): enough that one
#: ``Q @ P_block.T`` streams each block once for many queries, few
#: enough that the ``(chunk, block)`` selection matrix stays a few MiB.
GEMM_CHUNK = 128

#: Safety factor on the classical dot-product rounding bound.  The
#: classical bound for one length-``d`` float64 dot is
#: ``gamma_d * sum|x_j y_j| <= d*eps/(1-d*eps) * ||x||*||y||``; the margin
#: must cover *two* evaluations (the BLAS product used for selection and
#: :func:`~repro.core.score.exact_scores`' pairwise-reduced head plus
#: tail used for the admitted score) plus FMA / blocked-summation
#: reassociation, so a factor of 8 over ``d*eps`` is comfortably
#: conservative while staying far too small to admit any meaningful
#: extra candidates.
_C_SAFETY = 8.0

_EPS = float(np.finfo(np.float64).eps)

#: Absolute underflow allowance: ``d`` roundings in the denormal range
#: each contribute at most one smallest-denormal of absolute error.
_ETA = 5e-324


def dot_error_margin(row_norms: np.ndarray, q_norm: float,
                     d: int) -> np.ndarray:
    """Upper bound on ``|fl(p . q) - p . q|`` per row, for any fl order.

    ``row_norms`` are the exact-arithmetic row norms ``||p_i||`` (any
    faithful float evaluation is fine — the slack in :data:`_C_SAFETY`
    dwarfs the norm's own rounding).  Valid for every summation order the
    BLAS may pick, and for the split head+tail reduce of
    :func:`~repro.core.score.exact_scores`.
    """
    return (_C_SAFETY * d * _EPS) * (q_norm * row_norms) \
        + (_C_SAFETY * d) * _ETA


def topk_select(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top-k selection over a ``(m, n)`` score matrix, row-wise.

    Returns ``(ids, top_scores)`` of shape ``(m, min(k, n))``, each row
    sorted by descending score with ties broken by ascending column index
    (deterministic regardless of the partition's internal order).

    This is the single select kernel shared by the GEMM engine and the
    Table-5 baselines.  The ``argpartition`` pivot is clamped to the valid
    range and tiny catalogs (``k >= n``) take a full argsort, so the
    historical ``np.argpartition(-scores, k)`` crash for ``k >= n_items``
    cannot recur (regression-tested).
    """
    scores = np.asarray(scores)
    if scores.ndim == 1:
        ids, top = topk_select(scores.reshape(1, -1), k)
        return ids[0], top[0]
    if scores.ndim != 2:
        raise ValueError(f"scores must be 1-D or 2-D; got shape {scores.shape}")
    n = scores.shape[1]
    if k <= 0:
        raise ValueError(f"k must be positive; got {k}")
    kk = min(int(k), n)
    if kk == n:
        cand = np.broadcast_to(np.arange(n), scores.shape)
    else:
        # Clamped pivot: partition so columns [0, kk) hold the kk largest.
        # kk - 1 is always a legal kth index (0 <= kk - 1 < n here).
        cand = np.argpartition(-scores, kk - 1, axis=1)[:, :kk]
        # Ascending candidate ids first, so the stable sort below breaks
        # score ties by ascending original index, not partition order.
        cand = np.sort(cand, axis=1)
    cand_scores = np.take_along_axis(scores, cand, axis=1)
    order = np.argsort(-cand_scores, axis=1, kind="stable")
    ids = np.take_along_axis(cand, order, axis=1)
    top = np.take_along_axis(cand_scores, order, axis=1)
    return ids, top


def gemm_topk(queries: np.ndarray, items_t: np.ndarray,
              k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batched ``Q @ P.T`` GEMM plus row-wise top-k selection.

    ``items_t`` is the transposed item matrix ``(d, n)`` (pre-transposed
    once by callers that loop over query batches).  Returns
    ``(scores, ids, top_scores)`` where ``scores`` is the full ``(m, n)``
    product and the other two are the :func:`topk_select` output.
    """
    scores = queries @ items_t
    ids, top = topk_select(scores, k)
    return scores, ids, top


def scan_gemm(index: "FexiproIndex", qs: "QueryState", k: int,
              block_size: int = DEFAULT_GEMM_BLOCK,
              *, start: int = 0, stop: Optional[int] = None,
              options: Optional[ScanOptions] = None,
              ) -> Tuple[TopKBuffer, PruningStats]:
    """GEMM-driven exact scan with the engine contract of ``scan_blocked``.

    Same signature shape as the cascade engines: per-call behaviour rides
    in ``options`` (warm-start ``initial_threshold``, ``deadline``,
    ``budget`` and ``shared`` polled at block boundaries by
    :class:`~repro.core.driver.BlockCursor`, ``timings``, ``span``);
    ``start``/``stop`` restrict the scan to a contiguous span of sorted
    positions so per-shard buffers merge directly.

    Ids and scores are bitwise identical to
    :func:`~repro.core.scanner.scan_reference` (see the module docstring
    for the argument); only the pruning *counters* differ — this engine
    computes every product it looks at, so ``scanned == full_products``
    and every ``pruned_*`` counter is zero, keeping the cascade chain
    invariant ``scanned == pruned_total + full_products`` intact for
    :mod:`repro.obs.explain`.

    A deadline expiring mid-scan returns the exact top-k of the
    length-sorted prefix visited (``stats.deadline_hit`` set), the same
    degradation contract as the other engines.
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
    bar_norms = index.bar_norms
    w = index.w
    d = index.d
    q_bar = qs.q_bar
    q_norm = qs.q_norm
    q_bar_norm = safe_norm(q_bar)

    t = cursor.refresh(float(opts.initial_threshold))
    terminated = False
    if span is not None:
        span.set(engine="gemm", start=start, stop=stop, initial_threshold=t)

    for bstart, bstop in block_schedule(stop - start, k, block_size):
        bstart += start
        bstop += start
        t = cursor.enter(bstart, bstop, t)
        if cursor.reason is not None:
            break
        # The threshold is frozen for the whole block: it only ever grows,
        # so freezing merely *weakens* the cut — selection keeps a
        # superset of what a live threshold would keep, and the buffer
        # below discards the difference exactly.
        tau = max(t, buffer.threshold)

        # Cauchy–Schwarz prefix cut: norms are sorted descending, so the
        # scan dies at the first failure, as in the cascade engines.
        cs = q_norm * norms[bstart:bstop]
        dead = np.nonzero(cs <= tau)[0]
        prefix = int(dead[0]) if dead.size else bstop - bstart
        if dead.size:
            stats.length_terminated = 1
            terminated = True
            if span is not None:
                span.event("length_terminated", position=bstart + prefix,
                           threshold=tau)
        if prefix == 0:
            break
        block = slice(bstart, bstart + prefix)
        stats.scanned += prefix
        stats.full_products += prefix

        if timed:
            tick = perf_counter()
        # Selection scores: one BLAS product over the block.  These floats
        # are shape-dependent and are never returned — they only gate,
        # with a margin wide enough that no final top-k member can fail.
        g = items_bar[block] @ q_bar
        margin = dot_error_margin(bar_norms[block], q_bar_norm, d)
        kept = np.nonzero(g + margin >= tau)[0]
        if timed:
            now = perf_counter()
            timings.full += now - tick
            tick = now
        # Exact rescore: one row-stable exact_scores call over the kept rows.
        rows = kept + bstart
        __, scores = exact_scores(items_bar, rows, q_bar, w)
        for row, value in zip(rows.tolist(), scores.tolist()):
            if buffer.push(value, row):
                if buffer.threshold > t:
                    t = buffer.threshold
        if timed:
            timings.select += perf_counter() - tick
        if terminated:
            break
    cursor.finish(t)
    return buffer, stats


def scan_gemm_many(index: "FexiproIndex", states, k: int, *,
                   timings: Optional[StageTimings] = None,
                   ) -> List[Tuple[TopKBuffer, PruningStats]]:
    """:func:`scan_gemm` for a chunk of queries, one GEMM per block.

    Returns one ``(buffer, stats)`` pair per state, bitwise equal — ids,
    score bits and every :class:`PruningStats` field — to
    ``scan_gemm(index, qs, k)`` with default options.  The blocks are
    :func:`~repro.core.blocked.block_schedule`'s; in each one:

    - every query still scanning freezes its own ``tau`` (its buffer's
      k-th score) and applies the same Cauchy–Schwarz prefix test
      (``q_norm * norms <= tau``), so ``scanned``, ``full_products`` and
      ``length_terminated`` come out as the single scan's;
    - one ``Q_live @ items_bar[block].T`` product selects, per query,
      the rows with ``G >= nextafter(tau - M, -inf)``, where the
      per-(query, block) margin ``M`` is :func:`dot_error_margin` at the
      block's largest row norm — at least every row's own margin, so the
      kept set holds every row whose exact score reaches ``tau``;
    - one :func:`~repro.core.score.exact_scores` call (one ``q`` row per
      gathered row) scores every kept (query, row) pair;
    - an array merge keeps each query's ``k`` best of its buffer and its
      new candidates by ``(score desc, position asc)`` — the
      :class:`~repro.core.topk.TopKBuffer` order, so the buffer after the
      block, and with it the next ``tau``, is the single scan's.

    DESIGN §2.12 has the exactness argument.  There is no deadline,
    budget, shared threshold, span or fault site: callers send only
    untriggered scans here.  ``timings`` (one record for the whole
    chunk) gets the BLAS product as ``full`` and the rest — selection,
    rescore and merge — as ``select``.  The base tier only: delta rows and
    tombstones are the caller's (:func:`~repro.core.delta.
    finish_catalog_scan`).
    """
    m = len(states)
    n = index.n
    items_bar = index.items_bar
    norms = index.norms_sorted
    bar_norms = index.bar_norms
    w = index.w
    d = index.d
    queries = np.stack([qs.q_bar for qs in states])
    q_norms = np.array([qs.q_norm for qs in states])
    q_bar_norms = np.array([safe_norm(qs.q_bar) for qs in states])
    # Each query's k best so far, by (score desc, position asc); empty
    # slots hold -inf, so column k - 1 is TopKBuffer.threshold.
    width = min(k, n)
    best = np.full((m, width), -np.inf)
    best_pos = np.zeros((m, width), dtype=np.intp)
    held = np.zeros(m, dtype=np.intp)
    scanned = np.zeros(m, dtype=np.intp)
    terminated = np.zeros(m, dtype=bool)
    live = np.arange(m)
    timed = timings is not None

    for bstart, bstop in block_schedule(n, k, DEFAULT_GEMM_BLOCK):
        if not live.size:
            break
        tau = best[live, k - 1] if width == k \
            else np.full(live.size, -np.inf)
        # Cauchy–Schwarz prefix per query.  ``q_norm * norms`` falls along
        # the block (descending norms, monotone rounding), so a query
        # whose last product clears tau keeps the whole block; for the
        # others the first product <= tau is scan_gemm's cut.
        prefix = np.full(live.size, bstop - bstart)
        cut = np.nonzero(q_norms[live] * norms[bstop - 1] <= tau)[0]
        if cut.size:
            dead = q_norms[live[cut], None] * norms[bstart:bstop] \
                <= tau[cut, None]
            prefix[cut] = dead.argmax(axis=1)
            terminated[live[cut]] = True
        scanned[live] += prefix
        go = np.nonzero(prefix)[0]
        if go.size:
            owners = live[go]
            reach = prefix[go]
            wide = int(reach.max())
            block = slice(bstart, bstart + wide)
            if timed:
                tick = perf_counter()
            # Selection only: the product's floats depend on its shape
            # and are never returned.
            product = queries[owners] @ items_bar[block].T
            if timed:
                now = perf_counter()
                timings.full += now - tick
                tick = now
            margin = dot_error_margin(bar_norms[block].max(),
                                      q_bar_norms[owners], d)
            kept = product >= np.nextafter(tau[go] - margin,
                                           -np.inf)[:, None]
            del product  # a (chunk, block) float matrix: free it now
            short = np.nonzero(reach < wide)[0]
            if short.size:
                kept[short] &= np.arange(wide) < reach[short, None]
            pair, cols = np.divmod(np.flatnonzero(kept), wide)
            who = owners[pair]
            rows = cols + bstart
            __, scores = exact_scores(items_bar, rows, queries[who], w)
            _merge_best(best, best_pos, held, who, scores, rows)
            if timed:
                timings.select += perf_counter() - tick
        if cut.size:
            live = live[prefix == bstop - bstart]
    out = []
    for i in range(m):
        stats = PruningStats(n_items=n, scanned=int(scanned[i]),
                             full_products=int(scanned[i]),
                             length_terminated=int(terminated[i]))
        count = held[i]
        out.append((TopKBuffer.from_ranked(k, best[i, :count].tolist(),
                                           best_pos[i, :count].tolist()),
                    stats))
    return out


def _merge_best(best: np.ndarray, best_pos: np.ndarray, held: np.ndarray,
                who: np.ndarray, scores: np.ndarray,
                rows: np.ndarray) -> None:
    """Fold candidates ``(who, score, row)`` into each query's k best.

    One ``lexsort`` on ``(query, -score, position)`` over the touched
    queries' held entries plus the candidates; the first ``width`` of
    each query are its new best, under the
    :class:`~repro.core.topk.TopKBuffer` order.
    """
    width = best.shape[1]
    # A candidate below a full buffer's last score cannot enter.
    entry = scores >= best[who, width - 1]
    who, scores, rows = who[entry], scores[entry], rows[entry]
    if not who.size:
        return
    touched = np.unique(who)
    counts = held[touched]
    mine = np.repeat(touched, counts)
    slot = np.arange(mine.size) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
    q = np.concatenate([mine, who])
    s = np.concatenate([best[mine, slot], scores])
    p = np.concatenate([best_pos[mine, slot], rows])
    order = np.lexsort((p, -s, q))
    q, s, p = q[order], s[order], p[order]
    rank = np.arange(q.size) - np.searchsorted(q, q)
    top = rank < width
    q, rank = q[top], rank[top]
    best[q, rank] = s[top]
    best_pos[q, rank] = p[top]
    held[touched] = np.bincount(q, minlength=best.shape[0])[touched]
