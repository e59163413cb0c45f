"""Above-threshold retrieval: all items with ``q . p > t``.

This is LEMP's original "above-t" problem, which the paper lists as future
work for FEXIPRO ("we plan to study the effectiveness of our framework on
other top-k IP computation problems, such as computing the above-t ...
values").  With a *fixed* threshold the pruning cascade simplifies
beautifully: every test is static, so the whole scan vectorizes with no
replay loop — the threshold never moves.

The cascade is the same as Algorithm 5 (length cut, partial/full integer
bounds, incremental bound, monotone bound, exact product) and inherits its
admissibility: no qualifying item can be pruned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

from .score import exact_scores
from .stats import PruningStats

if TYPE_CHECKING:  # pragma: no cover - imported only for type checking
    from .index import FexiproIndex, QueryState


def scan_above(index: "FexiproIndex", qs: "QueryState",
               threshold: float) -> Tuple[np.ndarray, np.ndarray,
                                          PruningStats]:
    """Return (positions, scores) of all items with ``q . p > threshold``.

    Positions index the *sorted* item order; the caller maps them back.
    """
    stats = PruningStats(n_items=index.n)
    t = float(threshold)

    # Length cut: items are sorted by decreasing norm, so everything past
    # the first Cauchy-Schwarz failure is out.
    cs = qs.q_norm * index.norms_sorted
    dead = np.nonzero(cs <= t)[0]
    prefix = int(dead[0]) if dead.size else index.n
    stats.scanned = prefix
    stats.length_terminated = 1 if prefix < index.n else 0
    if prefix == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0), stats)

    w = index.w
    ub1 = qs.q_bar_tail_norm * index.bar_tail_norms[:prefix]
    alive = np.arange(prefix)

    scaled = index.scaled
    if scaled is not None:
        b_l = scaled.head_bound(qs.scaled, alive)
        keep = b_l + ub1[alive] > t
        stats.pruned_integer_partial = int(np.sum(~keep))
        alive, b_l = alive[keep], b_l[keep]
        keep = b_l + scaled.tail_bound(qs.scaled, alive) > t
        stats.pruned_integer_full = int(np.sum(~keep))
        alive = alive[keep]

    # The head partial and the admitted score of every integer-stage
    # survivor, from the one exact-score function the top-k engines use.
    v_head, scores = exact_scores(index.items_bar, alive, qs.q_bar, w)
    keep = v_head + ub1[alive] > t
    stats.pruned_incremental = int(np.sum(~keep))
    alive, v_head, scores = alive[keep], v_head[keep], scores[keep]

    reduction = index.reduction
    if reduction is not None and alive.size and np.isfinite(t):
        # The reduced threshold t' needs a reference item realizing t; for
        # above-t retrieval no such item exists, so derive an admissible t'
        # from the item-independent identity: hh = 2 v / ||q|| + C_q + C_p
        # with C_p = ||c||^2 - b^2 constant across items (see reduction.py).
        mq = qs.monotone
        c_const = float(reduction.c @ reduction.c) - reduction.b_sq
        t_prime = 2.0 * t * mq.inv_norm + mq.c_full + c_const
        keep = reduction.monotone_bound(v_head, mq, alive) > t_prime
        stats.pruned_monotone = int(np.sum(~keep))
        alive, scores = alive[keep], scores[keep]

    stats.full_products = int(alive.size)
    keep = scores > t
    alive, scores = alive[keep], scores[keep]

    order = np.argsort(-scores, kind="stable")
    return alive[order], scores[order], stats
