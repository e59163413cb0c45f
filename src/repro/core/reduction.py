"""Monotonicity reduction (paper Section 5, Lemma 1 and Theorem 4).

Matrix factorization produces factors with mixed signs, so even after the
SVD skew the partially accumulated inner product can oscillate, which blunts
incremental pruning.  FEXIPRO therefore maps the (SVD-transformed) vectors
into a space where item values are all nonnegative and the query has at most
one negative coordinate, making partial products *monotone nondecreasing*
past the first two bookkeeping dimensions while preserving the ranking of
inner products.

Construction (applied to the SVD-space pair ``q_bar``/``p_bar``):

- shift constants ``c_s = max(1, |p_min|) + sigma_s / sigma_d`` where
  ``p_min`` is the minimum entry of the transformed item matrix (Section
  5.2's recommended setting — it mirrors the singular-value skew);
- Lemma 1 (d+1 dims): ``p' = (sqrt(b^2 - ||p||^2), p_1 + c_1, ...)`` with
  ``b = max ||p||``, and ``q' = (0, q_1/||q|| + c_1, ...)``;
- Theorem 4 (d+2 dims): ``phh = (||p'||^2, p'_1, ..., p'_{d+1})`` and
  ``qhh = (-1, 2 q'_1, ..., 2 q'_{d+1})``, giving
  ``max qhh . phh  ==  max q . p`` (order preserved).

Equation 8 lets us hop between spaces without storing the reduced vectors on
the hot path: with the per-item constant
``C_p = 2 * sum(c_s * p_s + c_s^2) - ||p'||^2`` and per-query constant
``C_q = 2 * sum(c_s * q_s) / ||q||`` we have
``qhh . phh = 2 * (q.p) / ||q|| + C_q + C_p``.
The same identity restricted to the first ``w`` coordinates converts an
exact head product ``v_l`` into the reduced-space partial product, and the
current threshold ``t`` into the reduced threshold ``t'`` (using the
constants of the item presently holding the k-th slot).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Floor on sigma_d relative to sigma_1.  A rank-deficient tail would send
#: the shift constants (and their squares in Equation 8) to magnitudes where
#: float64 loses the O(1) differences the pruning test needs; capping the
#: ratio at 1e3 keeps c^2 around 1e6 and the bound numerically meaningful.
_SIGMA_FLOOR_RATIO = 1e-3


def shift_constants(sigma: np.ndarray, p_min: float) -> np.ndarray:
    """Compute the shift vector ``c`` from the singular spectrum.

    ``c_s = max(1, |p_min|) + sigma_s / sigma_d``; the last singular value is
    floored at a fraction of the largest one so rank-deficient matrices do
    not blow the constants up (see :data:`_SIGMA_FLOOR_RATIO`).
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    base = max(1.0, abs(float(p_min)))
    sigma_1 = float(sigma[0]) if sigma.size else 0.0
    if sigma_1 <= 0.0:
        return np.full(sigma.shape, base + 1.0)
    # Work on sigma / sigma_1 (all in [0, 1]) so subnormal spectra cannot
    # underflow the floor computation.
    ratios = sigma / sigma_1
    ratio_d = max(float(ratios[-1]), _SIGMA_FLOOR_RATIO)
    return base + ratios / ratio_d


@dataclass(frozen=True)
class MonotoneQuery:
    """Per-query state of the reduction (computed once per query).

    Attributes
    ----------
    inv_norm:
        ``1 / ||q_bar||`` (1.0 for an all-zero query, whose ranking is
        arbitrary anyway).
    c_full / c_head:
        The query constants ``C_q`` of Equation 8 over all dimensions and
        over the head block respectively.
    tail_norm:
        ``||qhh_h||``: norm of the reduced query's tail block (dimensions
        after the head), used as the residual factor of the monotone bound.
    """

    inv_norm: float
    c_full: float
    c_head: float
    tail_norm: float


class MonotoneReduction:
    """Fitted monotonicity reduction for a transformed item matrix.

    Parameters
    ----------
    items:
        SVD-transformed item matrix ``P_bar``, rows are vectors, ``(n, d)``.
    sigma:
        Singular values used to build the shift constants ``c``.
    w:
        Checking dimension: the head/tail split for partial bounds.

    Notes
    -----
    Only scalar constants and one tail-norm per item are kept for the scan
    hot path; the full reduced vectors (:meth:`reduced_items`,
    :meth:`reduce_query`) are materialized on demand for tests and analysis.
    """

    def __init__(self, items: np.ndarray, sigma: np.ndarray, w: int):
        items = np.asarray(items, dtype=np.float64)
        n, d = items.shape
        if not 1 <= w <= d:
            raise ValueError(f"w must be in [1, {d}]; got {w}")
        self.w = int(w)
        self.d = d
        self.n = n

        self.c = shift_constants(np.asarray(sigma, dtype=np.float64), items.min())
        if self.c.shape != (d,):
            raise ValueError("sigma length must match item dimensionality")

        norms_sq = np.einsum("ij,ij->i", items, items)
        self.b_sq = float(norms_sq.max())
        # First Lemma-1 coordinate, clamped against fp round-off.
        self._first_coord = np.sqrt(np.maximum(self.b_sq - norms_sq, 0.0))

        shifted = items + self.c  # p_bar + c, all entries nonnegative
        shifted_norm_sq = np.einsum("ij,ij->i", shifted, shifted)
        prime_norm_sq = (self.b_sq - norms_sq) + shifted_norm_sq  # ||p'||^2

        c_dot_p = items @ self.c
        c_sq_sum = float(self.c @ self.c)
        c_head = self.c[: self.w]
        c_head_sq_sum = float(c_head @ c_head)
        c_dot_p_head = items[:, : self.w] @ c_head

        # Equation 8 constants: full-space and head-block versions.
        self.item_const_full = 2.0 * (c_dot_p + c_sq_sum) - prime_norm_sq
        self.item_const_head = 2.0 * (c_dot_p_head + c_head_sq_sum) - prime_norm_sq
        # Residual norms ||phh_h|| over the tail block (values p_bar_s + c_s).
        tail = shifted[:, self.w:]
        self.item_tail_norm = np.sqrt(np.einsum("ij,ij->i", tail, tail))

        # Numerical safety slack for the pruning comparison: Equation 8
        # adds and cancels terms of magnitude ~c^2, so the computed bound
        # and threshold each carry absolute rounding error proportional to
        # those magnitudes.  Pruning only when the gap exceeds this slack
        # keeps the test admissible under float64; it can only make the
        # stage prune slightly less on degenerate spectra.
        magnitude = max(
            1.0,
            float(np.max(np.abs(self.item_const_full))),
            float(np.max(np.abs(self.item_const_head))),
            self.b_sq,
        )
        self.slack = 1e-9 * magnitude

        self._items = items  # kept for on-demand full reductions

    def for_query(self, q_bar: np.ndarray) -> MonotoneQuery:
        """Compute the per-query constants (one pass over ``d`` values)."""
        q = np.asarray(q_bar, dtype=np.float64)
        if q.shape != (self.d,):
            raise ValueError(f"query must have shape ({self.d},); got {q.shape}")
        norm = float(np.linalg.norm(q))
        inv_norm = 1.0 / norm if norm > 0.0 else 1.0
        unit = q * inv_norm
        c_full = 2.0 * float(self.c @ unit)
        c_head = 2.0 * float(self.c[: self.w] @ unit[: self.w])
        q_tail = 2.0 * (unit[self.w:] + self.c[self.w:])
        tail_norm = float(np.linalg.norm(q_tail))
        return MonotoneQuery(
            inv_norm=inv_norm, c_full=c_full, c_head=c_head, tail_norm=tail_norm
        )

    # ------------------------------------------------------------------
    # Equation 8 conversions
    # ------------------------------------------------------------------

    def full_product(self, v: float, query: MonotoneQuery, item: int) -> float:
        """Map an exact SVD-space product ``v = q_bar . p_bar`` to qhh . phh."""
        return 2.0 * v * query.inv_norm + query.c_full + float(
            self.item_const_full[item]
        )

    def monotone_bound(self, v_head, query: MonotoneQuery,
                       rows) -> np.ndarray:
        """Upper bound on ``qhh . phh`` for each item in ``rows``.

        ``v_head`` holds the exact head products of those items.  Equation
        8 maps each to the reduced-space partial product over dimensions
        ``0 .. w+1`` (the two bookkeeping dimensions plus the shifted head
        block); the residual norms are added on top.  All tail values are
        nonnegative, so the residual Cauchy–Schwarz term is tight — this
        is the Line 14–17 test of Algorithm 5.  The bound is widened by
        :attr:`slack` so float64 round-off in the Equation 8 constants can
        never cause a false prune.
        """
        head_partial = (2.0 * v_head * query.inv_norm + query.c_head
                        + self.item_const_head[rows])
        return head_partial + (
            query.tail_norm * self.item_tail_norm[rows]
        ) + self.slack

    def threshold(self, t: float, query: MonotoneQuery, kth_item: int) -> float:
        """Convert the running threshold ``t`` into the reduced space ``t'``.

        Uses the constants of the item currently holding the k-th slot —
        exactly Line 17 of Algorithm 4.
        """
        return self.full_product(t, query, kth_item)

    # ------------------------------------------------------------------
    # Full reduced vectors (tests, analysis, education — not the hot path)
    # ------------------------------------------------------------------

    def reduced_items(self) -> np.ndarray:
        """Materialize the (d+2)-dimensional ``phh`` matrix (Theorem 4)."""
        shifted = self._items + self.c
        prime = np.concatenate([self._first_coord[:, None], shifted], axis=1)
        prime_norm_sq = np.einsum("ij,ij->i", prime, prime)
        return np.concatenate([prime_norm_sq[:, None], prime], axis=1)

    def reduce_query(self, q_bar: np.ndarray) -> np.ndarray:
        """Materialize the (d+2)-dimensional ``qhh`` vector (Theorem 4)."""
        q = np.asarray(q_bar, dtype=np.float64)
        norm = float(np.linalg.norm(q))
        unit = q / norm if norm > 0.0 else q
        q_prime = np.concatenate([[0.0], unit + self.c])
        return np.concatenate([[-1.0], 2.0 * q_prime])
