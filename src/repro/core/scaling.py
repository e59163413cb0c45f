"""Integer scaling and approximation (paper Section 4 and Section 6, Eq. 4–7).

Floating-point factor values produced by matrix factorization live in a
narrow band around zero (paper Figure 3), so flooring them directly yields a
uselessly loose integer bound (Figure 4).  FEXIPRO therefore first *scales*
the values into ``[-e, e]`` by dividing by the maximum absolute value and
multiplying by ``e`` (Equation 4); the bound tightens as ``e`` grows
(Theorem 5, error proportional to ``1/e``).

Section 6 refines this further: after the SVD transformation the head
dimensions are much larger than the tail, so a single global maximum would
crush the tail values to tiny integers.  The *split scaling* of Equation 7
scales the first ``w`` dimensions and the remaining ``d - w`` dimensions by
their own maxima, which keeps both partial integer bounds tight.

This module owns the precomputation on the item side
(:class:`ScaledItems`) and the per-query computation
(:class:`ScaledQuery`), and the two integer bounds of Algorithm 5
(:meth:`ScaledItems.head_bound`, :meth:`ScaledItems.tail_bound`) that
every engine calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._validation import check_positive
from ..exceptions import ValidationError

#: Default scaling parameter; the paper finds performance converges at e=100.
DEFAULT_E = 100.0

#: Smallest normal float64.
_TINY = float(np.finfo(np.float64).tiny)


def _safe_max_abs(values: np.ndarray) -> float:
    """Maximum absolute value of an array, mapped to 1.0 when degenerate.

    A block of all-zero values would otherwise produce a 0 divisor; scaling
    zeros by any constant keeps them zero, so substituting 1.0 is lossless.
    """
    if values.size == 0:
        return 1.0
    max_abs = float(np.max(np.abs(values)))
    return max_abs if max_abs > 0.0 else 1.0


def scale_uniform(vector: np.ndarray, e: float = DEFAULT_E) -> np.ndarray:
    """Scale a vector into ``[-e, e]`` by its own max abs value (Equation 4).

    This is the single-block scaling of Section 4.2, kept for tests and for
    reproducing the worked example of Figures 4 and 5.  The production code
    path uses the split scaling of :class:`ScaledItems`.
    """
    e = check_positive(e, name="e")
    v = np.asarray(vector, dtype=np.float64)
    # Divide before multiplying: e / max_abs overflows when the
    # max is subnormal, while v / max_abs is always <= 1 in magnitude.
    return (v / _safe_max_abs(v)) * e


def integer_parts(vector: np.ndarray) -> np.ndarray:
    """Floor a (scaled) float vector to its integer parts, kept as float64.

    The paper defines the integer part as the largest integer less than or
    equal to the value — i.e. mathematical floor, including for negatives —
    which is what the proof of Theorem 2 (``0 <= Delta < 1``) requires.
    The parts stay float64: every one is an exact small integer, and
    float64 products hit BLAS where integer matmuls do not.
    """
    return np.floor(np.asarray(vector, dtype=np.float64))


def _unscale(iu: np.ndarray, max_q: float, max_p: float,
             e: float) -> np.ndarray:
    """An integer bound on the original scale (Equations 6–7).

    A factor outside the normal float range (0 or subnormal after
    underflow, or infinite) cannot carry the bound back — ``iu * 0``
    would sit below a tiny positive product — so every bound is then
    ``+inf`` and the integer stage prunes nothing.
    """
    factor = (max_q * max_p) / (e * e)
    if not _TINY <= factor < math.inf:
        return np.full(np.shape(iu), math.inf)
    return iu * factor


@dataclass(frozen=True)
class ScaledQuery:
    """Per-query integer-scaling state (computed online, Equation 7).

    Attributes
    ----------
    int_head / int_tail:
        Integer parts of the scaled head (first ``w``) and tail
        dimensions, as float64 exact integers.
    abs_sum_head / abs_sum_tail:
        ``sum(|floor(q_hat_s)|)`` over each block — the query-side additive
        term of the integer upper bound (Theorem 2).
    max_head / max_tail:
        The query's own max-abs values used for scaling each block; needed
        to convert integer bounds back to the original scale.
    """

    int_head: np.ndarray
    int_tail: np.ndarray
    abs_sum_head: float
    abs_sum_tail: float
    max_head: float
    max_tail: float


class ScaledItems:
    """Split-scaled integer approximations of a (transformed) item matrix.

    Preprocessing state of the "I" technique: for each item row ``p_bar``
    this stores the integer parts of the split-scaled vector plus the
    absolute-sum terms of Theorem 2, so that at query time the integer upper
    bound of any partial block is one dot product plus additions.

    The integer parts are stored once, as float64 exact integers.  Every
    sum in :meth:`head_bound`/:meth:`tail_bound` is then exact, and so
    equal to int64 arithmetic, as long as ``d * (e + 1)**2 <= 2**53``;
    the constructor refuses any larger ``e``.

    Parameters
    ----------
    items:
        Transformed item matrix, rows are vectors, shape ``(n, d)``.
    w:
        The checking dimension splitting head from tail (``1 <= w < d``
        normally; ``w == d`` degenerates to a single block with empty tail).
    e:
        Scaling parameter (Equation 4/7).
    split:
        ``True`` (default) applies the head/tail split scaling of
        Equation 7; ``False`` scales both blocks by the single global
        maximum (Equation 4) — kept for the ablation showing why the
        split matters after the SVD skew.
    """

    def __init__(self, items: np.ndarray, w: int, e: float = DEFAULT_E,
                 split: bool = True):
        items = np.asarray(items, dtype=np.float64)
        if items.ndim != 2:
            raise ValueError("items must be 2-D (n, d)")
        n, d = items.shape
        if not 1 <= w <= d:
            raise ValueError(f"w must be in [1, {d}]; got {w}")
        self.e = check_positive(e, name="e")
        # An integer part is at most ceil(e) in magnitude, so each
        # Theorem 2 sum stays within d*(ceil(e)+1)**2.
        if not math.isfinite(self.e) or d * (math.ceil(self.e) + 1) ** 2 > 2 ** 53:
            raise ValidationError(
                f"e={self.e} is too large for d={d}: integer bounds are "
                f"exact in float64 only while d*(e+1)**2 <= 2**53"
            )
        self.w = int(w)
        self.d = d
        self.n = n
        self.split = bool(split)

        head = items[:, : self.w]
        tail = items[:, self.w:]
        if self.split:
            self.max_head = _safe_max_abs(head)
            self.max_tail = _safe_max_abs(tail)
        else:
            global_max = _safe_max_abs(items)
            self.max_head = global_max
            self.max_tail = global_max
        self.int_head = integer_parts((head / self.max_head) * self.e)
        self.int_tail = integer_parts((tail / self.max_tail) * self.e)
        self.abs_sum_head = np.abs(self.int_head).sum(axis=1)
        self.abs_sum_tail = np.abs(self.int_tail).sum(axis=1)

    def scale_query(self, q_bar: np.ndarray) -> ScaledQuery:
        """Compute the query-side split scaling (cheap, done once per query)."""
        q = np.asarray(q_bar, dtype=np.float64)
        if q.shape != (self.d,):
            raise ValueError(f"query must have shape ({self.d},); got {q.shape}")
        head = q[: self.w]
        tail = q[self.w:]
        max_head = _safe_max_abs(head)
        max_tail = _safe_max_abs(tail)
        int_head = integer_parts((head / max_head) * self.e)
        int_tail = integer_parts((tail / max_tail) * self.e)
        return ScaledQuery(
            int_head=int_head,
            int_tail=int_tail,
            abs_sum_head=float(np.abs(int_head).sum()),
            abs_sum_tail=float(np.abs(int_tail).sum()),
            max_head=max_head,
            max_tail=max_tail,
        )

    def head_bound(self, query: ScaledQuery, rows) -> np.ndarray:
        """Equation 6's head term ``b_l`` for each item in ``rows``.

        Theorem 2's integer upper bound over the first ``w`` dimensions,
        converted back to the original scale:
        ``IU_head * max_q_head * max_P_head / e**2``.
        """
        iu = (self.int_head[rows] @ query.int_head + query.abs_sum_head
              + self.abs_sum_head[rows] + self.w)
        return _unscale(iu, query.max_head, self.max_head, self.e)

    def tail_bound(self, query: ScaledQuery, rows) -> np.ndarray:
        """The tail counterpart ``b_h`` used in the full integer test (Eq. 3).

        With an empty tail (``w == d``) every sum is 0 and so is ``b_h``.
        """
        iu = (self.int_tail[rows] @ query.int_tail + query.abs_sum_tail
              + self.abs_sum_tail[rows] + (self.d - self.w))
        return _unscale(iu, query.max_tail, self.max_tail, self.e)
