"""Upper bounds used in the FEXIPRO pruning cascade.

Every bound here is *admissible*: it never under-estimates the true inner
product, so pruning with it can never discard a true top-k item.  The
cascade, from cheapest/loosest to priciest/tightest:

1. Cauchy–Schwarz length bound ``||q|| * ||p||`` (Algorithm 1, Line 6).
2. Partial integer bound over the first ``w`` dimensions plus the residual
   norm product (Equation 6) — :meth:`repro.core.scaling.ScaledItems.head_bound`.
3. Full integer bound (Theorem 2 / Equation 3) — adds
   :meth:`~repro.core.scaling.ScaledItems.tail_bound`.
4. Exact partial product plus residual norm product — incremental pruning
   (Equation 1).
5. Monotone-space partial bound (Lemma 1 / Theorem 4) —
   :meth:`repro.core.reduction.MonotoneReduction.monotone_bound`.

The split integer bounds and the monotone bound are owned by the data
they read and are the functions every engine calls; this module keeps
the scalar forms used by tests and the worked examples.

Theorem 5's tightness result (integer-bound error is ``O(1/e)``) is exposed
through :func:`integer_bound_relative_error` for the Appendix A experiment.
"""

from __future__ import annotations

import numpy as np

from .scaling import integer_parts, scale_uniform


def cauchy_schwarz(q_norm: float, p_norm: float) -> float:
    """The length upper bound ``||q|| * ||p|| >= q . p``."""
    return q_norm * p_norm


def incremental_bound(partial_ip: float, q_residual_norm: float,
                      p_residual_norm: float) -> float:
    """Equation 1: exact head product + Cauchy–Schwarz on the residue.

    ``q.p = q_l.p_l + q_h.p_h <= q_l.p_l + ||q_h|| * ||p_h||``, and the
    result is never looser than the plain Cauchy–Schwarz bound.
    """
    return partial_ip + q_residual_norm * p_residual_norm


def integer_upper_bound(int_q: np.ndarray, int_p: np.ndarray) -> int:
    """Theorem 2: integer upper bound of the (scaled) inner product.

    ``IU(q, p) = sum(floor(q_s)*floor(p_s) + |floor(q_s)| + |floor(p_s)| + 1)``
    computed here directly from precomputed integer parts (exact integers
    of any numeric dtype).
    """
    int_q = np.asarray(int_q)
    int_p = np.asarray(int_p)
    dot = int(int_q @ int_p)
    return dot + int(np.abs(int_q).sum()) + int(np.abs(int_p).sum()) + int_q.size


def uniform_integer_bound(q: np.ndarray, p: np.ndarray, e: float) -> float:
    """Single-block scaled integer bound on the original scale (Section 4.2).

    Scales both vectors into ``[-e, e]`` (Equation 4), applies Theorem 2 and
    converts back.  Used in tests and in the Figure 4/5 worked example; the
    production path uses the split form of :class:`~repro.core.scaling.ScaledItems`.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    max_q = float(np.max(np.abs(q))) or 1.0
    max_p = float(np.max(np.abs(p))) or 1.0
    iu = integer_upper_bound(
        integer_parts(scale_uniform(q, e)), integer_parts(scale_uniform(p, e))
    )
    return iu * max_q * max_p / (e * e)


def integer_bound_relative_error(q: np.ndarray, p: np.ndarray,
                                 e: float) -> float:
    """Relative gap of the scaled integer bound (Appendix A / Theorem 5).

    Returns ``(bound - q.p) / max(|q.p|, eps)``; Theorem 5 says this decays
    like ``1/e`` as the scaling parameter grows.
    """
    exact = float(np.dot(q, p))
    bound = uniform_integer_bound(q, p, e)
    denom = max(abs(exact), 1e-12)
    return (bound - exact) / denom
