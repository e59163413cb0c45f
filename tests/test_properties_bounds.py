"""Property tests: every Algorithm 5 bound covers the exact product it bounds.

The integer bounds de-scale float64 sums of integer parts, and the
monotone bound maps a float head product through Equation 8's rounded
constants.  Here each is checked against exact rational arithmetic
(:class:`fractions.Fraction` of the very floats the engines read) on
adversarial rows: norms from ``1e-150`` to ``1e150``, denormals and
signed zeros, ``d = 1``, an empty tail (``w = d``) and all-equal rows.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FexiproIndex
from repro.core.scaling import ScaledItems
from repro.core.score import exact_scores

WIDTHS = [1, 2, 5, 16]
ES = [2.0, 100.0, 1000.0]


def exact_dot(a, b) -> Fraction:
    """The exact rational value of ``a . b`` for float vectors."""
    return sum((Fraction(float(x)) * Fraction(float(y))
                for x, y in zip(a, b)), Fraction(0))


def covers(bound, exact: Fraction) -> bool:
    """Whether a float bound is at least an exact value (``+inf`` always is)."""
    bound = float(bound)
    return bound == float("inf") or Fraction(bound) >= exact


def adversarial_rows(rng, n, d, exps, denormal, equal_rows):
    """Rows with norms spread over ``10**lo .. 10**hi``."""
    lo, hi = sorted(exps)
    P = rng.standard_normal((n, d))
    P *= 10.0 ** rng.uniform(lo, hi, size=(n, 1))
    if denormal:
        P[rng.random(n) < 0.3] *= 1e-310
        P[rng.random((n, d)) < 0.05] = 5e-324
        P[rng.random((n, d)) < 0.05] = -0.0
    if equal_rows:
        P[:] = P[0]
    return P


def adversarial_query(rng, d, exp, denormal):
    q = rng.standard_normal(d) * 10.0 ** exp
    if denormal:
        q[rng.random(d) < 0.3] = 5e-324
    return q


rows_strategy = dict(
    d=st.sampled_from(WIDTHS),
    n=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    exps=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
    q_exp=st.integers(-150, 150),
    denormal=st.booleans(),
    equal_rows=st.booleans(),
    e=st.sampled_from(ES),
)


@given(w_frac=st.floats(0.0, 1.0), split=st.booleans(), **rows_strategy)
@settings(max_examples=150, deadline=None)
def test_integer_bounds_cover_each_block(w_frac, split, d, n, seed, exps,
                                         q_exp, denormal, equal_rows, e):
    rng = np.random.default_rng(seed)
    P = adversarial_rows(rng, n, d, exps, denormal, equal_rows)
    q = adversarial_query(rng, d, q_exp, denormal)
    w = max(1, round(w_frac * d))  # w == d (empty tail) included
    scaled = ScaledItems(P, w, e, split=split)
    sq = scaled.scale_query(q)
    rows = np.arange(n)
    b_l = scaled.head_bound(sq, rows)
    b_h = scaled.tail_bound(sq, rows)
    for i in rows:
        head = exact_dot(q[:w], P[i, :w])
        tail = exact_dot(q[w:], P[i, w:])
        assert covers(b_l[i], head)
        assert covers(b_h[i], tail)
        # Equation 3 as the engines evaluate it: one float sum.
        assert covers(b_l[i] + b_h[i], head + tail)


@given(variant=st.sampled_from(["F-SI", "F-SIR", "F-I", "F-SR"]),
       rho=st.sampled_from([0.3, 0.7, 1.0]), **rows_strategy)
@settings(max_examples=150, deadline=None)
def test_cascade_bounds_cover_the_exact_product(variant, rho, d, n, seed,
                                                exps, q_exp, denormal,
                                                equal_rows, e):
    rng = np.random.default_rng(seed)
    P = adversarial_rows(rng, n, d, exps, denormal, equal_rows)
    index = FexiproIndex(P, variant=variant, rho=rho, e=e)
    scaled, reduction = index.scaled, index.reduction
    rows = np.arange(index.n_base)
    for __ in range(2):
        qs = index._prepare_query(adversarial_query(rng, d, q_exp, denormal))
        ub1 = qs.q_bar_tail_norm * index.bar_tail_norms
        v_head, __ = exact_scores(index.items_bar, rows, qs.q_bar, index.w)
        if scaled is not None:
            b_l = scaled.head_bound(qs.scaled, rows)
            b_h = scaled.tail_bound(qs.scaled, rows)
        if reduction is not None:
            mq = qs.monotone
            mono = reduction.monotone_bound(v_head, mq, rows)
        for i in rows:
            exact = exact_dot(qs.q_bar, index.items_bar[i])
            if scaled is not None:
                # Equation 6 plus the residual norms, and Equation 3.
                assert covers(b_l[i] + ub1[i], exact)
                assert covers(b_l[i] + b_h[i], exact)
            if reduction is not None:
                # Lemma 1: the reduced-space product of Equation 8, with
                # the stored constants the threshold conversion uses.
                reduced = (2 * exact * Fraction(mq.inv_norm)
                           + Fraction(mq.c_full)
                           + Fraction(float(reduction.item_const_full[i])))
                assert covers(mono[i], reduced)
