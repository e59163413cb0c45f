"""Unit tests for the monotonicity reduction (Lemma 1 / Theorem 4 / Eq. 8)."""

import numpy as np
import pytest

from repro.core.reduction import MonotoneReduction, shift_constants
from repro.core.svd import fit_svd

from conftest import make_mf_like


def _fitted(seed=0, n=150, d=10):
    items, queries = make_mf_like(n, d, seed=seed)
    transform = fit_svd(items)
    reduction = MonotoneReduction(transform.items, transform.sigma,
                                  transform.w)
    q_bars = transform.transform_queries(queries)
    return transform, reduction, q_bars


def test_shift_constants_meet_lemma_requirements():
    sigma = np.array([4.0, 2.0, 1.0])
    c = shift_constants(sigma, p_min=-0.4)
    # c_s >= max(1, |p_min|) and mirrors the sigma skew.
    assert np.all(c >= 1.0)
    assert c[0] > c[1] > c[2]
    assert c[-1] == pytest.approx(1.0 + 1.0)  # base 1 + sigma_d/sigma_d


def test_shift_constants_use_pmin_when_large():
    c = shift_constants(np.array([2.0, 1.0]), p_min=-3.5)
    assert np.all(c >= 3.5)


def test_shift_constants_survive_rank_deficiency():
    c = shift_constants(np.array([1.0, 0.5, 0.0]), p_min=-0.1)
    assert np.all(np.isfinite(c))
    c = shift_constants(np.zeros(3), p_min=0.0)
    assert np.all(np.isfinite(c))


def test_reduced_items_are_nonnegative():
    __, reduction, __q = _fitted(seed=1)
    phh = reduction.reduced_items()
    assert phh.shape == (reduction.n, reduction.d + 2)
    assert phh.min() >= -1e-12


def test_reduced_query_sign_pattern():
    transform, reduction, q_bars = _fitted(seed=2)
    qhh = reduction.reduce_query(q_bars[0])
    assert qhh[0] == -1.0
    assert qhh[1] == 0.0
    assert np.all(qhh[2:] >= -1e-12)


def test_order_preservation_theorem4():
    # max qhh . phh must rank items identically to max q . p.
    transform, reduction, q_bars = _fitted(seed=3)
    phh = reduction.reduced_items()
    for q_bar in q_bars[:6]:
        qhh = reduction.reduce_query(q_bar)
        original = transform.items @ q_bar
        reduced = phh @ qhh
        np.testing.assert_array_equal(
            np.argsort(original, kind="stable"),
            np.argsort(reduced, kind="stable"),
        )


def test_equation8_full_product_identity():
    transform, reduction, q_bars = _fitted(seed=4)
    phh = reduction.reduced_items()
    for q_bar in q_bars[:4]:
        qhh = reduction.reduce_query(q_bar)
        mq = reduction.for_query(q_bar)
        direct = phh @ qhh
        for i in range(0, reduction.n, 17):
            v = float(transform.items[i] @ q_bar)
            via_eq8 = reduction.full_product(v, mq, i)
            assert via_eq8 == pytest.approx(direct[i], rel=1e-9, abs=1e-9)


def test_head_partial_matches_explicit_prefix():
    # The monotone bound is Equation 8's head partial (reduced dims
    # 0 .. w+1) plus the residual norm product plus the slack.
    transform, reduction, q_bars = _fitted(seed=5)
    phh = reduction.reduced_items()
    w = reduction.w
    for q_bar in q_bars[:3]:
        qhh = reduction.reduce_query(q_bar)
        mq = reduction.for_query(q_bar)
        for i in range(0, reduction.n, 23):
            v_head = float(transform.items[i, :w] @ q_bar[:w])
            explicit = float(qhh[: w + 2] @ phh[i, : w + 2])
            residual = (float(np.linalg.norm(qhh[w + 2:]))
                        * float(np.linalg.norm(phh[i, w + 2:])))
            assert reduction.monotone_bound(v_head, mq, i) == pytest.approx(
                explicit + residual + reduction.slack, rel=1e-9, abs=1e-9
            )


def test_monotone_bound_is_admissible():
    transform, reduction, q_bars = _fitted(seed=6)
    phh = reduction.reduced_items()
    w = reduction.w
    rows = np.arange(0, reduction.n, 11)
    for q_bar in q_bars[:4]:
        qhh = reduction.reduce_query(q_bar)
        mq = reduction.for_query(q_bar)
        exact = phh @ qhh
        v_head = transform.items[rows, :w] @ q_bar[:w]
        bounds = reduction.monotone_bound(v_head, mq, rows)
        for j, i in enumerate(rows):
            assert bounds[j] >= exact[i] - 1e-9
            # One row gives the bits of the batched call.
            assert reduction.monotone_bound(v_head[j], mq, i) == bounds[j]


def test_partial_products_monotone_past_bookkeeping_dims():
    # The whole point: cumulative products over dims >= 2 never decrease.
    transform, reduction, q_bars = _fitted(seed=7)
    phh = reduction.reduced_items()
    qhh = reduction.reduce_query(q_bars[0])
    terms = phh * qhh  # (n, d+2)
    cums = np.cumsum(terms[:, 2:], axis=1)
    diffs = np.diff(cums, axis=1)
    assert diffs.min() >= -1e-12


def test_threshold_conversion_consistency():
    transform, reduction, q_bars = _fitted(seed=8)
    mq = reduction.for_query(q_bars[0])
    original = transform.items @ q_bars[0]
    kth = int(np.argsort(-original)[4])  # pretend k-th item
    t = float(original[kth])
    t_prime = reduction.threshold(t, mq, kth)
    phh = reduction.reduced_items()
    qhh = reduction.reduce_query(q_bars[0])
    assert t_prime == pytest.approx(float(phh[kth] @ qhh), rel=1e-9)


def test_rejects_bad_w():
    items, __ = make_mf_like(50, 6, seed=9)
    transform = fit_svd(items)
    with pytest.raises(ValueError):
        MonotoneReduction(transform.items, transform.sigma, 0)
    with pytest.raises(ValueError):
        MonotoneReduction(transform.items, transform.sigma, 7)


def test_for_query_validates_shape():
    __, reduction, __q = _fitted(seed=10)
    with pytest.raises(ValueError):
        reduction.for_query(np.ones(reduction.d + 1))


def test_zero_query_is_safe():
    __, reduction, __q = _fitted(seed=11)
    mq = reduction.for_query(np.zeros(reduction.d))
    assert np.isfinite(mq.c_full)
    assert np.isfinite(mq.tail_norm)
