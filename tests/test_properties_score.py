"""Property tests for the one exact score, ``repro.core.score.exact_scores``.

Every admitted score comes from that function, so the exactness contract
(bitwise ids and scores across engines, batch shapes, shard schedules
and the delta tier) rests on one claim: the float it returns for a row
depends only on that row, whatever else shares the call and however the
rows are laid out in memory.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FexiproIndex
from repro.core.score import exact_scores
from repro.core.variants import VARIANTS

from conftest import make_mf_like

WIDTHS = [1, 7, 8, 9, 50, 129, 300]
LAYOUTS = ["C", "F", "strided", "offset"]


def bits(a):
    """Bit patterns, so -0.0/+0.0 and NaN payloads compare exactly."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def laid_out(P, layout):
    """The same values as ``P`` in another memory layout."""
    if layout == "F":
        return np.asfortranarray(P)
    if layout == "strided":
        wide = np.zeros((P.shape[0], 2 * P.shape[1]))
        wide[:, ::2] = P
        return wide[:, ::2]
    if layout == "offset":
        # One extra leading element shifts every row's alignment.
        flat = np.empty(P.size + 1)
        flat[1:] = P.ravel()
        return flat[1:].reshape(P.shape)
    return P


def adversarial_rows(rng, n, d, lo_exp, hi_exp, denormal):
    """Rows with norms spread over ``10**lo_exp .. 10**hi_exp``."""
    P = rng.standard_normal((n, d))
    P *= 10.0 ** rng.uniform(lo_exp, hi_exp, size=(n, 1))
    if denormal:
        P[rng.random(n) < 0.3] *= 1e-310
        P[rng.random((n, d)) < 0.05] = 5e-324
        P[rng.random((n, d)) < 0.05] = -0.0
    return P


@given(
    d=st.sampled_from(WIDTHS),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
    exps=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
    denormal=st.booleans(),
    layout=st.sampled_from(LAYOUTS),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_exact_scores_are_row_stable(d, n, seed, exps, denormal, layout,
                                     data):
    rng = np.random.default_rng(seed)
    lo_exp, hi_exp = sorted(exps)
    P = adversarial_rows(rng, n, d, lo_exp, hi_exp, denormal)
    q = rng.standard_normal(d) * 10.0 ** rng.uniform(-150, 150)
    w = data.draw(st.integers(0, d), label="w")

    # The per-row reference: one call per row on the C-ordered matrix,
    # which must equal the plain 1-D reduce of that row alone.
    head1 = np.empty(n)
    score1 = np.empty(n)
    for i in range(n):
        h, s = exact_scores(P, [i], q, w)
        head1[i], score1[i] = h[0], s[0]
        prod = P[i] * q
        assert bits(h[0]) == bits(np.add.reduce(prod[:w]))
        assert bits(s[0]) == bits(h[0] + np.add.reduce(prod[w:]))

    source = laid_out(P, layout)
    q_in = laid_out(q[None, :], layout)[0]
    start = data.draw(st.integers(0, n - 1), label="start")
    count = data.draw(st.integers(1, n - start), label="count")
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n), label="picks")
    for rows in (np.arange(n), np.arange(start, start + count), picks):
        head, score = exact_scores(source, rows, q_in, w)
        np.testing.assert_array_equal(bits(head), bits(head1[rows]))
        np.testing.assert_array_equal(bits(score), bits(score1[rows]))


@given(
    d=st.sampled_from(WIDTHS),
    n=st.integers(1, 60),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    exps=st.tuples(st.integers(-150, 150), st.integers(-150, 150)),
    denormal=st.booleans(),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_exact_scores_take_one_query_row_per_gathered_row(
        d, n, m, seed, exps, denormal, data):
    # The fused GEMM kernel scores a chunk's kept (query, row) pairs in
    # one call with one q row per gathered row; each pair's floats must
    # be the one-q call's for that query.
    rng = np.random.default_rng(seed)
    lo_exp, hi_exp = sorted(exps)
    P = adversarial_rows(rng, n, d, lo_exp, hi_exp, denormal)
    Q = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-150, 150,
                                                          size=(m, 1))
    w = data.draw(st.integers(0, d), label="w")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1),
                                         st.integers(0, n - 1)),
                               min_size=1, max_size=3 * n), label="pairs")
    owners = np.array([j for j, __ in pairs])
    rows = np.array([i for __, i in pairs])
    head, score = exact_scores(P, rows, Q[owners], w)
    for j in range(m):
        mine = owners == j
        head1, score1 = exact_scores(P, rows[mine], Q[j], w)
        np.testing.assert_array_equal(bits(head[mine]), bits(head1))
        np.testing.assert_array_equal(bits(score[mine]), bits(score1))


def test_exact_scores_on_no_rows():
    P = np.ones((4, 3))
    head, score = exact_scores(P, np.empty(0, dtype=np.int64), np.ones(3), 2)
    assert head.shape == score.shape == (0,)


def _above_matches_query(index, q, k):
    top = index.query(q, k=k)
    beyond = index.query(q, k=k + 1)
    # MF-like data has no exact ties; without one the k-th score is
    # strictly above the next, and the above-t answer is the top-k.
    assert beyond.scores[k] < top.scores[k - 1]
    above = index.query_above(q, math.nextafter(top.scores[k - 1], -math.inf))
    assert above.ids == top.ids
    np.testing.assert_array_equal(bits(above.scores), bits(top.scores))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("pending", ["clean", "adds", "tombstones", "both"])
def test_query_above_just_below_kth_returns_query_bits(variant, pending):
    items, queries = make_mf_like(400, 12, seed=77)
    index = FexiproIndex(items, variant=variant)
    if pending in ("adds", "both"):
        extra, __ = make_mf_like(40, 12, seed=78)
        index.add_items(extra * 1.5)
    if pending in ("tombstones", "both"):
        top = index.query(queries[0], k=3).ids
        index.remove_items(top[:2] + [5, 17, 401])
    assert index._live.clean == (pending == "clean")
    for q in queries[:6]:
        for k in (1, 5, 20):
            _above_matches_query(index, q, k)
