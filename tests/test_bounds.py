"""Unit tests for the pruning bounds (Theorems 2 and 5, Equations 1/3/6)."""

import numpy as np

from repro.core.bounds import (
    cauchy_schwarz,
    incremental_bound,
    integer_bound_relative_error,
    integer_upper_bound,
    uniform_integer_bound,
)
from repro.core.scaling import ScaledItems, integer_parts


def test_cauchy_schwarz_is_admissible():
    rng = np.random.default_rng(0)
    for __ in range(50):
        q = rng.normal(size=10)
        p = rng.normal(size=10)
        assert float(q @ p) <= cauchy_schwarz(
            np.linalg.norm(q), np.linalg.norm(p)
        ) + 1e-12


def test_incremental_bound_between_exact_and_cs():
    rng = np.random.default_rng(1)
    for __ in range(50):
        q = rng.normal(size=12)
        p = rng.normal(size=12)
        w = 5
        partial = float(q[:w] @ p[:w])
        bound = incremental_bound(
            partial, np.linalg.norm(q[w:]), np.linalg.norm(p[w:])
        )
        exact = float(q @ p)
        cs = cauchy_schwarz(np.linalg.norm(q), np.linalg.norm(p))
        assert exact <= bound + 1e-12          # admissible (Equation 1)
        assert bound <= cs + 1e-12             # tighter than Cauchy-Schwarz


def test_integer_upper_bound_theorem2():
    rng = np.random.default_rng(2)
    for __ in range(100):
        q = rng.normal(scale=3.0, size=8)
        p = rng.normal(scale=3.0, size=8)
        iu = integer_upper_bound(integer_parts(q), integer_parts(p))
        assert float(q @ p) <= iu + 1e-12


def test_integer_bound_from_parts_matches_direct():
    # The head bound assembles Theorem 2 from precomputed abs-sums; it
    # must equal the direct formula on the same integer parts, unscaled.
    rng = np.random.default_rng(3)
    items = rng.normal(scale=5, size=(8, 6))
    scaled = ScaledItems(items, w=6, e=100)
    sq = scaled.scale_query(rng.normal(scale=5, size=6))
    bounds = scaled.head_bound(sq, np.arange(8))
    for i in range(8):
        direct = integer_upper_bound(sq.int_head, scaled.int_head[i])
        assert bounds[i] == direct * ((sq.max_head * scaled.max_head)
                                      / (100.0 * 100.0))


def test_paper_worked_example_figures_4_and_5():
    # Figure 4's point: on raw narrow-range values the bound is uselessly
    # loose; Figure 5's: scaling by e=100 makes it tight.
    rng = np.random.default_rng(4)
    q = rng.uniform(-1, 1, size=5)
    p = rng.uniform(-1, 1, size=5)
    exact = float(q @ p)
    loose = integer_upper_bound(integer_parts(q), integer_parts(p))
    tight = uniform_integer_bound(q, p, e=100)
    assert loose >= exact
    assert tight >= exact
    # The scaled bound must be dramatically tighter than the raw one.
    assert (tight - exact) < (loose - exact) / 3


def test_uniform_integer_bound_admissible_on_original_scale():
    rng = np.random.default_rng(5)
    for e in (10, 100, 1000):
        for __ in range(30):
            q = rng.normal(scale=0.4, size=16)
            p = rng.normal(scale=0.4, size=16)
            assert float(q @ p) <= uniform_integer_bound(q, p, e) + 1e-9


def test_relative_error_decays_with_e():
    # Theorem 5: error is O(1/e).
    rng = np.random.default_rng(6)
    q = rng.normal(scale=0.3, size=50)
    p = rng.normal(scale=0.3, size=50)
    errors = [integer_bound_relative_error(q, p, e)
              for e in (10, 100, 1000, 10000)]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[3] >= 0.0
    # Roughly inverse-linear: two decades of e gain ~two decades of error.
    assert errors[0] / errors[2] > 20


def test_split_bounds_are_admissible():
    rng = np.random.default_rng(7)
    items = rng.normal(scale=0.4, size=(60, 12))
    w = 4
    scaled = ScaledItems(items, w=w, e=100)
    rows = np.arange(items.shape[0])
    for __ in range(20):
        q = rng.normal(scale=0.4, size=12)
        sq = scaled.scale_query(q)
        head_bounds = scaled.head_bound(sq, rows)
        tail_bounds = scaled.tail_bound(sq, rows)
        for i in range(items.shape[0]):
            head_exact = float(q[:w] @ items[i, :w])
            tail_exact = float(q[w:] @ items[i, w:])
            assert head_exact <= head_bounds[i] + 1e-9
            assert tail_exact <= tail_bounds[i] + 1e-9
            # One row gives the bits of the batched call.
            assert scaled.head_bound(sq, i) == head_bounds[i]
            assert scaled.tail_bound(sq, i) == tail_bounds[i]


def test_tail_bound_zero_when_w_equals_d():
    items = np.random.default_rng(8).normal(size=(10, 4))
    scaled = ScaledItems(items, w=4, e=100)
    sq = scaled.scale_query(np.ones(4))
    assert scaled.tail_bound(sq, 0) == 0.0
    np.testing.assert_array_equal(scaled.tail_bound(sq, np.arange(10)),
                                  np.zeros(10))
