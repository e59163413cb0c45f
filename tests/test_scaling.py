"""Unit tests for integer scaling (paper Section 4 / Equations 4 and 7)."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import FexiproIndex
from repro.core.scaling import (
    ScaledItems,
    integer_parts,
    scale_uniform,
)
from repro.exceptions import ValidationError


def _bench_es(filename):
    """The ``ES`` sweep a benchmark module declares, read without importing it."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / filename
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "ES" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} declares no ES")


SWEPT_ES = sorted(set(_bench_es("bench_fig11_e.py"))
                  | set(_bench_es("bench_appendix_a_integer_tightness.py")))


def test_scale_uniform_range():
    vec = np.array([-0.5, 0.25, 1.0])
    scaled = scale_uniform(vec, e=100)
    assert np.max(np.abs(scaled)) == pytest.approx(100.0)
    np.testing.assert_allclose(scaled, vec * 100.0)


def test_scale_uniform_zero_vector_stays_zero():
    np.testing.assert_array_equal(scale_uniform(np.zeros(4), e=50),
                                  np.zeros(4))


def test_scale_uniform_rejects_nonpositive_e():
    with pytest.raises(Exception):
        scale_uniform(np.ones(3), e=0)


def test_scaling_preserves_ip_order():
    # Equation 5: scaled products are a positive multiple of the originals.
    rng = np.random.default_rng(0)
    q = rng.normal(size=20)
    items = rng.normal(size=(50, 20))
    original = items @ q
    q_scaled = scale_uniform(q, e=100)
    max_p = np.max(np.abs(items))
    items_scaled = items * (100.0 / max_p)
    scaled = items_scaled @ q_scaled
    np.testing.assert_array_equal(np.argsort(original), np.argsort(scaled))


def test_integer_parts_is_floor():
    vec = np.array([1.9, -1.1, 0.0, -0.0, 2.0, -3.999])
    np.testing.assert_array_equal(integer_parts(vec),
                                  [1, -2, 0, 0, 2, -4])
    assert integer_parts(vec).dtype == np.float64


def test_scaled_items_shapes_and_sums():
    rng = np.random.default_rng(1)
    items = rng.normal(size=(30, 10))
    scaled = ScaledItems(items, w=4, e=100)
    assert scaled.int_head.shape == (30, 4)
    assert scaled.int_tail.shape == (30, 6)
    assert scaled.abs_sum_head.shape == (30,)
    np.testing.assert_array_equal(
        scaled.abs_sum_head, np.abs(scaled.int_head).sum(axis=1)
    )


def test_scaled_items_head_range():
    rng = np.random.default_rng(2)
    items = rng.normal(size=(40, 8)) * 0.3
    scaled = ScaledItems(items, w=3, e=100)
    # Scaled integer parts stay within [-e, e] by construction (floor of
    # values in [-e, e]; -e possible, e only at the max itself).
    assert scaled.int_head.max() <= 100
    assert scaled.int_head.min() >= -101


def test_scaled_items_w_equals_d_has_empty_tail():
    items = np.random.default_rng(3).normal(size=(10, 5))
    scaled = ScaledItems(items, w=5, e=10)
    assert scaled.int_tail.shape == (10, 0)
    assert np.all(scaled.abs_sum_tail == 0)


def test_scaled_items_rejects_bad_w():
    items = np.zeros((3, 4)) + 1.0
    with pytest.raises(ValueError):
        ScaledItems(items, w=0)
    with pytest.raises(ValueError):
        ScaledItems(items, w=5)


def test_scale_query_consistency():
    rng = np.random.default_rng(4)
    items = rng.normal(size=(20, 6))
    scaled = ScaledItems(items, w=2, e=100)
    q = rng.normal(size=6)
    sq = scaled.scale_query(q)
    assert sq.int_head.shape == (2,)
    assert sq.int_tail.shape == (4,)
    assert sq.abs_sum_head == int(np.abs(sq.int_head).sum())
    assert sq.max_head == pytest.approx(np.max(np.abs(q[:2])))


def test_scale_query_validates_shape():
    items = np.ones((5, 4))
    scaled = ScaledItems(items, w=2)
    with pytest.raises(ValueError):
        scaled.scale_query(np.ones(3))


def test_unscale_factors():
    rng = np.random.default_rng(5)
    items = rng.normal(size=(12, 6))
    scaled = ScaledItems(items, w=3, e=50)
    q = rng.normal(size=6)
    sq = scaled.scale_query(q)
    rows = np.arange(12)
    head_iu = (scaled.int_head @ sq.int_head + sq.abs_sum_head
               + scaled.abs_sum_head + 3)
    tail_iu = (scaled.int_tail @ sq.int_tail + sq.abs_sum_tail
               + scaled.abs_sum_tail + 3)
    np.testing.assert_allclose(
        scaled.head_bound(sq, rows),
        head_iu * sq.max_head * scaled.max_head / 2500.0, rtol=1e-12)
    np.testing.assert_allclose(
        scaled.tail_bound(sq, rows),
        tail_iu * sq.max_tail * scaled.max_tail / 2500.0, rtol=1e-12)


def test_integer_parts_are_stored_once_as_float64():
    items = np.random.default_rng(6).normal(size=(20, 8))
    scaled = ScaledItems(items, w=3, e=100)
    for block in (scaled.int_head, scaled.int_tail, scaled.abs_sum_head,
                  scaled.abs_sum_tail):
        assert block.dtype == np.float64
        np.testing.assert_array_equal(block, np.floor(block))
    assert not any(isinstance(value, np.ndarray) and value.dtype.kind == "i"
                   for value in vars(scaled).values())


def test_e_must_keep_integer_sums_exact():
    # d * (e + 1)**2 > 2**53: float64 sums of integer parts stop being
    # exact, so the index refuses to build rather than mis-prune.
    items = np.random.default_rng(7).normal(size=(30, 50))
    with pytest.raises(ValidationError, match="2\\*\\*53"):
        ScaledItems(items, w=10, e=1e10)
    with pytest.raises(ValidationError):
        FexiproIndex(items, variant="F-SIR", e=1e10)
    with pytest.raises(ValidationError):
        ScaledItems(items, w=10, e=float("inf"))
    # The boundary itself: d * (e + 1)**2 == 2**53 still builds.
    ScaledItems(np.ones((2, 2)), w=1, e=2.0 ** 26 - 1)
    with pytest.raises(ValidationError):
        ScaledItems(np.ones((2, 2)), w=1, e=2.0 ** 26)


@pytest.mark.parametrize("e", SWEPT_ES)
def test_every_swept_e_still_builds(e):
    items = np.random.default_rng(8).normal(size=(40, 50))
    index = FexiproIndex(items, variant="F-SIR", e=e)
    q = np.random.default_rng(9).normal(size=50)
    assert index.query(q, 3).ids == index.query(q, 3, engine="gemm").ids
