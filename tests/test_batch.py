"""Tests for the batch retrieval path (shared query-side preprocessing)."""

import numpy as np
import pytest

from repro import FexiproIndex, VARIANTS
from repro.core.batch import batch_retrieve, prepare_query_states

from conftest import make_mf_like


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_equals_individual(variant):
    items, queries = make_mf_like(600, 16, seed=60)
    index = FexiproIndex(items, variant=variant)
    batch = batch_retrieve(index, queries[:12], k=6)
    for q, result in zip(queries[:12], batch):
        single = index.query(q, k=6)
        assert result.ids == single.ids
        np.testing.assert_allclose(result.scores, single.scores)
        assert result.stats.as_dict() == single.stats.as_dict()


def test_prepared_states_match_single_prep():
    items, queries = make_mf_like(300, 12, seed=61)
    index = FexiproIndex(items, variant="F-SIR")
    states = prepare_query_states(index, queries[:5])
    for q, state in zip(queries[:5], states):
        single = index._prepare_query(np.asarray(q, dtype=np.float64))
        assert state.q_norm == pytest.approx(single.q_norm)
        np.testing.assert_allclose(state.q_bar, single.q_bar)
        assert state.q_bar_tail_norm == pytest.approx(
            single.q_bar_tail_norm)
        np.testing.assert_array_equal(state.scaled.int_head,
                                      single.scaled.int_head)
        assert state.scaled.abs_sum_tail == single.scaled.abs_sum_tail
        assert state.scaled.max_head == pytest.approx(
            single.scaled.max_head)
        assert state.monotone.c_full == pytest.approx(
            single.monotone.c_full)
        assert state.monotone.tail_norm == pytest.approx(
            single.monotone.tail_norm)


def test_batch_accepts_single_vector():
    items, queries = make_mf_like(100, 8, seed=62)
    index = FexiproIndex(items)
    results = batch_retrieve(index, queries[0], k=3)
    assert len(results) == 1
    assert results[0].ids == index.query(queries[0], k=3).ids


def test_batch_zero_query_row():
    items, queries = make_mf_like(100, 8, seed=63)
    index = FexiproIndex(items, variant="F-SIR")
    rows = np.vstack([queries[0], np.zeros(8)])
    results = batch_retrieve(index, rows, k=3)
    assert all(s == pytest.approx(0.0) for s in results[1].scores)


def test_batch_validates_dimensions():
    items, __ = make_mf_like(50, 6, seed=64)
    index = FexiproIndex(items)
    with pytest.raises(Exception):
        batch_retrieve(index, np.ones((3, 7)), k=2)


def _adversarial_queries(index, base_queries, rng):
    """Query rows that historically exposed batch/single prep divergence.

    - an all-zero vector (degenerate norms everywhere);
    - a zero-head / nonzero-tail vector: exactly zero in the first ``w``
      transformed dimensions (exact for permutation transforms such as
      F-I; near-zero and still adversarial for SVD variants), which hits
      the degenerate-scale substitution in the split scaling;
    - denormal magnitudes, where a naive ``sqrt(sum(x^2))`` underflows;
    - a sparse row with exact zeros scattered through it.
    """
    d = index.d
    zero_head = index.transform.u[:, index.w:] @ rng.normal(
        size=d - index.w) if index.w < d else np.zeros(d)
    sparse = np.where(rng.random(d) < 0.5, 0.0, rng.normal(size=d))
    return np.vstack([
        base_queries[:4],
        np.zeros(d),
        zero_head,
        rng.normal(size=d) * 1e-308,
        sparse,
    ])


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_single_divergence_property(variant):
    """batch_retrieve must equal a loop of index.query *exactly*.

    Exact means bit-for-bit: same ids, same scores, and the same value for
    every pruning counter — the "exact retrieval" guarantee only holds if
    both entry points run the identical Algorithm 4 Lines 2-9 preparation.
    """
    rng = np.random.default_rng(70)
    items, base_queries = make_mf_like(600, 16, seed=70)
    index = FexiproIndex(items, variant=variant)
    queries = _adversarial_queries(index, base_queries, rng)

    batch = batch_retrieve(index, queries, k=6)
    assert len(batch) == queries.shape[0]
    for q, result in zip(queries, batch):
        single = index.query(q, k=6)
        assert result.ids == single.ids
        assert result.scores == single.scores
        assert result.stats.as_dict() == single.stats.as_dict()


def test_batch_results_carry_elapsed_time():
    items, queries = make_mf_like(200, 12, seed=65)
    index = FexiproIndex(items, variant="F-SIR")
    results = batch_retrieve(index, queries[:6], k=4)
    assert all(r.elapsed > 0.0 for r in results)


def test_batch_query_validates_like_batch_retrieve():
    items, queries = make_mf_like(100, 8, seed=66)
    index = FexiproIndex(items)
    bad = np.array(queries[:3])
    bad[1, 2] = np.nan
    with pytest.raises(Exception):
        index.batch_query(bad, k=3)
    with pytest.raises(Exception):
        batch_retrieve(index, bad, k=3)


def test_batch_query_accepts_single_vector_row():
    items, queries = make_mf_like(100, 8, seed=67)
    index = FexiproIndex(items)
    results = index.batch_query(queries[0], k=3)
    assert len(results) == 1
    assert results[0].ids == index.query(queries[0], k=3).ids


def test_batch_query_prepares_once_against_one_snapshot(monkeypatch):
    import repro.core.batch as batch_module

    items, queries = make_mf_like(300, 12, seed=68)
    index = FexiproIndex(items)
    want = [index.query(q, k=5) for q in queries[:6]]
    snap = index._live
    prepared, scanned = [], []
    real_prepare = batch_module.prepare_query_states
    real_scan = index._scan

    def prepare(target, rows):
        prepared.append((target, len(rows)))
        return real_prepare(target, rows)

    def scan(qs, k, **kwargs):
        scanned.append(kwargs["snapshot"])
        if len(scanned) == 1:
            # A write landing mid-batch must not reach the pinned batch.
            index.add_items(10.0 * items[:1])
        return real_scan(qs, k, **kwargs)

    monkeypatch.setattr(batch_module, "prepare_query_states", prepare)
    monkeypatch.setattr(index, "_scan", scan)
    got = index.batch_query(queries[:6], k=5)
    assert prepared == [(snap, 6)]
    assert len(scanned) == 6 and all(s is snap for s in scanned)
    assert index._live is not snap
    for result, single in zip(got, want):
        assert result.ids == single.ids
        assert result.scores == single.scores
        assert result.stats.as_dict() == single.stats.as_dict()
