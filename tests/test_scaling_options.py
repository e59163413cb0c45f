"""Tests for writes outside the scaling range and the split-vs-uniform ablation."""

import numpy as np
import pytest

from repro import FexiproIndex
from repro.core.scaling import ScaledItems

from conftest import brute_force_topk, make_mf_like


@pytest.fixture(scope="module")
def data():
    return make_mf_like(800, 20, seed=50)


# ----------------------------------------------------------------------
# Writes outside the scaling range
# ----------------------------------------------------------------------

def test_add_items_outside_scaling_range_deferred_to_compaction(data):
    items, queries = data
    index = FexiproIndex(items, variant="F-SIR")
    before = index.transform
    # A vector ~40x the existing max would scale far past e under the
    # stale maxima — but the write lands in the brute-force delta tier,
    # which never goes through integer scaling, so the add is O(1) and
    # the base transform is untouched.  Results stay exact.
    giant = np.ones((1, items.shape[1])) * 40.0 * np.abs(items).max()
    index.add_items(giant)
    assert index.transform is before
    q = queries[0]
    truth_ids, truth_scores = brute_force_topk(
        np.concatenate([items, giant]), q, 5
    )
    result = index.query(q, k=5)
    np.testing.assert_allclose(result.scores, truth_scores, atol=1e-8)
    # Compaction folds the giant row into the base tier, re-running
    # preprocessing with fresh scaling maxima.
    assert index.compact()
    assert index.transform is not before
    result = index.query(q, k=5)
    np.testing.assert_allclose(result.scores, truth_scores, atol=1e-8)


# ----------------------------------------------------------------------
# Split (Eq. 7) vs uniform (Eq. 4) scaling
# ----------------------------------------------------------------------

def test_uniform_scaling_still_exact(data):
    items, queries = data
    index = FexiproIndex(items, variant="F-SIR", split_scaling=False)
    for q in queries[:6]:
        __, truth = brute_force_topk(items, q, 5)
        np.testing.assert_allclose(index.query(q, 5).scores, truth,
                                   atol=1e-9)


def test_split_scaling_prunes_at_least_as_well(data):
    # Section 6's argument: after the SVD skew, a single global max crushes
    # tail values to tiny integers and loosens the tail bound.
    items, queries = data
    split = FexiproIndex(items, variant="F-SI", split_scaling=True)
    uniform = FexiproIndex(items, variant="F-SI", split_scaling=False)
    split_full = sum(split.query(q, 1).stats.full_products
                     for q in queries[:15])
    uniform_full = sum(uniform.query(q, 1).stats.full_products
                       for q in queries[:15])
    assert split_full <= uniform_full


def test_uniform_scaling_shares_the_global_max(data):
    items, __ = data
    scaled = ScaledItems(items, w=5, split=False)
    assert scaled.max_head == scaled.max_tail == pytest.approx(
        float(np.max(np.abs(items)))
    )
