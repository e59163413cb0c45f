"""Property tests for the one top-k order: (score descending, position ascending).

The :class:`~repro.core.topk.TopKBuffer` keeps the k best under that order
whatever order candidates arrive in, so every engine, split, merge, mask
and k agree with one brute force (:func:`conftest.oracle_topk`, an
``np.lexsort`` over the engines' exact scores) — exact ties included.
Ties are built on purpose: rows drawn from a small pool of small-integer
vectors, so duplicates and equal inner products abound, and the F-I
variant (no rotation) keeps duplicated rows bitwise equal.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FexiproIndex, ShardedFexiproIndex
from repro.baselines.naive import NaiveBlas, NaiveScan
from repro.core.options import ScanOptions
from repro.core.topk import TopKBuffer
from repro.core.variants import VARIANTS

from conftest import oracle_topk, serial_shard_fanout

ALL_VARIANTS = sorted(VARIANTS)
ENGINES = ["reference", "blocked", "gemm"]


def lexsort_topk(scores, ids, k):
    """The k best ``(id, score)`` pairs under the order, by ``np.lexsort``."""
    scores, ids = np.asarray(scores), np.asarray(ids)
    top = np.lexsort((ids, -scores))[:k]
    return ids[top].tolist(), scores[top].tolist()


# ----------------------------------------------------------------------
# The buffer alone
# ----------------------------------------------------------------------

@given(
    scores=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                    min_size=1, max_size=40),
    k=st.integers(1, 12),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_buffer_is_push_order_and_split_independent(scores, k, data):
    ids = list(range(len(scores)))
    want = lexsort_topk(scores, ids, k)
    order = data.draw(st.permutations(ids))
    sequential = TopKBuffer(k)
    for i in order:
        sequential.push(scores[i], i)
    assert sequential.items_and_scores() == want
    if len(want[0]) == k:
        assert sequential.kth_item == want[0][-1]
        assert sequential.threshold == want[1][-1]
    # Split the pushes into chunks, scan each into its own buffer, and
    # merge the chunk buffers in a drawn order.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(order)),
                                     max_size=4)))
    chunks = [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]
    buffers = []
    for chunk in chunks:
        buffer = TopKBuffer(k)
        for i in chunk:
            buffer.push(scores[i], i)
        buffers.append(buffer)
    merged = TopKBuffer(k)
    for j in data.draw(st.permutations(range(len(buffers)))):
        merged.merge(buffers[j])
    assert merged.items_and_scores() == want


# ----------------------------------------------------------------------
# Every engine on tie-heavy catalogs
# ----------------------------------------------------------------------

@st.composite
def tie_catalogs(draw):
    """Small-integer rows drawn from a tiny pool, plus live mutations."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.integers(2, 6))
    pool = rng.integers(-2, 3, size=(draw(st.integers(1, 5)), d))
    n = draw(st.integers(2, 40))
    items = pool[rng.integers(0, len(pool), size=n)].astype(float)
    adds = pool[rng.integers(0, len(pool),
                             size=draw(st.integers(0, 6)))].astype(float)
    removes = draw(st.lists(st.integers(0, n + len(adds) - 1),
                            max_size=6, unique=True))
    query = rng.integers(-2, 3, size=d).astype(float)
    variant = draw(st.sampled_from(ALL_VARIANTS))
    block_size = draw(st.sampled_from([1, 3, 8, 64]))
    return items, adds, removes, query, variant, block_size


@given(catalog=tie_catalogs(), k=st.integers(1, 12), j=st.integers(1, 4),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_engines_equal_oracle_and_prefix_on_ties(catalog, k, j, data):
    items, adds, removes, q, variant, block_size = catalog
    index = FexiproIndex(items, variant=variant, block_size=block_size)
    if len(adds):
        index.add_items(adds)
    index.remove_items(removes)
    snap = index._live
    visible = snap.visible_count
    if visible == 0:
        return
    k = min(k, visible)
    k_more = min(k + j, visible)
    qs = index._prepare_query(q, snapshot=snap)
    positions, scores = oracle_topk(snap, qs, k_more)
    want_more = snap.full_order[positions].tolist()
    want = want_more[:k]
    seed = math.nextafter(scores[k - 1], -math.inf)
    for engine in ENGINES:
        small = index.query(q, k, engine=engine)
        large = index.query(q, k_more, engine=engine)
        assert small.ids == want
        assert small.scores == scores[:k]
        assert large.ids == want_more
        assert large.ids[:k] == small.ids
        warm = index.query(q, k, engine=engine,
                           options=ScanOptions(initial_threshold=seed))
        assert warm.ids == want
        assert warm.scores == small.scores
    shards = min(3, snap.n)
    sharded = ShardedFexiproIndex.from_index(index, shards=shards,
                                             workers=1)
    fanned, __ = serial_shard_fanout(sharded, q, k)
    assert fanned.ids == want
    assert fanned.scores == scores[:k]
    # Any shard order, as a many-worker pool may run them: a later
    # shard's threshold must not prune an earlier shard's tied rows.
    order = data.draw(st.permutations(range(len(sharded._catalog_spans(snap)))),
                      label="order")
    fanned, __ = serial_shard_fanout(sharded, q, k, order=order)
    assert fanned.ids == want
    assert fanned.scores == scores[:k]


@pytest.mark.parametrize("variant", ["F-I", "F-SIR"])
def test_reversed_shard_fanout_keeps_tied_rows_of_earlier_shards(variant):
    # Rows of +-1 entries give integer scores that tie across shards,
    # and queries with zero tails make the incremental bound tight.
    # Scanning the last shard first publishes its k-th score before the
    # earlier shards, whose rows tied with it rank ahead of its own.
    rng = np.random.default_rng(0)
    items = rng.choice([-1.0, 1.0], size=(600, 8))
    queries = rng.integers(-1, 2, size=(30, 8)).astype(float)
    index = FexiproIndex(items, variant=variant)
    sharded = ShardedFexiproIndex.from_index(index, shards=12, workers=1)
    backwards = list(range(len(sharded.spans)))[::-1]
    for k in (1, 5, 20):
        for q in queries:
            want = index.query(q, k)
            fanned, __ = serial_shard_fanout(sharded, q, k, order=backwards)
            assert fanned.ids == want.ids
            assert fanned.scores == want.scores


# ----------------------------------------------------------------------
# Pinned regression: items a, a, c with q.c > q.a
# ----------------------------------------------------------------------

AAC = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
AAC_QUERY = np.array([0.0, 1.0])


@pytest.mark.parametrize("engine", ENGINES)
def test_aac_topk_is_a_prefix_for_every_engine(engine):
    # ``c`` is shorter than ``a`` so it is scanned last; the old buffer
    # rule evicted the earlier ``a`` when ``c`` arrived, so top-2 was
    # [2, 1] while top-3 was [2, 0, 1].  F-I keeps the two ``a`` rows
    # bitwise equal (an SVD basis may round them apart).
    index = FexiproIndex(AAC, variant="F-I", engine=engine)
    full = index.query(AAC_QUERY, 3)
    assert full.scores[1] == full.scores[2]  # a real tie
    assert full.ids == [2, 0, 1]
    assert index.query(AAC_QUERY, 2).ids == [2, 0]
    assert index.query(AAC_QUERY, 1).ids == [2]


@pytest.mark.parametrize("method", [NaiveScan, NaiveBlas])
def test_aac_matches_the_naive_baselines(method):
    assert list(method(AAC).query(AAC_QUERY, 2).ids) == [2, 0]


# ----------------------------------------------------------------------
# Pinned regressions: a row parallel to the query scores a few ulps above
# the float product of the norms, so unwidened bounds pruned it
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_parallel_row_tied_in_the_reals_matches_oracle(variant, engine):
    # Both rows score 1 in the reals; in an SVD basis the parallel one
    # (scanned second, it is shorter) may round above the first.
    items = np.array([[-1.0, 0.0, 0.0], [-1.0, -2.0, 2.0]])
    q = items[0]
    index = FexiproIndex(items, variant=variant, engine=engine)
    snap = index._live
    qs = index._prepare_query(q, snapshot=snap)
    for k in (1, 2):
        positions, scores = oracle_topk(snap, qs, k)
        result = index.query(q, k)
        assert result.ids == snap.full_order[positions].tolist()
        assert result.scores == scores


@pytest.mark.parametrize("engine", ENGINES)
def test_seed_one_ulp_below_a_parallel_kth_score(engine):
    # q.p = 3 exactly, but fl(sqrt(3)) ** 2 = 3 - 1 ulp: an unwidened
    # Cauchy-Schwarz bound sits at the seed and prunes the answer.
    items = np.array([[1.0, 1.0, 1.0], [0.5, 0.0, 0.0]])
    q = items[0]
    index = FexiproIndex(items, variant="F-I", engine=engine)
    seed = math.nextafter(3.0, -math.inf)
    warm = index.query(q, 1, options=ScanOptions(initial_threshold=seed))
    assert warm.ids == [0] and warm.scores == [3.0]
    assert index.query_above(q, seed).ids == [0]
