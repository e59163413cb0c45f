"""Coverage for smaller surfaces: result timing, reprs."""

import numpy as np

from repro import FexiproIndex, topk_exact
from repro.analysis import experiments
from repro.analysis.report import format_row
from repro.analysis.workloads import get_workload
from repro.baselines import MiniBatch, NaiveBlas

from conftest import make_mf_like


def test_query_elapsed_populated(small_items, small_queries):
    index = FexiproIndex(small_items)
    result = index.query(small_queries[0], k=3)
    assert result.elapsed > 0.0


def test_repr_mentions_variant(small_items):
    text = repr(FexiproIndex(small_items, variant="F-SI"))
    assert "F-SI" in text
    assert "blocked" in text


def test_naive_blas_k_equals_n():
    items, queries = make_mf_like(15, 6, seed=131)
    result = NaiveBlas(items).query(queries[0], k=15)
    assert sorted(result.ids) == list(range(15))
    assert result.scores == sorted(result.scores, reverse=True)


def test_minibatch_k_equals_n():
    items, queries = make_mf_like(12, 5, seed=132)
    results = MiniBatch(items, batch_size=4).batch_query(queries[:3], k=12)
    for r in results:
        assert sorted(r.ids) == list(range(12))


def test_run_method_accepts_custom_factory():
    workload = get_workload("movielens", scale=0.02, query_cap=4)
    run = experiments.run_method(
        "custom", workload, k=2,
        factory=lambda items: NaiveBlas(items),
    )
    assert run.method == "custom"
    assert run.avg_full_products == workload.dataset.n


def test_format_row_alignment():
    line = format_row(["name", 1.5, "x"], [6, 8, 4])
    assert line.startswith("name  ")
    assert line.endswith("   x")


def test_topk_exact_uses_default_variant(small_items, small_queries):
    result = topk_exact(small_items, small_queries[0], k=4)
    assert len(result.ids) == 4


def test_block_schedule_respects_tiny_cap():
    from repro.core.blocked import block_schedule

    blocks = list(block_schedule(100, k=1, cap=8))
    assert all(e - s <= 8 for s, e in blocks)
    assert blocks[-1][1] == 100


def test_reference_engine_query_above(small_items, small_queries):
    # query_above is engine-independent; works from a reference-engine index.
    index = FexiproIndex(small_items, engine="reference")
    scores = small_items @ small_queries[0]
    t = float(np.percentile(scores, 95))
    result = index.query_above(small_queries[0], t)
    assert set(result.ids) == set(np.nonzero(scores > t)[0].tolist())
