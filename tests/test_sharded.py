"""Tests for the sharded index (repro.core.sharded).

Two load-bearing properties:

- In one process a sharded index *is* its inner index's single scan:
  every result equals ``sharded.index.query`` in ids, score bits, every
  pruning counter, bounds, errors and spans, for every engine.
- The process fan-out (``executor="process"``) returns exactly the ids
  and scores of the single scan for every variant, every shard count
  (including adversarial ones) and every query (including degenerate
  ones).  With one worker process its schedule is serial-equivalent, so
  its counters and per-shard reports are pinned too, against the
  in-process oracle :func:`conftest.serial_shard_fanout`.
"""

import math

import numpy as np
import pytest

from repro import FexiproIndex, ShardedFexiproIndex
from repro.core.budget import FlopBudget
from repro.core.options import ScanOptions
from repro.core.sharded import default_shards, shard_spans
from repro.core.stats import aggregate_stats
from repro.exceptions import ValidationError
from repro.obs import Tracer
from repro.serve import process_executor_usable
from repro.serve.resilience import Deadline

from conftest import (
    make_mf_like,
    serial_shard_fanout,
    span_shape,
    stepped_clock,
)

ALL_VARIANTS = ["F-S", "F-I", "F-SI", "F-SR", "F-SIR"]
ENGINES = ["reference", "blocked", "gemm", "auto"]
N, D, K = 600, 16, 7

needs_processes = pytest.mark.skipif(
    not process_executor_usable(),
    reason="no multiprocessing start method available",
)


def _adversarial_queries(queries):
    """The workload plus an all-zero and a denormal query row."""
    extra = np.zeros((2, queries.shape[1]))
    extra[1] = 5e-310
    return np.vstack([queries[:6], extra])


# ----------------------------------------------------------------------
# In one process: the inner single scan, field for field
# ----------------------------------------------------------------------

def _assert_same_scan(sharded, q, k, options_for, engine=None):
    """Sharded ``query_detailed`` vs the inner ``query``, everything.

    ``options_for(span)`` builds a fresh options bundle per run around
    that run's root trace span.
    """
    runs = []
    for run in ("sharded", "inner"):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start("scan")
        options = options_for(root)
        if run == "sharded":
            result, reports = sharded.query_detailed(
                q, k, options=options, engine=engine)
            assert reports == []
        else:
            result = sharded.index.query(q, k, options=options,
                                         engine=engine)
        root.end()
        runs.append((result, [span_shape(s) for s in tracer.spans]))
    (mine, mine_spans), (truth, truth_spans) = runs
    assert mine.ids == truth.ids
    assert [s.hex() for s in mine.scores] == \
        [s.hex() for s in truth.scores]
    assert mine.stats.as_dict() == truth.stats.as_dict()
    assert mine.complete == truth.complete
    if truth.bounds is None:
        assert mine.bounds is None
    else:
        assert mine.bounds.as_dict() == truth.bounds.as_dict()
    assert mine_spans == truth_spans
    return mine


@pytest.mark.parametrize("engine", ENGINES)
def test_in_process_query_is_the_inner_single_scan(engine):
    items, queries = make_mf_like(N, D, seed=89)
    sharded = ShardedFexiproIndex(items, shards=5, executor="serial",
                                  variant="F-SIR", engine=engine,
                                  block_size=64)
    inner = sharded.index
    if engine == "auto":
        # Pin the planner's choice so both runs scan with one engine.
        inner.calibrate()
        inner.cost_model.rates = {
            name: (1e-15 if name == "blocked" else 1.0)
            for name in inner.cost_model.rates}
    for q in _adversarial_queries(queries)[:4]:
        cold = _assert_same_scan(sharded, q, K,
                                 lambda span: ScanOptions(span=span))
        seed = math.nextafter(inner.query(q, 2 * K).scores[K - 1],
                              -math.inf) if len(cold.ids) == K else -math.inf
        _assert_same_scan(
            sharded, q, K,
            lambda span: ScanOptions(initial_threshold=seed, span=span))
        degraded = _assert_same_scan(
            sharded, q, K,
            lambda span: ScanOptions(
                deadline=Deadline(1.0, clock=stepped_clock()), span=span))
        assert degraded.stats.deadline_hit == 1
        budgeted = _assert_same_scan(
            sharded, q, K,
            lambda span: ScanOptions(budget=FlopBudget(120 * D),
                                     span=span))
        assert budgeted.bounds is not None
        # The per-call engine override takes the same path.
        _assert_same_scan(sharded, q, K, lambda span: ScanOptions(),
                          engine="blocked")
    # A mutated catalog: delta rows and tombstones, then after compaction.
    sharded.add_items(items[:9] * 1.3)
    sharded.remove_items([0, 5, 601])
    for q in queries[:3]:
        _assert_same_scan(sharded, q, K, lambda span: ScanOptions(span=span))
        _assert_same_scan(
            sharded, q, K,
            lambda span: ScanOptions(budget=FlopBudget(90 * D), span=span))
    assert sharded.compact()
    _assert_same_scan(sharded, queries[0], K,
                      lambda span: ScanOptions(span=span))
    # Errors are the inner scan's errors.
    with pytest.raises(ValidationError, match="engine"):
        sharded.query(queries[0], K, engine="bogus")
    with pytest.raises(ValidationError, match="engine"):
        inner.query(queries[0], K, engine="bogus")


# ----------------------------------------------------------------------
# The process fan-out: exact answers, pinned reports
# ----------------------------------------------------------------------

@needs_processes
@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("shards", [1, 7, N, N + 13])
def test_sharded_bitwise_identical_to_single_scan(variant, shards):
    items, queries = make_mf_like(N, D, seed=90)
    with ShardedFexiproIndex(items, shards=shards, workers=1,
                             executor="process", variant=variant) as sharded:
        for q in _adversarial_queries(queries):
            mine, reports = sharded.query_detailed(q, K)
            truth = sharded.index.query(q, K)
            assert mine.ids == truth.ids
            assert mine.scores == truth.scores  # bitwise, not approx
            # The response's counters are the exact sum of the shard
            # reports.
            total = aggregate_stats(r.stats for r in reports)
            assert mine.stats.as_dict() == total.as_dict()
            assert len(reports) == shards


@needs_processes
def test_single_shard_counters_equal_single_scan():
    items, queries = make_mf_like(N, D, seed=91)
    with ShardedFexiproIndex(items, shards=1, workers=1, executor="process",
                             variant="F-SIR") as sharded:
        for q in queries[:5]:
            mine, reports = sharded.query_detailed(q, K)
            truth = sharded.index.query(q, K)
            assert len(reports) == 1
            # One shard over the whole catalog IS the single scan — every
            # pruning counter must match, not just the answer.
            assert mine.stats.as_dict() == truth.stats.as_dict()


def test_pooled_scan_matches_inline_scan():
    items, queries = make_mf_like(N, D, seed=92)
    inline = ShardedFexiproIndex(items, shards=6, workers=1,
                                 variant="F-SIR")
    with ShardedFexiproIndex.from_index(inline.index, shards=6,
                                        workers=4) as pooled:
        for q in queries[:6]:
            a = inline.query(q, K)
            b = pooled.query(q, K)
            assert a.ids == b.ids
            assert a.scores == b.scores


@needs_processes
def test_shard_skips_fire_and_are_reported():
    items, queries = make_mf_like(2_000, D, seed=93)
    with ShardedFexiproIndex(items, shards=8, workers=1, executor="process",
                             variant="F-SIR") as sharded:
        result, reports = sharded.query_detailed(queries[0], 5)
        oracle, oracle_reports = serial_shard_fanout(sharded, queries[0], 5)
    assert result.stats.shards_skipped > 0
    assert result.stats.as_dict() == oracle.stats.as_dict()
    assert [(r.span, r.seeded_threshold, r.stats.as_dict())
            for r in reports] == \
        [(r.span, r.seeded_threshold, r.stats.as_dict())
         for r in oracle_reports]
    skipped = [r for r in reports if r.skipped]
    assert len(skipped) == result.stats.shards_skipped
    for r in skipped:
        # A skipped shard was eliminated by an achieved threshold from
        # earlier bands, before any of its items were scanned.
        assert r.seeded_threshold > -math.inf
        assert r.stats.scanned == 0
        assert r.stats.length_terminated == 1


def test_batch_query_matches_query_loop():
    items, queries = make_mf_like(N, D, seed=94)
    sharded = ShardedFexiproIndex(items, shards=5, workers=1)
    batch = sharded.batch_query(queries[:4], K)
    for q, result in zip(queries[:4], batch):
        assert result.ids == sharded.query(q, K).ids


def test_add_and_remove_items_delegate_and_respan():
    items, queries = make_mf_like(N, D, seed=95)
    sharded = ShardedFexiproIndex(items, shards=4, workers=1,
                                  variant="F-SIR")
    new_ids = sharded.add_items(items[:8] * 1.5)
    assert len(new_ids) == 8
    assert sharded.n == N + 8
    # Base spans still cover the preprocessed tier only; the delta tier
    # rides as one extra pseudo-span appended at scan time.
    assert sharded.spans[-1][1] == N
    snap = sharded.index._live
    assert sharded._catalog_spans(snap)[-1] == (N, N + 8)
    removed = sharded.remove_items(new_ids)
    assert removed == 8
    q = queries[0]
    assert sharded.query(q, K).ids == sharded.index.query(q, K).ids
    # Compaction folds the (now dead) delta rows away and re-bands.
    assert sharded.compact()
    assert sharded.n == N
    assert sharded.spans[-1][1] == N
    assert sharded.query(q, K).ids == sharded.index.query(q, K).ids


# ----------------------------------------------------------------------
# shard_spans units
# ----------------------------------------------------------------------

def test_shard_spans_partition_exactly():
    for n, s in ((10, 3), (10, 1), (3, 10), (0, 4), (1000, 16)):
        spans = shard_spans(n, s)
        assert len(spans) == s
        assert spans[0][0] == 0 and spans[-1][1] == n
        sizes = [stop - start for start, stop in spans]
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)  # larger bands first
        for (_, a_stop), (b_start, _) in zip(spans, spans[1:]):
            assert a_stop == b_start


def test_shard_spans_validation():
    with pytest.raises(ValidationError):
        shard_spans(10, 0)
    with pytest.raises(ValidationError):
        shard_spans(10, True)
    with pytest.raises(ValidationError):
        shard_spans(-1, 2)


def test_default_shards_bounds():
    assert 2 <= default_shards() <= 16


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------

def test_any_engine_builds_a_sharded_index():
    items, queries = make_mf_like(100, 8, seed=96)
    reference = ShardedFexiproIndex(items, shards=2, engine="reference")
    assert reference.index.engine == "reference"
    wrapped = ShardedFexiproIndex.from_index(
        FexiproIndex(items, engine="reference"), shards=2)
    assert wrapped.query(queries[0], 5).ids == \
        reference.query(queries[0], 5).ids
    with pytest.raises(ValidationError):
        ShardedFexiproIndex.from_index("not an index")


def test_resolved_workers_is_the_fanout_pool_size():
    items, __ = make_mf_like(100, 8, seed=96)
    index = FexiproIndex(items)
    for executor in ("auto", "process"):
        eight = ShardedFexiproIndex.from_index(index, shards=8,
                                               executor=executor)
        assert eight.resolved_workers == 8  # one process per shard
        assert ShardedFexiproIndex.from_index(
            index, shards=8, workers=3,
            executor=executor).resolved_workers == 3
        assert ShardedFexiproIndex.from_index(
            index, shards=2, workers=6,
            executor=executor).resolved_workers == 2
    assert ShardedFexiproIndex.from_index(
        index, shards=8, executor="serial").resolved_workers == 1


@needs_processes
def test_resolved_workers_matches_the_started_pool():
    items, queries = make_mf_like(300, 8, seed=96)
    with ShardedFexiproIndex(items, shards=3, executor="process") as sharded:
        sharded.query(queries[0], 5)
        assert sharded._procpool.workers == sharded.resolved_workers == 3


def test_validates_shards_and_workers():
    items, __ = make_mf_like(100, 8, seed=97)
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ValidationError):
            ShardedFexiproIndex(items, shards=bad)
        with pytest.raises(ValidationError):
            ShardedFexiproIndex(items, workers=bad)


def test_from_index_shares_preprocessing():
    items, queries = make_mf_like(300, 12, seed=98)
    index = FexiproIndex(items, variant="F-SIR")
    sharded = ShardedFexiproIndex.from_index(index, shards=3, workers=1)
    assert sharded.index is index
    q = queries[0]
    assert sharded.query(q, K).scores == index.query(q, K).scores
