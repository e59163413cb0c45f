"""Tests for the exactness-preserving query cache (repro.serve.cache).

The load-bearing property: with a cache in front of a service, every
answer — a hit at the cached k, a prefix hit at a smaller k, or a cold
scan — is *bitwise* identical (ids and scores) to what the cache-less
serial scan produces, across all five paper variants, every engine and
the sharded scan, including adversarial duplicates and ties at the k
boundary.
"""

import math

import numpy as np
import pytest

from repro import FexiproIndex, FlopBudget, ShardedFexiproIndex
from repro.core.options import ScanOptions
from repro.core.variants import VARIANTS
from repro.exceptions import ValidationError
from repro.serve import (
    MetricsRegistry,
    QueryCache,
    RetrievalService,
    ServiceConfig,
    process_executor_usable,
)
from repro.serve import cache as cache_module
from repro.serve.cache import canonical_query_bytes

from conftest import make_mf_like

needs_processes = pytest.mark.skipif(
    not process_executor_usable(),
    reason="no multiprocessing start method available",
)


def _adversarial(n=240, d=12, seed=7):
    """Items with exact duplicate rows: guaranteed score ties at any k."""
    items, queries = make_mf_like(n, d, seed=seed)
    items = np.vstack([items, items[:40], items[:20]])
    return items, queries


def _assert_bitwise(expected, got):
    assert expected.ids == got.ids
    assert expected.scores == got.scores


def _seeded(index, q, k, big, **options):
    """``index.query(q, k)`` warm-started one ulp below the true k-th
    score, read off a larger-k answer ``big`` (the public warm start)."""
    seed = math.nextafter(big.scores[k - 1], -math.inf)
    return index.query(q, k, options=ScanOptions(initial_threshold=seed,
                                                 **options))


# ----------------------------------------------------------------------
# The exactness property: hit / prefix hit / cold all equal the serial
# scan
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("engine", ["blocked", "reference", "gemm"])
def test_warm_start_bitwise_identical_all_variants(variant, engine):
    # A larger-k answer serves a smaller k two ways, both bitwise equal to
    # the cold scan: the cache's prefix hit, and the public warm start
    # seeded one ulp below its k-th score.
    items, queries = _adversarial()
    index = FexiproIndex(items, variant=variant, engine=engine)
    truth_big = [index.query(q, 9) for q in queries]
    truth_small = [index.query(q, 4) for q in queries]
    config = ServiceConfig(workers=2, cache_capacity=64, engine=None)
    with RetrievalService(index, config) as service:
        first = service.batch(queries, k=9)
        assert all(p == "cold" for p in first.provenance)
        hot = service.batch(queries, k=9)
        assert all(p == "hit" for p in hot.provenance)
        prefix = service.batch(queries, k=4)
        assert all(p == "hit" for p in prefix.provenance)
        assert prefix.stats.scanned == 0
    for truth, a, b in zip(truth_big, first.results, hot.results):
        _assert_bitwise(truth, a)
        _assert_bitwise(truth, b)
    for q, big, truth, got in zip(queries, truth_big, truth_small,
                                  prefix.results):
        _assert_bitwise(truth, got)
        _assert_bitwise(truth, _seeded(index, q, 4, big))


@needs_processes
def test_warm_start_sharded_intra_mode_bitwise():
    # The process shard fan-out takes a public warm start: the true 3rd
    # score read off a larger-k answer, one ulp down.
    items, queries = make_mf_like(600, 16, seed=21)
    with ShardedFexiproIndex(items, shards=3, workers=1,
                             executor="process") as sharded:
        for q in queries[:3]:
            big = sharded.index.query(q, 8)
            seed = math.nextafter(big.scores[2], -math.inf)
            cold, __ = sharded.query_detailed(q, 3, options=ScanOptions())
            warm, reports = sharded.query_detailed(
                q, 3, options=ScanOptions(initial_threshold=seed))
            _assert_bitwise(sharded.index.query(q, 3), cold)
            _assert_bitwise(cold, warm)
            assert reports[0].seeded_threshold == seed
            assert warm.stats.scanned <= cold.stats.scanned


def _tie_catalogs():
    """Two catalogs whose scores tie exactly at the k boundary: the
    query's top rows duplicated twice, and a ±1-valued catalog whose
    integer scores tie everywhere."""
    items, queries = make_mf_like(200, 10, seed=13)
    q = queries[0]
    top = items[np.argsort(-(items @ q))[:3]]
    yield np.vstack([items, top, top]), q
    rng = np.random.default_rng(13)
    signs = rng.choice([-1.0, 1.0], size=(80, 8))
    yield signs, rng.choice([-1.0, 1.0], size=8)


def test_warm_start_ties_exactly_at_boundary():
    # Exact ties crowd the cut at every k; the prefix hit and the public
    # warm start must break them the way the cold scan does at each k.
    config = ServiceConfig(workers=1, cache_capacity=16, engine=None)
    for items, q in _tie_catalogs():
        for engine in ("blocked", "reference", "gemm"):
            index = FexiproIndex(items, variant="F-SIR", engine=engine)
            big = index.query(q, 9)
            with RetrievalService(index, config) as service:
                service.batch(q.reshape(1, -1), k=9)
                for k in range(1, 9):
                    prefix = service.batch(q.reshape(1, -1), k=k)
                    assert prefix.provenance == ["hit"]
                    truth = index.query(q, k)
                    _assert_bitwise(truth, prefix.results[0])
                    _assert_bitwise(truth, _seeded(index, q, k, big))


def test_prefix_hits_serve_delta_tier_winners():
    # Winners that live in the delta tier come back from a prefix hit
    # exactly as a fresh scan of the dirty catalog returns them.
    items, queries = make_mf_like(300, 12, seed=85)
    index = FexiproIndex(items, variant="F-SIR")
    q = np.ascontiguousarray(queries[0])
    index.add_items(np.vstack([q * 3.0, q * 2.5, q * 2.0]))
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=8)) as service:
        first = service.batch(q.reshape(1, -1), k=6)
        assert any(int(i) >= len(items) for i in first.results[0].ids)
        for k in range(1, 6):
            prefix = service.batch(q.reshape(1, -1), k=k)
            assert prefix.provenance == ["hit"]
            _assert_bitwise(index.query(q, k), prefix.results[0])


# ----------------------------------------------------------------------
# Hit-path hygiene
# ----------------------------------------------------------------------

def test_hit_results_are_independent_copies():
    items, queries = make_mf_like(300, 12, seed=51)
    index = FexiproIndex(items)
    truth = index.query(queries[0], 5)
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=8)) as service:
        service.batch(queries[:1], k=5)
        first_hit = service.batch(queries[:1], k=5)
        first_hit.results[0].ids[0] = -999
        first_hit.results[0].scores[0] = float("nan")
        second_hit = service.batch(queries[:1], k=5)
    assert second_hit.provenance == ["hit"]
    _assert_bitwise(truth, second_hit.results[0])


def test_hit_stats_not_double_counted():
    items, queries = make_mf_like(300, 12, seed=52)
    index = FexiproIndex(items)
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=32)) as service:
        cold = service.batch(queries, k=5)
        hot = service.batch(queries, k=5)
    assert cold.stats.scanned > 0
    # All hits: no scans performed, so the batch rollup is empty.
    assert all(p == "hit" for p in hot.provenance)
    assert hot.stats.scanned == 0
    assert hot.cache_hits == len(queries)
    assert cold.cache_hits == 0


def test_response_counters_and_metrics_snapshot():
    items, queries = make_mf_like(300, 12, seed=53)
    index = FexiproIndex(items)
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=16)) as service:
        service.batch(queries, k=6)
        service.batch(queries, k=6)
        prefix = service.batch(queries, k=3)
        snapshot = service.metrics_snapshot()
    assert prefix.cache_hits == len(queries)
    cache_section = snapshot["cache"]
    assert cache_section["hits"] == 2 * len(queries)
    assert cache_section["misses"] == len(queries)
    assert cache_section["size"] == len(queries)
    assert snapshot["counters"]["cache.hits"] == 2 * len(queries)
    assert snapshot["counters"]["cache.cold_queries"] == len(queries)


def test_no_cache_leaves_provenance_none():
    items, queries = make_mf_like(200, 10, seed=54)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=1)) as service:
        resp = service.batch(queries, k=4)
        assert service.metrics_snapshot()["cache"] is None
    assert resp.provenance is None
    assert resp.cache_hits == 0


# ----------------------------------------------------------------------
# Invalidation: epoch binding makes stale entries unservable
# ----------------------------------------------------------------------

def test_add_items_invalidates_cached_entries():
    items, queries = make_mf_like(300, 12, seed=61)
    extra, __ = make_mf_like(40, 12, seed=62)
    index = FexiproIndex(items)
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=32)) as service:
        service.batch(queries, k=5)
        assert service.batch(queries, k=5).cache_hits == len(queries)
        index.add_items(extra)
        after = service.batch(queries, k=5)
        assert all(p == "cold" for p in after.provenance)
        assert service.cache.invalidations >= len(queries)
        for q, got in zip(queries, after.results):
            _assert_bitwise(index.query(q, 5), got)


def test_remove_items_invalidates_cached_entries():
    items, queries = make_mf_like(300, 12, seed=63)
    index = FexiproIndex(items)
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=32)) as service:
        first = service.batch(queries, k=5)
        victim = first.results[0].ids[0]
        index.remove_items([victim])
        after = service.batch(queries, k=5)
        assert all(p == "cold" for p in after.provenance)
        for q, got in zip(queries, after.results):
            _assert_bitwise(index.query(q, 5), got)
        assert victim not in after.results[0].ids


def test_shared_cache_never_crosses_indexes():
    # One external cache in front of two different indexes: same query
    # bytes, same variant, but distinct uid — entries must never cross.
    items_a, queries = make_mf_like(300, 12, seed=64)
    items_b, __ = make_mf_like(300, 12, seed=65)
    index_a = FexiproIndex(items_a)
    index_b = FexiproIndex(items_b)
    cache = QueryCache(32)
    config = ServiceConfig(workers=1)
    q = queries[:1]
    with RetrievalService(index_a, config, cache=cache) as service_a, \
            RetrievalService(index_b, config, cache=cache) as service_b:
        got_a = service_a.batch(q, k=5).results[0]
        got_b = service_b.batch(q, k=5).results[0]
        _assert_bitwise(index_a.query(q[0], 5), got_a)
        _assert_bitwise(index_b.query(q[0], 5), got_b)
        # index_b's store displaced index_a's entry under the same key;
        # the next probe from A must invalidate it, not serve it.
        again_a = service_a.batch(q, k=5)
        assert again_a.provenance == ["cold"]
        _assert_bitwise(index_a.query(q[0], 5), again_a.results[0])
        assert cache.invalidations >= 2


def test_explicit_invalidate_and_clear():
    items, queries = make_mf_like(200, 10, seed=66)
    index = FexiproIndex(items)
    cache = QueryCache(16)
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        service.batch(queries, k=4)
        stored = len(cache)
        assert stored == len(queries)
        assert cache.invalidate("no-such-uid") == 0
        assert cache.invalidate(index.uid) == stored
        assert len(cache) == 0
        service.batch(queries, k=4)
        cache.clear()
        assert len(cache) == 0


# ----------------------------------------------------------------------
# QueryCache mechanics: LRU, TTL, store discipline, fingerprints
# ----------------------------------------------------------------------

def test_lru_eviction_order():
    items, queries = make_mf_like(300, 12, seed=71)
    index = FexiproIndex(items)
    cache = QueryCache(2)
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        for i in range(3):
            service.batch(queries[i:i + 1], k=4)
        assert cache.evictions == 1
        # Oldest entry (query 0) is gone; 1 and 2 still hit.
        assert service.batch(queries[0:1], k=4).provenance == ["cold"]
        assert service.batch(queries[2:3], k=4).provenance == ["hit"]


def test_capacity_counts_queries_not_depths():
    # One entry per query: a deeper answer replaces the shallower one,
    # so two queries at three depths fit a capacity of two.
    items, queries = make_mf_like(300, 12, seed=71)
    index = FexiproIndex(items)
    cache = QueryCache(2)
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        service.batch(queries[0:1], k=4)
        assert service.batch(queries[0:1], k=8).provenance == ["cold"]
        service.batch(queries[1:2], k=4)
        assert len(cache) == 2 and cache.evictions == 0
        for k in (8, 4, 1):
            got = service.batch(queries[0:1], k=k)
            assert got.provenance == ["hit"]
            _assert_bitwise(index.query(queries[0], k), got.results[0])


def test_ttl_expiry_with_injected_clock():
    items, queries = make_mf_like(300, 12, seed=72)
    index = FexiproIndex(items)
    now = [0.0]
    cache = QueryCache(8, ttl_s=10.0, clock=lambda: now[0])
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        service.batch(queries[:1], k=4)
        now[0] = 5.0
        assert service.batch(queries[:1], k=4).provenance == ["hit"]
        assert service.batch(queries[:1], k=2).provenance == ["hit"]
        now[0] = 20.0
        # The expired entry serves neither its own k nor a smaller one.
        late = service.batch(queries[:1], k=2)
        assert late.provenance == ["cold"]
        assert cache.expirations == 1
        _assert_bitwise(index.query(queries[0], 2), late.results[0])


def test_store_rejects_incomplete_and_short_results():
    items, queries = make_mf_like(200, 10, seed=73)
    index = FexiproIndex(items)
    result = index.query(queries[0], 4)
    cache = QueryCache(8)
    # Wrong k: a k=5 slot must never hold a 4-item answer.
    assert not cache.store(index, queries[0], 5, result)
    # Deadline-truncated: not the exact top-k of the whole index.
    result.stats.deadline_hit = 1
    assert not cache.store(index, queries[0], 4, result)
    assert cache.stores == 0 and len(cache) == 0
    result.stats.deadline_hit = 0
    assert cache.store(index, queries[0], 4, result)
    assert cache.stores == 1


def test_store_keeps_the_longer_usable_answer():
    items, queries = make_mf_like(200, 10, seed=73)
    index = FexiproIndex(items)
    q = queries[0]
    cache = QueryCache(8)
    assert cache.store(index, q, 8, index.query(q, 8))
    # A shallower answer never displaces a usable deeper one...
    assert not cache.store(index, q, 4, index.query(q, 4))
    assert cache.lookup(index, q, 8).kind == "hit"
    # ...an equal-depth one refreshes it, and a deeper one replaces it.
    assert cache.store(index, q, 8, index.query(q, 8))
    assert cache.store(index, q, 9, index.query(q, 9))
    assert len(cache) == 1 and cache.lookup(index, q, 9).kind == "hit"
    # A stale deeper answer is no answer: after a write the shallower
    # store replaces it.
    index.add_items(items[:2] * 0.5)
    assert cache.store(index, q, 4, index.query(q, 4))
    assert cache.lookup(index, q, 4).kind == "hit"
    assert cache.lookup(index, q, 5).kind == "miss"


def test_canonical_bytes_fold_negative_zero_only():
    q = np.array([0.0, 1.5, -2.25])
    q_negzero = np.array([-0.0, 1.5, -2.25])
    q_other = np.array([0.0, 1.5, -2.2500001])
    assert canonical_query_bytes(q) == canonical_query_bytes(q_negzero)
    assert canonical_query_bytes(q) != canonical_query_bytes(q_other)


def test_oversized_k_shares_entry_with_clamped_twin():
    items, queries = make_mf_like(120, 10, seed=74)
    index = FexiproIndex(items)
    n = index.n
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=8)) as service:
        service.batch(queries[:1], k=n)
        hit = service.batch(queries[:1], k=n + 50)  # clamped to n
    assert hit.provenance == ["hit"]


def test_cache_and_config_validation():
    for bad in (0, -1, 2.5, True):
        with pytest.raises(ValidationError):
            QueryCache(bad)
    with pytest.raises(ValidationError):
        QueryCache(4, ttl_s=0)
    with pytest.raises(ValidationError):
        ServiceConfig(cache_capacity=-1)
    with pytest.raises(ValidationError):
        ServiceConfig(cache_capacity=4, cache_ttl_s=-2.0)


def test_warm_start_knobs_are_gone():
    # The cache has one rule and no seeding knobs left to set.
    from repro.cli import build_parser

    with pytest.raises(TypeError):
        QueryCache(4, warm_start=False)
    with pytest.raises(TypeError):
        QueryCache(4, bucket_decimals=2)
    with pytest.raises(TypeError):
        ServiceConfig(cache_capacity=4, warm_start=False)
    with pytest.raises(TypeError):
        ServiceConfig(cache_capacity=4, warm_bucket_decimals=2)
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["serve", "--cache-capacity", "4", "--no-warm-start"])


# ----------------------------------------------------------------------
# MetricsRegistry isolation and reset (the PR-4 bugfix)
# ----------------------------------------------------------------------

def test_registries_are_instance_isolated():
    items, queries = make_mf_like(200, 10, seed=81)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=1)) as service_a:
        service_a.batch(queries, k=4)
        snap_a = service_a.metrics_snapshot()
    with RetrievalService(index, ServiceConfig(workers=1)) as service_b:
        snap_b = service_b.metrics_snapshot()
    assert snap_a["counters"]["queries"] == len(queries)
    assert snap_b["counters"].get("queries", 0) == 0


def test_registry_reset_keeps_object_identity():
    registry = MetricsRegistry("test")
    counter = registry.counter("x")
    hist = registry.histogram("lat")
    counter.inc(3)
    hist.observe(0.5)
    hist.observe(2.0)
    registry.reset()
    assert counter.value == 0
    assert registry.counter("x") is counter
    assert hist.count == 0 and hist.sum == 0.0 and hist.quantile(0.5) == 0.0
    assert registry.histogram("lat") is hist
    assert hist.bounds  # bucket layout survives the reset
    counter.inc(1)
    assert registry.snapshot()["counters"]["x"] == 1


def test_registry_reset_clears_stage_timings():
    items, queries = make_mf_like(200, 10, seed=82)
    index = FexiproIndex(items)
    registry = MetricsRegistry()
    config = ServiceConfig(workers=1, collect_timings=True)
    with RetrievalService(index, config, registry) as service:
        service.batch(queries, k=4)
    assert sum(registry.stage_timings.as_dict().values()) > 0
    registry.reset()
    assert sum(registry.stage_timings.as_dict().values()) == 0.0


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def test_cli_serve_cache_section(capsys):
    from repro.cli import main
    assert main(["serve", "--scale", "0.02", "--queries", "6",
                 "--workers", "2", "--k", "4", "--cache-capacity", "8"]) == 0
    out = capsys.readouterr().out
    assert "cache" in out.lower()
    assert "prefix (k=2)" in out


def test_cli_serve_cache_section_exits_on_drift(monkeypatch):
    # A cache that hands out wrong scores must fail the demo, not just
    # print a False.
    from repro.cli import main

    copy_result = cache_module._copy_result

    def corrupted(result, k):
        out = copy_result(result, k)
        out.scores = [s + 1.0 for s in out.scores]
        return out

    monkeypatch.setattr(cache_module, "_copy_result", corrupted)
    with pytest.raises(SystemExit, match="drifted"):
        main(["serve", "--scale", "0.02", "--queries", "6",
              "--workers", "1", "--k", "4", "--cache-capacity", "8"])


# ----------------------------------------------------------------------
# budget interaction (DESIGN.md §2.13): truncated results are never
# cached, hits keep their certified band, and warm starts never corrupt
# a budgeted scan
# ----------------------------------------------------------------------

def test_store_rejects_budget_truncated_results():
    items, queries = make_mf_like(200, 10, seed=73)
    index = FexiproIndex(items)
    result = index.query(queries[0], 4)
    cache = QueryCache(8)
    result.stats.budget_exhausted = 1
    assert not cache.store(index, queries[0], 4, result)
    assert cache.stores == 0 and len(cache) == 0
    result.stats.budget_exhausted = 0
    assert cache.store(index, queries[0], 4, result)


def test_budget_mode_service_never_caches_truncated_results():
    items, queries = make_mf_like(600, 16, seed=21)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=1, cache_capacity=32,
                           budget_flops=100 * 16.0)
    with RetrievalService(index, config) as service:
        first = service.batch(queries[:6], k=5)
        second = service.batch(queries[:6], k=5)
        snapshot = service.metrics_snapshot()
    complete = sum(1 for r in first.results if r.complete)
    assert first.budget_hits >= 1
    assert first.budget_hits + complete == 6
    # Only the queries that finished inside their budget were stored;
    # truncated answers are never cached, so the rerun re-scans them.
    assert snapshot["cache"]["size"] == complete
    assert second.cache_hits == complete
    for p, r in zip(second.provenance, first.results):
        assert p == ("hit" if r.complete else "cold")


def test_infinite_budget_results_are_cached_and_serve_smaller_k():
    items, queries = make_mf_like(600, 16, seed=21)
    index = FexiproIndex(items, variant="F-SIR")
    truth_big = [index.query(q, 9) for q in queries[:6]]
    truth_small = [index.query(q, 4) for q in queries[:6]]
    config = ServiceConfig(workers=1, cache_capacity=32,
                           budget_flops=math.inf)
    with RetrievalService(index, config) as service:
        first = service.batch(queries[:6], k=9)
        hot = service.batch(queries[:6], k=9)
        prefix = service.batch(queries[:6], k=4)
    assert first.complete and first.budget_hits == 0
    assert all(p == "hit" for p in hot.provenance)
    assert all(p == "hit" for p in prefix.provenance)
    for truth, a, b in zip(truth_big, first.results, hot.results):
        _assert_bitwise(truth, a)
        _assert_bitwise(truth, b)
    for truth, got in zip(truth_small, prefix.results):
        _assert_bitwise(truth, got)


def test_budget_mode_hits_keep_their_certified_band():
    # A budget-mode result carries its band; a hit replays it, and a
    # prefix hit keeps the first k lower bounds and the tail cap, which
    # still bounds every item the deeper scan never visited.
    items, queries = make_mf_like(600, 16, seed=21)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(cache_capacity=64, budget_flops=1e9, workers=1)
    with RetrievalService(index, config) as service:
        first = service.batch(queries[:5], k=6)
        hot = service.batch(queries[:5], k=6)
        prefix = service.batch(queries[:5], k=3)
    assert all(r.bounds is not None for r in first.results)
    assert all(p == "hit" for p in hot.provenance + prefix.provenance)
    for q, a, b, c in zip(queries, first.results, hot.results,
                          prefix.results):
        assert b.bounds == a.bounds
        assert c.bounds.lower == a.bounds.lower[:3]
        assert c.bounds.tail_upper == a.bounds.tail_upper
        assert c.bounds.certified
        ceiling = max(c.bounds.kth_lower, c.bounds.tail_upper)
        scores = items @ q
        unreturned = np.setdiff1d(np.arange(len(items)), c.ids)
        assert float(scores[unreturned].max()) <= ceiling + 1e-9


def test_warm_start_with_finite_budget_stays_exact_and_certified():
    """A public warm start + a finite budget: every returned score is
    exact, and no unreturned item beats the certified band, even though
    the seeded threshold may exclude prefix items a cold budgeted scan
    would keep.
    """
    items, queries = make_mf_like(600, 16, seed=21)
    index = FexiproIndex(items, variant="F-SIR")
    truncated = 0
    for q in queries[:6]:
        result = _seeded(index, q, 4, index.query(q, 9),
                         budget=FlopBudget(120 * 16.0))
        truncated += result.stats.budget_exhausted
        scores = items @ q
        for item_id, score in zip(result.ids, result.scores):
            assert score == pytest.approx(float(scores[item_id]),
                                          rel=1e-9, abs=1e-12)
        ceiling = max(result.bounds.kth_lower, result.bounds.tail_upper)
        returned = set(result.ids)
        for item_id in range(len(items)):
            if item_id not in returned:
                assert float(scores[item_id]) <= ceiling + 1e-9
    assert truncated >= 1


# ----------------------------------------------------------------------
# Live catalogs: no cached answer or seed crosses a compaction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("flavour", [
    "single", pytest.param("sharded", marks=needs_processes)])
def test_served_answers_equal_fresh_scans_after_compaction(flavour):
    """A compaction keeps the visible items but refits the SVD basis, so
    a fresh scan rounds their scores differently.  Every answer served
    after the fold — hit or scan — must equal a fresh ``index.query`` in
    ids and score bits, never a cached pre-fold answer.
    """
    items, queries = make_mf_like(400, 14, seed=81)
    extra, __ = make_mf_like(30, 14, seed=82)
    if flavour == "single":
        index = single = FexiproIndex(items, variant="F-SIR")
    else:
        index = ShardedFexiproIndex(items, shards=3, variant="F-SIR",
                                    executor="process")
        single = index.index
    config = ServiceConfig(workers=2, cache_capacity=64)
    with RetrievalService(index, config) as service:
        index.add_items(extra[:8])
        index.remove_items([3, 11])
        before = service.batch(queries, k=6)
        assert all(p == "cold" for p in before.provenance)
        assert service.batch(queries, k=6).cache_hits == len(queries)
        assert index.compact()
        after = service.batch(queries, k=6)
        assert all(p == "cold" for p in after.provenance)
        for q, got in zip(queries, after.results):
            _assert_bitwise(single.query(q, 6), got)
        # The fold really moved score bits, so a pre-fold hit would
        # have been caught.
        assert any(a.scores != b.scores
                   for a, b in zip(before.results, after.results))
        again = service.batch(queries, k=6)
        assert again.cache_hits == len(queries)
        for a, b in zip(after.results, again.results):
            _assert_bitwise(a, b)


def test_hits_and_prefix_hits_are_snapshot_bound_across_compaction():
    """A cached answer is expressed in the producing snapshot's SVD
    basis; a post-compaction scan runs in a new basis where those bits
    could differ by an ulp, so no cached entry crosses the fold — at its
    own k or any smaller one.  The queries still come back exact, just
    cold.
    """
    items, queries = make_mf_like(400, 14, seed=84)
    index = FexiproIndex(items, variant="F-SIR")
    index.add_items(items[:5] * 0.8)
    cache = QueryCache(32)
    q = np.ascontiguousarray(queries[0])
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        cached = service.batch(q.reshape(1, -1), k=9).results[0]
        old = index._live
        assert index.compact()
        snap = index._live

        def probe(target, k):
            # A refused entry is dropped, so re-store the pre-fold
            # answer before every probe.
            cache.store(old, q, 9, cached)
            return cache.lookup(target, q, k).kind

        # Against the snapshot that produced it, the entry serves...
        assert probe(old, 9) == "hit"
        assert probe(old, 4) == "hit"
        # ...after the fold, the hit and the prefix hit are both refused
        # (and dropped).
        for k in (9, 4):
            dropped = cache.invalidations
            assert probe(snap, k) == "miss"
            assert cache.invalidations == dropped + 1
        smaller = service.batch(q.reshape(1, -1), k=4)
        assert smaller.provenance == ["cold"]
        _assert_bitwise(index.query(q, 4), smaller.results[0])


def test_repeated_rows_are_scanned_and_stored_once():
    # Rows with equal query bytes (here also -0.0 against +0.0) are
    # probed, scanned and stored once; every copy gets its own result.
    items, queries = make_mf_like(500, 12, seed=31)
    index = FexiproIndex(items)
    twin = queries[2].copy()
    twin[twin == 0.0] = -0.0
    rows = np.vstack([queries[0], queries[1], queries[0], queries[2],
                      queries[1], queries[0], twin])
    loop = [index.query(q, 5) for q in rows]
    config = ServiceConfig(cache_capacity=64, workers=1)
    with RetrievalService(index, config) as service:
        cold = service.batch(rows, 5)
        counts = service.cache.snapshot()
        hot = service.batch(rows, 5)
    assert counts["misses"] == 3 and counts["stores"] == 3
    assert counts["size"] == 3
    assert cold.provenance == ["cold"] * len(rows)
    assert hot.provenance == ["hit"] * len(rows)
    assert service.cache.snapshot()["hits"] == 3
    for truth, a, b in zip(loop, cold.results, hot.results):
        _assert_bitwise(truth, a)
        _assert_bitwise(truth, b)
    assert cold.results[0] is not cold.results[2]
    assert cold.results[0].ids is not cold.results[5].ids
    assert cold.stats.scanned == sum(r.stats.scanned
                                     for r in cold.results[:2]) \
        + cold.results[3].stats.scanned


def test_repeated_rows_share_their_first_rows_error(monkeypatch):
    items, queries = make_mf_like(300, 8, seed=32)
    index = FexiproIndex(items)
    rows = np.vstack([queries[0], queries[1], queries[0]])
    config = ServiceConfig(cache_capacity=8, workers=1, retries=0,
                           engine="blocked")
    with RetrievalService(index, config) as service:
        original = service._scan_one

        def failing(work, j, span):
            if work.indices[j] == 0:
                raise RuntimeError("row 0 fails")
            return original(work, j, span)

        monkeypatch.setattr(service, "_scan_one", failing)
        response = service.batch(rows, 3)
    assert [e.index for e in response.errors] == [0, 2]
    assert response.results[0] is None and response.results[2] is None
    _assert_bitwise(index.query(queries[1], 3), response.results[1])


def test_hit_band_follows_the_serving_services_mode():
    # Two services share one cache; each serves hits in its own mode.
    items, queries = make_mf_like(600, 16, seed=33)
    index = FexiproIndex(items, variant="F-SIR")
    cache = QueryCache(64)
    plain = RetrievalService(index, ServiceConfig(workers=1), cache=cache)
    banded = RetrievalService(index, ServiceConfig(workers=1,
                                                   budget_flops=1e9),
                              cache=cache)
    with plain, banded:
        truth = banded.batch(queries[4:8], k=5)
        cache.clear()
        plain.batch(queries[:4], k=5)
        from_plain = banded.batch(queries[:4], k=5)
        stored_banded = banded.batch(queries[4:8], k=5)
        from_banded = plain.batch(queries[4:8], k=5)
        banded_hits = banded.batch(queries[4:8], k=5)
        prefix = banded.batch(queries[:4], k=3)
    assert all(p == "hit" for p in from_plain.provenance)
    assert all(p == "cold" for p in stored_banded.provenance)
    assert all(p == "hit" for p in from_banded.provenance)
    assert all(r.bounds is None for r in from_banded.results)
    for fresh, hit in zip(truth.results, banded_hits.results):
        assert hit.bounds == fresh.bounds
    for q, result, short in zip(queries, from_plain.results,
                                prefix.results):
        fresh = index.query(q, 5, options=ScanOptions(
            budget=FlopBudget(1e9)))
        assert result.bounds == fresh.bounds
        assert short.bounds.lower == fresh.bounds.lower[:3]
        assert short.bounds.tail_upper == fresh.bounds.tail_upper
