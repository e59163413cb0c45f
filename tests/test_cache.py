"""Tests for the exactness-preserving query cache (repro.serve.cache).

The load-bearing property: with a cache in front of a service, every
answer — exact hit, warm-started scan or cold scan — is *bitwise*
identical (ids and scores) to what the cache-less serial scan produces,
across all five paper variants, both engines and the sharded scan,
including adversarial duplicates and ties at the k boundary.
"""

import math

import numpy as np
import pytest

from repro import FexiproIndex, ShardedFexiproIndex
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
from repro.serve.cache import bucket_query_bytes, canonical_query_bytes

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


# ----------------------------------------------------------------------
# The exactness property: hit / warm / cold all equal the serial scan
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("engine", ["blocked", "reference"])
def test_warm_start_bitwise_identical_all_variants(variant, engine):
    items, queries = _adversarial()
    index = FexiproIndex(items, variant=variant, engine=engine)
    truth_big = [index.query(q, 9) for q in queries]
    truth_small = [index.query(q, 4) for q in queries]
    config = ServiceConfig(workers=2, cache_capacity=64)
    with RetrievalService(index, config) as service:
        first = service.batch(queries, k=9)
        assert all(p == "cold" for p in first.provenance)
        hot = service.batch(queries, k=9)
        assert all(p == "hit" for p in hot.provenance)
        # Same queries at smaller k: every scan is warm-started from the
        # cached k-th score, one ulp down.
        warm = service.batch(queries, k=4)
        assert all(p == "warm" for p in warm.provenance)
    for truth, a, b in zip(truth_big, first.results, hot.results):
        _assert_bitwise(truth, a)
        _assert_bitwise(truth, b)
    for truth, got in zip(truth_small, warm.results):
        _assert_bitwise(truth, got)


@needs_processes
def test_warm_start_sharded_intra_mode_bitwise():
    # The process shard fan-out takes a warm seed the way the cache
    # hands one out for a smaller k: the cached k-th score, one ulp down.
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


def test_warm_start_ties_exactly_at_boundary():
    # Duplicate the query's top rows so near-exact ties crowd the cut at
    # every k; warm and cold must break them the same way at each k.
    items, queries = make_mf_like(200, 10, seed=13)
    q = queries[0]
    top = items[np.argsort(-(items @ q))[:3]]
    items = np.vstack([items, top, top])
    index = FexiproIndex(items, variant="F-SIR")
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=16)) as service:
        service.batch(q.reshape(1, -1), k=9)
        for k in range(1, 9):
            warm = service.batch(q.reshape(1, -1), k=k)
            assert warm.provenance == ["warm"]
            _assert_bitwise(index.query(q, k), warm.results[0])


def test_bucket_warm_start_identical():
    items, queries = make_mf_like(500, 16, seed=31)
    q = np.ascontiguousarray(queries[0])
    q2 = q + 1e-9  # perturbed: misses the exact map, shares the bucket
    assert bucket_query_bytes(q, 2) == bucket_query_bytes(q2, 2)
    index = FexiproIndex(items, variant="F-SIR")
    truth = index.query(q2, 5)
    config = ServiceConfig(workers=1, cache_capacity=16,
                           warm_bucket_decimals=2)
    with RetrievalService(index, config) as service:
        service.batch(q.reshape(1, -1), k=5)
        resp = service.batch(q2.reshape(1, -1), k=5)
    assert resp.provenance == ["warm"]
    _assert_bitwise(truth, resp.results[0])


def test_warm_start_disabled_serves_hits_only():
    items, queries = make_mf_like(300, 12, seed=41)
    index = FexiproIndex(items)
    config = ServiceConfig(workers=1, cache_capacity=16, warm_start=False)
    with RetrievalService(index, config) as service:
        service.batch(queries, k=8)
        again = service.batch(queries, k=8)
        smaller = service.batch(queries, k=4)
    assert all(p == "hit" for p in again.provenance)
    assert all(p == "cold" for p in smaller.provenance)
    for q, got in zip(queries, smaller.results):
        _assert_bitwise(index.query(q, 4), got)


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
    assert cold.cache_hits == 0 and cold.warm_queries == 0


def test_response_counters_and_metrics_snapshot():
    items, queries = make_mf_like(300, 12, seed=53)
    index = FexiproIndex(items)
    with RetrievalService(
            index, ServiceConfig(workers=1, cache_capacity=16)) as service:
        service.batch(queries, k=6)
        service.batch(queries, k=6)
        warm = service.batch(queries, k=3)
        snapshot = service.metrics_snapshot()
    assert warm.warm_queries == len(queries)
    cache_section = snapshot["cache"]
    assert cache_section["hits"] == len(queries)
    assert cache_section["warm_hits"] == len(queries)
    assert snapshot["counters"]["cache.hits"] == len(queries)
    assert snapshot["counters"]["cache.warm_queries"] == len(queries)
    assert snapshot["counters"]["cache.cold_queries"] == len(queries)


def test_no_cache_leaves_provenance_none():
    items, queries = make_mf_like(200, 10, seed=54)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=1)) as service:
        resp = service.batch(queries, k=4)
        assert service.metrics_snapshot()["cache"] is None
    assert resp.provenance is None
    assert resp.cache_hits == 0 and resp.warm_queries == 0


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
        now[0] = 20.0
        late = service.batch(queries[:1], k=4)
        assert late.provenance == ["cold"]
        assert cache.expirations == 1
        _assert_bitwise(index.query(queries[0], 4), late.results[0])


def test_store_rejects_incomplete_and_short_results():
    items, queries = make_mf_like(200, 10, seed=73)
    index = FexiproIndex(items)
    result = index.query(queries[0], 4)
    cache = QueryCache(8)
    # Wrong k: a k=5 slot must never hold a 4-item answer.
    assert not cache.store(index, queries[0], 5, result, range(4))
    # Deadline-truncated: not the exact top-k of the whole index.
    result.stats.deadline_hit = 1
    assert not cache.store(index, queries[0], 4, result, range(4))
    assert cache.stores == 0 and len(cache) == 0
    result.stats.deadline_hit = 0
    assert cache.store(index, queries[0], 4, result, range(4))
    assert cache.stores == 1


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
        QueryCache(4, bucket_decimals=-1)
    with pytest.raises(ValidationError):
        ServiceConfig(cache_capacity=-1)
    with pytest.raises(ValidationError):
        ServiceConfig(cache_capacity=4, cache_ttl_s=-2.0)
    with pytest.raises(ValidationError):
        ServiceConfig(cache_capacity=4, warm_bucket_decimals=-3)


def test_bucket_seed_is_strict_lower_bound():
    items, queries = make_mf_like(400, 16, seed=75)
    index = FexiproIndex(items, variant="F-SIR")
    q, q2 = queries[0], queries[0] + 1e-9
    cache = QueryCache(8, bucket_decimals=2)
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        service.batch(q.reshape(1, -1), k=5)
        lookup = cache.lookup(index, q2, 5)
    assert lookup.kind == "warm" and lookup.entry is not None
    from repro.core.index import prepare_query_states
    state = prepare_query_states(index, q2.reshape(1, -1))[0]
    seed = cache.bucket_seed(index, state, lookup.entry, 5)
    true_kth = index.query(q2, 5).scores[-1]
    assert -math.inf < seed < true_kth or seed == -math.inf
    # Stale entries seed nothing.
    lookup.entry.token = ("other-uid", 0)
    assert cache.bucket_seed(index, state, lookup.entry, 5) == -math.inf


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
                 "--workers", "2", "--cache-capacity", "8"]) == 0
    out = capsys.readouterr().out
    assert "cache" in out.lower()
    assert "warm" in out.lower()


def test_cli_serve_no_warm_start_flag():
    from repro.cli import build_parser
    args = build_parser().parse_args(
        ["serve", "--cache-capacity", "4", "--no-warm-start"])
    assert args.cache_capacity == 4
    assert args.warm_start is False


# ----------------------------------------------------------------------
# budget interaction (DESIGN.md §2.13): truncated results are never
# cached, and warm starts never corrupt a budgeted scan
# ----------------------------------------------------------------------

def test_store_rejects_budget_truncated_results():
    items, queries = make_mf_like(200, 10, seed=73)
    index = FexiproIndex(items)
    result = index.query(queries[0], 4)
    cache = QueryCache(8)
    result.stats.budget_exhausted = 1
    assert not cache.store(index, queries[0], 4, result, range(4))
    assert cache.stores == 0 and len(cache) == 0
    result.stats.budget_exhausted = 0
    assert cache.store(index, queries[0], 4, result, range(4))


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


def test_infinite_budget_results_are_cached_and_warm_startable():
    items, queries = make_mf_like(600, 16, seed=21)
    index = FexiproIndex(items, variant="F-SIR")
    truth_big = [index.query(q, 9) for q in queries[:6]]
    truth_small = [index.query(q, 4) for q in queries[:6]]
    config = ServiceConfig(workers=1, cache_capacity=32,
                           budget_flops=math.inf)
    with RetrievalService(index, config) as service:
        first = service.batch(queries[:6], k=9)
        hot = service.batch(queries[:6], k=9)
        warm = service.batch(queries[:6], k=4)
    assert first.complete and first.budget_hits == 0
    assert all(p == "hit" for p in hot.provenance)
    assert all(p == "warm" for p in warm.provenance)
    for truth, a, b in zip(truth_big, first.results, hot.results):
        _assert_bitwise(truth, a)
        _assert_bitwise(truth, b)
    for truth, got in zip(truth_small, warm.results):
        _assert_bitwise(truth, got)


def test_warm_start_with_finite_budget_stays_exact_and_certified():
    """Warm seeds + a finite budget: every returned score is exact, and
    no unreturned item beats the certified band, even though the seeded
    threshold may exclude prefix items a cold budgeted scan would keep.
    """
    items, queries = make_mf_like(600, 16, seed=21)
    index = FexiproIndex(items, variant="F-SIR")
    cache = QueryCache(64)
    # Fill the cache with complete k=9 answers through an unbudgeted
    # service sharing the same external cache.
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as filler:
        filler.batch(queries[:6], k=9)
    assert len(cache) == 6
    config = ServiceConfig(workers=1, budget_flops=120 * 16.0)
    with RetrievalService(index, config, cache=cache) as service:
        warm = service.batch(queries[:6], k=4)
    assert warm.budget_hits >= 1
    assert all(p in ("warm", "hit") for p in warm.provenance)
    for qi, result in enumerate(warm.results):
        scores = items @ queries[qi]
        for item_id, score in zip(result.ids, result.scores):
            assert score == pytest.approx(float(scores[item_id]),
                                          rel=1e-9, abs=1e-12)
        if result.bounds is None:
            continue  # served straight from the cache, complete by proof
        ceiling = max(result.bounds.kth_lower, result.bounds.tail_upper)
        returned = set(result.ids)
        for item_id in range(len(items)):
            if item_id not in returned:
                assert float(scores[item_id]) <= ceiling + 1e-9


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


def test_hits_and_warm_seeds_are_snapshot_bound_across_compaction():
    """Cached answers, larger-k scores and bucket positions are all
    expressed in the producing snapshot's SVD basis; a post-compaction
    scan runs in a new basis where those bits could differ by an ulp, so
    no cached entry crosses the fold — the queries still come back
    exact, just cold.
    """
    items, queries = make_mf_like(400, 14, seed=84)
    index = FexiproIndex(items, variant="F-SIR")
    index.add_items(items[:5] * 0.8)
    cache = QueryCache(32, bucket_decimals=2)
    q = np.ascontiguousarray(queries[0])
    q2 = q + 1e-9  # same bucket, different exact key
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        cached = service.batch(q.reshape(1, -1), k=9).results[0]
        old = index._live
        assert index.compact()
        snap = index._live

        def probe(target, query, k):
            # A refused entry is dropped, so re-store the pre-fold
            # answer before every probe.
            cache.store(old, q, 9, cached, range(9))
            return cache.lookup(target, query, k).kind

        # Against the snapshot that produced it, the entry serves...
        assert probe(old, q, 9) == "hit"
        assert probe(old, q, 4) == "warm"
        assert probe(old, q2, 9) == "warm"
        # ...after the fold, the exact hit, the larger-k warm start and
        # the bucket warm start are all refused (and dropped).
        for query, k in ((q, 9), (q, 4), (q2, 9)):
            dropped = cache.invalidations
            assert probe(snap, query, k) == "miss"
            assert cache.invalidations == dropped + 1
        smaller = service.batch(q.reshape(1, -1), k=4)
        assert smaller.provenance == ["cold"]
        _assert_bitwise(index.query(q, 4), smaller.results[0])


def test_bucket_seed_scores_delta_positions_exactly():
    """A cached entry whose winners live in the delta tier must seed the
    bucket warm start with raw-dot scores — and stay a strict lower
    bound on the neighbour query's true k-th product.
    """
    items, queries = make_mf_like(300, 12, seed=85)
    index = FexiproIndex(items, variant="F-SIR")
    q = np.ascontiguousarray(queries[0])
    q2 = q + 1e-9
    # Delta rows engineered to dominate the top-k for this query family.
    index.add_items(np.vstack([q * 3.0, q * 2.5, q * 2.0]))
    cache = QueryCache(8, bucket_decimals=2)
    with RetrievalService(index, ServiceConfig(workers=1),
                          cache=cache) as service:
        first = service.batch(q.reshape(1, -1), k=4)
        snap = index._live
        assert any(int(i) >= len(items)
                   for i in first.results[0].ids), "delta rows not on top"
        lookup = cache.lookup(snap, q2, 4)
        assert lookup.kind == "warm" and lookup.entry is not None
        from repro.core.index import prepare_query_states
        state = prepare_query_states(snap, q2.reshape(1, -1))[0]
        seed = cache.bucket_seed(snap, state, lookup.entry, 4)
        true_kth = float(index.query(q2, 4).scores[-1])
        assert -math.inf < seed < true_kth
        resp = service.batch(q2.reshape(1, -1), k=4)
        assert resp.provenance == ["warm"]
        _assert_bitwise(index.query(q2, 4), resp.results[0])
