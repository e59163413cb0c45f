"""Tests for the parallel batch serving layer (repro.serve)."""

import numpy as np
import pytest

from repro import FexiproIndex
from repro.core.stats import PruningStats, StageTimings, aggregate_stats
from repro.exceptions import ServiceClosedError, ValidationError
from repro.serve import (
    Counter,
    Histogram,
    MetricsRegistry,
    RetrievalService,
    ServiceConfig,
    process_executor_usable,
    resolve_chunk_size,
)

from conftest import make_mf_like


# ----------------------------------------------------------------------
# Service correctness
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["blocked", "reference"])
def test_pooled_batch_identical_to_serial_loop(engine):
    items, queries = make_mf_like(500, 16, seed=80)
    index = FexiproIndex(items, variant="F-SIR", engine=engine)
    serial = [index.query(q, k=5) for q in queries]
    with RetrievalService(index, ServiceConfig(workers=4,
                                               engine=None)) as service:
        response = service.batch(queries, k=5)
    assert len(response) == len(serial)
    for a, b in zip(serial, response.results):
        assert a.ids == b.ids
        assert a.scores == b.scores
        assert a.stats.as_dict() == b.stats.as_dict()
    total = aggregate_stats(r.stats for r in serial)
    assert response.stats.as_dict() == total.as_dict()


@pytest.mark.skipif(not process_executor_usable(),
                    reason="no multiprocessing start method available")
def test_chunking_choices_do_not_change_results():
    # Chunking splits only worker-process tasks, so pin the process
    # executor and the engine the workers run.
    items, queries = make_mf_like(400, 12, seed=81)
    index = FexiproIndex(items, variant="F-SIR")
    serial = [index.query(q, k=4) for q in queries]
    for workers, chunk in ((1, None), (3, 1), (2, 7), (4, 100)):
        config = ServiceConfig(workers=workers, chunk_size=chunk,
                               executor="process", engine="blocked")
        with RetrievalService(index, config) as service:
            results = service.batch(queries, k=4).results
            pool = service.metrics_snapshot()["executor"]["pool"]
        size = resolve_chunk_size(len(queries), workers, chunk)
        assert sum(pool["tasks_per_worker"].values()) == \
            -(-len(queries) // size)
        for got, want in zip(results, serial):
            assert got.ids == want.ids
            assert got.scores == want.scores


def test_service_single_query_and_default_k():
    items, queries = make_mf_like(300, 10, seed=82)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=2,
                                               default_k=7)) as service:
        result = service.query(queries[0])
        assert result.ids == index.query(queries[0], k=7).ids
        assert len(result.ids) == 7


def test_service_per_query_elapsed_and_prepare_time():
    items, queries = make_mf_like(300, 10, seed=83)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=2)) as service:
        response = service.batch(queries[:8], k=3)
    assert response.prepare_time > 0.0
    assert all(r.elapsed > 0.0 for r in response.results)
    assert response.elapsed >= max(r.elapsed for r in response.results)
    assert response.throughput > 0.0


def test_service_collects_stage_timings_optionally():
    items, queries = make_mf_like(300, 10, seed=84)
    index = FexiproIndex(items, variant="F-SIR")
    with RetrievalService(index, ServiceConfig(workers=2)) as service:
        timed = service.batch(queries[:6], k=3)
    assert timed.timings is not None
    assert timed.timings.prepare > 0.0
    assert timed.timings.total > 0.0
    with RetrievalService(
            index, ServiceConfig(workers=2,
                                 collect_timings=False)) as service:
        untimed = service.batch(queries[:6], k=3)
    assert untimed.timings is None
    for a, b in zip(timed.results, untimed.results):
        assert a.ids == b.ids


def test_service_empty_batch():
    items, __ = make_mf_like(100, 8, seed=85)
    index = FexiproIndex(items)
    with RetrievalService(index) as service:
        response = service.batch(np.empty((0, 8)), k=3)
    assert len(response) == 0
    assert response.stats.as_dict() == PruningStats().as_dict()


def test_service_validates_queries():
    items, queries = make_mf_like(100, 8, seed=86)
    index = FexiproIndex(items)
    bad = np.array(queries[:3])
    bad[0, 0] = np.inf
    with RetrievalService(index) as service:
        with pytest.raises(ValidationError):
            service.batch(bad, k=3)
        with pytest.raises(Exception):
            service.batch(np.ones((2, 9)), k=3)


def test_service_feeds_metrics_registry():
    items, queries = make_mf_like(300, 10, seed=87)
    index = FexiproIndex(items, variant="F-SIR")
    with RetrievalService(index, ServiceConfig(workers=2,
                                               engine="blocked")) as service:
        service.batch(queries[:10], k=4)
        service.batch(queries[:5], k=4)
        snapshot = service.metrics_snapshot()
    assert snapshot["counters"]["batches"] == 2
    assert snapshot["counters"]["queries"] == 15
    serial = [index.query(q, k=4) for q in queries[:10]]
    serial += [index.query(q, k=4) for q in queries[:5]]
    total = aggregate_stats(r.stats for r in serial)
    for key, value in total.as_dict().items():
        assert snapshot["counters"][f"pruning.{key}"] == value
    assert snapshot["histograms"]["latency.scan_seconds"]["count"] == 15
    assert snapshot["histograms"]["latency.batch_seconds"]["count"] == 2
    assert sum(snapshot["stage_seconds"].values()) > 0.0


def test_closed_service_refuses_work():
    items, queries = make_mf_like(100, 8, seed=88)
    index = FexiproIndex(items)
    service = RetrievalService(index, ServiceConfig(workers=2))
    service.batch(queries[:4], k=2)
    service.close()
    assert service.closed
    service.close()  # idempotent, not an error
    with pytest.raises(ServiceClosedError):
        service.batch(queries[:4], k=2)
    with pytest.raises(ServiceClosedError):
        service.query(queries[0], k=2)


# ----------------------------------------------------------------------
# Process-task chunking
# ----------------------------------------------------------------------

def test_resolve_chunk_size_defaults_and_overrides():
    assert resolve_chunk_size(100, 4) == 7          # ceil(100 / 16)
    assert resolve_chunk_size(3, 8) == 1
    assert resolve_chunk_size(0, 4) == 1
    assert resolve_chunk_size(100, 4, chunk_size=25) == 25
    with pytest.raises(ValidationError):
        resolve_chunk_size(10, 4, chunk_size=0)
    with pytest.raises(ValidationError):
        resolve_chunk_size(10, 0)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_counter_is_monotone():
    counter = Counter()
    counter.inc()
    counter.inc(5)
    assert counter.value == 6
    with pytest.raises(ValidationError):
        counter.inc(-1)


def test_histogram_buckets_and_quantiles():
    hist = Histogram(buckets=(0.001, 0.01, 0.1))
    for value in (0.0005, 0.002, 0.003, 0.05, 5.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["count"] == 5
    assert snap["buckets"]["le_0.001"] == 1
    assert snap["buckets"]["le_0.01"] == 2
    assert snap["buckets"]["le_0.1"] == 1
    assert snap["buckets"]["overflow"] == 1
    assert snap["max"] == 5.0
    assert hist.quantile(0.5) == 0.01
    assert hist.quantile(1.0) == 5.0  # overflow resolves to the max seen
    assert hist.mean == pytest.approx(sum((0.0005, 0.002, 0.003, 0.05, 5.0))
                                      / 5)
    with pytest.raises(ValidationError):
        hist.quantile(1.5)
    with pytest.raises(ValidationError):
        Histogram(buckets=())


def test_registry_reuses_and_rolls_up():
    registry = MetricsRegistry(name="test")
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")
    registry.observe_pruning(PruningStats(n_items=10, scanned=4,
                                          full_products=2))
    registry.observe_pruning(PruningStats(n_items=10, scanned=6,
                                          full_products=1))
    assert registry.counter("pruning.scanned").value == 10
    assert registry.counter("pruning.full_products").value == 3
    timing = StageTimings(integer=0.5, select=0.25)
    registry.record_stage_timings(timing)
    registry.record_stage_timings(timing)
    assert registry.stage_timings.integer == pytest.approx(1.0)
    snapshot = registry.snapshot()
    assert snapshot["name"] == "test"
    assert snapshot["stage_seconds"]["select"] == pytest.approx(0.5)


def test_stage_timings_merge_and_total():
    a = StageTimings(prepare=1.0, integer=2.0)
    b = StageTimings(integer=0.5, full=0.25)
    a.merge(b)
    assert a.integer == 2.5
    assert a.total == pytest.approx(3.75)
    assert set(a.as_dict()) == {"prepare", "integer", "incremental",
                                "monotone", "full", "select"}


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------

def test_service_config_validation():
    with pytest.raises(ValidationError):
        ServiceConfig(workers=0)
    with pytest.raises(ValidationError):
        ServiceConfig(chunk_size=0)
    with pytest.raises(ValidationError):
        ServiceConfig(default_k=0)
    config = ServiceConfig(workers=2, chunk_size=5, default_k=3)
    assert (config.workers, config.chunk_size, config.default_k) == (2, 5, 3)


def test_service_config_resilience_validation():
    with pytest.raises(ValidationError):
        ServiceConfig(deadline_ms=0)
    with pytest.raises(ValidationError):
        ServiceConfig(deadline_ms=-5.0)
    with pytest.raises(ValidationError):
        ServiceConfig(deadline_ms=True)
    with pytest.raises(ValidationError):
        ServiceConfig(truncation_policy="explode")
    with pytest.raises(ValidationError):
        ServiceConfig(retries=-1)
    with pytest.raises(ValidationError):
        ServiceConfig(retry_backoff_ms=-1.0)
    for removed in ("intra_query_batch_max", "breaker_threshold",
                    "breaker_cooldown_ms"):
        with pytest.raises(TypeError):
            ServiceConfig(**{removed: 1})
    config = ServiceConfig(deadline_ms=50.0, truncation_policy="fail",
                           retries=2, retry_backoff_ms=1.0)
    assert config.deadline_ms == 50.0
    assert config.truncation_policy == "fail"
    assert config.retries == 2


# ----------------------------------------------------------------------
# Batch mode
# ----------------------------------------------------------------------

def test_plain_index_never_routes_intra():
    items, queries = make_mf_like(300, 10, seed=90)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=2,
                                               engine=None)) as service:
        response = service.batch(queries[:1], k=3)
        snapshot = service.metrics_snapshot()
    assert response.mode == "inter"
    assert snapshot["shards"] is None


# ----------------------------------------------------------------------
# Worker resolution
# ----------------------------------------------------------------------

def test_metrics_snapshot_reports_deployment_shape():
    import os

    items, queries = make_mf_like(200, 8, seed=91)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(workers=3)) as service:
        service.batch(queries[:2], k=3)
        snapshot = service.metrics_snapshot()
    workers = snapshot["workers"]
    assert workers["requested"] == 3
    # "resolved" counts the worker processes the resolved executor
    # starts; the in-process loop is one worker.
    process = snapshot["executor"]["mode"] == "process"
    assert workers["resolved"] == (3 if process else 1)
    assert workers["host_cores"] == (os.cpu_count() or 1)
    config = ServiceConfig(workers=3, executor="process")
    with RetrievalService(index, config) as service:
        workers = service.metrics_snapshot()["workers"]
    assert (workers["requested"], workers["resolved"]) == (3, 3)
    config = ServiceConfig(workers=3, executor="serial")
    with RetrievalService(index, config) as service:
        workers = service.metrics_snapshot()["workers"]
    assert (workers["requested"], workers["resolved"]) == (1, 1)
