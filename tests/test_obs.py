"""Observability layer tests: tracing, EXPLAIN, Prometheus exposition.

The load-bearing section is the EXPLAIN-vs-counters contract (the PR's
acceptance criterion): for every paper variant, both engines and the
sharded index (which explains its inner single scan), the per-rule
candidate accounts of ``explain()`` must sum *exactly* to the
``pruning.*`` counters a ``MetricsRegistry`` would aggregate for the
same scan — no drift allowed between the two views.
"""

import json
import math
import urllib.request

import pytest

from repro import (
    FexiproIndex,
    JsonLinesSink,
    ScanOptions,
    ShardedFexiproIndex,
    Tracer,
    TracingError,
    render_prometheus,
)
from repro.core.variants import VARIANTS
from repro.obs.explain import STAGES, stage_accounts
from repro.obs.http import MetricsServer
from repro.serve import (
    MetricsRegistry,
    RetrievalService,
    ServiceConfig,
    process_executor_usable,
)

from conftest import make_mf_like, span_shape

ALL_VARIANTS = sorted(VARIANTS)
K = 7


def make_index(variant, engine="blocked", sharded=False):
    items, queries = make_mf_like(700, 16, seed=5)
    if sharded:
        return ShardedFexiproIndex(items, shards=3, variant=variant), queries
    return FexiproIndex(items, variant=variant, engine=engine), queries


# ----------------------------------------------------------------------
# Tracer / Span units
# ----------------------------------------------------------------------


def test_span_nesting_and_ring():
    tracer = Tracer()
    root = tracer.start("root", k=3)
    child = root.child("inner", shard=1)
    child.event("poll", threshold=0.5)
    child.end()
    root.set(outcome="done").end()
    names = [s.name for s in tracer.spans]
    assert names == ["inner", "root"]  # children end (export) first
    inner, outer = tracer.spans
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert inner.events[0]["name"] == "poll"
    assert inner.events[0]["threshold"] == 0.5
    assert outer.attributes == {"k": 3, "outcome": "done"}
    assert outer.duration >= 0.0
    assert root.end() is root  # idempotent: no double export
    assert len(tracer.spans) == 2


def test_sampling_zero_returns_none_and_one_always_samples():
    off = Tracer(sample_rate=0.0)
    assert off.start("x") is None
    assert off.snapshot()["started_total"] == 1
    assert off.snapshot()["sampled_total"] == 0
    on = Tracer(sample_rate=1.0)
    assert on.start("x") is not None
    partial = Tracer(sample_rate=0.5, seed=0)
    decisions = {partial.start("x") is None for _ in range(64)}
    assert decisions == {True, False}  # both outcomes occur


def test_ring_evicts_oldest():
    tracer = Tracer(ring_size=3)
    for i in range(5):
        tracer.start(f"s{i}").end()
    assert [s.name for s in tracer.spans] == ["s2", "s3", "s4"]
    assert tracer.snapshot()["exported_total"] == 5
    assert tracer.snapshot()["buffered"] == 3


def test_jsonl_sink_writes_one_object_per_span(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(sink=str(path)) as tracer:
        tracer.start("a", q=1).end()
        tracer.start("b").end()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records] == ["a", "b"]
    assert records[0]["attributes"] == {"q": 1}
    assert records[0]["duration"] is not None


def test_failing_sink_is_counted_not_raised():
    def explode(span):
        raise RuntimeError("sink down")

    tracer = Tracer(sink=explode)
    tracer.start("a").end()
    assert tracer.export_failures == 1
    assert len(tracer.spans) == 1  # ring still got the span


def test_span_context_manager_records_error():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.start("work") as span:
            raise ValueError("boom")
    assert span.attributes["error"] == "ValueError"
    assert span.ended is not None


def test_tracer_validates_configuration():
    with pytest.raises(TracingError):
        Tracer(sample_rate=1.5)
    with pytest.raises(TracingError):
        Tracer(sample_rate=True)
    with pytest.raises(TracingError):
        Tracer(ring_size=0)
    with pytest.raises(TracingError):
        JsonLinesSink("/nonexistent-dir-xyz/trace.jsonl")


def test_closed_jsonl_sink_failure_is_absorbed(tmp_path):
    sink = JsonLinesSink(tmp_path / "t.jsonl")
    sink.close()
    tracer = Tracer(sink=sink)
    tracer.start("a").end()
    assert tracer.export_failures == 1


# ----------------------------------------------------------------------
# EXPLAIN == counters (the acceptance contract)
# ----------------------------------------------------------------------


def assert_explain_matches_registry(explanation):
    """The chain must sum back to what a registry would aggregate."""
    registry = MetricsRegistry()
    registry.observe_pruning(explanation.result.stats)
    counters = registry.snapshot()["counters"]
    by_stage = {a.stage: a for a in explanation.stages}
    assert counters["pruning.pruned_integer_partial"] == \
        by_stage["integer_partial"].pruned
    assert counters["pruning.pruned_integer_full"] == \
        by_stage["integer_full"].pruned
    assert counters["pruning.pruned_incremental"] == \
        by_stage["incremental"].pruned
    assert counters["pruning.pruned_monotone"] == \
        by_stage["monotone"].pruned
    assert counters["pruning.full_products"] == \
        by_stage["full_product"].survived
    assert counters["pruning.scanned"] == \
        by_stage["cauchy_schwarz"].survived
    assert counters["pruning.n_items"] == \
        by_stage["cauchy_schwarz"].entered
    # And the cascade chain itself balances stage to stage.
    pruned_after_scan = sum(a.pruned for a in explanation.stages[1:])
    assert counters["pruning.scanned"] == \
        pruned_after_scan + counters["pruning.full_products"]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("engine", ["reference", "blocked"])
def test_explain_counts_sum_to_counters_single(variant, engine):
    index, queries = make_index(variant, engine=engine)
    for q in queries[:4]:
        explanation = index.explain(q, K)
        assert explanation.engine == engine
        assert explanation.mode == "single"
        assert [a.stage for a in explanation.stages] == list(STAGES)
        assert_explain_matches_registry(explanation)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_explain_counts_sum_to_counters_sharded(variant):
    # A sharded index explains the single scan its inner index runs in
    # this process: the same account, counter for counter.
    sharded, queries = make_index(variant, sharded=True)
    for q in queries[:4]:
        explanation = sharded.explain(q, K)
        assert explanation.mode == "single"
        assert_explain_matches_registry(explanation)
        inner = sharded.index.explain(q, K)
        assert explanation.counters == inner.counters
        assert explanation.counters == \
            sharded.index.query(q, K).stats.as_dict()
        assert explanation.result.ids == inner.result.ids


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_explain_result_matches_query(variant):
    index, queries = make_index(variant)
    for q in queries[:4]:
        expected = index.query(q, K)
        explanation = index.explain(q, K)
        assert explanation.result.ids == expected.ids
        assert explanation.result.scores == expected.scores
        assert explanation.result.stats.as_dict() == \
            expected.stats.as_dict()


def test_explain_threshold_trajectory_and_spans():
    index, queries = make_index("F-SIR")
    explanation = index.explain(queries[0], K)
    assert explanation.thresholds, "blocked engine polls at block bounds"
    positions = [p["position"] for p in explanation.thresholds]
    assert positions == sorted(positions)
    assert any(s["name"] == "explain" for s in explanation.spans)
    assert any(s["name"] == "scan" for s in explanation.spans)
    # Reference engine records admitted threshold raises instead.
    ref, _ = make_index("F-SIR", engine="reference")
    ref_exp = ref.explain(queries[0], K)
    values = [p["threshold"] for p in ref_exp.thresholds]
    assert values == sorted(values)  # the threshold only ever rises


def test_explain_respects_warm_start_options():
    index, queries = make_index("F-SIR")
    q = queries[0]
    cold = index.explain(q, K)
    kth = float(cold.result.scores[K - 1])
    seed = math.nextafter(kth, -math.inf)
    warm = index.explain(
        q, K, options=ScanOptions(initial_threshold=seed))
    assert warm.initial_threshold == seed
    assert warm.result.ids == cold.result.ids
    assert warm.result.scores == cold.result.scores
    assert warm.result.stats.full_products <= \
        cold.result.stats.full_products
    assert_explain_matches_registry(warm)


def test_explain_format_and_to_dict_roundtrip():
    index, queries = make_index("F-SIR")
    explanation = index.explain(queries[0], K)
    text = explanation.format()
    assert "cauchy_schwarz" in text and "full_product" in text
    dumped = explanation.to_dict()
    json.dumps(dumped)  # JSON-ready for real
    assert dumped["counters"] == explanation.counters
    assert len(dumped["stages"]) == len(STAGES)


def test_stage_accounts_chain_is_exact():
    index, queries = make_index("F-SIR")
    result = index.query(queries[0], K)
    accounts = stage_accounts(result.stats)
    for prev, nxt in zip(accounts, accounts[1:]):
        assert nxt.entered == prev.survived
    assert accounts[0].entered == result.stats.n_items
    assert accounts[-1].survived == result.stats.full_products


def test_service_explain_provenance_hit_cold():
    items, queries = make_mf_like(700, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=1, cache_capacity=32)
    with RetrievalService(index, config) as service:
        q = queries[0]
        cold = service.explain(q, K)
        assert cold.provenance == "cold"
        service.batch(q.reshape(1, -1), K)  # populate the cache
        # A hit at the cached k and a prefix hit at a smaller one are
        # both explained by the same cold scan a miss would run.
        for k, want in ((K, cold), (K - 2, index.explain(q, K - 2))):
            hit = service.explain(q, k)
            assert hit.provenance == "hit"
            assert hit.initial_threshold == -math.inf
            assert hit.result.ids == want.result.ids
            assert hit.result.scores == want.result.scores
            assert hit.counters == want.counters
            assert_explain_matches_registry(hit)


def test_sharded_service_explains_the_scan_it_serves():
    # The service scans a sharded index's inner index, and EXPLAIN
    # accounts for that same single scan.
    items, queries = make_mf_like(700, 16, seed=5)
    sharded = ShardedFexiproIndex(items, shards=3, variant="F-SIR")
    config = ServiceConfig(workers=1, collect_timings=False,
                           engine="blocked")
    with RetrievalService(sharded, config) as service:
        explanation = service.explain(queries[0], K)
        served = service.batch(queries[:1], K).results[0]
    assert explanation.provenance == "cold"
    assert explanation.mode == "single"
    assert explanation.result.ids == served.ids
    assert explanation.result.scores == served.scores
    assert explanation.counters == served.stats.as_dict()


# ----------------------------------------------------------------------
# Service tracing integration
# ----------------------------------------------------------------------


def test_service_batch_emits_span_tree():
    items, queries = make_mf_like(700, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    # Pinned to serial: in-process spans are the executor's contract,
    # and "auto" may pick worker processes on a multi-core host.
    config = ServiceConfig(workers=2, trace_sample_rate=1.0,
                           executor="serial")
    with RetrievalService(index, config) as service:
        service.batch(queries[:3], K)
        spans = service.tracer.spans
    names = {s.name for s in spans}
    assert {"serve.batch", "prepare", "scan"} <= names
    root = [s for s in spans if s.name == "serve.batch"][0]
    assert root.attributes["queries"] == 3
    assert root.attributes["mode"] == "inter"
    scans = [s for s in spans if s.name == "scan"]
    assert len(scans) == 3
    assert all(s.trace_id == root.trace_id for s in scans)
    assert all(s.parent_id == root.span_id for s in scans)


@pytest.mark.skipif(not process_executor_usable(),
                    reason="no multiprocessing start method available")
def test_sharded_query_traces_shard_children():
    # The process fan-out rebuilds one ``scan.shard`` child per shard
    # from the workers' outcomes.
    items, queries = make_mf_like(700, 16, seed=5)
    tracer = Tracer(sample_rate=1.0)
    root = tracer.start("scan.sharded", query=0)
    with ShardedFexiproIndex(items, shards=3, variant="F-SIR",
                             executor="process") as sharded:
        sharded.query_detailed(queries[0], K, options=ScanOptions(span=root))
    root.end()
    spans = tracer.spans
    names = [s.name for s in spans]
    assert "scan.sharded" in names
    assert names.count("scan.shard") == 3
    fanout = [s for s in spans if s.name == "scan.sharded"][0]
    shards = [s for s in spans if s.name == "scan.shard"]
    assert all(s.parent_id == fanout.span_id for s in shards)
    assert {s.attributes["outcome"] for s in shards} <= \
        {"scanned", "skipped", "empty", "deadline"}


def test_in_process_sharded_query_traces_the_single_scan():
    items, queries = make_mf_like(700, 16, seed=5)
    sharded = ShardedFexiproIndex(items, shards=3, variant="F-SIR")
    shapes = []
    for index in (sharded, sharded.index):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start("scan", query=0)
        index.query(queries[0], K, options=ScanOptions(span=root))
        root.end()
        shapes.append([span_shape(s) for s in tracer.spans])
    # An armed span keeps "auto" in process: no shard children, the
    # single scan's events.
    assert shapes[0] == shapes[1]
    assert [name for name, __, __ in shapes[0]] == ["scan"]


def test_service_tracing_disabled_by_default():
    items, queries = make_mf_like(400, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    with RetrievalService(index, ServiceConfig(workers=1)) as service:
        assert service.tracer is None
        response = service.batch(queries[:2], K)
        assert response.complete


def test_traced_results_identical_to_untraced():
    items, queries = make_mf_like(700, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    with RetrievalService(index, ServiceConfig(workers=1,
                                               engine="blocked")) as plain:
        base = plain.batch(queries, K)
    traced_config = ServiceConfig(workers=1, trace_sample_rate=1.0,
                                  engine="blocked")
    with RetrievalService(index, traced_config) as traced:
        shadow = traced.batch(queries, K)
    for a, b in zip(base.results, shadow.results):
        assert a.ids == b.ids
        assert a.scores == b.scores
        assert a.stats.as_dict() == b.stats.as_dict()


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------


def test_render_prometheus_counters_and_histograms():
    registry = MetricsRegistry()
    registry.counter("queries").inc(5)
    registry.histogram("latency.scan_seconds").observe(0.002)
    registry.histogram("latency.scan_seconds").observe(100.0)  # overflow
    text = render_prometheus(registry.snapshot())
    lines = text.splitlines()
    assert "repro_queries_total 5" in lines
    assert "# TYPE repro_queries_total counter" in lines
    assert 'repro_latency_scan_seconds_bucket{le="+Inf"} 2' in lines
    assert "repro_latency_scan_seconds_count 2" in lines
    # Buckets must be cumulative and non-decreasing.
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines
              if line.startswith("repro_latency_scan_seconds_bucket")]
    assert counts == sorted(counts)


def test_render_prometheus_service_sections():
    items, queries = make_mf_like(400, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=2, cache_capacity=8,
                           trace_sample_rate=1.0)
    with RetrievalService(index, config) as service:
        service.batch(queries[:3], K)
        text = render_prometheus(service.metrics_snapshot())
    assert 'repro_workers{kind="requested"} 2' in text
    assert "repro_cache_size" in text
    assert "repro_tracer_exported_total" in text
    assert "repro_pruning_full_products_total" in text


def test_metrics_server_scrape_and_healthz():
    items, queries = make_mf_like(400, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    service = RetrievalService(index, ServiceConfig(workers=1))
    server = service.start_metrics_server(port=0)
    assert server is service.metrics_server
    assert service.start_metrics_server() is server  # idempotent
    try:
        service.batch(queries[:2], K)
        with urllib.request.urlopen(f"{server.url}/metrics") as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4")
            body = resp.read().decode("utf-8")
        assert "repro_queries_total 2" in body
        with urllib.request.urlopen(f"{server.url}/healthz") as resp:
            assert resp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope")
        assert excinfo.value.code == 404
        assert server.scrapes_total == 1
    finally:
        service.close()
    assert not server.healthy  # /healthz would now be 503


def test_metrics_server_from_config_port_and_close():
    items, _ = make_mf_like(400, 16, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=1, metrics_port=0)
    service = RetrievalService(index, config)
    assert service.metrics_server is not None
    url = service.metrics_server.url
    with urllib.request.urlopen(f"{url}/healthz") as resp:
        assert resp.status == 200
    service.close()
    with pytest.raises(Exception):
        urllib.request.urlopen(f"{url}/healthz", timeout=1.0)


def test_metrics_server_wraps_bare_registry():
    registry = MetricsRegistry()
    registry.counter("queries").inc(3)
    with MetricsServer(registry) as server:
        assert "repro_queries_total 3" in server.render()
    with pytest.raises(TracingError):
        MetricsServer(object())
