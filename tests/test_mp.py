"""Tests for the multi-process scan executor (PR 6).

The contract under test is *bitwise identity*: a scan fanned over worker
processes attached to a shared-memory replica returns the same ids and
scores as the in-process single scan — across every variant, both
parallelism axes, warm-started thresholds and deadline-degraded
prefixes.  A one-worker shard fan-out is serial-equivalent, so its
counters and per-shard reports are pinned too, against the in-process
oracle :func:`conftest.serial_shard_fanout`.  On top of that sit the
fork-safety and replica-staleness properties: per-worker fault injectors
behave identically under ``fork`` and ``spawn``, and a worker can never
attach bytes from a previous index epoch.

The module honours ``REPRO_MP_START`` (the CI start-method matrix knob),
so the same tests run under fork and spawn legs.
"""

import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import FexiproIndex
from repro.core.options import ScanOptions
from repro.core.persist import identity_token
from repro.core.replica import (
    ReplicaHandle,
    attach_replica,
    discard_replica,
    publish_replica,
)
from repro.core.sharded import ShardedFexiproIndex
from repro.exceptions import (
    IndexIntegrityError,
    InjectedFault,
    ValidationError,
)
from repro.serve import (
    FaultRule,
    MetricsRegistry,
    ProcessScanPool,
    RetrievalService,
    ServiceConfig,
    process_executor_usable,
    resolve_start_method,
)
from repro.serve.resilience import Deadline

from conftest import make_mf_like, serial_shard_fanout

ALL_VARIANTS = ["F-S", "F-I", "F-SI", "F-SR", "F-SIR"]

needs_processes = pytest.mark.skipif(
    not process_executor_usable(),
    reason="no multiprocessing start method available",
)


def assert_same_answer(a, b):
    """Ids and scores bitwise equal (the exactness contract)."""
    assert a.ids == b.ids
    np.testing.assert_array_equal(np.asarray(a.scores),
                                  np.asarray(b.scores))


def assert_same_result(a, b):
    """Full identity: answer plus pruning counters.

    Only serial-equivalent schedules (one scan worker, or per-query
    independent scans) promise counter identity — concurrent shard
    fan-out races the shared threshold, so skip counts legitimately
    vary there.
    """
    assert_same_answer(a, b)
    assert a.stats.as_dict() == b.stats.as_dict()


# ----------------------------------------------------------------------
# Start-method resolution and config validation
# ----------------------------------------------------------------------

def test_resolve_start_method_priority(monkeypatch):
    available = multiprocessing.get_all_start_methods()
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    assert resolve_start_method(available[0]) == available[0]
    monkeypatch.setenv("REPRO_MP_START", available[-1])
    assert resolve_start_method() == available[-1]
    # Explicit argument beats the environment.
    assert resolve_start_method(available[0]) == available[0]


def test_resolve_start_method_rejects_unavailable():
    with pytest.raises(ValidationError):
        resolve_start_method("not-a-start-method")
    assert not process_executor_usable("not-a-start-method")


def test_service_config_validates_executor_knobs():
    with pytest.raises(ValidationError):
        ServiceConfig(executor="bogus")
    with pytest.raises(ValidationError, match="removed"):
        ServiceConfig(executor="thread")
    with pytest.raises(ValidationError):
        ServiceConfig(mp_start_method="bogus")
    assert ServiceConfig(executor="process").executor == "process"


def test_procpool_rejects_bad_workers():
    with pytest.raises(ValidationError):
        ProcessScanPool(0)
    with pytest.raises(ValidationError):
        ProcessScanPool(True)


def test_sharded_index_validates_executor(small_items):
    with pytest.raises(ValidationError):
        ShardedFexiproIndex(small_items, shards=2, executor="bogus")
    with pytest.raises(ValidationError, match="removed"):
        ShardedFexiproIndex(small_items, shards=2, executor="thread")


# ----------------------------------------------------------------------
# Bitwise identity: sharded intra-query fan-out over processes
# ----------------------------------------------------------------------

@needs_processes
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_process_shard_scan_matches_serial(variant):
    # One scan worker: the process schedule is serial-equivalent, so the
    # identity is total — ids, scores and every pruning counter.
    items, queries = make_mf_like(600, 16, seed=90)
    proc = ShardedFexiproIndex(items, shards=4, workers=1,
                               executor="process", variant=variant)
    try:
        for q in queries[:6]:
            oracle, __ = serial_shard_fanout(proc, q, 8)
            assert_same_result(oracle, proc.query(q, k=8))
            assert_same_answer(proc.index.query(q, k=8), oracle)
        snap = proc._resolve_procpool().snapshot()
        assert snap["effective_workers"] >= 1
        assert snap["replicas"], "replica should be published"
    finally:
        proc.close()


@needs_processes
@pytest.mark.parametrize("variant", ["F-S", "F-SIR"])
def test_multiworker_process_scan_matches_serial_answer(variant):
    items, queries = make_mf_like(600, 16, seed=90)
    proc = ShardedFexiproIndex(items, shards=4, workers=3,
                               executor="process", variant=variant)
    try:
        for q in queries[:6]:
            assert_same_answer(proc.index.query(q, k=8), proc.query(q, k=8))
        assert proc._resolve_procpool().snapshot()["effective_workers"] >= 1
    finally:
        proc.close()


@needs_processes
def test_multiworker_fanout_is_exact_on_ties():
    # Rows of +-1 entries tie everywhere.  Two workers run the twelve
    # shards in any interleaving, so a shard may read a later shard's
    # threshold; the shared slot holds one ulp under each offered score,
    # so its own tied rows, which rank ahead, are never pruned.
    rng = np.random.default_rng(0)
    items = rng.choice([-1.0, 1.0], size=(3000, 8))
    queries = rng.integers(-3, 4, size=(150, 8)).astype(float)
    for variant in ("F-I", "F-SIR"):
        proc = ShardedFexiproIndex(items, shards=12, workers=2,
                                   executor="process", variant=variant)
        try:
            for k in (1, 5, 20):
                for q in queries:
                    assert_same_answer(proc.index.query(q, k),
                                       proc.query(q, k))
        finally:
            proc.close()


@needs_processes
def test_process_shard_reports_match_serial():
    items, queries = make_mf_like(500, 12, seed=91)
    proc = ShardedFexiproIndex(items, shards=3, workers=1,
                               executor="process")
    try:
        ra, reports_a = serial_shard_fanout(proc, queries[0], 5)
        rb, reports_b = proc.query_detailed(queries[0], k=5)
        assert_same_result(ra, rb)
        assert len(reports_a) == len(reports_b) == 3
        for sa, sb in zip(reports_a, reports_b):
            assert sa.span == sb.span
            assert sa.skipped == sb.skipped
            assert sa.seeded_threshold == sb.seeded_threshold
            assert sa.stats.as_dict() == sb.stats.as_dict()
    finally:
        proc.close()


@needs_processes
def test_process_warm_start_threshold_matches_serial():
    items, queries = make_mf_like(500, 12, seed=92)
    proc = ShardedFexiproIndex(items, shards=4, workers=1,
                               executor="process")
    try:
        q = queries[0]
        cold = proc.index.query(q, k=6)
        seed = float(np.nextafter(cold.scores[-1], -np.inf))
        options = ScanOptions(initial_threshold=seed)
        a, reports_a = serial_shard_fanout(proc, q, 6, options)
        b, reports_b = proc.query_detailed(q, k=6, options=options)
        assert_same_result(a, b)
        assert a.ids == cold.ids
        assert reports_b[0].seeded_threshold == seed
        assert [r.stats.as_dict() for r in reports_a] == \
            [r.stats.as_dict() for r in reports_b]
    finally:
        proc.close()


@needs_processes
def test_process_expired_deadline_degrades_identically():
    items, queries = make_mf_like(500, 12, seed=93)
    proc = ShardedFexiproIndex(items, shards=4, workers=2,
                               executor="process")
    try:
        q = queries[0]
        deadline = Deadline.after_ms(0.01)
        while not deadline.expired():
            time.sleep(0.001)
        options = ScanOptions(deadline=deadline)
        a, __ = serial_shard_fanout(proc, q, 6, options)
        b, reports = proc.query_detailed(q, k=6, options=options)
        assert_same_result(a, b)
        # Every shard stops at its boundary poll, unscanned.
        assert a.stats.deadline_hit == 4
        assert [r.stats.scanned for r in reports] == [0, 0, 0, 0]
        assert len(a.ids) == 0
    finally:
        proc.close()


@needs_processes
def test_process_fanout_scans_the_delta_pseudo_span():
    items, queries = make_mf_like(500, 12, seed=95)
    proc = ShardedFexiproIndex(items, shards=3, workers=1,
                               executor="process")
    try:
        new_ids = proc.add_items(items[:6] * 1.4)
        proc.remove_items([new_ids[0], 3, 7])
        for q in queries[:4]:
            a, reports_a = serial_shard_fanout(proc, q, 5)
            b, reports_b = proc.query_detailed(q, k=5)
            assert_same_result(a, b)
            assert_same_answer(proc.index.query(q, k=5), b)
            # Three base bands plus the delta tier as one pseudo-span.
            assert [r.span for r in reports_b] == proc.spans + [(500, 506)]
            assert [r.stats.as_dict() for r in reports_a] == \
                [r.stats.as_dict() for r in reports_b]
            assert b.stats.delta_items == 5
    finally:
        proc.close()


# ----------------------------------------------------------------------
# Bitwise identity: the service paths
# ----------------------------------------------------------------------

@needs_processes
@pytest.mark.parametrize("engine", ["blocked", "reference"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_service_inter_process_matches_serial(variant, engine):
    items, queries = make_mf_like(400, 12, seed=94)
    index = FexiproIndex(items, variant=variant, engine=engine)
    config = ServiceConfig(workers=2, executor="process",
                           collect_timings=False, engine=None)
    with RetrievalService(index, config) as service:
        assert service.metrics_snapshot()["executor"]["mode"] == "process"
        response = service.batch(queries[:8], k=6)
        assert response.mode == "inter"
        assert response.errors == []
        for q, got in zip(queries[:8], response.results):
            assert_same_result(index.query(q, k=6), got)


@needs_processes
def test_service_replays_worker_errors_in_process(monkeypatch):
    items, queries = make_mf_like(400, 12, seed=102)
    index = FexiproIndex(items)
    run_query_chunks = ProcessScanPool.run_query_chunks

    def second_query_fails(self, *args, **kwargs):
        outcomes = run_query_chunks(self, *args, **kwargs)
        outcomes[1] = ("err", "RuntimeError", "worker died", False)
        return outcomes

    monkeypatch.setattr(ProcessScanPool, "run_query_chunks",
                        second_query_fails)
    config = ServiceConfig(workers=2, executor="process",
                           trace_sample_rate=1.0, engine="blocked")
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:4], k=5)
        spans = [s for s in service.tracer.spans if s.name == "scan"]
    assert response.errors == []
    for q, got in zip(queries[:4], response.results):
        assert_same_result(index.query(q, k=5), got)
    # Worker outcomes get no per-query span; the replay scans in-process.
    assert [(s.attributes["query"], s.attributes["attempt"])
            for s in spans] == [(1, 0)]


@needs_processes
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
def test_auto_sends_only_multi_row_blocked_batches_to_processes():
    items, queries = make_mf_like(400, 12, seed=103)
    config = ServiceConfig(workers=2, engine=None)

    def pool(index, batch, **overrides):
        with RetrievalService(index, replace(config, **overrides)) \
                as service:
            response = service.batch(batch, k=5)
            assert response.errors == []
            return response.mode, \
                service.metrics_snapshot()["executor"]["pool"]

    index = FexiproIndex(items)
    assert pool(index, queries[:1]) == ("inter", None)
    assert pool(index, queries[:4], engine="gemm") == ("inter/gemm", None)
    with ShardedFexiproIndex(items, shards=2) as sharded:
        assert pool(sharded, queries[:1]) == ("inter", None)
    mode, snapshot = pool(index, queries[:4])
    assert mode == "inter" and snapshot is not None


@needs_processes
def test_service_process_pool_snapshot_counts_workers():
    items, queries = make_mf_like(400, 12, seed=96)
    index = FexiproIndex(items)
    config = ServiceConfig(workers=2, executor="process",
                           collect_timings=True, engine="blocked")
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:10], k=5)
        assert response.errors == []
        pool = service.metrics_snapshot()["executor"]["pool"]
        assert pool["live"]
        assert pool["effective_workers"] >= 1
        assert sum(pool["tasks_per_worker"].values()) >= 1


# ----------------------------------------------------------------------
# Satellite 3: replica epoch coherence across processes
# ----------------------------------------------------------------------

def test_attach_rejects_stale_replica_token(small_items):
    index = FexiproIndex(small_items)
    handle = publish_replica(index)
    try:
        index.add_items(small_items[:1])
        stale = ReplicaHandle(path=handle.path,
                              token=identity_token(index))
        with pytest.raises(IndexIntegrityError, match="stale replica"):
            attach_replica(stale)
        # The original token still matches the published bytes.
        attachment = attach_replica(handle)
        assert tuple(attachment.token) == tuple(handle.token)
        attachment.close()
    finally:
        discard_replica(handle)


def test_worker_attach_closes_the_replica_it_replaces(monkeypatch,
                                                     small_items):
    from repro.serve import procpool

    index = FexiproIndex(small_items)
    old = publish_replica(index)
    index.add_items(small_items[:1])
    new = publish_replica(index)
    monkeypatch.setitem(procpool._WORKER, "attachments", {})
    cache = procpool._WORKER["attachments"]
    try:
        obj = procpool._attach(old.path, old.token)
        [first] = cache.values()
        assert procpool._attach(old.path, old.token) is obj
        # The republish has a fresh path: one entry per index remains,
        # and the attachment it replaced is closed, not leaked.
        procpool._attach(new.path, new.token)
        assert len(cache) == 1
        assert first.obj is None
        [current] = cache.values()
        assert tuple(current.token) == tuple(new.token)
        current.close()
    finally:
        discard_replica(old)
        discard_replica(new)


@needs_processes
def test_epoch_bump_republishes_and_workers_follow():
    items, queries = make_mf_like(400, 12, seed=98)
    proc = ShardedFexiproIndex(items, shards=3, workers=2,
                               executor="process")
    serial = ShardedFexiproIndex(items, shards=3, workers=1)
    try:
        assert_same_answer(serial.query(queries[0], k=5),
                           proc.query(queries[0], k=5))
        pool = proc._resolve_procpool()
        old = pool.snapshot()["replicas"]
        extra = make_mf_like(8, 12, seed=99)[0]
        proc.add_items(extra)
        serial.add_items(extra)
        assert_same_answer(serial.query(queries[1], k=5),
                           proc.query(queries[1], k=5))
        new = pool.snapshot()["replicas"]
        assert len(new) == 1
        assert new[0]["state_version"] == identity_token(proc)[1]
        assert new[0]["path"] != old[0]["path"]
    finally:
        serial.close()
        proc.close()


# ----------------------------------------------------------------------
# Satellite 2: fork-safety — spawn-vs-fork injector parity
# ----------------------------------------------------------------------

def _fault_outcomes(start_method, items, queries):
    """Per-task fault outcomes for one deterministic chaos run."""
    index = ShardedFexiproIndex(items, shards=2, workers=1)
    rules = [FaultRule("scan", "raise", probability=0.5, transient=True)]
    outcomes = []
    with ProcessScanPool(1, start_method=start_method,
                         fault_rules=rules, fault_seed=11) as pool:
        handle = pool.ensure_replica(index.index)
        for q in queries[:6]:
            qs = index.index._prepare_query(q)
            for span in index.spans:
                try:
                    [(buffer, *_rest)] = pool.run_shards(
                        handle, qs, 5, [span])
                    outcomes.append(("ok", len(buffer.items_and_scores()[0])))
                except InjectedFault as fault:
                    assert fault.transient is True
                    outcomes.append(("fault", str(fault)))
    index.close()
    return outcomes


@pytest.mark.skipif(
    not {"fork", "spawn"} <= set(multiprocessing.get_all_start_methods()),
    reason="needs both fork and spawn start methods",
)
def test_fault_injection_parity_fork_vs_spawn():
    items, queries = make_mf_like(300, 10, seed=100)
    fork_outcomes = _fault_outcomes("fork", items, queries)
    spawn_outcomes = _fault_outcomes("spawn", items, queries)
    assert fork_outcomes == spawn_outcomes
    kinds = {kind for kind, __ in fork_outcomes}
    assert kinds == {"ok", "fault"}, (
        f"seed should produce mixed outcomes, got {fork_outcomes}"
    )


@needs_processes
def test_worker_faults_do_not_leak_into_parent():
    items, queries = make_mf_like(300, 10, seed=101)
    index = ShardedFexiproIndex(items, shards=2, workers=1)
    rules = [FaultRule("scan", "raise", probability=1.0)]
    with ProcessScanPool(1, fault_rules=rules, fault_seed=0) as pool:
        handle = pool.ensure_replica(index.index)
        qs = index.index._prepare_query(queries[0])
        with pytest.raises(InjectedFault):
            pool.run_shards(handle, qs, 5, index.spans)
    # The parent's fault machinery was never armed.
    from repro import _faultsites

    assert _faultsites.active is None
    assert_same_answer(index.query(queries[0], k=5),
                       index.index.query(queries[0], k=5))
    index.close()


# ----------------------------------------------------------------------
# Satellite 2: fork-safe metrics — cross-process snapshot merging
# ----------------------------------------------------------------------

def test_metrics_merge_snapshot_adds_counters_and_histograms():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.counter("queries").inc(2)
    b.counter("queries").inc(3)
    b.counter("only_b").inc(1)
    a.histogram("latency").observe(0.5)
    b.histogram("latency").observe(1.5)
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["counters"]["queries"] == 5
    assert snap["counters"]["only_b"] == 1
    assert snap["histograms"]["latency"]["count"] == 2


def test_metrics_merge_snapshot_rejects_layout_mismatch():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.histogram("latency", buckets=(1.0, 2.0)).observe(0.5)
    b.histogram("latency", buckets=(1.0, 2.0, 3.0)).observe(0.5)
    with pytest.raises(ValidationError):
        a.merge_snapshot(b.snapshot())


# ----------------------------------------------------------------------
# Replica / pool lifecycle
# ----------------------------------------------------------------------

def test_publish_replica_requires_identity():
    with pytest.raises(ValidationError):
        publish_replica(object())


@needs_processes
def test_pool_close_unlinks_replicas_and_refuses_work(small_items):
    import os

    index = FexiproIndex(small_items)
    pool = ProcessScanPool(1)
    handle = pool.ensure_replica(index)
    assert os.path.exists(handle.path)
    pool.close()
    assert not os.path.exists(handle.path)
    from repro.exceptions import ServiceClosedError

    with pytest.raises(ServiceClosedError):
        pool.ensure_replica(index)
