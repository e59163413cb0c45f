"""Live-catalog invariant tests: mutation/compaction races stay exact.

The contract under test (DESIGN §2.14, snapshot invariant 12) is
*bitwise* exactness against the visible catalog: a query that captured a
:class:`~repro.core.delta.LiveCatalog` snapshot returns exactly the
brute-force top-k over that snapshot's alive rows — ids, scores, and tie
order — no matter how many ``add_items`` / ``remove_items`` /
``compact`` swaps land before, между, or during the scan, and no matter
which variant, engine, flavour, or executor runs it.

Scores are compared with the canonical float summation each tier uses
(split head/tail product over the transformed base rows, raw dot over
delta rows), so every assertion here is ``==``, not ``allclose``.

The mutation-chaos CI lane runs this module under both ``fork`` and
``spawn`` start methods with a swept ``REPRO_FAULT_SEED`` — the chaos
schedules below inject real scan faults while the catalog churns, and
assert that every query either fails loudly or answers exactly.
"""

import math
import os
import threading

import numpy as np
import pytest

from repro import FexiproIndex, ShardedFexiproIndex, ValidationError
from repro._validation import safe_row_norms
from repro.core.gemm import scan_gemm
from repro.core.index import prepare_query_states
from repro.core.variants import VARIANTS
from repro.exceptions import InjectedFault
from repro.serve import (
    Compactor,
    FaultInjector,
    FaultRule,
    MetricsRegistry,
    RetrievalService,
    ServiceConfig,
    process_executor_usable,
)

from conftest import make_mf_like, oracle_topk

ALL_VARIANTS = sorted(VARIANTS)
ENGINES = ["reference", "blocked", "gemm"]
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

needs_processes = pytest.mark.skipif(
    not process_executor_usable(),
    reason="no multiprocessing start method available",
)


# ----------------------------------------------------------------------
# The bitwise oracle
# ----------------------------------------------------------------------


def assert_query_bitwise(index, q, k):
    """One query through the public path, bitwise-checked vs the oracle."""
    inner = getattr(index, "index", index)
    snap = inner._live
    qs = inner._prepare_query(np.ascontiguousarray(q), snapshot=snap)
    positions, want_scores = oracle_topk(snap, qs, k)
    want_ids = snap.full_order[positions].tolist()
    result = index.query(q, k)
    assert list(result.ids) == want_ids
    assert [float(s) for s in result.scores] == want_scores
    assert result.complete


# ----------------------------------------------------------------------
# Interleaved mutation schedules: every variant, engine, flavour
# ----------------------------------------------------------------------


def run_schedule(index, queries, rng, k=7, steps=5):
    """Interleave adds, removes, compactions, and bitwise-checked queries."""
    inner = getattr(index, "index", index)
    live = set(range(inner._live.visible_count))
    for step in range(steps):
        d = inner.d
        new_ids = index.add_items(rng.normal(scale=0.4, size=(6, d)))
        live.update(new_ids)
        victims = rng.choice(sorted(live), size=4, replace=False)
        assert index.remove_items(victims.tolist()) == 4
        live.difference_update(int(v) for v in victims)
        assert_query_bitwise(index, queries[step % len(queries)], k)
        if step == 2:
            assert index.compact()
            assert inner._live.clean
            assert_query_bitwise(index, queries[step % len(queries)], k)
    # Visible ids are exactly the live set.
    result = index.query(queries[0], k=len(live))
    assert set(result.ids) == live


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_mutation_schedule_bitwise_single(variant, engine):
    items, queries = make_mf_like(150, 12, seed=41)
    index = FexiproIndex(items, variant=variant, engine=engine)
    run_schedule(index, queries, np.random.default_rng(5))


@pytest.mark.parametrize("engine", ["blocked", "gemm"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_mutation_schedule_bitwise_sharded(variant, engine):
    # The sharded flavour only takes span-capable engines.
    items, queries = make_mf_like(150, 12, seed=42)
    index = ShardedFexiproIndex(items, shards=3, workers=2,
                                variant=variant, engine=engine)
    run_schedule(index, queries, np.random.default_rng(6))


@pytest.mark.parametrize("flavour", ["single", "sharded"])
def test_sharded_and_single_agree_under_mutation(flavour):
    # The two flavours must agree with each other as well as the oracle.
    items, queries = make_mf_like(200, 14, seed=43)
    single = FexiproIndex(items, variant="F-SIR")
    other = (ShardedFexiproIndex(items, shards=4, variant="F-SIR")
             if flavour == "sharded" else FexiproIndex(items,
                                                       variant="F-SIR"))
    rng = np.random.default_rng(7)
    for __ in range(4):
        rows = rng.normal(scale=0.4, size=(5, 14))
        assert single.add_items(rows) == other.add_items(rows)
        victims = rng.integers(0, single.n, size=3).tolist()
        single.remove_items(victims)
        other.remove_items(victims)
        for q in queries[:3]:
            a, b = single.query(q, 6), other.query(q, 6)
            assert list(a.ids) == list(b.ids)
            assert [float(s) for s in a.scores] == \
                [float(s) for s in b.scores]


# ----------------------------------------------------------------------
# A query racing writers and the compactor (thread executor)
# ----------------------------------------------------------------------


def test_query_races_writer_and_compactor_bitwise():
    items, queries = make_mf_like(300, 12, seed=44)
    index = FexiproIndex(items, variant="F-SIR")
    stop = threading.Event()
    writer_error = []

    def writer():
        rng = np.random.default_rng(FAULT_SEED)
        try:
            while not stop.is_set():
                ids = index.add_items(rng.normal(scale=0.4, size=(3, 12)))
                index.remove_items(ids[:1])
                victims = rng.integers(0, 300, size=2)
                index.remove_items(victims.tolist())
                index.compact()
        except Exception as error:  # pragma: no cover - fails the test
            writer_error.append(error)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for i in range(60):
            q = queries[i % len(queries)]
            # Capture one snapshot and hold it across the scan: the
            # writer and compactor keep swapping underneath, but the
            # frozen snapshot must answer exactly.
            snap = index._live
            qs = index._prepare_query(np.ascontiguousarray(q),
                                      snapshot=snap)
            positions, want_scores = oracle_topk(snap, qs, 8)
            want_ids = snap.full_order[positions].tolist()
            buffer, stats = index._scan(qs, 8, snapshot=snap)
            from repro.core.stats import assemble_result
            result = assemble_result(snap.full_order,
                                     *buffer.items_and_scores(),
                                     stats, 0.0)
            assert list(result.ids) == want_ids
            assert [float(s) for s in result.scores] == want_scores
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not writer_error, writer_error
    # The public path still answers exactly after the dust settles.
    assert_query_bitwise(index, queries[0], 8)


# ----------------------------------------------------------------------
# Mutation chaos: injected scan faults while the catalog churns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_mutation_chaos_schedule_is_exact_or_loud(executor):
    """Seeded fault sweep over interleaved add/remove/compact/query.

    Each query either returns the exact answer for the snapshot it
    captured or surfaces the injected fault as a per-query error — never
    a silently wrong result.
    """
    if executor == "process" and not process_executor_usable():
        pytest.skip("no multiprocessing start method available")
    items, queries = make_mf_like(240, 12, seed=45)
    index = ShardedFexiproIndex(items, shards=3, workers=2,
                                variant="F-SIR")
    config = ServiceConfig(workers=2, executor=executor, retries=0,
                           collect_timings=False)
    rules = [FaultRule("scan", "raise", probability=0.05,
                       transient=False)]
    rng = np.random.default_rng(FAULT_SEED)
    injector = FaultInjector(rules, seed=FAULT_SEED)
    with RetrievalService(index, config) as service:
        with injector:
            for step in range(6):
                index.add_items(rng.normal(scale=0.4, size=(4, 12)))
                index.remove_items(rng.integers(0, 240, size=2).tolist())
                if step % 2:
                    index.compact()
                response = service.batch(queries[:4], k=6)
                for i, result in enumerate(response.results):
                    if result is None:
                        continue  # faulted query, reported below
                    assert result.complete
                assert len(response.errors) + sum(
                    r is not None for r in response.results) == 4
                for error in response.errors:
                    assert error.error_type == "InjectedFault"
        # Faults disarmed: full exactness, bitwise, immediately.
        assert_query_bitwise(index, queries[0], 6)


def test_chaos_delta_scan_fault_is_contained():
    # The delta tier has its own fault site: a raise inside the
    # brute-force tail must not corrupt the snapshot for later queries.
    items, queries = make_mf_like(120, 10, seed=46)
    index = FexiproIndex(items, variant="F-SIR")
    index.add_items(np.random.default_rng(1).normal(size=(5, 10)))
    injector = FaultInjector(
        [FaultRule("scan", "raise", match="delta=", limit=1)],
        seed=FAULT_SEED)
    with injector:
        with pytest.raises(InjectedFault):
            index.query(queries[0], 5)
    assert injector.fired["scan"] == 1
    assert_query_bitwise(index, queries[0], 5)


# ----------------------------------------------------------------------
# Empty visible catalog (the remove-the-last-item regression)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_catalog_returns_well_formed_results(engine):
    items, queries = make_mf_like(30, 8, seed=47)
    index = FexiproIndex(items, variant="F-SIR", engine=engine)
    assert index.remove_items(range(30)) == 30
    assert index.n == 0
    result = index.query(queries[0], k=10)
    assert list(result.ids) == [] and len(result.scores) == 0
    assert result.complete
    assert result.stats.n_items == 0


def test_empty_catalog_sharded_and_batch():
    items, queries = make_mf_like(30, 8, seed=48)
    sharded = ShardedFexiproIndex(items, shards=3, variant="F-SIR")
    assert sharded.remove_items(range(30)) == 30
    result = sharded.query(queries[0], k=4)
    assert list(result.ids) == []
    batch = sharded.batch_query(queries[:3], 4)
    assert all(list(r.ids) == [] for r in batch)
    # Revive and keep going.
    new_ids = sharded.add_items(items[:2])
    assert sorted(sharded.query(queries[0], k=4).ids) == sorted(new_ids)


def test_empty_catalog_through_service_all_paths():
    items, queries = make_mf_like(40, 8, seed=49)
    index = ShardedFexiproIndex(items, shards=2, variant="F-SIR")
    config = ServiceConfig(workers=2, cache_capacity=8,
                           collect_timings=False)
    with RetrievalService(index, config) as service:
        index.remove_items(range(40))
        response = service.batch(queries[:3], k=5)
        assert response.complete
        assert all(len(r.ids) == 0 for r in response.results)
        explanation = service.explain(queries[0], k=5)
        explanation.verify()
        assert explanation.k == 0 and explanation.result.ids == []


def test_empty_catalog_budget_mode_service_matches_facade():
    # Budget mode attaches a certified band to every answer, the empty
    # answer included: the service and the facade build the same one.
    from repro import Fexipro
    from repro.core.budget import ResultBounds

    items, queries = make_mf_like(20, 8, seed=51)
    index = FexiproIndex(items)
    index.remove_items(range(20))
    want = Fexipro.from_index(index).query(queries[0], k=5, budget=100.0)
    assert want.ids == []
    assert want.bounds == ResultBounds(lower=(), tail_upper=-math.inf)
    config = ServiceConfig(workers=1, budget_flops=100.0)
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:3], k=5)
    assert [r.ids for r in response.results] == [[]] * 3
    assert [r.bounds for r in response.results] == [want.bounds] * 3


def test_compaction_of_empty_catalog_is_a_noop():
    # An all-tombstoned catalog has no base to rebuild: compact() is a
    # documented no-op, and the catalog keeps serving empty results.
    items, queries = make_mf_like(10, 6, seed=50)
    index = FexiproIndex(items)
    index.remove_items(range(10))
    assert index.compact() is False
    assert index.n == 0
    assert list(index.query(queries[0], k=3).ids) == []
    # New items revive it, and then compaction folds as usual.
    index.add_items(items[:2])
    assert index.compact()
    assert index._live.clean and index.n == 2


# ----------------------------------------------------------------------
# Process executor: replicas republish across mutations
# ----------------------------------------------------------------------


@needs_processes
def test_process_executor_tracks_mutations_bitwise():
    items, queries = make_mf_like(400, 16, seed=51)
    index = ShardedFexiproIndex(items, shards=3, variant="F-SIR")
    oracle = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=2, executor="process",
                           collect_timings=False)
    rng = np.random.default_rng(8)
    with RetrievalService(index, config) as service:
        for step in range(3):
            rows = rng.normal(scale=0.4, size=(5, 16))
            assert index.add_items(rows) == oracle.add_items(rows)
            victims = rng.integers(0, 400, size=3).tolist()
            index.remove_items(victims)
            oracle.remove_items(victims)
            if step == 1:
                index.compact()
                oracle.compact()
            response = service.batch(queries[:4], k=6)
            assert response.complete
            for q, result in zip(queries[:4], response.results):
                want = oracle.query(q, 6)
                assert list(result.ids) == list(want.ids)
                assert [float(s) for s in result.scores] == \
                    [float(s) for s in want.scores]


# ----------------------------------------------------------------------
# Compactor unit behaviour
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_compactor_interval_and_delta_limit_triggers():
    items, __ = make_mf_like(60, 8, seed=52)
    index = FexiproIndex(items)
    clock = FakeClock()
    metrics = MetricsRegistry()
    compactor = Compactor(index, 100.0, delta_limit=5, metrics=metrics,
                          clock=clock)
    # Clean catalog: wake-ups are no-ops and do not count as attempts.
    assert compactor.run_once() is False
    index.add_items(items[:2])
    # Dirty but below the delta limit and inside the interval since the
    # first (infinitely old) attempt: the very first dirty poll compacts.
    assert compactor.run_once() is True
    assert index._live.clean
    index.add_items(items[:3])
    clock.now += 50.0
    assert compactor.run_once() is False  # interval not elapsed
    index.add_items(items[:2])  # 5 delta rows >= delta_limit
    assert compactor.run_once() is True
    assert compactor.runs == 2 and compactor.errors == 0
    snapshot = compactor.snapshot()
    assert snapshot["runs"] == 2 and snapshot["delta_limit"] == 5
    assert metrics.snapshot()["counters"]["compaction.runs"] == 2


def test_compactor_contains_failures():
    items, __ = make_mf_like(40, 8, seed=53)

    class Exploding(FexiproIndex):
        def compact(self):
            raise RuntimeError("boom")

    index = Exploding(items)
    index.add_items(items[:2])
    metrics = MetricsRegistry()
    compactor = Compactor(index, 0.001, metrics=metrics)
    assert compactor.run_once() is False
    assert compactor.errors == 1
    assert metrics.snapshot()["counters"]["compaction.errors"] == 1
    # The catalog still serves from its (uncompacted) snapshot.
    assert index._live.delta_count == 2


def test_compactor_thread_lifecycle_and_validation():
    items, __ = make_mf_like(40, 8, seed=54)
    index = FexiproIndex(items)
    index.add_items(items[:3])
    done = threading.Event()
    original = index.compact

    def watched():
        try:
            return original()
        finally:
            done.set()

    index.compact = watched
    with Compactor(index, 0.01) as compactor:
        assert compactor.running
        compactor.start()  # idempotent
        assert done.wait(timeout=30), "background compaction never ran"
    assert not compactor.running
    compactor.close()  # idempotent
    assert index._live.clean
    with pytest.raises(ValidationError):
        Compactor(index, 0.0)
    with pytest.raises(ValidationError):
        Compactor(index, 1.0, delta_limit=0)


def test_service_starts_and_stops_compactor():
    items, queries = make_mf_like(80, 8, seed=55)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=1, compaction_interval_s=0.01,
                           compaction_delta_limit=2,
                           collect_timings=False)
    service = RetrievalService(index, config)
    try:
        assert service.compactor is not None and service.compactor.running
        index.add_items(items[:4])
        deadline = 30.0
        import time
        start = time.monotonic()
        while not index._live.clean:
            if time.monotonic() - start > deadline:
                pytest.fail("service compactor never folded the delta")
            time.sleep(0.005)
        assert service.batch(queries[:2], k=5).complete
        assert "compactor" in service.metrics_snapshot()
    finally:
        service.close()
    assert not service.compactor.running


def test_service_without_compaction_config_has_no_compactor():
    items, __ = make_mf_like(40, 8, seed=56)
    with RetrievalService(FexiproIndex(items),
                          ServiceConfig(workers=1,
                                        collect_timings=False)) as service:
        assert service.compactor is None
    with pytest.raises(ValidationError):
        ServiceConfig(compaction_delta_limit=5)  # limit without interval
    with pytest.raises(ValidationError):
        ServiceConfig(compaction_interval_s=-1.0)


# ----------------------------------------------------------------------
# Version counters: every swap moves the snapshot token, compaction the epoch
# ----------------------------------------------------------------------


def test_version_counters_semantics():
    items, __ = make_mf_like(50, 8, seed=57)
    index = FexiproIndex(items)
    snap0 = index._live
    assert snap0.token == (index.uid, 0)
    ids = index.add_items(items[:2])
    snap1 = index._live
    assert snap1.epoch == snap0.epoch  # mutation keeps the basis
    assert snap1.state_version == snap0.state_version + 1
    index.remove_items(ids[:1])
    snap2 = index._live
    assert snap2.epoch == snap1.epoch
    assert snap2.state_version == snap1.state_version + 1
    assert index.remove_items(ids[:1]) == 0  # no-op: no new snapshot
    assert index._live is snap2
    assert index.compact()
    snap3 = index._live
    assert snap3.epoch == snap2.epoch + 1  # new basis
    # Same visible content, new basis: the token moves like on a write.
    assert snap3.state_version == snap2.state_version + 1
    assert snap3.token == (index.uid, snap3.state_version)
    assert snap3.clean


def test_snapshot_bar_norms_are_exact_and_gemm_writes_nothing():
    """GEMM's selection-margin norms are a field of every snapshot,
    bitwise equal to ``safe_row_norms(items_bar)`` after every kind of
    swap, and a GEMM scan reads them without caching anything on the
    object it scans.
    """
    items, queries = make_mf_like(300, 10, seed=59)
    index = FexiproIndex(items, variant="F-SIR")

    def check():
        snap = index._live
        assert snap.bar_norms.tobytes() == \
            safe_row_norms(snap.items_bar).tobytes()
        assert index.bar_norms is snap.bar_norms
        qs = prepare_query_states(snap, queries[:1])[0]
        for target in (index, snap):
            before = set(vars(target))
            scan_gemm(target, qs, 5, stop=snap.n)
            assert set(vars(target)) == before

    check()
    ids = index.add_items(items[:4] * 0.9)
    check()
    index.remove_items([ids[0], 7])
    check()
    assert index.compact()
    check()


def test_add_items_is_delta_time_not_rebuild_time():
    # O(delta) vs O(rebuild): appending to a large catalog must not
    # re-run preprocessing.  Compare against an actual rebuild at the
    # same n — the gap is orders of magnitude, so 10x is a safe floor.
    import time
    items, __ = make_mf_like(4000, 32, seed=58)
    index = FexiproIndex(items, variant="F-SIR")
    row = items[:1] * 0.9
    index.add_items(row)  # warm any lazy one-time state
    start = time.perf_counter()
    for __i in range(10):
        index.add_items(row)
    add_seconds = (time.perf_counter() - start) / 10
    start = time.perf_counter()
    index.compact()
    rebuild_seconds = time.perf_counter() - start
    assert add_seconds * 10 < rebuild_seconds, (
        f"add_items took {add_seconds:.6f}s amortized — not O(delta) "
        f"against a {rebuild_seconds:.6f}s rebuild"
    )
