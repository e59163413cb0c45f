"""Tests for the serving-layer failure model (PR 3).

Every behaviour is driven by *real* injected faults
(:class:`repro.serve.FaultInjector`) and injectable clocks — no mocks of
the code under test.  ``REPRO_FAULT_SEED`` (swept by the CI chaos job)
varies the injector seed; all assertions hold for every seed because the
rules used here are deterministic (probability 1) or the properties
asserted of random ones are seed-independent.
"""

import math
import os

import pytest

from repro import FexiproIndex, ShardedFexiproIndex
from repro.exceptions import (
    DeadlineExceededError,
    InjectedFault,
    ValidationError,
)
from repro.serve import (
    Deadline,
    FaultInjector,
    FaultRule,
    ProcessScanPool,
    QueryError,
    RetrievalService,
    RetryPolicy,
    ServiceConfig,
    is_transient,
    process_executor_usable,
)

from conftest import stepped_clock

FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------

def test_deadline_expires_monotonically():
    clock = FakeClock()
    deadline = Deadline(10.0, clock=clock)
    assert not deadline.expired()
    assert deadline.remaining() == 10.0
    clock.advance(9.999)
    assert not deadline.expired()
    clock.advance(0.001)
    assert deadline.expired()
    clock.advance(100.0)
    assert deadline.expired()  # never un-expires
    assert deadline.remaining() < 0


def test_deadline_after_ms_and_validation():
    clock = FakeClock()
    deadline = Deadline.after_ms(250.0, clock=clock)
    assert deadline.seconds == 0.25
    assert Deadline(math.inf, clock=clock).expired() is False
    for bad in (0, -1.0, float("nan")):
        with pytest.raises(ValidationError):
            Deadline(bad, clock=clock)


# ----------------------------------------------------------------------
# Retry policy and transience
# ----------------------------------------------------------------------

def test_is_transient_is_attribute_based():
    assert is_transient(InjectedFault("boom", transient=True))
    assert not is_transient(InjectedFault("boom", transient=False))
    assert not is_transient(ValueError("no attribute"))
    assert not is_transient(DeadlineExceededError("late", items_scanned=5))


def test_retry_policy_bounds_attempts_and_sleeps():
    naps = []
    policy = RetryPolicy(retries=1, backoff_ms=20.0, sleep=naps.append)
    transient = InjectedFault("flaky", transient=True)
    assert policy.should_retry(transient, attempt=0)
    assert not policy.should_retry(transient, attempt=1)
    assert not policy.should_retry(ValueError("hard"), attempt=0)
    policy.backoff()
    assert naps == [0.02]
    assert not RetryPolicy(retries=0).should_retry(transient, attempt=0)


def test_query_error_is_structured():
    error = QueryError(index=3, error=InjectedFault("kaput"), retried=True)
    assert error.as_dict() == {"index": 3, "error_type": "InjectedFault",
                               "message": "kaput", "retried": True}


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------

def test_fault_rule_validation():
    with pytest.raises(ValidationError):
        FaultRule(site="gpu", kind="raise")
    with pytest.raises(ValidationError):
        FaultRule(site="scan", kind="melt")
    with pytest.raises(ValidationError):
        FaultRule(site="scan", kind="corrupt")  # corrupt is io-only
    with pytest.raises(ValidationError):
        FaultRule(site="scan", kind="raise", probability=1.5)
    with pytest.raises(ValidationError):
        FaultRule(site="scan", kind="raise", limit=-1)


def test_injector_is_deterministic_per_seed():
    def firings(seed):
        rule = FaultRule(site="scan", kind="raise", probability=0.5)
        injector = FaultInjector([rule], seed=seed)
        fired = []
        for i in range(50):
            try:
                injector.fire("scan", f"call={i}")
                fired.append(False)
            except InjectedFault:
                fired.append(True)
        return fired

    assert firings(FAULT_SEED) == firings(FAULT_SEED)
    assert any(firings(FAULT_SEED))


def test_injector_match_limit_and_arming():
    from repro import _faultsites

    rule = FaultRule(site="scan", kind="raise", match="q=2", limit=1)
    injector = FaultInjector([rule], seed=FAULT_SEED)
    with injector:
        assert _faultsites.active is injector
        _faultsites.fire(_faultsites.SCAN, "q=1:block=0")  # no match
        with _faultsites.tagged("q=2"):
            with pytest.raises(InjectedFault):
                _faultsites.fire(_faultsites.SCAN, "block=0")
            _faultsites.fire(_faultsites.SCAN, "block=1")  # limit spent
    assert _faultsites.active is None  # disarmed on exit
    _faultsites.fire(_faultsites.SCAN, "q=2:block=0")  # no-op when disarmed
    assert injector.fired["scan"] == 1


def test_injector_corrupt_flips_exactly_one_byte():
    rule = FaultRule(site="io", kind="corrupt")
    injector = FaultInjector([rule], seed=FAULT_SEED)
    payload = bytes(range(256))
    corrupted = injector.transform("io", payload, "save:x")
    assert len(corrupted) == len(payload)
    diffs = [i for i, (a, b) in enumerate(zip(payload, corrupted)) if a != b]
    assert len(diffs) == 1
    assert corrupted[diffs[0]] == payload[diffs[0]] ^ 0xFF


# ----------------------------------------------------------------------
# Service: deadlines
# ----------------------------------------------------------------------

def _service(index, **config):
    config.setdefault("workers", 1)
    return RetrievalService(index, ServiceConfig(**config))


def test_service_degrades_on_deadline(small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    clock = FakeClock()

    def racing_clock():
        clock.advance(1.0)  # every poll observes a huge elapsed time
        return clock()

    service = RetrievalService(
        index, ServiceConfig(workers=1, deadline_ms=1.0),
        clock=racing_clock)
    with service:
        response = service.batch(small_queries[:6], k=5)
        snapshot = service.metrics_snapshot()
    assert not response.complete
    assert response.deadline_hits == 6
    assert not response.errors  # degrade, not fail
    for result in response.results:
        assert result is not None
        assert not result.complete
        assert result.stats.deadline_hit == 1
    assert response.stats.deadline_hit == 6
    assert snapshot["counters"]["deadline.degraded_queries"] == 6
    assert snapshot["counters"]["pruning.deadline_hit"] == 6


def test_service_fail_policy_raises_per_query(small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")

    def instant_clock():
        instant_clock.now += 1.0
        return instant_clock.now

    instant_clock.now = 0.0
    service = RetrievalService(
        index,
        ServiceConfig(workers=1, deadline_ms=1.0,
                      truncation_policy="fail"),
        clock=instant_clock)
    with service:
        response = service.batch(small_queries[:4], k=5)
        with pytest.raises(DeadlineExceededError) as excinfo:
            service.query(small_queries[0], k=5)
    assert len(response.errors) == 4
    assert response.results == [None] * 4
    assert not response.complete
    for error in response.errors:
        assert error.error_type == "DeadlineExceededError"
        assert not error.retried  # deadline expiry is never transient
    assert excinfo.value.items_scanned >= 0


def test_no_deadline_batches_are_complete(small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    with _service(index) as service:
        response = service.batch(small_queries[:6], k=5)
    assert response.complete
    assert response.deadline_hits == 0
    serial = [index.query(q, k=5) for q in small_queries[:6]]
    for a, b in zip(response.results, serial):
        assert a.ids == b.ids
        assert a.scores == b.scores


def test_process_executor_refuses_an_injected_clock(small_items,
                                                   small_queries):
    # Worker processes arm deadlines on the real monotonic clock, so a
    # stepped clock would govern only the in-process replays: one config
    # would degrade different queries from run to run.
    index = FexiproIndex(small_items, variant="F-SIR")
    config = ServiceConfig(executor="process", workers=2, deadline_ms=1.0,
                           engine="blocked")
    with pytest.raises(ValidationError, match="monotonic clock"):
        RetrievalService(index, config, clock=stepped_clock())
    # "auto" under the same clock serves in-process, where every poll
    # reads the stepped clock: each query degrades on its first block.
    auto = ServiceConfig(workers=2, deadline_ms=1.0, engine="blocked")
    with RetrievalService(index, auto, clock=stepped_clock()) as service:
        response = service.batch(small_queries[:4], k=5)
    assert response.deadline_hits == 4
    assert service._procpool is None


# ----------------------------------------------------------------------
# Service: per-query fault isolation and retry
# ----------------------------------------------------------------------

def test_one_poisoned_query_does_not_poison_the_batch(small_items,
                                                      small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    queries = small_queries[:5]
    serial = [index.query(q, k=4) for q in queries]
    injector = FaultInjector(
        [FaultRule(site="scan", kind="raise", match="q=2")],
        seed=FAULT_SEED)
    with _service(index) as service, injector:
        response = service.batch(queries, k=4)
        snapshot = service.metrics_snapshot()
    assert len(response.errors) == 1
    assert response.errors[0].index == 2
    assert response.errors[0].error_type == "InjectedFault"
    assert not response.errors[0].retried  # not transient: no retry
    assert response.results[2] is None
    for i, truth in enumerate(serial):
        if i == 2:
            continue
        assert response.results[i].ids == truth.ids
        assert response.results[i].scores == truth.scores
    assert not response.complete
    assert snapshot["counters"]["errors.queries"] == 1


def test_transient_fault_is_retried_and_recovers(small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    queries = small_queries[:5]
    serial = [index.query(q, k=4) for q in queries]
    injector = FaultInjector(
        [FaultRule(site="scan", kind="raise", match="q=1",
                   transient=True, limit=1)],
        seed=FAULT_SEED)
    with _service(index) as service, injector:
        response = service.batch(queries, k=4)
        snapshot = service.metrics_snapshot()
    assert injector.fired["scan"] == 1
    assert not response.errors
    assert response.complete
    for result, truth in zip(response.results, serial):
        assert result.ids == truth.ids
        assert result.scores == truth.scores
    assert snapshot["counters"]["retries"] == 1
    assert snapshot["counters"]["retries.recovered"] == 1


def test_transient_fault_beyond_retry_budget_fails_structured(small_items,
                                                              small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    injector = FaultInjector(
        [FaultRule(site="scan", kind="raise", match="q=0",
                   transient=True)],  # unlimited: survives the retry too
        seed=FAULT_SEED)
    with _service(index) as service, injector:
        response = service.batch(small_queries[:3], k=4)
    assert len(response.errors) == 1
    assert response.errors[0].index == 0
    assert response.errors[0].retried  # the retry happened, then gave up
    assert response.results[0] is None
    assert response.results[1] is not None


@pytest.mark.skipif(not process_executor_usable(),
                    reason="no multiprocessing start method available")
def test_worker_fault_in_process_task_falls_back_in_process(small_items,
                                                           small_queries):
    # The worker site fires in each worker-process chunk task; a task that
    # dies there sends the whole batch back to the in-process loop.
    index = FexiproIndex(small_items, variant="F-SIR")
    queries = small_queries[:6]
    serial = [index.query(q, k=4) for q in queries]
    config = ServiceConfig(workers=2, executor="process", engine="blocked")
    with RetrievalService(index, config) as service:
        service._procpool = ProcessScanPool(
            2, fault_rules=[FaultRule("worker", "raise")],
            fault_seed=FAULT_SEED)
        response = service.batch(queries, k=4)
        counters = service.metrics_snapshot()["counters"]
    assert counters["policy.process_fallback"] == 1
    assert not response.errors
    for got, want in zip(response.results, serial):
        assert got.ids == want.ids
        assert [s.hex() for s in got.scores] == \
            [s.hex() for s in want.scores]
        assert got.stats.as_dict() == want.stats.as_dict()


def test_single_query_failure_reraises(small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    injector = FaultInjector(
        [FaultRule(site="scan", kind="raise", match="q=0")],
        seed=FAULT_SEED)
    with _service(index) as service, injector:
        with pytest.raises(InjectedFault):
            service.query(small_queries[0], k=4)


# ----------------------------------------------------------------------
# Sharded indexes: shard faults are loud, the service scans the inner index
# ----------------------------------------------------------------------

def _faulty_fanout(items, rules):
    """A process-executor sharded index whose workers arm ``rules``."""
    sharded = ShardedFexiproIndex(items, shards=3, workers=1,
                                  variant="F-SIR", executor="process")
    sharded._procpool = ProcessScanPool(1, fault_rules=rules,
                                        fault_seed=FAULT_SEED)
    return sharded


@pytest.mark.skipif(not process_executor_usable(),
                    reason="no multiprocessing start method available")
def test_shard_scan_fault_on_sharded_query_raises(small_items,
                                                  small_queries):
    # Shard faults fire inside the fan-out's worker processes and
    # surface from ShardedFexiproIndex.query in the caller.
    with _faulty_fanout(small_items, [
            FaultRule(site="scan", kind="raise", match="shard=0")]) as sharded:
        truth = [sharded.index.query(q, k=4) for q in small_queries]
        # One failing shard fails the whole query: no partial merge.
        with pytest.raises(InjectedFault):
            sharded.query(small_queries[0], k=4)
    # Under seeded random shard faults every query either raises or is
    # exact; none comes back wrong.
    raised = 0
    with _faulty_fanout(small_items, [
            FaultRule(site="scan", kind="raise", match="shard=",
                      probability=0.3)]) as sharded:
        for q, want in zip(small_queries, truth):
            try:
                got = sharded.query(q, k=4)
            except InjectedFault:
                raised += 1
                continue
            assert got.ids == want.ids
            assert got.scores == want.scores
    assert 0 < raised < len(small_queries)


def test_sharded_service_serves_the_inner_single_scan(small_items,
                                                      small_queries):
    sharded = ShardedFexiproIndex(small_items, shards=3, workers=1,
                                  variant="F-SIR")
    config = ServiceConfig(workers=2, executor="serial", engine=None)
    responses = {}
    for name, index in (("sharded", sharded), ("inner", sharded.index)):
        with RetrievalService(index, config) as service:
            one = service.batch(small_queries[:1], k=4)
            many = service.batch(small_queries, k=4)
            counters = service.metrics_snapshot()["counters"]
        responses[name] = (one, many, counters)
    (one, many, counters), (one_in, many_in, counters_in) = \
        responses["sharded"], responses["inner"]
    assert one.mode == "inter"
    assert counters == counters_in
    for got, want in zip(one.results + many.results,
                         one_in.results + many_in.results):
        assert got.ids == want.ids
        assert got.scores == want.scores
        assert got.stats.as_dict() == want.stats.as_dict()


# ----------------------------------------------------------------------
# Chaos: mixed faults under the CI seed sweep
# ----------------------------------------------------------------------

def test_service_survives_mixed_chaos(small_items, small_queries):
    """Under randomized faults the service still answers structured.

    Seed-independent invariants only: every query slot is either a correct
    result or a structured error; the service never leaks an unhandled
    exception; counters stay consistent.
    """
    index = FexiproIndex(small_items, variant="F-SIR")
    queries = small_queries[:8]
    serial = [index.query(q, k=4) for q in queries]
    injector = FaultInjector(
        [FaultRule(site="scan", kind="raise", probability=0.2,
                   transient=True)],
        seed=FAULT_SEED)
    with _service(index) as service, injector:
        response = service.batch(queries, k=4)
    assert len(response.results) == len(queries)
    failed = {error.index for error in response.errors}
    for i, (result, truth) in enumerate(zip(response.results, serial)):
        if i in failed:
            assert result is None
        else:
            assert result.ids == truth.ids
            assert result.scores == truth.scores
    for error in response.errors:
        assert error.error_type == "InjectedFault"
        assert error.as_dict()["index"] == error.index


def test_stall_fault_drives_real_deadline(small_items, small_queries):
    """A stalled scan blows a real wall-clock deadline (no fake clocks)."""
    index = FexiproIndex(small_items, variant="F-SIR")
    injector = FaultInjector(
        [FaultRule(site="scan", kind="stall", stall_seconds=0.05,
                   match="q=0")],
        seed=FAULT_SEED)
    with _service(index, deadline_ms=10.0) as service, injector:
        response = service.batch(small_queries[:2], k=4)
    assert response.results[0] is not None
    assert not response.results[0].complete  # stalled past its budget
    assert response.deadline_hits >= 1
