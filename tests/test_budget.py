"""Property tests for budgeted anytime execution (DESIGN.md §2.13).

Three claims, checked across all five paper variants, every engine, both
index shapes and both executors:

(a) **A budget that never exhausts changes nothing.**  The budget is
    polled and charged at the same block/shard boundaries as the
    deadline; with ``total=inf`` the scan is *bitwise* identical (ids,
    scores, every pruning counter) to the seed scan with no budget at
    all.

(b) **A finite budget yields the exact top-k of the scanned prefix,
    inside a certified band.**  Items are visited in descending-length
    order, so the visited set is a contiguous prefix of sorted
    positions; the degraded buffer equals a brute-force top-k over
    exactly those positions, every reported lower bound is an exact
    score, and the true inner product of *every* unscanned item is at
    most the reported Cauchy–Schwarz tail upper bound.

(c) **Shed queries are structured errors with zero partial state.**
    Admission control runs before preparation, so a shed query is never
    prepared, scanned, or cached — its slot is ``None``, its error
    carries ``code="shed"``, and the batch's pruning rollup shows no
    work done on its behalf.
"""

import math

import numpy as np
import pytest

from repro import (
    BudgetExhaustedError,
    Fexipro,
    FexiproIndex,
    FlopBudget,
    OverloadSheddedError,
    ScanOptions,
    ShardedFexiproIndex,
    ValidationError,
)
from repro.core.budget import ResultBounds, certified_bounds, \
    tail_upper_bound
from repro.core.score import exact_scores
from repro.core.variants import VARIANTS
from repro.serve import RetrievalService, ServiceConfig

from conftest import make_mf_like, oracle_topk

ALL_VARIANTS = sorted(VARIANTS)
ENGINES = ("reference", "blocked", "gemm")
K = 7
BLOCK_SIZE = 64
D = 16

#: Cauchy–Schwarz holds exactly in the reals; in floats the dot product
#: and the norm product round independently, so soundness checks allow
#: one part in 1e9 of slack.
EPS = 1e-9


def make_index(variant, engine="blocked", sharded=False):
    items, queries = make_mf_like(900, D, seed=23)
    if sharded:
        index = ShardedFexiproIndex(items, shards=3, workers=1,
                                    variant=variant, engine=engine,
                                    block_size=BLOCK_SIZE)
    else:
        index = FexiproIndex(items, variant=variant, engine=engine,
                             block_size=BLOCK_SIZE)
    return index, queries


def true_score(index: FexiproIndex, qs, row):
    """The exact engine-formula inner product for one sorted position."""
    __, score = exact_scores(index.items_bar, [row], qs.q_bar, index.w)
    return float(score[0])


# ----------------------------------------------------------------------
# FlopBudget mechanics
# ----------------------------------------------------------------------

def test_flop_budget_accounting():
    budget = FlopBudget(100.0)
    assert not budget.exhausted()
    assert budget.remaining() == 100.0
    budget.charge(60)
    assert budget.remaining() == 40.0
    budget.charge(40)
    assert budget.exhausted()
    assert budget.remaining() == 0.0
    budget.charge(5)
    assert budget.remaining() == 0.0  # clamped, never negative


def test_flop_budget_edge_totals():
    assert FlopBudget(0).exhausted()
    assert not FlopBudget(math.inf).exhausted()
    infinite = FlopBudget(math.inf)
    infinite.charge(1e18)
    assert not infinite.exhausted()
    for bad in (-1.0, math.nan, "many", None):
        with pytest.raises((ValidationError, TypeError)):
            FlopBudget(bad)


def test_result_bounds_shape():
    bounds = ResultBounds(lower=(3.0, 2.0, 1.0), tail_upper=2.5)
    assert bounds.kth_lower == 1.0
    assert bounds.certified
    empty = ResultBounds(lower=(), tail_upper=0.5)
    assert empty.kth_lower == -math.inf
    assert empty.as_dict()["lower"] == []


def test_tail_upper_bound_segments():
    norms = np.array([4.0, 3.0, 2.0, 1.0])
    assert tail_upper_bound(2.0, norms, 1, 4) == 6.0
    assert tail_upper_bound(2.0, norms, 4, 4) == -math.inf
    # Max over segments: an untouched span bounds by its first item.
    bounds = certified_bounds(2.0, norms, (9.0, 8.0),
                              [(0, 2, 2), (2, 4, 0)])
    assert bounds.tail_upper == 4.0
    assert bounds.lower == (9.0, 8.0)


# ----------------------------------------------------------------------
# (a) an infinite budget is invisible, bit for bit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_infinite_budget_is_bitwise_identical_single(variant, engine):
    index, queries = make_index(variant, engine=engine)
    for q in queries[:6]:
        qs = index._prepare_query(q)
        seed_buffer, seed_stats = index._scan(qs, K)
        armed_buffer, armed_stats = index._scan(
            qs, K, options=ScanOptions(budget=FlopBudget(math.inf)))
        assert armed_buffer.items_and_scores() == \
            seed_buffer.items_and_scores()
        assert armed_stats.as_dict() == seed_stats.as_dict()
        assert armed_stats.budget_exhausted == 0


@pytest.mark.parametrize("engine", ("blocked", "gemm"))
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_infinite_budget_is_bitwise_identical_sharded(variant, engine):
    # A budgeted query is never fanned out: it runs the single scan,
    # which an infinite budget leaves bit for bit unchanged.
    sharded, queries = make_index(variant, engine=engine, sharded=True)
    for q in queries[:6]:
        seed = sharded.index.query(q, K)
        armed, reports = sharded.query_detailed(
            q, K, options=ScanOptions(budget=FlopBudget(math.inf)))
        assert reports == []
        assert armed.ids == seed.ids
        assert armed.scores == seed.scores
        assert armed.stats.as_dict() == seed.stats.as_dict()


@pytest.mark.parametrize("executor", ("serial", "process"))
def test_infinite_service_budget_matches_unbudgeted(executor):
    from repro.serve.procpool import process_executor_usable

    if executor == "process" and not process_executor_usable():
        pytest.skip("no usable multiprocessing start method")
    index, queries = make_index("F-SIR")
    serial = [index.query(q, k=K) for q in queries[:6]]
    config = ServiceConfig(workers=2, executor=executor,
                           budget_flops=math.inf, engine="blocked")
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:6], k=K)
    assert response.complete
    assert response.budget_hits == 0
    for result, truth in zip(response.results, serial):
        assert result.ids == truth.ids
        assert result.scores == truth.scores
        assert result.stats.as_dict() == truth.stats.as_dict()


def test_infinite_facade_budget_matches_unbudgeted():
    items, queries = make_mf_like(900, D, seed=23)
    for shards in (None, 3):
        engine = Fexipro(items, variant="F-SIR", shards=shards,
                         block_size=BLOCK_SIZE)
        for q in queries[:4]:
            seed = engine.query(q, k=K)
            armed = engine.query(q, k=K, budget=math.inf)
            assert armed.ids == seed.ids
            assert armed.scores == seed.scores
            assert armed.complete
            # The band is still attached and trivially certified.
            assert armed.bounds is not None
            assert armed.bounds.kth_lower == armed.scores[-1]


# ----------------------------------------------------------------------
# (b) a finite budget is an exact prefix top-k inside a certified band
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_finite_budget_prefix_exactness_and_band(variant, engine):
    index, queries = make_index(variant, engine=engine)
    for q in queries[:3]:
        qs = index._prepare_query(q)
        for items_budget in (25, 150, 500):
            budget = FlopBudget(items_budget * D)
            buffer, stats = index._scan(
                qs, K, options=ScanOptions(budget=budget))
            prefix = set(range(stats.scanned))
            ids, scores = buffer.items_and_scores()
            assert (ids, scores) == oracle_topk(index._live, qs, K, prefix)
            # Band soundness: every unscanned item's true score sits at
            # or below the certified tail upper bound.
            upper = tail_upper_bound(qs.q_norm, index.norms_sorted,
                                     stats.scanned, index.n)
            slack = EPS * max(1.0, abs(upper))
            for row in range(stats.scanned, index.n):
                assert true_score(index, qs, row) <= upper + slack
            if stats.budget_exhausted:
                assert math.isfinite(upper) or stats.scanned == index.n


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_finite_budget_sharded_band_covers_every_segment(variant):
    sharded, queries = make_index(variant, sharded=True)
    inner = sharded.index
    for q in queries[:3]:
        result = sharded.query(
            q, K, options=ScanOptions(budget=FlopBudget(120 * D)))
        assert result.bounds is not None
        assert result.bounds.lower == tuple(result.scores)
        upper = result.bounds.tail_upper
        slack = EPS * max(1.0, abs(upper))
        qs = inner._prepare_query(q)
        # Brute force: no item outside the returned set beats the band.
        returned = set(result.ids)
        for row in range(inner.n):
            item_id = inner.order[row]
            if item_id in returned:
                continue
            score = true_score(inner, qs, row)
            assert score <= max(upper, result.bounds.kth_lower) + slack


def test_facade_budget_result_is_prefix_topk():
    index, queries = make_index("F-SIR")
    engine = Fexipro.from_index(index)
    q = queries[0]
    result = engine.query(q, k=K, budget=100 * D)
    qs = index._prepare_query(q)
    positions, scores = oracle_topk(index._live, qs, K,
                                    range(result.stats.scanned))
    assert list(result.ids) == [index.order[p] for p in positions]
    assert result.scores == scores
    assert not result.complete
    assert result.bounds.certified
    assert result.bounds.lower == tuple(result.scores)


def test_budget_monotone_scanned_growth():
    """More budget never scans fewer items (anytime property)."""
    index, queries = make_index("F-SIR")
    qs = index._prepare_query(queries[0])
    scanned = []
    for items_budget in (10, 50, 200, 900):
        __, stats = index._scan(
            qs, K, options=ScanOptions(budget=FlopBudget(items_budget * D)))
        scanned.append(stats.scanned)
    assert scanned == sorted(scanned)


# ----------------------------------------------------------------------
# satellite: instant expiry is a well-formed degraded result, never a
# crash — across the single, sharded, service and process paths
# ----------------------------------------------------------------------

def test_zero_budget_single_scan_is_empty_prefix():
    for engine in ENGINES:
        index, queries = make_index("F-SIR", engine=engine)
        result = Fexipro.from_index(index).query(queries[0], k=K, budget=0.0)
        assert result.ids == []
        assert result.scores == []
        assert not result.complete
        assert result.stats.budget_exhausted == 1
        assert result.stats.scanned == 0
        assert result.bounds.kth_lower == -math.inf
        assert math.isfinite(result.bounds.tail_upper)


def test_zero_budget_sharded_scan_is_empty_prefix():
    sharded, queries = make_index("F-SIR", sharded=True)
    result = sharded.query(queries[0], K,
                           options=ScanOptions(budget=FlopBudget(0.0)))
    assert result.ids == []
    assert not result.complete
    assert result.stats.budget_exhausted >= 1
    assert result.bounds.kth_lower == -math.inf


@pytest.mark.parametrize("executor", ("process", "serial"))
def test_zero_budget_service_batch_never_raises(executor):
    from repro.serve.procpool import process_executor_usable

    if executor == "process" and not process_executor_usable():
        pytest.skip("no usable multiprocessing start method")
    index, queries = make_index("F-SIR")
    config = ServiceConfig(workers=2, executor=executor,
                           budget_flops=0.0)
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:5], k=K)
    assert not response.errors
    assert response.budget_hits == 5
    for result in response.results:
        assert result.ids == []
        assert result.bounds is not None
        assert result.bounds.kth_lower == -math.inf


def test_zero_budget_sharded_service_batch_never_raises():
    sharded, queries = make_index("F-SIR", sharded=True)
    config = ServiceConfig(workers=2, budget_flops=0.0, engine="blocked")
    with RetrievalService(sharded, config) as service:
        response = service.batch(queries[:3], k=K)
    assert not response.errors
    assert response.budget_hits == 3
    for q, result in zip(queries[:3], response.results):
        assert result.ids == []
        assert result.bounds is not None
        # A budgeted sharded query is the single scan the service ran:
        # stopped before its first block, with the same certified band.
        direct, reports = sharded.query_detailed(
            q, K, options=ScanOptions(budget=FlopBudget(0.0)))
        assert reports == []
        assert direct.ids == []
        assert direct.stats.as_dict() == result.stats.as_dict()
        assert direct.stats.budget_exhausted == 1
        assert direct.bounds.as_dict() == result.bounds.as_dict()


def test_instantly_expired_deadline_is_empty_prefix():
    """The twin edge for wall-clock deadlines: expired before block one."""
    from repro.serve.resilience import Deadline

    for sharded in (False, True):
        index, queries = make_index("F-SIR", sharded=sharded)
        # A clock that jumps past the horizon before the first poll.
        ticks = iter([0.0] + [math.inf] * 10_000)
        deadline = Deadline(1.0, clock=lambda: next(ticks, math.inf))
        result = index.query(queries[0], K,
                             options=ScanOptions(deadline=deadline))
        assert result.ids == []
        assert result.scores == []
        assert not result.complete
        assert result.stats.deadline_hit >= 1
        assert result.stats.scanned == 0


# ----------------------------------------------------------------------
# service policies: degrade, fail, and shedding
# ----------------------------------------------------------------------

EXECUTORS = ("serial", "process")


def serve_batch(index, queries, executor, **config):
    """One budget-mode batch on ``executor`` plus the metrics snapshot."""
    config = ServiceConfig(workers=2, executor=executor,
                           **config)
    with RetrievalService(index, config) as service:
        response = service.batch(queries, k=K)
        return response, service.metrics_snapshot()


def assert_same_response(got, want):
    """Every executor answers (and fails) exactly as the serial one."""
    assert len(got.results) == len(want.results)
    for a, b in zip(got.results, want.results):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.ids == b.ids
            assert a.scores == b.scores
            assert a.stats.as_dict() == b.stats.as_dict()
            assert a.bounds == b.bounds
    assert [(e.index, e.error_type, e.retried) for e in got.errors] == \
        [(e.index, e.error_type, e.retried) for e in want.errors]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_truncation_policy_degrade_flags_and_bounds(executor):
    index, queries = make_index("F-SIR")
    response, snapshot = serve_batch(index, queries[:4], executor,
                                     budget_flops=100 * D)
    assert_same_response(response, serve_batch(
        index, queries[:4], "serial", budget_flops=100 * D)[0])
    assert response.budget_hits == 4
    assert response.deadline_hits == 0
    assert not response.complete
    assert not response.errors
    for result in response.results:
        assert result.bounds is not None
        assert result.bounds.lower == tuple(result.scores)
    assert snapshot["counters"]["budget.degraded_queries"] == 4
    assert snapshot["counters"]["pruning.budget_exhausted"] == 4


@pytest.mark.parametrize("executor", EXECUTORS)
def test_truncation_policy_fail_raises_structured_errors(executor):
    index, queries = make_index("F-SIR")
    config = ServiceConfig(workers=2, executor=executor,
                           budget_flops=50 * D, truncation_policy="fail")
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:4], k=K)
        with pytest.raises(BudgetExhaustedError) as excinfo:
            service.query(queries[0], k=K)
    # The process executor reaches its "ok"-then-fail-policy branch here:
    # workers report the truncated scan, the parent fails the query.
    assert_same_response(response, serve_batch(
        index, queries[:4], "serial", budget_flops=50 * D,
        truncation_policy="fail")[0])
    assert len(response.errors) == 4
    for error in response.errors:
        assert error.error_type == "BudgetExhaustedError"
        assert error.error.items_scanned >= 0
    assert all(result is None for result in response.results)
    assert excinfo.value.items_scanned >= 0


def test_overload_shedding_is_structured_and_stateless():
    index, queries = make_index("F-SIR")
    config = ServiceConfig(workers=1, budget_flops=float(900 * D),
                           shed_capacity_flops=1.0,
                           cache_capacity=8)
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:5], k=K)
        snapshot = service.metrics_snapshot()
    assert response.shed == len(response.errors) == 5
    for error in response.errors:
        assert error.code == "shed"
        assert isinstance(error.error, OverloadSheddedError)
        assert error.as_dict()["code"] == "shed"
    assert all(result is None for result in response.results)
    assert list(response.provenance) == ["shed"] * 5
    # Zero partial state: nothing scanned, nothing cached.
    assert response.stats.scanned == 0
    assert snapshot["cache"]["size"] == 0
    assert snapshot["counters"]["shed.queries"] == 5


def _estimated_flops(index, budget_flops):
    """The per-query demand estimate admission control will use."""
    probe_config = ServiceConfig(workers=1, budget_flops=budget_flops)
    with RetrievalService(index, probe_config) as probe:
        return min(probe._estimate_query_flops(), budget_flops)


def test_overload_shrinks_budgets_before_shedding():
    index, queries = make_index("F-SIR")
    full = float(index.n * D)
    estimate = _estimated_flops(index, full)
    # Capacity covers half the batch's estimated demand: the shrunk
    # per-query share (capacity / 5) stays above the 10% floor, so all
    # five queries are admitted with smaller budgets and none is shed.
    config = ServiceConfig(workers=1, budget_flops=full,
                           shed_capacity_flops=estimate * 2.5)
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:5], k=K)
        snapshot = service.metrics_snapshot()
    assert not response.errors
    assert response.shed == 0
    assert snapshot["counters"]["shed.shrunk_queries"] == 5
    # Shrunk budgets still produce certified exact-prefix results.
    for result in response.results:
        assert result is not None
        assert result.bounds is not None


def test_partial_shed_admits_head_of_queue():
    index, queries = make_index("F-SIR")
    full = float(index.n * D)
    floor = RetrievalService.SHED_BUDGET_FLOOR * full
    # Capacity covers two floor-budget queries (2.5 floors rounds down);
    # shrinking all five would land below the floor, so the head two are
    # admitted at the floor budget and the tail three are shed.
    config = ServiceConfig(workers=1, budget_flops=full,
                           shed_capacity_flops=floor * 2.5)
    with RetrievalService(index, config) as service:
        response = service.batch(queries[:5], k=K)
    admitted = [r for r in response.results if r is not None]
    assert len(admitted) == 2
    assert response.shed == 3
    shed_indices = sorted(e.index for e in response.errors)
    assert shed_indices == [2, 3, 4]  # tail shed, head admitted


# ----------------------------------------------------------------------
# satellite: configuration parity and clean rejections
# ----------------------------------------------------------------------

def test_service_config_budget_validation():
    ok = ServiceConfig(budget_flops=100.0)
    assert ok.truncation_policy == "degrade"
    ServiceConfig(budget_flops=math.inf,
                  truncation_policy="fail", shed_capacity_flops=10.0)
    cases = [
        dict(truncation_policy="budget", budget_flops=5.0),  # not a policy
        dict(budget_flops=-1.0),                             # negative
        dict(budget_flops=math.nan),
        dict(budget_flops=5.0,
             deadline_ms=10.0),                              # two triggers
        dict(budget_flops=5.0,
             truncation_policy="explode"),                   # bad policy
        dict(shed_capacity_flops=5.0),                       # no budget
        dict(budget_flops=5.0,
             shed_capacity_flops=0.0),                       # not positive
    ]
    for bad in cases:
        with pytest.raises(ValidationError):
            ServiceConfig(**bad)


def test_old_truncation_knobs_are_gone():
    # One policy field covers both triggers; budget mode is simply
    # budget_flops being set.
    for trigger in ("budget", "deadline"):
        with pytest.raises(TypeError):
            ServiceConfig(**{f"{trigger}_policy": "fail"})


def test_scan_options_refuse_two_triggers():
    from repro.serve.resilience import Deadline

    index, queries = make_index("F-SIR")
    with pytest.raises(ValidationError, match="not both"):
        index.query(queries[0], K, options=ScanOptions(
            deadline=Deadline(60.0), budget=FlopBudget(10.0)))
    with pytest.raises(ValidationError, match="one degradation trigger"):
        ScanOptions(budget=FlopBudget(10.0)).replace(
            deadline=Deadline(60.0))


def test_budget_mode_campaign_probes_carry_the_budget():
    # A zero budget stops every verification scan before its first
    # block: a probe that needs one fails (an audience is exact or
    # absent), a probe whose users are all pruned still answers.
    from repro.core.reverse import ReverseIndex

    index, queries = make_index("F-SIR")
    users = queries[:12]
    probes = [int(index.query(users[0], k=1).ids[0]), 0, 1, 2]
    with RetrievalService(index, ServiceConfig(workers=1),
                          reverse=ReverseIndex(index, users)) as service:
        unbudgeted = service.campaign(probes, k=K)
    config = ServiceConfig(workers=1, budget_flops=0.0)
    with RetrievalService(index, config,
                          reverse=ReverseIndex(index, users)) as service:
        response = service.campaign(probes, k=K)
    assert not unbudgeted.errors
    assert unbudgeted.results[0].stats.verified > 0
    assert 0 in {e.index for e in response.errors}
    for error in response.errors:
        assert error.error_type == "BudgetExhaustedError"
        assert error.error.items_scanned == 0
        assert response.results[error.index] is None
    for got, want in zip(response.results, unbudgeted.results):
        if got is not None:
            assert got.stats.verified == 0
            assert got.user_ids == want.user_ids


def test_facade_budget_rejections():
    items, queries = make_mf_like(200, D, seed=5)
    engine = Fexipro(items, variant="F-SIR")
    from repro.serve.resilience import Deadline

    with pytest.raises(ValidationError):
        engine.query(queries[0], k=K, budget=10.0,
                     options=ScanOptions(budget=FlopBudget(5.0)))
    with pytest.raises(ValidationError):
        engine.query(queries[0], k=K, budget=10.0,
                     options=ScanOptions(deadline=Deadline(1.0)))
    with pytest.raises(ValidationError):
        engine.query(queries[0], k=K, budget=-3.0)


def test_cli_serve_rejects_budget_with_deadline():
    from repro.cli import main

    # The CLI builds its ServiceConfig before any work, so the config's
    # own refusal surfaces.
    with pytest.raises(ValidationError, match="not both"):
        main(["serve", "--budget-flops", "100", "--deadline-ms", "5"])
    with pytest.raises(ValidationError, match="requires budget_flops"):
        main(["serve", "--shed-capacity-flops", "100"])


# ----------------------------------------------------------------------
# observability: explain and trace exposure
# ----------------------------------------------------------------------

def test_explain_reports_budget_degradation():
    items, queries = make_mf_like(900, D, seed=23)
    engine = Fexipro(items, variant="F-SIR", block_size=BLOCK_SIZE)
    explanation = engine.explain(
        queries[0], k=K,
        options=ScanOptions(budget=FlopBudget(80 * D)))
    assert not explanation.result.complete
    assert explanation.result.stats.budget_exhausted == 1
    text = explanation.format()
    assert "budget-degraded" in text
    assert "band:" in text
    dumped = explanation.to_dict()
    assert dumped["bounds"] is not None
    assert dumped["bounds"]["certified"]
    assert dumped["counters"]["budget_exhausted"] == 1


def test_budget_exhaustion_emits_trace_event():
    index, queries = make_index("F-SIR")
    config = ServiceConfig(workers=1, budget_flops=80 * D, trace_sample_rate=1.0)
    with RetrievalService(index, config) as service:
        service.batch(queries[:2], k=K)
        spans = [span.as_dict() for span in service.tracer.spans]
    events = [event["name"] for span in spans for event in span["events"]]
    assert "budget_exhausted" in events
