"""Property tests for the deadline contract (PR 3, DESIGN.md §2.8).

Two claims, checked across all five paper variants and both index shapes:

(a) **A deadline that never fires changes nothing.**  The poll only gates
    which blocks run; with an infinite budget the scan is *bitwise*
    identical (ids, scores, every pruning counter) to the seed scan with
    no deadline argument at all.

(b) **A deadline that fires yields the exact top-k of the scanned
    prefix.**  Items are visited in descending-length order, so the
    visited set is a contiguous prefix of sorted positions (a union of
    per-shard prefixes in the sharded case); every pruning threshold the
    engine used was *achieved* by collected items inside that set, so the
    degraded buffer must equal a brute-force top-k over exactly those
    positions — verified here against an oracle that replays the engine's
    own per-row formula with no pruning at all.

The scanned set is recovered from the ``scan`` fault site (each entered
block fires ``block=<start>`` before scanning), using a recording probe
instead of a fault-raising injector — so the oracle observes the real
execution rather than re-deriving the block schedule.
"""

import math

import pytest

from repro import FexiproIndex, ShardedFexiproIndex, _faultsites
from repro.core.blocked import scan_blocked, block_schedule
from repro.core.gemm import scan_gemm
from repro.core.options import ScanOptions
from repro.core.variants import VARIANTS

from conftest import make_mf_like, oracle_topk, stepped_clock

ALL_VARIANTS = sorted(VARIANTS)


class PollClock:
    """Returns 0.0 for the first ``fire_after`` deadline polls, then +inf.

    The :class:`~repro.serve.resilience.Deadline` constructor consumes one
    extra call, accounted for here, so ``fire_after=b`` lets exactly ``b``
    ``expired()`` polls pass before the deadline reads as expired.
    """

    def __init__(self, fire_after: int):
        self.calls = 0
        self.fire_after = fire_after

    def __call__(self) -> float:
        self.calls += 1
        return 0.0 if self.calls <= self.fire_after + 1 else float("inf")


class RecordingProbe:
    """A faultless injector: records every scan-site context it sees."""

    def __init__(self):
        self.contexts = []

    def fire(self, site: str, context: str) -> None:
        if site == _faultsites.SCAN:
            self.contexts.append(context)

    def transform(self, site: str, payload: bytes, context: str) -> bytes:
        return payload


def scanned_positions(contexts, span_of_shard):
    """Recover the set of sorted positions whose block was entered."""
    positions = set()
    for context in contexts:
        parts = dict(part.split("=") for part in context.split(":"))
        bstart = int(parts["block"])
        start, stop = span_of_shard(int(parts.get("shard", -1)))
        # Re-derive this shard's block boundaries to find the block's stop.
        for s, e in block_schedule(stop - start, K, BLOCK_SIZE):
            if s + start == bstart:
                positions.update(range(bstart, e + start))
                break
        else:  # pragma: no cover - schedule mismatch is a test bug
            raise AssertionError(f"unknown block start {bstart}")
    return positions


K = 7
BLOCK_SIZE = 64  # small blocks so mid-scan deadlines have blocks to split


def make_index(variant, sharded=False):
    items, queries = make_mf_like(900, 16, seed=23)
    if sharded:
        index = ShardedFexiproIndex(items, shards=3, workers=1,
                                    variant=variant, block_size=BLOCK_SIZE)
    else:
        index = FexiproIndex(items, variant=variant, block_size=BLOCK_SIZE)
    return index, queries


def result_key(result):
    return (result.ids, result.scores, result.stats.as_dict())


# ----------------------------------------------------------------------
# (a) never-firing deadlines are invisible, bit for bit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_infinite_deadline_is_bitwise_identical_single(variant):
    from repro.serve.resilience import Deadline

    index, queries = make_index(variant)
    for q in queries[:6]:
        qs = index._prepare_query(q)
        seed_buffer, seed_stats = index._scan(qs, K)
        armed_buffer, armed_stats = index._scan(
            qs, K, options=ScanOptions(deadline=Deadline(math.inf)))
        assert armed_buffer.items_and_scores() == \
            seed_buffer.items_and_scores()
        assert armed_stats.as_dict() == seed_stats.as_dict()
        assert armed_stats.deadline_hit == 0


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_infinite_deadline_is_bitwise_identical_sharded(variant):
    from repro.serve.resilience import Deadline

    sharded, queries = make_index(variant, sharded=True)
    # Both the single scan and a one-worker process fan-out (the
    # deadline travels to the workers as an absolute expiry).
    fanned = ShardedFexiproIndex.from_index(sharded.index, shards=3,
                                            workers=1, executor="process")
    with fanned:
        for index in (sharded, fanned):
            for q in queries[:6]:
                seed, seed_reports = index.query_detailed(q, K)
                armed, armed_reports = index.query_detailed(
                    q, K, options=ScanOptions(deadline=Deadline(math.inf)))
                assert armed.ids == seed.ids
                assert armed.scores == seed.scores
                assert armed.stats.as_dict() == seed.stats.as_dict()
                assert [r.stats.as_dict() for r in armed_reports] == \
                    [r.stats.as_dict() for r in seed_reports]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_unconfigured_service_deadline_matches_seed_results(variant):
    """End to end: deadline_ms=None serves results identical to a serial loop."""
    from repro.serve import RetrievalService, ServiceConfig

    index, queries = make_index(variant)
    serial = [index.query(q, k=K) for q in queries[:6]]
    with RetrievalService(index, ServiceConfig(workers=1,
                                               engine="blocked")) as service:
        response = service.batch(queries[:6], k=K)
    assert response.complete
    for result, truth in zip(response.results, serial):
        assert result.ids == truth.ids
        assert result.scores == truth.scores
        assert result.stats.as_dict() == truth.stats.as_dict()


# ----------------------------------------------------------------------
# (b) a firing deadline yields the exact top-k of the scanned prefix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", ["blocked", "gemm"])
@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("fire_after", [0, 1, 2, 4, 7])
def test_degraded_single_scan_is_exact_prefix_topk(variant, fire_after,
                                                   engine):
    from repro.serve.resilience import Deadline

    scan = scan_gemm if engine == "gemm" else scan_blocked
    index, queries = make_index(variant)
    for q in queries[:4]:
        qs = index._prepare_query(q)
        deadline = Deadline(1.0, clock=PollClock(fire_after))
        probe = RecordingProbe()
        _faultsites.arm(probe)
        try:
            buffer, stats = scan(index, qs, K, BLOCK_SIZE,
                                 options=ScanOptions(deadline=deadline))
        finally:
            _faultsites.disarm(probe)
        positions = scanned_positions(probe.contexts,
                                      lambda _s: (0, index.n))
        # The prefix is contiguous from position 0 and grows with the budget.
        assert positions == set(range(len(positions)))
        if stats.deadline_hit:
            assert len(positions) < index.n or stats.length_terminated
        ids, scores = buffer.items_and_scores()
        oracle_ids, oracle_scores = oracle_topk(index._live, qs, K, positions)
        assert ids == oracle_ids
        assert scores == oracle_scores


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("fire_after", [1, 3, 6, 10])
def test_degraded_sharded_scan_is_exact_topk_of_scanned_union(variant,
                                                              fire_after):
    from repro.serve.resilience import Deadline

    # In one process a sharded index runs its inner single scan, so the
    # scanned set is one length-sorted prefix of the whole catalog.
    sharded, queries = make_index(variant, sharded=True)
    plain = sharded.index
    for q in queries[:4]:
        qs = plain._prepare_query(q)
        deadline = Deadline(1.0, clock=PollClock(fire_after))
        probe = RecordingProbe()
        _faultsites.arm(probe)
        try:
            result, reports = sharded.query_detailed(
                q, K, options=ScanOptions(deadline=deadline))
        finally:
            _faultsites.disarm(probe)
        assert reports == []
        positions = scanned_positions(probe.contexts, lambda _s: (0, plain.n))
        oracle_ids, oracle_scores = oracle_topk(plain._live, qs, K, positions)
        assert [plain.order[p] for p in oracle_ids] == list(result.ids)
        assert oracle_scores == list(result.scores)
        # Sanity: a deadline that never fired leaves the full answer.
        if result.stats.deadline_hit == 0:
            assert result.ids == plain.query(q, k=K).ids


@pytest.mark.parametrize("sharded", [False, True])
def test_degraded_service_result_is_exact_prefix_topk(sharded):
    """The service-level degrade path returns the prefix oracle's answer.

    Over a sharded index the service runs the inner index's single scan,
    so both legs check against the one-span prefix oracle.
    """
    from repro.serve import RetrievalService, ServiceConfig

    index, queries = make_index("F-SIR", sharded=sharded)
    plain = index.index if sharded else index

    # The oracle re-derives the blocked engine's BLOCK_SIZE schedule.
    config = ServiceConfig(workers=1, deadline_ms=1_000.0, engine="blocked")
    probe = RecordingProbe()
    service = RetrievalService(index, config, clock=stepped_clock())
    with service:
        _faultsites.arm(probe)
        try:
            response = service.batch(queries[:3], k=K)
        finally:
            _faultsites.disarm(probe)
    assert not response.complete
    assert response.deadline_hits >= 1
    # Group recorded contexts per query tag and check each degraded
    # result against its own scanned-set oracle.
    for qi, result in enumerate(response.results):
        contexts = [c.split(":", 1)[1] for c in probe.contexts
                    if c.startswith(f"q={qi}:")]
        positions = scanned_positions(contexts, lambda _s: (0, plain.n))
        qs = plain._prepare_query(queries[qi])
        oracle_ids, oracle_scores = oracle_topk(plain._live, qs, K, positions)
        assert [plain.order[p] for p in oracle_ids] == list(result.ids)
        assert oracle_scores == list(result.scores)


def test_degraded_sharded_query_is_exact_prefix_topk():
    """A sharded query's degrade path is the single scan's.

    The process fan-out's shard-boundary polls are pinned in
    ``tests/test_mp.py``; in one process the deadline is polled only at
    the single scan's block boundaries.
    """
    from repro.serve.resilience import Deadline

    sharded, queries = make_index("F-SIR", sharded=True)
    plain = sharded.index
    clock = stepped_clock()
    probe = RecordingProbe()
    results = []
    _faultsites.arm(probe)
    try:
        for qi, q in enumerate(queries[:3]):
            options = ScanOptions(deadline=Deadline(1.0, clock=clock))
            with _faultsites.tagged(f"q={qi}"):
                result, reports = sharded.query_detailed(q, K,
                                                         options=options)
            results.append((result, reports))
    finally:
        _faultsites.disarm(probe)
    for qi, (result, reports) in enumerate(results):
        assert reports == []
        assert not result.complete
        assert result.stats.deadline_hit == 1
        contexts = [c.split(":", 1)[1] for c in probe.contexts
                    if c.startswith(f"q={qi}:")]
        positions = scanned_positions(contexts, lambda _s: (0, plain.n))
        qs = plain._prepare_query(queries[qi])
        oracle_ids, oracle_scores = oracle_topk(plain._live, qs, K, positions)
        assert [plain.order[p] for p in oracle_ids] == list(result.ids)
        assert oracle_scores == list(result.scores)


# ----------------------------------------------------------------------
# deadline x budget: a scan takes one trigger, and whichever one it takes,
# the degraded result is the exact top-k of the scanned prefix
# (DESIGN.md §2.13)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fire_after", [1, 3, 10_000])
@pytest.mark.parametrize("items_budget", [30, 200, 10_000])
def test_deadline_and_budget_combined_is_exact_prefix_topk(fire_after,
                                                           items_budget):
    from repro.core.budget import FlopBudget
    from repro.exceptions import ValidationError
    from repro.serve.resilience import Deadline

    index, queries = make_index("F-SIR")
    coordinate_budget = items_budget * index.d
    with pytest.raises(ValidationError, match="not both"):
        ScanOptions(deadline=Deadline(1.0, clock=PollClock(fire_after)),
                    budget=FlopBudget(coordinate_budget))
    for q in queries[:3]:
        qs = index._prepare_query(q)
        for options in (
                ScanOptions(deadline=Deadline(1.0,
                                              clock=PollClock(fire_after))),
                ScanOptions(budget=FlopBudget(coordinate_budget))):
            buffer, stats = scan_blocked(index, qs, K, BLOCK_SIZE,
                                         options=options)
            prefix = set(range(stats.scanned))
            assert buffer.items_and_scores() == oracle_topk(
                index._live, qs, K, prefix)
            # Only the armed trigger can claim the stop.
            if options.budget is None:
                assert stats.budget_exhausted == 0
                if fire_after == 10_000:
                    assert stats.deadline_hit == 0
            else:
                assert stats.deadline_hit == 0
                if items_budget < 200:
                    assert stats.budget_exhausted == 1
                elif items_budget >= index.n:
                    assert stats.budget_exhausted == 0


def test_budget_fires_before_late_deadline_and_band_attaches():
    """A loose deadline never fires; a tight budget claims the stop and
    the query path still certifies the band.  One scan takes one of the
    two, never both."""
    from repro.core.budget import FlopBudget
    from repro.exceptions import ValidationError
    from repro.serve.resilience import Deadline

    index, queries = make_index("F-SIR")
    with pytest.raises(ValidationError, match="one degradation trigger"):
        index.query(queries[0], K,
                    options=ScanOptions(deadline=Deadline(math.inf),
                                        budget=FlopBudget(50 * index.d)))
    late = index.query(queries[0], K,
                       options=ScanOptions(deadline=Deadline(math.inf)))
    assert late.complete and late.stats.deadline_hit == 0
    result = index.query(
        queries[0], K, options=ScanOptions(budget=FlopBudget(50 * index.d)))
    assert result.stats.budget_exhausted == 1
    assert result.stats.deadline_hit == 0
    assert not result.complete
    assert result.bounds is not None
    assert result.bounds.lower == tuple(result.scores)
