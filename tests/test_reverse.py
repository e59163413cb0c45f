"""Reverse MIPS: bitwise-oracle identity for audiences, plus the served
campaign path.

The load-bearing property: ``reverse_query(p, k)`` returns exactly the
users whose forward top-k contains ``p`` — same ids, same k-th-score
floats — as the brute-force oracle (one forward query per user,
membership check), across every variant, engine, index flavour, and
while the catalogs churn underneath.
"""

import math
import threading
import time

import numpy as np
import pytest

from repro import (
    BudgetExhaustedError,
    DeadlineExceededError,
    Fexipro,
    FexiproIndex,
    FlopBudget,
    RetrievalService,
    ReverseIndex,
    ScanOptions,
    ServiceConfig,
    ShardedFexiproIndex,
    VARIANTS,
    ValidationError,
    campaign_scan,
)
from repro.core.index import prepare_query_states
from repro.serve import FaultInjector, FaultRule
from repro.serve.resilience import Deadline

from conftest import make_mf_like


def make_corpora(n=260, m=48, d=12, seed=21):
    items, __ = make_mf_like(n, d, seed=seed)
    users, __ = make_mf_like(m, d, seed=seed + 1)
    return items, users


def oracle_audience(index, users, item, k):
    """Brute force: run the forward top-k for every user, keep members.

    Returns (sorted user indices, their k-th scores) using the index's
    own exact engine — the floats the reverse path must reproduce
    bitwise.
    """
    out_ids, out_kth = [], []
    for u in range(users.shape[0]):
        r = index.query(users[u], k)
        if item in list(r.ids):
            out_ids.append(u)
            scores = list(r.scores)
            out_kth.append(float(scores[-1]) if len(scores) < k
                           else float(scores[k - 1]))
    return out_ids, out_kth


def pick_probe(index, users, k):
    """A probe item id with a non-empty (but not universal) audience.

    The forward top-k of a handful of users is enough: any item one of
    them retrieves has a non-empty audience.
    """
    for u in range(min(8, users.shape[0])):
        for item in index.query(users[u], k).ids:
            ids, __ = oracle_audience(index, users, int(item), k)
            if ids and len(ids) < users.shape[0]:
                return int(item)
    raise AssertionError("workload produced no discriminating probe")


# ----------------------------------------------------------------------
# Oracle identity across variants
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_reverse_matches_oracle(variant):
    items, users = make_corpora()
    index = FexiproIndex(items, variant=variant)
    rindex = ReverseIndex(index, users, variant=variant)
    for item in (0, 3, 57, 200):
        want_ids, want_kth = oracle_audience(index, users, item, 8)
        got = rindex.reverse_query(item, 8)
        assert got.user_ids == want_ids
        assert got.kth_scores == want_kth
        assert got.item == item
        assert got.audience_size == len(want_ids) == len(got)


@pytest.mark.parametrize("k", [1, 7, 48, 500])
def test_reverse_matches_oracle_across_k(k):
    items, users = make_corpora()
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    for item in (1, 42):
        want_ids, want_kth = oracle_audience(index, users, item, k)
        got = rindex.reverse_query(item, k)
        assert got.user_ids == want_ids
        assert got.kth_scores == want_kth
    if k >= items.shape[0]:
        # Fewer visible items than k: every item is in every top-k.
        assert got.user_ids == list(range(users.shape[0]))


def test_engines_and_flavours_bitwise_identical():
    items, users = make_corpora()
    single = FexiproIndex(items, variant="F-SIR")
    base = ReverseIndex(single, users).reverse_query(5, 8)
    for engine in ("reference", "blocked", "gemm", "auto"):
        r = ReverseIndex(FexiproIndex(items, variant="F-SIR"),
                         users).reverse_query(5, 8, engine=engine)
        assert r.user_ids == base.user_ids
        assert r.kth_scores == base.kth_scores
    sharded = ShardedFexiproIndex(items, shards=3, variant="F-SIR")
    r = ReverseIndex(sharded, users).reverse_query(5, 8)
    assert r.user_ids == base.user_ids
    assert r.kth_scores == base.kth_scores


def test_tie_boundary_probe_is_verified_not_guessed():
    # Users that ARE item rows: the probe sits exactly at its own score,
    # the hardest float boundary (probe may be the k-th item exactly).
    items, __ = make_corpora()
    users = items[:30].copy()
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    for item in (0, 7, 29):
        want_ids, want_kth = oracle_audience(index, users, item, 5)
        got = rindex.reverse_query(item, 5)
        assert got.user_ids == want_ids
        assert got.kth_scores == want_kth
        forward = [int(i) for i in index.query(users[item], 5).ids]
        assert (item in forward) == (item in got.user_ids)


# ----------------------------------------------------------------------
# Stats accounting and the bound table
# ----------------------------------------------------------------------


def test_stats_partition_the_user_sweep():
    items, users = make_corpora()
    rindex = ReverseIndex(FexiproIndex(items, variant="F-SIR"), users)
    s = rindex.reverse_query(3, 8).stats
    assert s.n_users == users.shape[0]
    assert (s.pruned_cauchy_schwarz + s.pruned_bound_table
            + s.admitted_cached + s.verified) == s.n_users
    assert s.verified == s.verified_admitted + s.verified_rejected
    assert s.bounds_exact + s.bounds_length_sort == s.n_users
    assert s.bounds_exact == 0          # cold: no exact thresholds yet
    assert s.audience == s.admitted_cached + s.verified_admitted
    assert 0.0 <= s.pruned_fraction <= 1.0
    d = s.as_dict()
    assert d["n_users"] == s.n_users and "forward" in d


def test_second_query_reuses_exact_bounds():
    items, users = make_corpora()
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    probe = pick_probe(index, users, 8)   # non-empty audience => verifies
    first = rindex.reverse_query(probe, 8)
    assert first.stats.verified > 0
    second = rindex.reverse_query(probe, 8)
    assert second.stats.bounds_exact > 0
    # Warmer, never different.
    assert second.user_ids == first.user_ids
    assert second.kth_scores == first.kth_scores
    assert second.stats.verified <= first.stats.verified
    # A different probe against the warmed table still matches the oracle.
    for item in (0, 3, 57):
        want_ids, want_kth = oracle_audience(index, users, item, 8)
        got = rindex.reverse_query(item, 8)
        assert got.user_ids == want_ids and got.kth_scores == want_kth


def test_mutations_invalidate_exact_bounds():
    items, users = make_corpora()
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    probe = pick_probe(index, users, 8)
    rindex.reverse_query(probe, 8)
    assert rindex.reverse_query(probe, 8).stats.bounds_exact > 0
    new = index.add_items(np.random.default_rng(9).normal(
        scale=0.5, size=(4, items.shape[1])))
    # Catalog changed: thresholds are stale and must not be used.
    after = rindex.reverse_query(probe, 8)
    assert after.stats.bounds_exact == 0
    want_ids, want_kth = oracle_audience(index, users, probe, 8)
    assert after.user_ids == want_ids and after.kth_scores == want_kth
    # And a mutated probe id resolves against the fresh catalog.
    got = rindex.reverse_query(new[0], 8)
    want_ids, want_kth = oracle_audience(index, users, new[0], 8)
    assert got.user_ids == want_ids and got.kth_scores == want_kth


def test_user_mutations_change_the_audience_exactly():
    items, users = make_corpora()
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    item = pick_probe(index, users, 6)
    before = rindex.reverse_query(item, 6)
    victim = before.user_ids[0]
    assert rindex.remove_users([victim]) == 1
    new_ids = rindex.add_users(users[victim])      # 1-D row accepted
    assert len(new_ids) == 1
    after = rindex.reverse_query(item, 6)
    assert victim not in after.user_ids
    # The re-added copy of the same vector is admitted under its new id.
    assert new_ids[0] in after.user_ids
    assert rindex.n_users == users.shape[0]


# ----------------------------------------------------------------------
# Edge cases and validation
# ----------------------------------------------------------------------


def test_invalid_probes_are_rejected():
    items, users = make_corpora(n=60, m=8)
    rindex = ReverseIndex(FexiproIndex(items, variant="F-SIR"), users)
    for bad in (1.5, True, "3", None, np.float64(2.0)):
        with pytest.raises(ValidationError):
            rindex.reverse_query(bad, 4)
    with pytest.raises(ValidationError):
        rindex.reverse_query(10_000, 4)            # unknown id
    rindex.forward.remove_items([7])
    with pytest.raises(ValidationError):
        rindex.reverse_query(7, 4)                 # tombstoned id
    with pytest.raises(ValidationError):
        rindex.reverse_query(3, 0)
    with pytest.raises(ValidationError):
        ReverseIndex(FexiproIndex(items), np.zeros((4, items.shape[1] + 1)))
    with pytest.raises(ValidationError):
        ReverseIndex(np.zeros((4, 4)), users)


def test_empty_user_corpus_yields_empty_audience():
    items, users = make_corpora(n=50, m=4)
    rindex = ReverseIndex(FexiproIndex(items, variant="F-SIR"), users)
    assert rindex.remove_users(list(range(users.shape[0]))) == users.shape[0]
    got = rindex.reverse_query(0, 5)
    assert got.user_ids == [] and got.kth_scores == []
    assert got.stats.n_users == 0 and len(got) == 0


def test_truncated_verification_raises_never_guesses():
    items, users = make_corpora()
    index = FexiproIndex(items, variant="F-SIR")
    item = pick_probe(index, users, 8)
    fresh = ReverseIndex(index, users)
    with pytest.raises(DeadlineExceededError):
        fresh.reverse_query(item, 8, options=ScanOptions(
            deadline=Deadline(1e-9)))
    with pytest.raises(BudgetExhaustedError):
        fresh.reverse_query(item, 8, options=ScanOptions(
            budget=FlopBudget(1.0)))
    # An infinite budget changes nothing.
    want_ids, want_kth = oracle_audience(index, users, item, 8)
    got = fresh.reverse_query(item, 8, options=ScanOptions(
        budget=FlopBudget(math.inf)))
    assert got.user_ids == want_ids and got.kth_scores == want_kth


# ----------------------------------------------------------------------
# Campaigns (serial primitive)
# ----------------------------------------------------------------------


def test_denormal_range_margin_keeps_the_audience_exact():
    # Products of 1e-162-scaled integer rows land in the denormal range,
    # where a relative-only margin underflows to 0 and a BLAS-vs-engine
    # rounding difference admitted user 18 without verification.
    rng = np.random.default_rng(21)
    items = rng.integers(-3, 4, size=(60, 8)) * 1e-162
    users = rng.integers(-3, 4, size=(40, 8)) * 1e-162
    fx = Fexipro(items, users=users, variant="F-I")
    want_ids, want_kth = oracle_audience(
        FexiproIndex(items, variant="F-I"), users, 0, 5)
    got = fx.reverse_query(0, 5)
    assert want_ids == [2, 4]
    assert got.user_ids == want_ids
    assert got.kth_scores == want_kth


def test_campaign_matches_per_probe_queries():
    items, users = make_corpora()
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    # Lead with a probe that has a real audience, so the first probe's
    # verifications warm the bound table for everything after it.
    lead = pick_probe(index, users, 8)
    probes = [lead] + [p for p in (0, 5, 144) if p != lead]
    response = campaign_scan(rindex, probes, 8)
    assert response.complete and len(response) == len(probes)
    assert response.mode == "reverse/inter"
    for item, result in zip(probes, response.results):
        want_ids, want_kth = oracle_audience(index, users, item, 8)
        assert result.user_ids == want_ids
        assert result.kth_scores == want_kth
    assert response.stats.n_users == len(probes) * users.shape[0]
    assert response.audience_sizes == \
        [r.audience_size for r in response.results]
    # The first probe starts cold and its verifications warm the bound
    # table for every later probe; a second campaign is warm throughout.
    assert response.provenance[0] == "cold"
    assert response.provenance[1:] == ["warm"] * (len(probes) - 1)
    again = campaign_scan(rindex, probes, 8)
    assert again.warm_probes == len(probes)
    assert [r.user_ids for r in again.results] == \
        [r.user_ids for r in response.results]


def test_campaign_isolates_per_probe_failures():
    items, users = make_corpora(n=80, m=12)
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    response = campaign_scan(rindex, [0, 10_000, 3], 5)
    assert not response.complete
    assert response.results[1] is None
    assert response.provenance[1] == "error"
    assert [e.index for e in response.errors] == [1]
    assert response.errors[0].error_type == "ValidationError"
    for item in (0, 3):
        want_ids, __ = oracle_audience(index, users, item, 5)
        got = response.results[[0, 10_000, 3].index(item)]
        assert got.user_ids == want_ids
    with pytest.raises(ValidationError):
        campaign_scan(rindex, [0, 10_000, 3], 5, isolate=False)


# ----------------------------------------------------------------------
# Facade surface
# ----------------------------------------------------------------------


def test_facade_reverse_surface():
    items, users = make_corpora()
    fx = Fexipro(items, variant="F-SIR", users=users)
    index = FexiproIndex(items, variant="F-SIR")
    item = pick_probe(index, users, 8)
    want_ids, want_kth = oracle_audience(index, users, item, 8)
    got = fx.reverse_query(item, 8)
    assert got.user_ids == want_ids and got.kth_scores == want_kth
    response = fx.campaign([item, 0], 8)
    assert response.results[0].user_ids == want_ids
    assert fx.n_users == users.shape[0]
    text = fx.explain_reverse(item, 8).format()
    assert "cauchy_schwarz" in text and "forward_verify" in text


def test_facade_requires_attached_users():
    items, users = make_corpora(n=60, m=6)
    fx = Fexipro(items, variant="F-SIR")
    assert fx.reverse is None and fx.n_users == 0
    for call in (lambda: fx.reverse_query(0, 3),
                 lambda: fx.campaign([0], 3),
                 lambda: fx.explain_reverse(0, 3),
                 lambda: fx.add_users(users),
                 lambda: fx.remove_users([0])):
        with pytest.raises(ValidationError, match="no user corpus"):
            call()
    rindex = fx.attach_users(users)
    assert fx.reverse is rindex and fx.n_users == users.shape[0]
    assert len(fx.reverse_query(0, 3)) == len(
        oracle_audience(FexiproIndex(items, variant="F-SIR"),
                        users, 0, 3)[0])


def test_facade_uniform_kwargs_on_reverse():
    items, users = make_corpora(n=80, m=10)
    fx = Fexipro(items, variant="F-SIR", users=users)
    with pytest.raises(ValidationError, match="not both"):
        fx.reverse_query(0, 4, budget=100.0, deadline=1.0)
    with pytest.raises(ValidationError, match="not both"):
        fx.campaign([0], 4, budget=100.0, deadline=1.0)
    base = fx.reverse_query(0, 4)
    roomy = fx.campaign([0], 4, deadline=60.0)
    assert roomy.results[0].user_ids == base.user_ids
    assert fx.reverse_query(0, 4, budget=math.inf).user_ids == base.user_ids


# ----------------------------------------------------------------------
# Mutation chaos: reverse queries racing live-catalog writers
# ----------------------------------------------------------------------


def snapshot_oracle(rindex, fsnap, usnap, item, k):
    """The brute-force audience pinned to one snapshot pair."""
    rows, uids, __ = (np.empty((0, usnap.d)), np.empty(0, np.int64), None) \
        if usnap.visible_count == 0 else usnap.visible_rows()
    kk = min(k, fsnap.visible_count)
    out_ids, out_kth = [], []
    states = prepare_query_states(fsnap, np.ascontiguousarray(rows))
    for u, qs in zip(uids, states):
        buffer, __ = rindex._inner._scan(qs, kk, snapshot=fsnap)
        positions, scores = buffer.items_and_scores()
        ids = [int(fsnap.full_order[p]) for p in positions]
        if item in ids:
            out_ids.append(int(u))
            out_kth.append(float(scores[-1]) if len(scores) < kk
                           else float(scores[kk - 1]))
    order = np.argsort(out_ids, kind="stable")
    return [out_ids[i] for i in order], [out_kth[i] for i in order]


def test_reverse_races_writers_on_both_corpora_bitwise():
    items, users = make_corpora(n=120, m=12, seed=33)
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    d = items.shape[1]
    stop = threading.Event()
    writer_error = []

    def writer():
        # Strictly size-neutral churn (tracked live-id pools): every add
        # is paired with a remove of a known-alive id, so the corpora —
        # and with them the oracle's per-step cost — stay bounded no
        # matter how many turns the writer squeezes in.
        rng = np.random.default_rng(17)
        item_pool = list(range(120))
        user_pool = list(range(12))
        turn = 0
        try:
            while not stop.is_set():
                item_pool += index.add_items(
                    rng.normal(scale=0.4, size=(3, d)))
                victims = [item_pool.pop(rng.integers(len(item_pool)))
                           for __ in range(3)]
                index.remove_items(victims)
                user_pool += rindex.add_users(
                    rng.normal(scale=0.4, size=(2, d)))
                victims = [user_pool.pop(rng.integers(len(user_pool)))
                           for __ in range(2)]
                rindex.remove_users(victims)
                if turn % 4 == 0:   # full rebuilds are the slow path
                    index.compact()
                    rindex.users.compact()
                turn += 1
                time.sleep(0.001)   # let scans interleave, bound churn
        except Exception as error:  # pragma: no cover - fails the test
            writer_error.append(error)

    thread = threading.Thread(target=writer)
    thread.start()
    try:
        for step in range(20):
            # Pin one snapshot pair and hold it across the scan: the
            # writer keeps swapping catalogs underneath, but the frozen
            # pair must answer exactly — or the probe id must have been
            # removed, which surfaces as a structured error.
            snapshots = rindex.pin()
            fsnap, usnap = snapshots
            item = int(fsnap.full_order[step % max(fsnap.visible_count, 1)])
            try:
                got = rindex.reverse_query(item, 6, snapshots=snapshots)
            except ValidationError:
                continue                      # probe died before the pin
            want_ids, want_kth = snapshot_oracle(rindex, fsnap, usnap,
                                                 item, 6)
            assert got.user_ids == want_ids
            assert got.kth_scores == want_kth
            # The stamps make staleness detectable, never silent.
            assert got.item_state_version == fsnap.state_version
            assert got.user_state_version == usnap.state_version
    finally:
        stop.set()
        thread.join(timeout=30)
    assert not writer_error, writer_error
    # The public path still answers exactly after the dust settles.  The
    # probe must be visible: ``full_order`` also lists tombstoned rows.
    item = int(index._live.visible_rows()[1][0])
    got = rindex.reverse_query(item, 6)
    fsnap, usnap = rindex.pin()
    want_ids, want_kth = snapshot_oracle(rindex, fsnap, usnap, item, 6)
    assert got.user_ids == want_ids and got.kth_scores == want_kth


def test_reverse_thresholds_do_not_cross_writes_or_compaction():
    """Probe, write, probe, compact, probe: every audience and k-th
    score equals the oracle pinned to the probe's own snapshot pair.

    A compaction keeps the visible items but refits the SVD basis, so
    the k-th scores of the next probe round differently; an exact
    threshold recorded before the fold must not be read after it.
    """
    items, users = make_corpora(n=160, m=24, seed=35)
    index = FexiproIndex(items, variant="F-SIR")
    rindex = ReverseIndex(index, users)
    rng = np.random.default_rng(36)
    probe = pick_probe(index, users, 6)

    def check():
        fsnap, usnap = rindex.pin()
        got = rindex.reverse_query(probe, 6)
        want_ids, want_kth = snapshot_oracle(rindex, fsnap, usnap, probe, 6)
        assert got.user_ids == want_ids
        assert got.kth_scores == want_kth
        assert got.item_state_version == fsnap.state_version
        return got

    before = check()
    index.add_items(rng.normal(scale=0.4, size=(4, items.shape[1])))
    index.remove_items([i for i in range(3) if i != probe])
    dirty = check()
    assert dirty.item_state_version > before.item_state_version
    assert index.compact()
    folded = check()
    assert folded.item_state_version == dirty.item_state_version + 1
    # Same visible catalog, same audience — but the fold must actually
    # move score bits, or this test pins nothing.
    assert folded.user_ids == dirty.user_ids
    assert folded.kth_scores != dirty.kth_scores


# ----------------------------------------------------------------------
# The served campaign path
# ----------------------------------------------------------------------


def test_service_campaign_metrics_and_cache_interplay():
    items, users = make_corpora()
    fx = Fexipro(items, variant="F-SIR", users=users)
    index = FexiproIndex(items, variant="F-SIR")
    probes = [pick_probe(index, users, 8), 0, 5]
    config = ServiceConfig(workers=2, cache_capacity=256,
                           collect_timings=False)
    with fx.serve(config) as service:
        # Forward traffic fills the query cache with exact results...
        service.batch(users[:40], k=8)
        response = service.campaign(probes, k=8)
        snapshot = service.metrics_snapshot()
    assert response.complete and len(response) == len(probes)
    for item, result in zip(probes, response.results):
        want_ids, want_kth = oracle_audience(index, users, item, 8)
        assert result.user_ids == want_ids
        assert result.kth_scores == want_kth
    # ...which the reverse path consumes as free exact verifications.
    assert response.stats.cache_bound_hits > 0
    counters = snapshot["counters"]
    assert counters["reverse.campaigns"] == 1
    assert counters["reverse.probes"] == len(probes)
    assert counters["reverse.users_swept"] == len(probes) * users.shape[0]
    assert counters["reverse.audience"] == sum(response.audience_sizes)
    assert counters["reverse.verified"] == response.stats.verified
    assert counters["reverse.cache_bound_hits"] == \
        response.stats.cache_bound_hits
    assert snapshot["histograms"]["latency.reverse_seconds"]["count"] == \
        len(probes)


def test_campaign_takes_prefix_hits_from_the_forward_cache():
    # Forward traffic cached at k=10 answers a k=5 campaign's
    # verifications as prefix hits, with audiences still the oracle's.
    items, users = make_corpora()
    fx = Fexipro(items, variant="F-SIR", users=users)
    index = FexiproIndex(items, variant="F-SIR")
    probes = [pick_probe(index, users, 5), 0, 5]
    config = ServiceConfig(workers=1, cache_capacity=256,
                           collect_timings=False)
    with fx.serve(config) as service:
        service.batch(users, k=10)
        response = service.campaign(probes, k=5)
    assert response.complete
    assert response.stats.cache_bound_hits > 0
    for item, result in zip(probes, response.results):
        want_ids, want_kth = oracle_audience(index, users, item, 5)
        assert result.user_ids == want_ids
        assert result.kth_scores == want_kth


def test_service_campaign_isolates_failures_and_counts_them():
    items, users = make_corpora(n=80, m=10)
    fx = Fexipro(items, variant="F-SIR", users=users)
    with fx.serve(ServiceConfig(workers=2, collect_timings=False)) as svc:
        response = svc.campaign([2, 99_999, 4], k=5)
        counters = svc.metrics_snapshot()["counters"]
    assert response.results[1] is None
    assert [e.index for e in response.errors] == [1]
    assert response.provenance[1] == "error"
    assert counters["reverse.errors"] == 1
    assert counters["errors.queries"] == 1
    index = FexiproIndex(items, variant="F-SIR")
    for pos, item in ((0, 2), (2, 4)):
        want_ids, __ = oracle_audience(index, users, item, 5)
        assert response.results[pos].user_ids == want_ids


class SteppedClock:
    """A fake monotonic clock that moves only when stepped."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def step_after_each_probe(rindex, clock, seconds, seen):
    """Record each probe's deadline, then step ``clock`` past the probe.

    Wraps ``rindex.reverse_query`` on the instance: every probe logs its
    deadline object and the time it had left when the probe began.
    """
    inner = rindex.reverse_query

    def probe(item, k=10, **kwargs):
        deadline = kwargs["options"].deadline
        seen.append((deadline, deadline.remaining()))
        try:
            return inner(item, k, **kwargs)
        finally:
            clock.now += seconds

    rindex.reverse_query = probe


def test_service_campaign_arms_a_fresh_deadline_per_probe():
    items, users = make_corpora(n=80, m=10)
    fx = Fexipro(items, variant="F-SIR", users=users)
    clock = SteppedClock()
    seen = []
    step_after_each_probe(fx.reverse, clock, 10.0, seen)
    config = ServiceConfig(workers=1, deadline_ms=5_000.0,
                           collect_timings=False)
    with RetrievalService(fx.index, config, reverse=fx.reverse,
                          clock=clock) as svc:
        response = svc.campaign([2, 0, 4], k=5)
    # Each probe starts with the whole 5 s, though the clock moved 10 s
    # per probe: a campaign-wide deadline would have run out.
    assert [left for __, left in seen] == [5.0, 5.0, 5.0]
    assert len({id(deadline) for deadline, __ in seen}) == 3
    assert response.complete


def test_facade_campaign_deadline_spans_the_whole_campaign():
    items, users = make_corpora(n=80, m=10)
    fx = Fexipro(items, variant="F-SIR", users=users)
    clock = SteppedClock()
    seen = []
    step_after_each_probe(fx.reverse, clock, 10.0, seen)
    fx.campaign([2, 0, 4], 5, deadline=Deadline(25.0, clock=clock))
    assert [left for __, left in seen] == [25.0, 15.0, 5.0]
    assert len({id(deadline) for deadline, __ in seen}) == 1


def test_service_campaign_traces_one_reverse_scan_per_probe():
    items, users = make_corpora(n=80, m=10)
    fx = Fexipro(items, variant="F-SIR", users=users)
    probes = [2, 99_999, 4]
    config = ServiceConfig(workers=1, trace_sample_rate=1.0,
                           collect_timings=False)
    with fx.serve(config) as svc:
        response = svc.campaign(probes, k=5)
        tracer = svc.tracer
    [root] = tracer.find("serve.campaign")
    assert root.attributes["probes"] == 3
    assert root.attributes["errors"] == 1
    children = [s for s in tracer.spans if s.parent_id == root.span_id]
    assert [s.name for s in children] == ["reverse.scan"] * 3
    assert [(s.attributes["query"], s.attributes["item"])
            for s in children] == list(enumerate(probes))
    assert children[1].attributes["error"] == "ValidationError"
    assert children[0].attributes["audience"] == \
        response.results[0].audience_size
    assert all(s.trace_id == root.trace_id for s in children)


def test_service_campaign_scan_fault_fails_only_its_probe():
    items, users = make_corpora(n=80, m=10)
    fx = Fexipro(items, variant="F-SIR", users=users)
    index = FexiproIndex(items, variant="F-SIR")
    probes = [0, 4, 2]   # probe 1 verifies a user: its scan passes the site
    injector = FaultInjector(
        [FaultRule(site="scan", kind="raise", match="q=1")], seed=0)
    config = ServiceConfig(workers=1, engine="blocked",
                           collect_timings=False)
    with fx.serve(config) as svc, injector:
        response = svc.campaign(probes, k=5)
        counters = svc.metrics_snapshot()["counters"]
    assert [e.index for e in response.errors] == [1]
    assert response.errors[0].error_type == "InjectedFault"
    assert response.results[1] is None
    assert response.provenance[1] == "error"
    for pos in (0, 2):
        want_ids, want_kth = oracle_audience(index, users, probes[pos], 5)
        assert response.results[pos].user_ids == want_ids
        assert response.results[pos].kth_scores == want_kth
    assert counters["errors.queries"] == 1
    assert counters["reverse.errors"] == 1
    assert counters["reverse.probes"] == 3
    assert counters["reverse.audience"] == sum(
        r.audience_size for r in response.results if r is not None)


def test_service_without_reverse_index_refuses_campaigns():
    items, users = make_corpora(n=60, m=6)
    fx = Fexipro(items, variant="F-SIR")
    with fx.serve(ServiceConfig(workers=1, collect_timings=False)) as svc:
        with pytest.raises(ValidationError, match="no reverse index"):
            svc.campaign([0], k=3)
    # A reverse index over a *different* item index is rejected loudly.
    other = ReverseIndex(FexiproIndex(items, variant="F-SIR"), users)
    with pytest.raises(ValidationError, match="same item index"):
        fx.serve(ServiceConfig(workers=1), reverse=other)
