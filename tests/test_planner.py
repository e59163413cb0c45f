"""The adaptive planner's contract: planning changes latency, never answers.

Four claims:

1. **Engine identity** — for every paper variant, the three concrete
   engines (`reference`, `blocked`, `gemm`) and the planned `auto` engine
   return bitwise-identical ids, scores and result ordering, on the plain
   index and on the sharded one, warm-started or cold, and under an
   already-expired deadline (exact-prefix degradation).
2. **Mis-calibration safety** — a cost model with arbitrarily wrong rates
   changes only which engine runs, never what it returns.
3. **Kernel edges** — the shared `topk_select` kernel survives the
   historical `argpartition` crash class (`k >= n`, `n == 1`, 1-D input)
   with deterministic tie handling, and the Table-5 baselines that
   delegate to it stay exact.
4. **Telemetry** — planner decisions, mispredictions and calibration age
   flow through `MetricsRegistry` gauges/counters into the Prometheus
   exposition as a labeled family.
"""

import time

import numpy as np
import pytest

from repro import Fexipro, ScanOptions, ValidationError
from repro.analysis import cost_model as cost_model_module
from repro.analysis.cost_model import (
    PLANNER_ENGINES,
    RATE_STEP_LIMIT,
    CostModel,
    calibrate_cost_model,
    ensure_cost_model,
)
from repro.baselines.minibatch import MiniBatch
from repro.baselines.naive import NaiveBlas
from repro.core.blocked import scan_blocked
from repro.core.gemm import scan_gemm, topk_select
from repro.core.index import FexiproIndex
from repro.core.scanner import scan_reference
from repro.core.sharded import ShardedFexiproIndex
from repro.core.variants import VARIANTS
from repro.datasets.zoo import load as load_zoo
from repro.obs import render_prometheus
from repro.serve.config import ServiceConfig
from repro.serve.metrics import Gauge, MetricsRegistry
from repro.serve.resilience import Deadline
from repro.serve.service import RetrievalService

from conftest import brute_force_topk, make_mf_like

ALL_VARIANTS = sorted(VARIANTS)
ENGINES = ("reference", "blocked", "gemm")


def make_data(n=500, d=16, seed=3):
    return make_mf_like(n, d, seed=seed)


def run_engine(index, qs, k, engine, options=None):
    if engine == "reference":
        return scan_reference(index, qs, k, options=options)
    if engine == "blocked":
        return scan_blocked(index, qs, k, index.block_size, options=options)
    return scan_gemm(index, qs, k, options=options)


# ----------------------------------------------------------------------
# Engine identity: fixed engines and the planned auto engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_all_engines_bitwise_identical_per_variant(variant):
    items, queries = make_data()
    index = FexiproIndex(items, variant=variant)
    for q in queries[:4]:
        qs = index._prepare_query(q)
        for k in (1, 7):
            outputs = {
                engine: run_engine(index, qs, k, engine)
                for engine in ENGINES
            }
            ref_buffer, __ = outputs["reference"]
            expected = ref_buffer.items_and_scores()
            ids, __ = brute_force_topk(items, q, k)
            assert [index.order[i] for i in expected[0]] == list(ids)
            for engine in ("blocked", "gemm"):
                assert outputs[engine][0].items_and_scores() == expected, \
                    f"{engine} diverged from reference ({variant}, k={k})"


@pytest.mark.parametrize("engine", ["auto", "gemm"])
def test_index_engine_knob_matches_default(engine):
    items, queries = make_data()
    baseline = FexiproIndex(items, variant="F-SIR")
    routed = FexiproIndex(items, variant="F-SIR", engine=engine)
    for q in queries[:5]:
        a = baseline.query(q, 9)
        b = routed.query(q, 9)
        assert a.ids == b.ids
        assert a.scores == b.scores
    if engine == "auto":
        model = routed.cost_model
        assert model is not None and model.matches(routed)
        assert model.observations >= 5  # every auto scan feeds the window


@pytest.mark.parametrize("engine", sorted(ENGINES + ("auto",)))
def test_sharded_engines_bitwise_identical(engine):
    items, queries = make_data(800, 20, seed=8)
    single = FexiproIndex(items, variant="F-SIR")
    sharded = ShardedFexiproIndex(items, shards=3, variant="F-SIR",
                                  engine=engine, executor="serial")
    with sharded:
        for q in queries[:4]:
            a = single.query(q, 7)
            b = sharded.query(q, 7)
            assert a.ids == b.ids
            assert a.scores == b.scores


def test_warm_start_threshold_identity_across_engines():
    items, queries = make_data()
    index = FexiproIndex(items, variant="F-SIR")
    q = queries[0]
    qs = index._prepare_query(q)
    cold, __ = run_engine(index, qs, 5, "gemm")
    # Warm-start with a strict lower bound on the true 5th score.
    seed = cold.items_and_scores()[1][-1] - 1e-9
    opts = ScanOptions(initial_threshold=seed)
    outputs = [run_engine(index, qs, 5, e, options=opts)[0]
               for e in ENGINES]
    for buffer in outputs:
        assert buffer.items_and_scores() == cold.items_and_scores()


def test_expired_deadline_degrades_identically():
    items, queries = make_data(900, 16, seed=2)
    index = FexiproIndex(items, variant="F-SIR")
    qs = index._prepare_query(queries[0])
    deadline = Deadline(1e-6)
    time.sleep(0.01)
    assert deadline.expired()
    results = {}
    for engine in ("blocked", "gemm"):
        buffer, stats = run_engine(index, qs, 5, engine,
                                   options=ScanOptions(deadline=deadline))
        assert stats.deadline_hit == 1
        results[engine] = buffer.items_and_scores()
    assert results["blocked"] == results["gemm"]


# ----------------------------------------------------------------------
# Mis-calibration safety
# ----------------------------------------------------------------------


def test_miscalibrated_model_changes_engine_never_results():
    items, queries = make_data()
    index = FexiproIndex(items, variant="F-SIR", engine="auto")
    baseline = FexiproIndex(items, variant="F-SIR")
    model = index.calibrate()
    expected = [baseline.query(q, 7) for q in queries[:3]]
    for forced in PLANNER_ENGINES:
        # Make every engine except `forced` look absurdly expensive.
        for engine in model.rates:
            model.rates[engine] = 1e-12 if engine == forced else 1e3
        chosen, predictions = index.plan_engine()
        assert chosen == forced
        assert set(predictions) == set(PLANNER_ENGINES)
        for q, want in zip(queries[:3], expected):
            got = index.query(q, 7)
            assert got.ids == want.ids
            assert got.scores == want.scores
        # observe() refits the forced rate from real scans, so re-pin it
        # before asserting the next engine; the answers above already
        # proved mis-prediction is latency-only.
        model = index.cost_model


def test_cost_model_predict_choose_and_validation():
    items, __ = make_data(300, 12)
    index = FexiproIndex(items, variant="F-SIR")
    model = calibrate_cost_model(index, samples=2)
    assert set(model.rates) == set(PLANNER_ENGINES) == {"blocked", "gemm"}
    for engine in PLANNER_ENGINES:
        assert model.predict(engine) > 0
    engine, predictions = model.choose()
    assert predictions[engine] == min(predictions.values())
    restricted, restricted_preds = model.choose(("blocked", "gemm"))
    assert set(restricted_preds) == {"blocked", "gemm"}
    assert restricted in ("blocked", "gemm")
    with pytest.raises(ValueError, match="engine"):
        model.predict("warp-drive")
    with pytest.raises(ValueError, match="engine"):
        model.predict("reference")  # a fixed engine, never planned
    summary = model.as_dict()
    assert summary["uid"] == index.uid
    assert set(summary["predictions"]) == set(PLANNER_ENGINES)


def test_cost_model_observe_refits_and_survives_compaction():
    items, queries = make_data(300, 12)
    index = FexiproIndex(items, variant="F-SIR")
    model = ensure_cost_model(index)
    assert ensure_cost_model(index) is model  # cached while it matches
    before = model.rates["blocked"]
    qs = index._prepare_query(queries[0])
    __, stats = scan_blocked(index, qs, 5, index.block_size)
    model.observe("blocked", stats, 10.0)  # absurdly slow observation
    # The observation counts, but moves the rate by one clamped step.
    assert before < model.rates["blocked"] <= before * (
        1.0 - model.decay + model.decay * RATE_STEP_LIMIT) * (1 + 1e-12)
    assert model.observations == 1
    # Degenerate observations are ignored.
    model.observe("blocked", stats, 0.0)
    model.observe("nope", stats, 1.0)
    assert model.observations == 1
    # Rates are machine properties and fractions workload properties:
    # neither delta-tier churn nor a compaction (a new SVD basis over the
    # same rows) invalidates them, so the model binds to the uid alone.
    index.add_items(items[:3])
    assert model.matches(index)
    assert ensure_cost_model(index) is model
    assert index.compact()
    assert model.matches(index)
    assert ensure_cost_model(index) is model
    other = FexiproIndex(items, variant="F-SIR")
    assert not model.matches(other)


def test_calibration_on_a_dirty_catalog_measures_the_base_tier():
    """With more delta rows than tombstones the visible count exceeds
    the base extent; calibration samples and scans the snapshot's base
    tier, so a first ``auto`` query on a freshly compacted-then-written
    catalog plans (and answers exactly) instead of indexing past it.
    """
    items, queries = make_data(300, 12)
    index = FexiproIndex(items, variant="F-SIR")
    index.add_items(items[:8] * 0.9)
    index.remove_items([4])
    model = calibrate_cost_model(index, samples=4)
    assert model.n == index.n_base and model.matches(index)
    for q in queries[:4]:
        want = index.query(q, 5, engine="blocked")
        got = index.query(q, 5, engine="auto")
        assert got.ids == want.ids and got.scores == want.scores


def test_cost_model_persists_through_save_load(tmp_path):
    items, queries = make_data(250, 10)
    engine = Fexipro(items, variant="F-SIR", engine="auto")
    model = engine.calibrate()
    path = tmp_path / "planned.idx"
    engine.save(path)
    loaded = Fexipro.load(path)
    assert loaded.cost_model is not None
    assert loaded.cost_model.matches(loaded.index)
    assert loaded.cost_model.rates == pytest.approx(model.rates)
    want = engine.query(queries[0], 5)
    got = loaded.query(queries[0], 5)
    assert got.ids == want.ids and got.scores == want.scores


# ----------------------------------------------------------------------
# Kernel edges and baseline delegation
# ----------------------------------------------------------------------


def test_topk_select_k_edges_and_ties():
    scores = np.array([[3.0, 1.0, 3.0, 2.0]])
    ids, top = topk_select(scores, 2)
    # Tie on 3.0 broken by ascending column index, not partition order.
    assert ids.tolist() == [[0, 2]]
    assert top.tolist() == [[3.0, 3.0]]
    # k == n and k > n both fall back to a full argsort (no argpartition
    # pivot out of range — the historical crash class).
    for k in (4, 9):
        ids, top = topk_select(scores, k)
        assert ids.tolist() == [[0, 2, 3, 1]]
        assert top.tolist() == [[3.0, 3.0, 2.0, 1.0]]
    # Single-item catalogue and 1-D input.
    ids, top = topk_select(np.array([[7.0]]), 5)
    assert ids.tolist() == [[0]] and top.tolist() == [[7.0]]
    ids, top = topk_select(np.array([2.0, 5.0, 1.0]), 2)
    assert ids.tolist() == [1, 0] and top.tolist() == [5.0, 2.0]
    with pytest.raises(ValueError, match="k must be positive"):
        topk_select(scores, 0)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        topk_select(np.zeros((2, 2, 2)), 1)


@pytest.mark.parametrize("baseline_cls", [NaiveBlas, MiniBatch])
def test_blas_baselines_delegate_exactly(baseline_cls):
    items, queries = make_data(230, 12, seed=7)
    method = baseline_cls(items)
    for q in queries[:4]:
        for k in (1, 5, 229, 230):
            result = method.query(q, k)
            ids, scores = brute_force_topk(items, q, k)
            assert result.ids == list(ids)
            # BLAS batch products round per batch shape, so baseline
            # scores may differ from the GEMV ground truth by an ulp
            # (the *engine* rescans exactly; baselines never claimed to).
            assert result.scores == pytest.approx(list(scores),
                                                  rel=1e-12, abs=1e-300)


# ----------------------------------------------------------------------
# Service planner and telemetry
# ----------------------------------------------------------------------


def test_service_config_engine_validation():
    assert ServiceConfig().engine == "auto"  # served traffic is planned
    assert ServiceConfig(engine=None).engine is None
    with pytest.raises(ValidationError, match="engine"):
        ServiceConfig(engine="warp-drive")


@pytest.mark.parametrize("engine", [None, "reference", "blocked", "gemm",
                                    "auto"])
def test_service_engine_knob_identity(engine):
    items, queries = make_data(400, 14, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    expected = [index.query(q, 6) for q in queries[:6]]
    config = ServiceConfig(workers=2, executor="serial", engine=engine)
    with RetrievalService(FexiproIndex(items, variant="F-SIR"),
                          config) as service:
        response = service.batch(queries[:6], 6)
    for got, want in zip(response.results, expected):
        assert got.ids == want.ids
        assert got.scores == want.scores
    if engine is None:
        assert response.mode == "inter"
        assert response.planner is None
    else:
        mode, __, used = response.mode.partition("/")
        assert mode == "inter"
        assert used in ENGINES
        if engine != "auto":
            assert used == engine
        assert response.planner["configured"] == engine
        assert response.planner["engine"] == used
        assert response.planner["actual_seconds"] >= 0.0


def test_service_planner_metrics_and_prometheus():
    items, queries = make_data(400, 14, seed=5)
    index = FexiproIndex(items, variant="F-SIR")
    config = ServiceConfig(workers=2, executor="serial", engine="auto")
    with RetrievalService(index, config) as service:
        service.batch(queries[:4], 5)
        service.batch(queries[4:8], 5)
        snapshot = service.metrics_snapshot()
    decisions = {name: count
                 for name, count in snapshot["counters"].items()
                 if name.startswith("planner.decisions.")}
    assert sum(decisions.values()) == 2
    assert all(name.rsplit(".", 1)[1] in ENGINES for name in decisions)
    gauges = snapshot["gauges"]
    assert "planner.mispredict_ratio" in gauges
    assert gauges["planner.calibration_age_seconds"] >= 0.0
    assert gauges["planner.observations"] >= 0.0
    text = render_prometheus(snapshot)
    assert "# TYPE repro_planner_decisions_total counter" in text
    assert 'repro_planner_decisions_total{engine="' in text
    assert "# TYPE repro_planner_mispredict_ratio gauge" in text


def test_service_planner_with_cache_warm_start_identity():
    items, queries = make_data(400, 14, seed=6)
    serial = FexiproIndex(items, variant="F-SIR")
    expected = [serial.query(q, 6) for q in queries[:6]]
    config = ServiceConfig(workers=2, executor="serial", engine="auto",
                           cache_capacity=32)
    with RetrievalService(FexiproIndex(items, variant="F-SIR"),
                          config) as service:
        for __ in range(2):  # second pass is all cache hits
            response = service.batch(queries[:6], 6)
            for got, want in zip(response.results, expected):
                assert got.ids == want.ids
                assert got.scores == want.scores
        assert response.cache_hits == 6
        # A smaller k is served from the cached answers' prefixes.
        prefix = service.batch(queries[:6], 3)
    assert prefix.cache_hits == 6
    for got, q in zip(prefix.results, queries[:6]):
        want = serial.query(q, 3)
        assert got.ids == want.ids
        assert got.scores == want.scores


def test_service_engine_knob_over_sharded_index():
    # The service scans a sharded index's inner index, so every engine —
    # the reference one included — serves it.
    items, queries = make_data(700, 16, seed=9)
    expected = FexiproIndex(items, variant="F-SIR").query(queries[0], 7)
    sharded = ShardedFexiproIndex(items, shards=3, variant="F-SIR",
                                  executor="serial")
    for engine in ENGINES:
        config = ServiceConfig(workers=2, executor="serial", engine=engine)
        with RetrievalService(sharded, config) as service:
            response = service.batch(queries[:1], 7)
        assert response.mode == f"inter/{engine}"
        assert response.results[0].ids == expected.ids
        assert response.results[0].scores == expected.scores


# ----------------------------------------------------------------------
# The default serving path: a cheap, stable planner
# ----------------------------------------------------------------------


def yahoo_like(seed=0):
    """A CI-sized Yahoo-like zoo catalog (20k x 50): GEMM beats the
    cascade on it, as on every zoo catalog on this substrate."""
    data = load_zoo("yahoo", seed=seed, scale=0.8)
    return data.items, data.queries


def test_default_service_plans_gemm_on_a_yahoo_like_catalog():
    items, queries = yahoo_like()
    fx = Fexipro(items)
    predicted = actual = 0.0
    with fx.serve(ServiceConfig(workers=2)) as service:
        for i in range(50):
            response = service.batch(queries[i:i + 1], 10)
            assert response.mode == "inter/gemm"
            assert response.planner["configured"] == "auto"
            predicted += response.planner["predicted_seconds"]
            actual += response.planner["actual_seconds"]
        gauges = service.metrics_snapshot()["gauges"]
    assert gauges["planner.mispredict_ratio"] > 0
    # The model's prediction stays within 2x of what the scans cost
    # (summed over the 50 batches, so one host stall cannot decide it).
    assert 0.5 <= actual / predicted <= 2.0
    # The handle itself keeps the paper's cascade.
    assert fx.index.engine == "blocked"


def test_one_slow_observation_does_not_flip_the_plan():
    items, queries = yahoo_like(seed=1)
    fx = Fexipro(items)
    with fx.serve(ServiceConfig(workers=2)) as service:
        first = service.batch(queries[:1], 10)
        assert first.mode == "inter/gemm"
        model = fx.cost_model
        rate = model.rates["gemm"]
        # One observation 100x slower than the scan it reports (a stall).
        model.observe("gemm", first.stats,
                      100.0 * first.planner["actual_seconds"])
        assert model.rates["gemm"] <= rate * (
            1.0 - model.decay + model.decay * RATE_STEP_LIMIT) * (1 + 1e-12)
        assert model.choose()[0] == "gemm"
        assert service.batch(queries[1:2], 10).mode == "inter/gemm"


def test_planner_model_survives_compaction_without_recalibrating(
        monkeypatch):
    calls = []
    calibrate = cost_model_module.calibrate_cost_model

    def counting(index, **kwargs):
        calls.append(index)
        return calibrate(index, **kwargs)

    monkeypatch.setattr(cost_model_module, "calibrate_cost_model", counting)
    items, queries = make_data(600, 16, seed=12)
    fx = Fexipro(items)
    with fx.serve(ServiceConfig(workers=1)) as service:
        service.batch(queries[:2], 5)
        model = fx.cost_model
        assert model is not None and len(calls) == 1
        fx.add_items(items[:40] * 0.5)
        assert fx.compact()
        n = fx.index._live.n
        assert n == 640 != model.n
        # Priced with the snapshot the batch scans, not the calibrated n.
        expected = {e: model.predict(e, n=n) for e in PLANNER_ENGINES}
        after = service.batch(queries[:2], 5)
    assert fx.cost_model is model
    assert len(calls) == 1
    assert after.planner["predictions"] == expected
    for q, got in zip(queries[:2], after.results):
        want = fx.query(q, 5)
        assert got.ids == want.ids and got.scores == want.scores


def test_cut_calibration_samples_price_blocked_as_a_full_scan(monkeypatch):
    """A blocked sample the calibration deadline cuts off counts as a full
    scan: the model never reports a lower scanned fraction than complete
    scans of the same samples do (the cut prefix is the weakly pruned
    head of the length-sorted order)."""
    from repro.serve import resilience

    class AfterPolls(resilience.Deadline):
        """Expires after ``polls`` polls, whatever the clock says."""

        polls = None

        def __init__(self, seconds, **kwargs):
            super().__init__(seconds, **kwargs)
            self.left = self.polls

        def expired(self):
            if self.left is None:
                return False
            self.left -= 1
            return self.left < 0

    monkeypatch.setattr(resilience, "Deadline", AfterPolls)
    items, __ = make_data(3000, 16, seed=13)
    index = FexiproIndex(items, variant="F-SIR", block_size=64)
    complete = calibrate_cost_model(index, samples=4)
    AfterPolls.polls = 2  # each blocked sample scans two blocks at most
    cut = calibrate_cost_model(index, samples=4)
    assert complete.fractions["scanned"] < 1.0
    assert cut.fractions["scanned"] >= complete.fractions["scanned"]


def test_gauge_and_registry_round_trip():
    gauge = Gauge()
    assert gauge.value == 0.0
    gauge.set(2.5)
    assert gauge.value == 2.5
    gauge.reset()
    assert gauge.value == 0.0

    registry = MetricsRegistry()
    registry.gauge("planner.mispredict_ratio").set(0.4)
    registry.counter("planner.decisions.gemm").inc()
    snapshot = registry.snapshot()
    assert snapshot["gauges"]["planner.mispredict_ratio"] == 0.4
    merged = MetricsRegistry()
    merged.gauge("planner.mispredict_ratio").set(9.0)
    merged.merge_snapshot(snapshot)
    # Gauges merge last-write-wins (a point-in-time reading, not a sum).
    assert merged.snapshot()["gauges"]["planner.mispredict_ratio"] == 0.4
    assert merged.snapshot()["counters"]["planner.decisions.gemm"] == 1
    registry.reset()
    assert registry.snapshot()["gauges"]["planner.mispredict_ratio"] == 0.0


def test_explain_exposes_planner_decision():
    items, queries = make_data(400, 14, seed=4)
    engine = Fexipro(items, variant="F-SIR", engine="auto")
    explanation = engine.explain(queries[0], 5)
    explanation.verify()
    assert explanation.planner is not None
    assert explanation.planner["engine"] in PLANNER_ENGINES
    assert set(explanation.planner["predictions"]) == set(PLANNER_ENGINES)
    assert "planner: chose" in explanation.format()
    assert explanation.to_dict()["planner"] == explanation.planner
    plain = Fexipro(items, variant="F-SIR").explain(queries[0], 5)
    assert plain.planner is None


def test_cost_model_is_part_of_the_stable_api():
    import repro
    import repro.api

    assert repro.CostModel is CostModel
    assert repro.api.CostModel is CostModel
