"""The fused GEMM kernel against the per-query GEMM scan.

:func:`repro.core.gemm.scan_gemm_many` scores a chunk of queries with one
``Q @ P_block.T`` product per block.  Its contract is the per-query
:func:`repro.core.gemm.scan_gemm`'s, bit for bit: ids, score bits and
every :class:`~repro.core.stats.PruningStats` field.  The property runs
on catalogs built to stress the selection margin and the array top-k:
±1 rows, duplicate rows (exact ties), denormal-scaled rows, ``d = 1``,
``k >= n`` and catalogs smaller than the first block.  The service and
``FexiproIndex.batch_query`` tests check the chunking, the delta tier,
the fallback when the kernel raises and the rule for taking the path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FexiproIndex
from repro.core import gemm
from repro.core.gemm import GEMM_CHUNK, scan_gemm, scan_gemm_many
from repro.core.index import prepare_query_states
from repro.core.variants import VARIANTS
from repro.serve import FaultInjector, FaultRule, RetrievalService, \
    ServiceConfig

from conftest import make_mf_like

ALL_VARIANTS = sorted(VARIANTS)


def scan_print(buffer, stats):
    ids, scores = buffer.items_and_scores()
    return ids, [s.hex() for s in scores], stats.as_dict()


def result_print(result):
    return (result.ids, [s.hex() for s in result.scores],
            result.stats.as_dict())


@st.composite
def fused_cases(draw):
    """A catalog, its queries, a variant and a k."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["pm1", "dups", "denormal", "mf"]))
    d = draw(st.sampled_from([1, 2, 5, 16]))
    n = draw(st.integers(1, 300))  # one block up to four (32, 64, ...)
    m = draw(st.integers(1, 12))
    if kind == "pm1":
        items = rng.choice([-1.0, 1.0], size=(n, d))
        queries = rng.integers(-1, 2, size=(m, d)).astype(float)
    elif kind == "dups":
        pool = rng.integers(-2, 3, size=(draw(st.integers(1, 4)), d))
        items = pool[rng.integers(0, len(pool), size=n)].astype(float)
        queries = rng.integers(-2, 3, size=(m, d)).astype(float)
    elif kind == "denormal":
        items = rng.standard_normal((n, d)) * 1e-160
        items[rng.random(n) < 0.3] *= 1e-150
        queries = rng.standard_normal((m, d)) * 1e-160
    else:
        items = rng.standard_normal((n, d)) \
            * rng.lognormal(0.0, 0.5, size=(n, 1))
        queries = rng.standard_normal((m, d))
    variant = draw(st.sampled_from(ALL_VARIANTS))
    k = draw(st.integers(1, n + 5))
    return items, queries, variant, k


@given(case=fused_cases())
@settings(max_examples=150, deadline=None)
def test_fused_kernel_equals_per_query_scan(case):
    items, queries, variant, k = case
    index = FexiproIndex(items, variant=variant)
    snap = index._live
    states = prepare_query_states(snap, queries)
    want = [scan_print(*scan_gemm(snap, qs, k)) for qs in states]
    got = [scan_print(*pair) for pair in scan_gemm_many(snap, states, k)]
    assert got == want


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_batch_query_chunks_equal_per_query_loop(variant):
    items, __ = make_mf_like(500, 8, seed=3)
    items = np.vstack([items, items[:60]])  # exact ties across chunks
    rng = np.random.default_rng(4)
    queries = rng.standard_normal((GEMM_CHUNK + 1, 8)) * 0.3
    index = FexiproIndex(items, variant=variant, engine="gemm")
    want = [result_print(index.query(q, 7)) for q in queries]
    for m in (1, GEMM_CHUNK - 1, GEMM_CHUNK, GEMM_CHUNK + 1):
        got = [result_print(r) for r in index.batch_query(queries[:m], 7)]
        assert got == want[:m], m


def _counting(monkeypatch):
    calls = []
    original = gemm.scan_gemm_many

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(gemm, "scan_gemm_many", counting)
    return calls


@pytest.mark.parametrize("cache", [0, 256])
@pytest.mark.parametrize("dirty", [False, True])
def test_service_gemm_batch_equals_per_query_loop(monkeypatch, cache,
                                                  dirty):
    items, queries = make_mf_like(800, 12, seed=9)
    queries = np.vstack([queries] * 4)[:GEMM_CHUNK + 3]
    queries = queries + 1e-3 * np.arange(len(queries))[:, None]
    index = FexiproIndex(items, variant="F-SIR")
    if dirty:
        extra, __ = make_mf_like(60, 12, seed=10)
        index.add_items(extra * 1.4)
        top = index.query(queries[0], 5, engine="gemm").ids
        index.remove_items(top[:3] + [7, 11, 805])
        assert not index._live.clean
    want = [result_print(index.query(q, 6, engine="gemm")) for q in queries]
    calls = _counting(monkeypatch)
    config = ServiceConfig(engine="gemm", workers=1, cache_capacity=cache)
    with RetrievalService(index, config) as service:
        cold = service.batch(queries, 6)
        hot = service.batch(queries, 6)
    # A cached rerun scans nothing; without a cache it scans again.
    assert calls == [GEMM_CHUNK, 3] * (1 if cache else 2)
    assert not cold.errors and cold.mode == "inter/gemm"
    assert [result_print(r) for r in cold.results] == want
    for truth, result in zip(want, hot.results):
        assert result_print(result)[:2] == truth[:2]
    assert hot.cache_hits == (len(queries) if cache else 0)


def test_service_fused_stage_times_and_elapsed_are_chunk_shares():
    items, queries = make_mf_like(600, 10, seed=12)
    index = FexiproIndex(items)
    with RetrievalService(index, ServiceConfig(engine="gemm",
                                               workers=1)) as service:
        response = service.batch(queries[:6], 5)
    elapsed = {r.elapsed for r in response.results}
    assert len(elapsed) == 1 and elapsed.pop() > 0
    assert response.timings.full > 0 and response.timings.select > 0
    assert response.timings.integer == response.timings.incremental == 0


def test_fused_kernel_that_raises_falls_back_exactly(monkeypatch):
    items, queries = make_mf_like(600, 10, seed=13)
    index = FexiproIndex(items, variant="F-SI")
    want = [result_print(index.query(q, 4, engine="gemm"))
            for q in queries[:9]]

    def broken(*args, **kwargs):
        raise RuntimeError("fused kernel down")

    monkeypatch.setattr(gemm, "scan_gemm_many", broken)
    with RetrievalService(index, ServiceConfig(engine="gemm",
                                               workers=1)) as service:
        response = service.batch(queries[:9], 4)
        counters = service.metrics_snapshot()["counters"]
    assert not response.errors
    assert [result_print(r) for r in response.results] == want
    assert counters["policy.fused_fallback"] == 1


@pytest.mark.parametrize("setting", [
    "one_query", "deadline", "budget", "blocked", "traced", "faults"])
def test_fused_path_only_serves_untriggered_gemm_batches(monkeypatch,
                                                         setting):
    items, queries = make_mf_like(400, 8, seed=14)
    index = FexiproIndex(items)
    fields = {"engine": "gemm", "workers": 1, "executor": "serial"}
    rows = queries[:5]
    if setting == "one_query":
        rows = queries[:1]
    elif setting == "deadline":
        fields["deadline_ms"] = 60_000.0
    elif setting == "budget":
        fields["budget_flops"] = 1e12
    elif setting == "blocked":
        fields["engine"] = "blocked"
    elif setting == "traced":
        fields["trace_sample_rate"] = 1.0
    calls = _counting(monkeypatch)
    injector = FaultInjector([FaultRule(site="scan", kind="raise",
                                        match="nothing")])
    with RetrievalService(index, ServiceConfig(**fields)) as service:
        if setting == "faults":
            with injector:
                response = service.batch(rows, 5)
        else:
            response = service.batch(rows, 5)
    assert calls == []
    assert not response.errors
    for q, result in zip(rows, response.results):
        assert result.ids == index.query(q, 5).ids
