"""Budgeted-anytime benchmark: budget-poll cost, recall and band curves.

PR 8 threads a FLOP-budget poll through the same block boundaries as the
deadline poll.  This bench answers the three questions that decide
whether budgeted execution earns its keep:

1. **What does the hot path pay when no budget is configured?**  The
   poll is one ``is not None`` branch per block; an armed-but-infinite
   budget adds one float compare and one add per block.  Both are
   measured as p50 per-query scan latency against the no-budget
   baseline, with rounds interleaved so clock drift hits both arms
   equally.  In full mode the armed-but-never-exhausting path must stay
   within 2% of baseline p50.

2. **What does a firing budget buy?**  Sweeping the budget as a fraction
   of the full-scan cost (``n * d`` coordinates) produces the
   anytime curve: latency falls with the budget while recall against
   the full scan degrades gracefully — the exact-prefix contract means
   returned items are always true top items of the scanned prefix.

3. **How tight is the certified band?**  For every degraded query the
   true k-th score provably sits inside ``[kth_lower, max(kth_lower,
   tail_upper)]``; the sweep records the mean band width and the mean
   certified gap to the true k-th score, so band quality is tracked
   run over run alongside recall.

Machine-readable output lands in ``results/BENCH_budget.json`` (CI
uploads ``BENCH_*.json`` artifacts and ``check_regression.py`` gates on
them).
"""

import os
import statistics
import time

import numpy as np

from repro import FexiproIndex
from repro.analysis import report
from repro.serve import RetrievalService, ServiceConfig

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

N_ITEMS = 4_000 if QUICK else 30_000
N_QUERIES = 24 if QUICK else 96
D = 64
K = 10
ROUNDS = 3 if QUICK else 7
#: Budgets for the anytime sweep, as fractions of the full-scan cost
#: ``n * d`` (None = the unbudgeted anchor).
BUDGET_FRACTIONS = [None, 0.5, 0.2, 0.05, 0.01] if not QUICK \
    else [None, 0.2, 0.02]
OVERHEAD_GATE = 0.02  # 2% p50, full mode only


def _workload():
    rng = np.random.default_rng(2017)
    spectrum = np.exp(-0.08 * np.arange(D))
    items = rng.normal(size=(N_ITEMS, D)) * spectrum
    items *= rng.lognormal(0.0, 0.4, size=(N_ITEMS, 1)) * 0.3
    queries = rng.normal(size=(N_QUERIES, D)) * spectrum * 0.3
    rotation, __ = np.linalg.qr(rng.normal(size=(D, D)))
    return items @ rotation, queries @ rotation


def _budget_config(budget_flops):
    if budget_flops is None:
        return ServiceConfig(workers=1, collect_timings=False)
    return ServiceConfig(workers=1, collect_timings=False,
                         budget_flops=budget_flops)


def _p50_scan_latency(index, queries, budget_flops):
    """Median per-query scan latency through the full serving path."""
    with RetrievalService(index, _budget_config(budget_flops)) as service:
        response = service.batch(queries, K)
    assert not response.errors
    return statistics.median(r.elapsed for r in response.results)


def test_budget_poll_overhead_and_anytime_curve(benchmark, sink):
    items, queries = _workload()
    index = FexiproIndex(items, variant="F-SIR")
    truth = [index.query(q, K) for q in queries]
    full_cost = float(N_ITEMS * D)

    def measure_overhead():
        # Interleaved rounds: baseline (no budget) and armed-but-infinite
        # alternate so drift hits both arms equally.
        baseline, armed = [], []
        for _ in range(ROUNDS):
            baseline.append(_p50_scan_latency(index, queries, None))
            armed.append(_p50_scan_latency(index, queries, float("inf")))
        return statistics.median(baseline), statistics.median(armed)

    baseline_p50, armed_p50 = benchmark.pedantic(measure_overhead,
                                                 rounds=1, iterations=1)
    overhead = (armed_p50 - baseline_p50) / baseline_p50 \
        if baseline_p50 else 0.0

    # --- anytime sweep ------------------------------------------------
    curve = []
    for fraction in BUDGET_FRACTIONS:
        budget = None if fraction is None else fraction * full_cost
        started = time.perf_counter()
        with RetrievalService(index, _budget_config(budget)) as service:
            response = service.batch(queries, K)
        elapsed = time.perf_counter() - started
        hits = sum(len(set(r.ids) & set(t.ids))
                   for r, t in zip(response.results, truth))
        scanned = [r.stats.scanned / r.stats.n_items
                   for r in response.results]
        widths, gaps = [], []
        for r, t in zip(response.results, truth):
            if r.complete or r.bounds is None:
                continue
            true_kth = t.scores[-1]
            ceiling = max(r.bounds.kth_lower, r.bounds.tail_upper)
            # The certification contract: the true k-th score sits
            # inside the reported band.
            assert r.bounds.kth_lower <= true_kth <= ceiling + 1e-9
            widths.append(ceiling - r.bounds.kth_lower)
            gaps.append(ceiling - true_kth)
        curve.append({
            "budget_fraction": fraction,
            "budget_flops": budget,
            "p50_query_seconds": statistics.median(
                r.elapsed for r in response.results),
            "batch_seconds": elapsed,
            "degraded_queries": response.budget_hits,
            "recall_vs_full_scan": hits / (K * N_QUERIES),
            "mean_scanned_fraction": statistics.fmean(scanned),
            "mean_band_width": statistics.fmean(widths) if widths else 0.0,
            "mean_certified_gap": statistics.fmean(gaps) if gaps else 0.0,
        })
        # The exact-prefix contract: a budget that never fires must be
        # bit-identical to the truth loop.
        if response.budget_hits == 0:
            for r, t in zip(response.results, truth):
                assert r.ids == t.ids and r.scores == t.scores

    cores = os.cpu_count() or 1
    with sink.section("budget") as out:
        report.print_header(
            f"Budget-poll overhead and anytime curve "
            f"({N_QUERIES} queries x {N_ITEMS} items x {D} dims, k={K})",
            f"host cores: {cores}, rounds: {ROUNDS}"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["hot path", "p50 query latency (ms)", "vs baseline"],
            [["no budget configured", round(1e3 * baseline_p50, 4), "-"],
             ["budget armed, never exhausts", round(1e3 * armed_p50, 4),
              f"{overhead:+.2%}"]],
            out=out,
        )
        report.print_table(
            ["budget (frac of n*d)", "p50 latency (ms)", "degraded",
             f"recall@{K}", "scanned frac", "band width", "cert. gap"],
            [[point["budget_fraction"]
              if point["budget_fraction"] is not None else "none",
              round(1e3 * point["p50_query_seconds"], 4),
              f"{point['degraded_queries']}/{N_QUERIES}",
              round(point["recall_vs_full_scan"], 3),
              round(point["mean_scanned_fraction"], 3),
              round(point["mean_band_width"], 4),
              round(point["mean_certified_gap"], 4)]
             for point in curve],
            out=out,
        )

    sink.write_json("BENCH_budget", {
        "bench": "budget",
        "quick": QUICK,
        "host_cores": cores,
        "workload": {"n_items": N_ITEMS, "n_queries": N_QUERIES,
                     "d": D, "k": K},
        "rounds": ROUNDS,
        "no_budget_p50_seconds": baseline_p50,
        "armed_never_exhausting_p50_seconds": armed_p50,
        "poll_overhead_fraction": overhead,
        "overhead_gate": OVERHEAD_GATE,
        "anytime_curve": curve,
    })

    # Recall is anchored at 1.0 with no budget, and every sweep point
    # stays a valid recall; the certified gap is never negative.
    assert curve[0]["recall_vs_full_scan"] == 1.0
    for point in curve:
        assert 0.0 <= point["recall_vs_full_scan"] <= 1.0
        assert point["mean_certified_gap"] >= 0.0

    if not QUICK:
        assert overhead < OVERHEAD_GATE, (
            f"armed-but-idle budget costs {overhead:.2%} p50 "
            f"(gate {OVERHEAD_GATE:.0%}): baseline {baseline_p50*1e3:.3f}ms "
            f"vs armed {armed_p50*1e3:.3f}ms"
        )
