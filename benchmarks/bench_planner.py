"""Adaptive-planner benchmark: auto vs every fixed engine, per cell.

The planner exists because no fixed engine wins everywhere: when the
cascade's selectivity collapses (flat spectra, small d, large k) the GEMM
engine streams the catalogue at BLAS speed while the cascade pays bound
arithmetic for nothing, and when pruning bites the cascade touches a tiny
fraction of the coordinates GEMM must stream.  This bench sweeps a
d x k x selectivity grid and, per cell, races the three fixed engines
(the reference cascade too, though the planner never picks it) against
the calibrated ``auto`` plan:

- ids and scores are bit-identical across every engine and the planned
  run (unconditional — exactness is the contract, not a tunable);
- the adaptive plan stays within 5% of the per-cell *best* fixed engine
  (full mode, multicore hosts — planning overhead is measured, not free);
- on at least one low-selectivity cell the plan beats the *worst* fixed
  engine by >= 1.3x — the whole point of not hard-coding one engine.

Results land in ``results/BENCH_planner.json`` for the run-over-run
regression gate (``benchmarks/check_regression.py``, spec key
``planner``).
"""

import os
import time

import numpy as np

from repro import FexiproIndex
from repro.analysis import report

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

N_ITEMS = 2_000 if QUICK else 8_000
N_QUERIES = 6 if QUICK else 12

#: The fixed engines every cell races: all three, not just the ones the
#: planner chooses between, so the table shows what planning leaves out.
ENGINES = ("reference", "blocked", "gemm")
K_SMALL, K_LARGE = 10, 50

#: (label, d, k, spectrum decay) — decay 0.0 is a flat spectrum, the
#: pruning-hostile regime where the GEMM engine should win outright.
CELLS = [
    ("flat_d8_k50", 8, K_LARGE, 0.0),
    ("skewed_d32_k10", 32, K_SMALL, 0.15),
] if QUICK else [
    ("flat_d8_k50", 8, K_LARGE, 0.0),
    ("flat_d8_k10", 8, K_SMALL, 0.0),
    ("flat_d64_k50", 64, K_LARGE, 0.0),
    ("skewed_d8_k10", 8, K_SMALL, 0.15),
    ("skewed_d32_k10", 32, K_SMALL, 0.15),
    ("skewed_d64_k50", 64, K_LARGE, 0.15),
]


def _workload(d: int, decay: float, seed: int):
    rng = np.random.default_rng(seed)
    spectrum = np.exp(-decay * np.arange(d))
    items = rng.normal(size=(N_ITEMS, d)) * spectrum
    items *= rng.lognormal(0.0, 0.4, size=(N_ITEMS, 1)) * 0.3
    queries = rng.normal(size=(N_QUERIES, d)) * spectrum * 0.3
    rotation, __ = np.linalg.qr(rng.normal(size=(d, d)))
    return items @ rotation, queries @ rotation


def _timed_scan(index, states, k, engine):
    started = time.perf_counter()
    outputs = [index._scan(qs, k, engine=engine) for qs in states]
    elapsed = time.perf_counter() - started
    answers = [buffer.items_and_scores() for buffer, __ in outputs]
    scanned = sum(stats.scanned for __, stats in outputs) \
        / sum(stats.n_items for __, stats in outputs)
    return answers, elapsed, scanned


def test_adaptive_planner_vs_fixed_engines(benchmark, sink):
    def run():
        cells = []
        for seed, (label, d, k, decay) in enumerate(CELLS, start=2017):
            items, queries = _workload(d, decay, seed=seed)
            index = FexiproIndex(items, variant="F-SIR")
            states = [index._prepare_query(q) for q in queries]
            # Calibrate before timing: the measurement pass is a one-off
            # (build/load-time) cost, not a per-query one.
            index.calibrate()
            fixed = {engine: _timed_scan(index, states, k, engine)
                     for engine in ENGINES}
            answers, adaptive_s, __ = _timed_scan(index, states, k, "auto")
            chosen, __ = index.plan_engine()
            cells.append({
                "cell": label, "d": d, "k": k, "decay": decay,
                # The blocked cascade's scanned fraction on these queries.
                "selectivity": fixed["blocked"][2],
                "seconds": {e: s for e, (__, s, __) in fixed.items()},
                "adaptive_seconds": adaptive_s,
                "chosen": chosen,
                "answers": {e: a for e, (a, __, __) in fixed.items()},
                "adaptive_answers": answers,
            })
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    cores = os.cpu_count() or 1

    identical = 1.0
    for cell in cells:
        for engine, answers in cell["answers"].items():
            if answers != cell["adaptive_answers"]:
                identical = 0.0
                raise AssertionError(
                    f"{cell['cell']}: {engine} diverged from the "
                    f"planned run"
                )

    rows = []
    for cell in cells:
        seconds = cell["seconds"]
        best = min(seconds.values())
        worst = max(seconds.values())
        cell["within_best"] = best / cell["adaptive_seconds"] \
            if cell["adaptive_seconds"] else 0.0
        cell["vs_worst"] = worst / cell["adaptive_seconds"] \
            if cell["adaptive_seconds"] else 0.0
        rows.append([
            cell["cell"], cell["d"], cell["k"],
            round(cell["selectivity"], 3), cell["chosen"],
            *[round(seconds[e], 4) for e in ENGINES],
            round(cell["adaptive_seconds"], 4),
            round(cell["within_best"], 2), round(cell["vs_worst"], 2),
        ])

    with sink.section("planner_grid") as out:
        report.print_header(
            f"Adaptive planner vs fixed engines - "
            f"{N_QUERIES} queries x {N_ITEMS} items per cell",
            f"host cores: {cores}"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["cell", "d", "k", "scan frac", "chosen",
             *[f"{e} (s)" for e in ENGINES],
             "auto (s)", "x best", "x worst"],
            rows, out=out,
        )

    within_best_min = min(c["within_best"] for c in cells)
    vs_worst_max = max(c["vs_worst"] for c in cells)
    sink.write_json("BENCH_planner", {
        "bench": "planner_grid",
        "quick": QUICK,
        "host_cores": cores,
        "workload": {"n_items": N_ITEMS, "n_queries": N_QUERIES},
        "cells": [{k: v for k, v in cell.items()
                   if k not in ("answers", "adaptive_answers")}
                  for cell in cells],
        "identical": identical,
        "adaptive_within_best_min": within_best_min,
        "adaptive_vs_worst_max": vs_worst_max,
        "adaptive_seconds_total": sum(c["adaptive_seconds"]
                                      for c in cells),
    })

    if not QUICK and cores >= 4:
        # Planning overhead must stay in the noise: within 5% of the
        # best fixed engine in *every* cell...
        assert within_best_min >= 0.95, (
            f"adaptive plan fell to {within_best_min:.2f}x of the "
            f"per-cell best fixed engine"
        )
        # ...and the plan must actually pay for itself somewhere: beat
        # the worst fixed engine >= 1.3x on some low-selectivity cell.
        assert vs_worst_max >= 1.3, (
            f"adaptive plan never beat the worst fixed engine by 1.3x "
            f"(max {vs_worst_max:.2f}x)"
        )
