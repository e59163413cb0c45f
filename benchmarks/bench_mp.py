"""Executor benchmark: serial shard scan vs process fan-out.

The blocked engine's pruning cascade spends much of its time in Python,
so only worker processes can scan shards in parallel (threads lost to
the serial scan and were removed).  This bench measures one
single-query workload under both executors and pins:

- ids and scores are bit-identical across both executors
  (unconditional — exactness is the contract, not a tunable);
- the process pool actually spreads work over more than one worker
  process (``effective_workers > 1``), demoted to informational on
  single-core hosts where the pool still runs but cannot help;
- on a real multicore host (>= 4 cores, full mode) the process fan-out
  beats the serial scan by >= 1.5x.

Results land in ``results/BENCH_mp.json`` for the run-over-run
regression gate (``benchmarks/check_regression.py``, spec key ``mp``).
"""

import os
import time

import numpy as np

from repro import ShardedFexiproIndex
from repro.analysis import report
from repro.serve import process_executor_usable

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

N_ITEMS = 5_000 if QUICK else 50_000
N_QUERIES = 16 if QUICK else 96
D = 64
K = 10
SHARDS = 8


def _workload():
    rng = np.random.default_rng(2017)
    spectrum = np.exp(-0.08 * np.arange(D))
    items = rng.normal(size=(N_ITEMS, D)) * spectrum
    items *= rng.lognormal(0.0, 0.4, size=(N_ITEMS, 1)) * 0.3
    queries = rng.normal(size=(N_QUERIES, D)) * spectrum * 0.3
    rotation, __ = np.linalg.qr(rng.normal(size=(D, D)))
    return items @ rotation, queries @ rotation


def test_executor_ladder_vs_serial(benchmark, sink):
    if not process_executor_usable():  # pragma: no cover - exotic hosts
        import pytest

        pytest.skip("no multiprocessing start method available")

    items, queries = _workload()
    serial = ShardedFexiproIndex(items, shards=SHARDS, workers=1,
                                 variant="F-SIR")
    process = ShardedFexiproIndex.from_index(serial.index, shards=SHARDS,
                                             executor="process")

    def timed(index):
        started = time.perf_counter()
        results = [index.query(q, K) for q in queries]
        return results, time.perf_counter() - started

    def run():
        return {
            "serial": timed(serial),
            "process": timed(process),
        }

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    seconds = {mode: elapsed for mode, (__, elapsed) in runs.items()}
    pool_snapshot = process._resolve_procpool().snapshot()
    process.close()

    cores = os.cpu_count() or 1
    speedups = {"process_vs_serial": seconds["serial"] / seconds["process"]
                if seconds["process"] else 0.0}

    # Exactness first, unconditionally: both executors return the same
    # bits for every query.
    for a, b in zip(runs["serial"][0], runs["process"][0]):
        assert a.ids == b.ids, "process executor diverged"
        assert a.scores == b.scores, "process executor diverged"

    with sink.section("mp_executors") as out:
        report.print_header(
            f"Single-query latency by executor - {SHARDS} shards "
            f"({N_QUERIES} queries x {N_ITEMS} items x {D} dims, k={K})",
            f"host cores: {cores}, start method: "
            f"{pool_snapshot['start_method']}, process workers: "
            f"{pool_snapshot['workers']} "
            f"(effective: {pool_snapshot['effective_workers']})"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["executor", "time (s)", "avg latency (ms)", "speedup"],
            [[mode, round(seconds[mode], 4),
              round(1e3 * seconds[mode] / N_QUERIES, 3),
              round(seconds["serial"] / seconds[mode], 2)
              if seconds[mode] else 0.0]
             for mode in ("serial", "process")],
            out=out,
        )

    sink.write_json("BENCH_mp", {
        "bench": "mp_executors",
        "quick": QUICK,
        "host_cores": cores,
        "start_method": pool_snapshot["start_method"],
        "shards": SHARDS,
        "workers": pool_snapshot["workers"],
        "effective_workers": pool_snapshot["effective_workers"],
        "workload": {"n_items": N_ITEMS, "n_queries": N_QUERIES,
                     "d": D, "k": K},
        "serial_seconds": seconds["serial"],
        "process_seconds": seconds["process"],
        "speedup": speedups,
        "identical": 1.0,
    })

    # The pool must actually fan out.  On a single-core host the workers
    # exist but the scheduler may funnel every task through one of them,
    # so there the fact is recorded but not enforced.
    if cores >= 2:
        assert pool_snapshot["effective_workers"] > 1, (
            f"process pool used {pool_snapshot['effective_workers']} "
            f"worker(s) on a {cores}-core host"
        )

    if not QUICK and cores >= 4:
        # Real multicore speedup for one hot query.
        assert speedups["process_vs_serial"] >= 1.5, (
            f"process fan-out speedup "
            f"{speedups['process_vs_serial']:.2f}x on {cores} cores "
            f"(serial {seconds['serial']:.3f}s vs process "
            f"{seconds['process']:.3f}s)"
        )
