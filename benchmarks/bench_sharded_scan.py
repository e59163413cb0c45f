"""Intra-query parallelism benchmark: process shard fan-out vs single scan.

A serving pool only helps when there are many queries to spread over
cores; a single hot query still pays the full sequential scan.  This bench
measures what :class:`repro.core.sharded.ShardedFexiproIndex` buys for that
single-query case — each query fanned over contiguous length-band shards
on worker processes (``executor="process"``) with a shared best-so-far
threshold — while asserting the non-negotiable parts unconditionally:

- ids *and scores* are bit-identical to the single scan (exactness is the
  paper's headline, so it is the benchmark's gate too);
- the shard-level Cauchy–Schwarz test actually fires (``shards_skipped``
  > 0): later shards hold shorter items, so once early shards establish a
  threshold, whole bands die unscanned.

The speedup assertion (> 1.3x) is gated on host cores and full mode —
shard fan-out cannot beat a serial loop on a starved host, and CI runners
vary.  Alongside the human-shaped table the bench writes
``results/BENCH_sharded.json`` for run-over-run comparison.
"""

import os
import time

import numpy as np

from repro import ShardedFexiproIndex
from repro.analysis import report

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

N_ITEMS = 5_000 if QUICK else 50_000
N_QUERIES = 32 if QUICK else 128
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


def test_sharded_scan_vs_serial(benchmark, sink):
    items, queries = _workload()
    sharded = ShardedFexiproIndex(items, shards=SHARDS, variant="F-SIR",
                                  executor="process")
    index = sharded.index  # the serial baseline shares the preprocessing

    def run():
        started = time.perf_counter()
        serial = [index.query(q, K) for q in queries]
        serial_time = time.perf_counter() - started

        started = time.perf_counter()
        results = [sharded.query(q, K) for q in queries]
        sharded_time = time.perf_counter() - started
        return serial, serial_time, results, sharded_time

    with sharded:
        serial, serial_time, results, sharded_time = benchmark.pedantic(
            run, rounds=1, iterations=1)

    skipped = sum(r.stats.shards_skipped for r in results)
    shard_scans = SHARDS * N_QUERIES
    speedup = serial_time / sharded_time if sharded_time else 0.0
    cores = os.cpu_count() or 1

    with sink.section("sharded_scan") as out:
        report.print_header(
            f"Single-query latency - serial scan vs {SHARDS} shards "
            f"({N_QUERIES} queries x {N_ITEMS} items x {D} dims, k={K})",
            f"host cores: {cores}, fan-out worker processes: "
            f"{sharded.resolved_workers}"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["mode", "time (s)", "avg latency (ms)", "speedup"],
            [["serial single scan", round(serial_time, 4),
              round(1e3 * serial_time / N_QUERIES, 3), 1.0],
             [f"sharded x{SHARDS}", round(sharded_time, 4),
              round(1e3 * sharded_time / N_QUERIES, 3),
              round(speedup, 2)]],
            out=out,
        )
        report.print_table(
            ["metric", "value"],
            [["ids and scores identical", True],
             ["whole shards skipped (Cauchy-Schwarz)",
              f"{skipped}/{shard_scans}"],
             ["shard-skip rate", round(skipped / shard_scans, 3)]],
            out=out,
        )

    sink.write_json("BENCH_sharded", {
        "bench": "sharded_scan",
        "quick": QUICK,
        "host_cores": cores,
        "workers": {"requested": sharded.workers,
                    "resolved": sharded.resolved_workers},
        "shards": SHARDS,
        "workload": {"n_items": N_ITEMS, "n_queries": N_QUERIES,
                     "d": D, "k": K},
        "serial_seconds": serial_time,
        "sharded_seconds": sharded_time,
        "speedup": speedup,
        "queries_per_second": {
            "serial": N_QUERIES / serial_time if serial_time else 0.0,
            "sharded": N_QUERIES / sharded_time if sharded_time else 0.0,
        },
        "shards_skipped": skipped,
        "shard_scans": shard_scans,
    })

    # Correctness is unconditional: every query bit-identical to the
    # single scan, and the shard-level pruning must actually fire.
    for a, b in zip(serial, results):
        assert a.ids == b.ids
        assert a.scores == b.scores
    assert skipped > 0, "shard-level Cauchy-Schwarz never fired"

    if not QUICK and cores >= 4:
        # On a real multicore host fanning one query over shards must cut
        # its latency materially; the kernels release the GIL.
        assert speedup > 1.3, (
            f"sharded scan speedup {speedup:.2f}x on {cores} cores "
            f"(serial {serial_time:.3f}s vs sharded {sharded_time:.3f}s)"
        )
