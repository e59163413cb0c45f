"""Serving-layer benchmark: serial loop vs pooled RetrievalService.

Abuzaid et al. (*To Index or Not to Index*, 2017) observe that exact MIPS
at scale is won by hardware-saturating parallel scan.  This bench measures
what the :mod:`repro.serve` worker pool buys on this host for a LEMP-style
batch workload — 512 queries against 50k items in 64 dimensions by default
— while asserting the non-negotiable part: the pooled batch returns
*identical* results and its aggregated pruning counters equal the serial
sums exactly.

Quick mode (``REPRO_QUICK=1``, used by CI) shrinks the workload so the
parallel path is exercised on every PR in a few seconds.

The speedup assertion is gated on core count: worker processes cannot beat
a serial loop on a single-core host, and CI runners vary; correctness is
asserted unconditionally.
"""

import os
import statistics
import time

import numpy as np

from repro import FexiproIndex
from repro.analysis import report
from repro.core.stats import aggregate_stats
from repro.serve import RetrievalService, ServiceConfig

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

N_ITEMS = 5_000 if QUICK else 50_000
N_QUERIES = 64 if QUICK else 512
D = 64
K = 10
WORKERS = 4


def _workload():
    rng = np.random.default_rng(2017)
    spectrum = np.exp(-0.08 * np.arange(D))
    items = rng.normal(size=(N_ITEMS, D)) * spectrum
    items *= rng.lognormal(0.0, 0.4, size=(N_ITEMS, 1)) * 0.3
    queries = rng.normal(size=(N_QUERIES, D)) * spectrum * 0.3
    rotation, __ = np.linalg.qr(rng.normal(size=(D, D)))
    return items @ rotation, queries @ rotation


def test_serve_parallel_vs_serial(benchmark, sink):
    items, queries = _workload()
    index = FexiproIndex(items, variant="F-SIR")

    def run():
        started = time.perf_counter()
        serial = [index.query(q, K) for q in queries]
        serial_time = time.perf_counter() - started

        # Pinned to the cascade: the pool is compared with the serial
        # loop counter for counter.
        with RetrievalService(
                index, ServiceConfig(workers=WORKERS,
                                     engine="blocked")) as service:
            response = service.batch(queries, k=K)
            workers = service.metrics_snapshot()["workers"]
        return serial, serial_time, response, workers

    serial, serial_time, response, workers = benchmark.pedantic(
        run, rounds=1, iterations=1)

    with sink.section("serve_parallel") as out:
        report.print_header(
            f"Serving - serial loop vs {WORKERS}-worker pool "
            f"({N_QUERIES} queries x {N_ITEMS} items x {D} dims, k={K})",
            f"host cores: {os.cpu_count()}"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["mode", "time (s)", "queries/s"],
            [["serial loop", round(serial_time, 4),
              round(N_QUERIES / serial_time, 1)],
             [f"pool ({WORKERS} workers)", round(response.elapsed, 4),
              round(response.throughput, 1)]],
            out=out,
        )
        report.print_table(
            ["stage", "seconds"],
            [[stage, round(seconds, 4)]
             for stage, seconds in response.timings.as_dict().items()],
            out=out,
        )

    sink.write_json("BENCH_serve", {
        "bench": "serve_parallel",
        "quick": QUICK,
        "host_cores": os.cpu_count() or 1,
        "workers": {"requested": workers["requested"],
                    "resolved": workers["resolved"]},
        "workload": {"n_items": N_ITEMS, "n_queries": N_QUERIES,
                     "d": D, "k": K},
        "serial_seconds": serial_time,
        "pool_seconds": response.elapsed,
        "scan_p50_seconds": statistics.median(
            r.elapsed for r in response.results),
        "speedup": serial_time / response.elapsed if response.elapsed
        else 0.0,
        "queries_per_second": {
            "serial": N_QUERIES / serial_time if serial_time else 0.0,
            "pool": response.throughput,
        },
        "stage_seconds": response.timings.as_dict(),
    })

    # Correctness is unconditional: identical results, exact counter sums.
    assert len(response.results) == len(serial)
    for a, b in zip(serial, response.results):
        assert a.ids == b.ids
        assert a.scores == b.scores
        assert a.stats.as_dict() == b.stats.as_dict()
    serial_total = aggregate_stats(r.stats for r in serial)
    assert response.stats.as_dict() == serial_total.as_dict()
    assert all(r.elapsed > 0.0 for r in response.results)

    cores = os.cpu_count() or 1
    if cores >= WORKERS:
        # On a host with enough cores the pool must win outright; the
        # scan's NumPy kernels release the GIL, so chunks overlap.
        assert response.elapsed < serial_time, (
            f"pooled batch ({response.elapsed:.3f}s) did not beat the "
            f"serial loop ({serial_time:.3f}s) on {cores} cores"
        )
