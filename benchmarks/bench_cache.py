"""Query-cache benchmark: hit path, prefix hits, Zipf traffic.

The paper's query-cost-distribution analysis (§7, Fig. 9) shows recommender
traffic is dominated by a small set of hot users — exactly the skew an
exactness-preserving cache converts into work saved.  This bench measures
three things on a Zipf(1.0) workload and asserts the non-negotiable parts:

- **Hit path**: serving an already-cached batch must be at least 5× faster
  than the cold scan of the same batch, and bitwise identical to it.
- **Prefix hits**: re-serving the same queries at a smaller ``k`` must be
  answered from the cached answers' prefixes — every query a hit, no scan
  at all — again bitwise identical to the serial scan.
- **Skewed traffic**: end-to-end time and hit rate over a Zipf-sampled
  request stream, cached vs. uncached.

Emits ``BENCH_cache.json`` for the CI regression gate
(:mod:`repro.analysis.regression`).
"""

import os
import time

import numpy as np

from repro import FexiproIndex
from repro.analysis import report
from repro.serve import RetrievalService, ServiceConfig

QUICK = os.environ.get("REPRO_QUICK", "") not in ("", "0")

N_ITEMS = 5_000 if QUICK else 50_000
N_UNIQUE = 32 if QUICK else 128
TRAFFIC = 256 if QUICK else 4_096
BATCH = 16
D = 64
K = 10
ZIPF_ALPHA = 1.0
WORKERS = 4


def _workload():
    rng = np.random.default_rng(2017)
    spectrum = np.exp(-0.08 * np.arange(D))
    items = rng.normal(size=(N_ITEMS, D)) * spectrum
    items *= rng.lognormal(0.0, 0.4, size=(N_ITEMS, 1)) * 0.3
    queries = rng.normal(size=(N_UNIQUE, D)) * spectrum * 0.3
    rotation, __ = np.linalg.qr(rng.normal(size=(D, D)))
    # Zipf(alpha) rank frequencies over the unique queries: rank r of the
    # traffic stream is drawn with probability ∝ 1/r^alpha.
    ranks = np.arange(1, N_UNIQUE + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_ALPHA
    weights /= weights.sum()
    stream = rng.choice(N_UNIQUE, size=TRAFFIC, p=weights)
    return items @ rotation, queries @ rotation, stream


def _config(capacity: int = 0) -> ServiceConfig:
    # Pinned to the cascade, so cold passes run one fixed engine.
    return ServiceConfig(workers=WORKERS, cache_capacity=capacity,
                         collect_timings=False, engine="blocked")


def test_cache_hit_and_prefix_hit(benchmark, sink):
    items, queries, stream = _workload()
    index = FexiproIndex(items, variant="F-SIR")
    serial = [index.query(q, K) for q in queries]
    k_small = K // 2
    serial_small = [index.query(q, k_small) for q in queries]

    def run():
        with RetrievalService(index, _config(2 * N_UNIQUE)) as service:
            started = time.perf_counter()
            cold = service.batch(queries, k=K)
            cold_seconds = time.perf_counter() - started
            started = time.perf_counter()
            hot = service.batch(queries, k=K)
            hot_seconds = time.perf_counter() - started
            # Same queries, smaller k: every query is served from the
            # prefix of its cached answer.
            prefix = service.batch(queries, k=k_small)

        # Zipf traffic stream, cached vs uncached.
        with RetrievalService(index, _config(2 * N_UNIQUE)) as service:
            started = time.perf_counter()
            for lo in range(0, TRAFFIC, BATCH):
                service.batch(queries[stream[lo:lo + BATCH]], k=K)
            zipf_cached_seconds = time.perf_counter() - started
            zipf_snapshot = service.metrics_snapshot()
        with RetrievalService(index, _config()) as plain:
            started = time.perf_counter()
            for lo in range(0, TRAFFIC, BATCH):
                plain.batch(queries[stream[lo:lo + BATCH]], k=K)
            zipf_plain_seconds = time.perf_counter() - started

        return (cold, cold_seconds, hot, hot_seconds, prefix,
                zipf_cached_seconds, zipf_plain_seconds, zipf_snapshot)

    (cold, cold_seconds, hot, hot_seconds, prefix,
     zipf_cached_seconds, zipf_plain_seconds, zipf_snapshot) = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    # --- Correctness: unconditional, machine-independent ---------------
    identical = True
    for truth, a, b in zip(serial, cold.results, hot.results):
        identical &= (truth.ids == a.ids and truth.scores == a.scores)
        identical &= (truth.ids == b.ids and truth.scores == b.scores)
    for truth, got in zip(serial_small, prefix.results):
        identical &= (truth.ids == got.ids and truth.scores == got.scores)
    assert identical, "cached results diverged from the serial scan"
    assert all(p == "cold" for p in cold.provenance)
    assert all(p == "hit" for p in hot.provenance)
    assert all(p == "hit" for p in prefix.provenance)
    assert prefix.stats.scanned == 0, "a prefix pass query was scanned"

    hit_speedup = cold_seconds / hot_seconds if hot_seconds else float("inf")
    cache_counters = zipf_snapshot["cache"]
    lookups = cache_counters["hits"] + cache_counters["misses"]
    hit_rate = cache_counters["hits"] / lookups if lookups else 0.0

    with sink.section("cache") as out:
        report.print_header(
            f"Query cache - {N_UNIQUE} unique queries x {N_ITEMS} items, "
            f"Zipf({ZIPF_ALPHA}) traffic of {TRAFFIC} requests (k={K})",
            f"host cores: {os.cpu_count()}"
            + (" [quick mode]" if QUICK else ""),
            out=out,
        )
        report.print_table(
            ["pass", "time (s)", "speedup"],
            [["cold (all miss)", round(cold_seconds, 4), 1.0],
             ["hot (all hit)", round(hot_seconds, 4),
              round(hit_speedup, 1)],
             ["Zipf traffic uncached", round(zipf_plain_seconds, 4), 1.0],
             ["Zipf traffic cached", round(zipf_cached_seconds, 4),
              round(zipf_plain_seconds / zipf_cached_seconds, 2)
              if zipf_cached_seconds else 0.0]],
            out=out,
        )
        report.print_table(
            ["metric", "value"],
            [["results identical to serial", identical],
             [f"prefix pass hits (k={k_small})",
              f"{prefix.cache_hits} / {len(prefix)}"],
             ["Zipf traffic hit rate", f"{hit_rate:.1%}"]],
            out=out,
        )

    sink.write_json("BENCH_cache", {
        "bench": "cache",
        "quick": QUICK,
        "host_cores": os.cpu_count() or 1,
        "workload": {"n_items": N_ITEMS, "n_unique_queries": N_UNIQUE,
                     "traffic": TRAFFIC, "d": D, "k": K,
                     "zipf_alpha": ZIPF_ALPHA},
        "identical": identical,
        "cold_seconds": cold_seconds,
        "hot_seconds": hot_seconds,
        "hit_speedup": hit_speedup,
        "prefix": {
            "k": k_small,
            "hits": prefix.cache_hits,
            "scanned": prefix.stats.scanned,
        },
        "zipf": {
            "cached_seconds": zipf_cached_seconds,
            "uncached_seconds": zipf_plain_seconds,
            "end_to_end_speedup": (zipf_plain_seconds / zipf_cached_seconds
                                   if zipf_cached_seconds else 0.0),
            "hit_rate": hit_rate,
            "cache_counters": cache_counters,
        },
    })

    # --- Gates ---------------------------------------------------------
    # The hit path is a fingerprint probe and a copy; 5x over a scan of
    # thousands of items holds on any host, quick mode included.
    assert hit_speedup >= 5.0, (
        f"hit-path speedup {hit_speedup:.1f}x below the 5x gate"
    )
    # The Zipf stream must actually exercise the cache.
    assert hit_rate > 0.5, f"Zipf hit rate {hit_rate:.1%} unexpectedly low"
