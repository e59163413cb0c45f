"""Command-line interface: regenerate any paper table or figure.

Usage::

    fexipro list
    fexipro table3 [--dataset movielens] [--k 1] [--scale 0.25]
    fexipro table4 --dataset yelp --k 10
    fexipro fig10 --dataset netflix
    ...

Every experiment prints a paper-shaped table plus the workload description,
so the output is self-documenting.  ``--scale`` trades fidelity for speed
(1.0 = the zoo recipes' headline sizes).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Sequence

from .analysis import experiments, report
from .analysis.workloads import DEFAULT_SEED, describe, get_workload
from .datasets import DATASET_ORDER


def _workload(args):
    return get_workload(args.dataset, scale=args.scale, seed=args.seed,
                        query_cap=args.queries)


def _cmd_table3(args) -> None:
    workload = _workload(args)
    report.print_header(
        f"Table 3/7 - average entire q.p computations (k={args.k})",
        describe(workload),
    )
    runs = experiments.run_pruning_power(workload, k=args.k)
    report.print_table(
        ["method", "avg entire products", "retrieve (s)"],
        [[r.method, round(r.avg_full_products, 2),
          round(r.retrieve_time, 4)] for r in runs],
    )


def _cmd_table4(args) -> None:
    workload = _workload(args)
    report.print_header(
        f"Table 4/8 - total retrieval + preprocessing times (k={args.k})",
        describe(workload),
    )
    runs = experiments.run_total_time(workload, k=args.k)
    report.print_table(
        ["method", "retrieve (s)", "preprocess (s)"],
        [[r.method, round(r.retrieve_time, 4),
          round(r.preprocess_time, 4)] for r in runs],
    )
    speedups = experiments.speedups_over(runs, "F-SIR")
    report.print_header("Figure 6 - speedup of F-SIR (total time)")
    report.print_table(
        ["method", "speedup"],
        [[m, round(s, 2)] for m, s in speedups.items()],
    )


def _cmd_table5(args) -> None:
    workload = _workload(args)
    report.print_header(
        f"Table 5 - MiniBatch GEMM retrieval (k={args.k})",
        describe(workload),
    )
    rows = experiments.run_minibatch(workload, k=args.k)
    report.print_table(
        ["batch size", "time (s)"],
        [[r["batch_size"], round(r["time"], 4)] for r in rows],
    )


def _cmd_table6(args) -> None:
    workload = _workload(args)
    report.print_header("Table 6 - LEMP batch retrieval",
                        describe(workload))
    rows = experiments.run_lemp(workload)
    report.print_table(
        ["k", "time (s)"],
        [[r["k"], round(r["time"], 4)] for r in rows],
    )


def _cmd_fig8(args) -> None:
    workload = _workload(args)
    report.print_header("Figure 8 - average k-th inner product",
                        describe(workload))
    rows = experiments.run_kth_ip(workload)
    report.print_series(workload.name, [r["k"] for r in rows],
                        [r["avg_kth_ip"] for r in rows])


def _cmd_fig10(args) -> None:
    workload = _workload(args)
    report.print_header("Figure 10 - sensitivity to rho (and selected w)",
                        describe(workload))
    rows = experiments.run_rho_sweep(workload, k=args.k)
    report.print_table(
        ["rho", "w", "time (s)", "avg entire products"],
        [[r["rho"], r["w"], round(r["time"], 4),
          round(r["avg_full_products"], 2)] for r in rows],
    )


def _cmd_fig11(args) -> None:
    workload = _workload(args)
    report.print_header("Figure 11 - sensitivity to the scaling e",
                        describe(workload))
    rows = experiments.run_e_sweep(workload, k=args.k)
    report.print_table(
        ["e", "time (s)", "avg entire products"],
        [[r["e"], round(r["time"], 4),
          round(r["avg_full_products"], 2)] for r in rows],
    )


def _cmd_fig13(args) -> None:
    workload = _workload(args)
    report.print_header("Figure 13 - PCATree RMSE@k vs exact FEXIPRO",
                        describe(workload))
    rows = experiments.run_pcatree(workload)
    report.print_table(
        ["k", "PCATree (s)", "F-SIR (s)", "RMSE@k"],
        [[r["k"], round(r["pcatree_time"], 4),
          round(r["fexipro_time"], 4), round(r["rmse_at_k"], 4)]
         for r in rows],
    )


def _cmd_fig15(args) -> None:
    workload = _workload(args)
    report.print_header(
        "Figure 15 - cumulative IP share per dimension",
        describe(workload),
    )
    row = experiments.run_cumulative_ip(workload)
    print(f"before SVD: {report.sparkline(row['before'])}")
    print(f"after  SVD: {report.sparkline(row['after'])}  (w={row['w']})")


def _cmd_fig20(args) -> None:
    report.print_header("Figure 20 - retrieval time vs rank d",
                        f"dataset={args.dataset}")
    rows = experiments.run_vary_d(args.dataset, k=args.k,
                                  scale=args.scale or 0.25,
                                  seed=args.seed)
    report.print_table(
        ["d", "method", "time (s)"],
        [[r["d"], r["method"], round(r["time"], 4)] for r in rows],
    )


def _cmd_appendix_a(args) -> None:
    report.print_header(
        "Appendix A - integer bound tightness (Theorem 5)")
    rows = experiments.run_integer_tightness()
    report.print_table(
        ["e", "mean relative error"],
        [[r["e"], round(r["mean_relative_error"], 4)] for r in rows],
    )


def _cmd_tune(args) -> None:
    from .analysis.tuning import tune

    workload = _workload(args)
    report.print_header("Auto-tuning rho and e (sampled cost proxy)",
                        describe(workload))
    result = tune(workload.items, workload.queries[:8], k=args.k)
    report.print_table(
        ["rho", "e", "cost proxy"],
        [[rho, e, round(cost, 1)] for rho, e, cost in result.grid],
    )
    print(f"selected: rho={result.rho}, e={result.e}")


def _cmd_above_t(args) -> None:
    import numpy as np

    from .core.index import FexiproIndex

    workload = _workload(args)
    report.print_header("Above-threshold retrieval (paper future work)",
                        describe(workload))
    index = FexiproIndex(workload.items, variant="F-SIR")
    scores = workload.queries @ workload.items.T
    rows = []
    for quantile in (99.9, 99.0, 95.0):
        scanned = returned = 0
        for qi, q in enumerate(workload.queries):
            threshold = float(np.percentile(scores[qi], quantile))
            result = index.query_above(q, threshold)
            scanned += result.stats.scanned
            returned += len(result.ids)
        m = len(workload.queries)
        rows.append([quantile, round(scanned / m, 1),
                     round(returned / m, 1)])
    report.print_table(["score quantile", "avg scanned", "avg results"],
                       rows)


def _cmd_lsh(args) -> None:
    import time

    from .baselines import SimpleLSH
    from .core.index import FexiproIndex

    workload = _workload(args)
    report.print_header("LSH vs exact FEXIPRO (related-work trade-off)",
                        describe(workload))
    index = FexiproIndex(workload.items, variant="F-SIR")
    exact = [set(index.query(q, args.k).ids) for q in workload.queries]
    rows = []
    for n_tables, n_bits in ((32, 5), (16, 6), (8, 8)):
        method = SimpleLSH(workload.items, n_tables=n_tables,
                           n_bits=n_bits)
        started = time.perf_counter()
        hits = sum(
            len(set(method.query(q, args.k).ids) & truth)
            for q, truth in zip(workload.queries, exact)
        )
        elapsed = time.perf_counter() - started
        rows.append([f"T={n_tables},b={n_bits}",
                     round(hits / (args.k * len(exact)), 3),
                     round(elapsed, 4)])
    report.print_table(["config", f"recall@{args.k}", "time (s)"], rows)


def _cmd_calibrate(args) -> None:
    from .analysis.cost_model import calibrate_cost_model
    from .core.index import FexiproIndex

    workload = _workload(args)
    report.print_header(
        f"Cost-model calibration - per-engine measurement pass (k={args.k})",
        describe(workload),
    )
    index = FexiproIndex(workload.items, variant="F-SIR")
    model = calibrate_cost_model(index, k=args.k)
    info = model.as_dict()
    report.print_table(
        ["engine", "s / coordinate", "predicted s / query"],
        [[name, f"{model.rates[name]:.3e}",
          f"{info['predictions'][name]:.3e}"]
         for name in sorted(model.rates)],
    )
    report.print_table(
        ["observed fraction", "value"],
        [[name, round(value, 4)]
         for name, value in sorted(model.fractions.items())],
    )
    engine, __ = model.choose()
    print(f"planner would choose: {engine}")


def _cmd_serve(args) -> None:
    import time

    from .core.index import FexiproIndex
    from .serve import RetrievalService, ServiceConfig

    # Built before any work, so a bad trigger flag combination fails
    # fast with the config's own message.
    truncation_config = ServiceConfig(
        workers=args.workers, executor=args.executor,
        deadline_ms=args.deadline_ms, budget_flops=args.budget_flops,
        truncation_policy=args.truncation_policy,
        shed_capacity_flops=args.shed_capacity_flops)

    workload = _workload(args)
    report.print_header(
        f"Batch serving - serial loop vs {args.workers}-worker pool "
        f"(k={args.k})",
        describe(workload),
    )
    index = FexiproIndex(workload.items, variant="F-SIR")

    started = time.perf_counter()
    serial = [index.query(q, args.k) for q in workload.queries]
    serial_time = time.perf_counter() - started

    with RetrievalService(index,
                          ServiceConfig(workers=args.workers,
                                        executor=args.executor,
                                        engine=args.engine)) as service:
        response = service.batch(workload.queries, k=args.k)
        snapshot = service.metrics_snapshot()

    # Ids and scores are the engine-pinned contract; pruning counters are
    # schedule- and engine-dependent, so they only join the check when no
    # --engine override can route the pool to a different engine.
    identical = all(
        a.ids == b.ids and a.scores == b.scores
        and (args.engine is not None
             or a.stats.as_dict() == b.stats.as_dict())
        for a, b in zip(serial, response.results)
    )
    m = len(workload.queries)
    report.print_table(
        ["mode", "time (s)", "queries/s"],
        [["serial loop", round(serial_time, 4),
          round(m / serial_time, 1) if serial_time else float("inf")],
         [f"pool ({args.workers} workers)", round(response.elapsed, 4),
          round(response.throughput, 1)]],
    )
    scan_hist = snapshot["histograms"]["latency.scan_seconds"]
    rows = [["results identical to serial", identical],
            ["prepare time (s)", round(response.prepare_time, 4)],
            ["scan p50 (s)", service_quantile(snapshot, 0.5)],
            ["scan max (s)", round(scan_hist["max"], 5)],
            ["entire products (batch total)",
             response.stats.full_products],
            ["avg entire products / query",
             round(response.stats.full_products / m, 2) if m else 0.0]]
    if response.planner is not None:
        rows.append(["mode (planner decorated)", response.mode])
        rows.append(["planner engine", response.planner["engine"]])
        if response.planner["mispredict_ratio"] is not None:
            rows.append(["planner mispredict ratio",
                         round(response.planner["mispredict_ratio"], 3)])
    report.print_table(["metric", "value"], rows)
    report.print_header("Per-stage wall time (s)")
    report.print_table(
        ["stage", "seconds"],
        [[stage, round(seconds, 4)]
         for stage, seconds in snapshot["stage_seconds"].items()],
    )

    if args.deadline_ms is not None or args.budget_flops is not None:
        _serve_truncation_section(args, workload, index, serial,
                                  truncation_config)

    if args.shards:
        _serve_sharded_section(args, workload, index, serial, serial_time)

    if args.cache_capacity:
        _serve_cache_section(args, workload, index, serial)

    if args.metrics_port is not None:
        _serve_metrics_section(args, workload, index)


def _serve_metrics_section(args, workload, index) -> None:
    """The ``--metrics-port`` addendum: one live Prometheus scrape."""
    from urllib.request import urlopen

    from .serve import RetrievalService, ServiceConfig

    config = ServiceConfig(workers=args.workers,
                           executor=args.executor,
                           metrics_port=args.metrics_port)
    with RetrievalService(index, config) as service:
        service.batch(workload.queries, k=args.k)
        url = service.metrics_server.url
        report.print_header(f"Prometheus exposition - {url}/metrics")
        with urlopen(f"{url}/metrics") as response:
            body = response.read().decode("utf-8")
        with urlopen(f"{url}/healthz") as response:
            health = response.read().decode("utf-8").strip()
    wanted = ("repro_queries_total", "repro_latency_scan_seconds_count",
              "repro_pruning_full_products_total", "repro_workers")
    for line in body.splitlines():
        if line.startswith(wanted):
            print(line)
    print(f"(healthz: {health}; {len(body.splitlines())} lines total)")


def _serve_cache_section(args, workload, index, serial) -> None:
    """The ``--cache-capacity`` addendum: hits and prefix hits on reruns.

    Exits non-zero when the hot or the prefix pass differs from the
    serial loop in ids or scores.
    """
    import time

    from .serve import RetrievalService, ServiceConfig

    report.print_header(f"Query cache - capacity {args.cache_capacity}")
    config = ServiceConfig(workers=args.workers,
                           executor=args.executor,
                           cache_capacity=args.cache_capacity)
    # The same traffic at a smaller k is served from the prefixes of the
    # cached answers; k == 1 has no smaller k, so that pass is skipped.
    prefix_k = args.k // 2
    passes = [("cold", args.k, serial),
              ("hot (same queries)", args.k, serial)]
    if prefix_k:
        passes.append((f"prefix (k={prefix_k})", prefix_k,
                       [index.query(q, prefix_k) for q in workload.queries]))
    rows, times, drifted = [], [], []
    with RetrievalService(index, config) as service:
        for name, k, truth in passes:
            started = time.perf_counter()
            response = service.batch(workload.queries, k=k)
            times.append(time.perf_counter() - started)
            identical = all(a.ids == b.ids and a.scores == b.scores
                            for a, b in zip(truth, response.results))
            if not identical:
                drifted.append(name)
            rows.append([name, round(times[-1], 4), response.cache_hits,
                         len(response) - response.cache_hits, identical])
        cache = service.metrics_snapshot()["cache"]
    report.print_table(
        ["pass", "time (s)", "hits", "scanned", "identical to serial"], rows)
    cold_time, hot_time = times[0], times[1]
    report.print_table(
        ["metric", "value"],
        [["hit-path speedup", round(cold_time / hot_time, 2)
          if hot_time else float("inf")],
         ["entries", cache["size"]],
         ["lifetime hits / misses", f"{cache['hits']} / {cache['misses']}"]],
    )
    if drifted:
        raise SystemExit("cached results drifted from the serial loop: "
                         + ", ".join(drifted))


def _serve_truncation_section(args, workload, index, serial,
                              config) -> None:
    """The ``--deadline-ms`` / ``--budget-flops`` addendum: truncated scans.

    A degraded query keeps the exact top-k of the length-sorted prefix it
    scanned (with a certified band in budget mode); under
    ``--truncation-policy fail`` it becomes a structured error instead.
    """
    import math

    from .serve import RetrievalService

    trigger = (f"{config.deadline_ms} ms deadline"
               if config.deadline_ms is not None
               else f"{config.budget_flops:g} coordinate FLOPs")
    report.print_header(
        f"Truncated scans - {trigger} per query "
        f"(policy {config.truncation_policy!r})"
    )
    with RetrievalService(index, config) as service:
        response = service.batch(workload.queries, k=args.k)
        snapshot = service.metrics_snapshot()
    m = len(workload.queries)
    hits = 0
    widths = []
    for result, truth in zip(response.results, serial):
        if result is None:
            continue
        hits += len(set(result.ids) & set(truth.ids))
        if result.bounds is not None and result.bounds.lower:
            if math.isfinite(result.bounds.tail_upper):
                widths.append(result.bounds.tail_upper
                              - result.bounds.kth_lower)
    counters = snapshot["counters"]
    rows = [["queries degraded (deadline hit)", response.deadline_hits],
            ["queries degraded (budget exhausted)", response.budget_hits],
            ["queries shed (admission control)", response.shed],
            ["structured errors", len(response.errors)],
            ["batch complete", response.complete],
            [f"recall@{args.k} of truncated batch vs full scan",
             round(hits / (args.k * m), 3) if m else 0.0],
            ["items scanned (batch total)", response.stats.scanned],
            ["items in scope (batch total)", response.stats.n_items]]
    if config.budget_flops is not None:
        rows += [["avg certified band width (tail_upper - kth_lower)",
                  round(sum(widths) / len(widths), 4) if widths else "n/a"],
                 ["budget.degraded_queries counter",
                  counters.get("budget.degraded_queries", 0)],
                 ["shed.queries counter", counters.get("shed.queries", 0)]]
    report.print_table(["metric", "value"], rows)


def _serve_sharded_section(args, workload, index, serial,
                           serial_time: float) -> None:
    """The ``--shards`` addendum: intra-query parallelism on one query."""
    import time

    from .core.sharded import ShardedFexiproIndex
    from .serve import RetrievalService, ServiceConfig

    report.print_header(
        f"Intra-query parallelism - one query fanned over "
        f"{args.shards} length-band shards"
    )
    sharded = ShardedFexiproIndex.from_index(index, shards=args.shards,
                                             workers=args.workers,
                                             executor=args.executor)
    started = time.perf_counter()
    skipped = scanned = 0
    identical = True
    for q, truth in zip(workload.queries, serial):
        result, reports = sharded.query_detailed(q, args.k)
        identical &= (result.ids == truth.ids
                      and result.scores == truth.scores)
        skipped += result.stats.shards_skipped
        scanned += len(reports)
    sharded_time = time.perf_counter() - started
    m = len(workload.queries)
    report.print_table(
        ["mode", "avg latency (s)", "speedup"],
        [["serial single scan", round(serial_time / m, 5), 1.0],
         [f"sharded x{args.shards} ({sharded.resolved_workers} workers)",
          round(sharded_time / m, 5),
          round(serial_time / sharded_time, 2) if sharded_time else 0.0]],
    )
    report.print_table(
        ["metric", "value"],
        [["ids and scores identical to serial", identical],
         ["shard scans issued", scanned],
         ["whole shards skipped (Cauchy-Schwarz)", skipped],
         ["shard-skip rate",
          round(skipped / scanned, 3) if scanned else 0.0]],
    )
    with RetrievalService(sharded,
                          ServiceConfig(workers=args.workers,
                                        executor=args.executor)) as service:
        snapshot = service.metrics_snapshot()
    report.print_table(
        ["deployment", "value"],
        [["workers requested", snapshot["workers"]["requested"]],
         ["worker processes (resolved)", snapshot["workers"]["resolved"]],
         ["host cores", snapshot["workers"]["host_cores"]],
         ["shards", snapshot["shards"]]],
    )


def service_quantile(snapshot: dict, q: float) -> float:
    """Approximate scan-latency quantile from a metrics snapshot."""
    hist = snapshot["histograms"]["latency.scan_seconds"]
    target = q * hist["count"]
    cumulative = 0
    for bucket, count in hist["buckets"].items():
        cumulative += count
        if cumulative >= target and count:
            if bucket == "overflow":
                return hist["max"]
            return float(bucket[len("le_"):])
    return hist["max"]


def _cmd_explain(args) -> None:
    from .api import Fexipro

    workload = _workload(args)
    report.print_header(
        f"EXPLAIN - per-rule pruning account (k={args.k}, "
        f"query #{args.query})",
        describe(workload),
    )
    engine = Fexipro(workload.items, variant="F-SIR")
    explanation = engine.explain(workload.queries[args.query], k=args.k)
    print(explanation.format())
    counters = explanation.counters
    print(f"counters: scanned={counters['scanned']} "
          f"full_products={counters['full_products']} "
          f"(chain verified against PruningStats)")
    if explanation.thresholds:
        first = explanation.thresholds[0]
        last = explanation.thresholds[-1]
        print(f"threshold trajectory: {len(explanation.thresholds)} polls, "
              f"{first['threshold']:.4f} -> {last['threshold']:.4f}")


def _cmd_aip(args) -> None:
    from .baselines import diamond_sample_topk, exact_all_pairs_topk

    workload = _workload(args)
    report.print_header(
        "All-pairs top-k via diamond sampling (related problem)",
        describe(workload),
    )
    exact = exact_all_pairs_topk(workload.queries, workload.items, args.k)
    truth = {(i, j) for i, j, __ in exact}
    rows = []
    for budget in (5_000, 20_000, 80_000):
        approx = diamond_sample_topk(workload.queries, workload.items,
                                     k=args.k, n_samples=budget)
        found = {(i, j) for i, j, __ in approx}
        rows.append([budget, round(len(found & truth) / args.k, 2)])
    report.print_table(["samples", f"recall@{args.k}"], rows)


def _cmd_campaign(args) -> None:
    from .api import Fexipro

    workload = _workload(args)
    k = max(args.k, 5)
    report.print_header(
        f"Reverse MIPS - campaign audience building (k={k}, "
        f"{args.probes} probes)",
        describe(workload),
    )
    engine = Fexipro(workload.items, variant="F-SIR",
                     users=workload.queries)
    # Probe the items the first few users actually retrieve (non-trivial
    # audiences) plus an unpopular one (typically empty).
    probes = []
    for q in workload.queries[: args.probes]:
        for item in engine.query(q, k).ids:
            if int(item) not in probes:
                probes.append(int(item))
                break
        if len(probes) >= args.probes - 1:
            break
    probes.append(int(engine.n - 1))
    started = time.perf_counter()
    response = engine.campaign(probes, k, engine=args.engine)
    campaign_seconds = time.perf_counter() - started

    # Identity check: the brute-force forward sweep must agree exactly.
    started = time.perf_counter()
    truth = {p: [] for p in probes}
    for u, q in enumerate(workload.queries):
        ids = engine.query(q, k).ids
        for p in probes:
            if p in ids:
                truth[p].append(u)
    brute_seconds = time.perf_counter() - started
    identical = all(result.user_ids == truth[p]
                    for p, result in zip(probes, response.results))

    stats = response.stats
    report.print_table(
        ["probe item", "audience", "provenance"],
        [[p, r.audience_size, prov]
         for p, r, prov in zip(probes, response.results,
                               response.provenance)],
    )
    report.print_table(
        ["metric", "value"],
        [["users swept", stats.n_users],
         ["pruned (Cauchy-Schwarz)", stats.pruned_cauchy_schwarz],
         ["pruned (bound table)", stats.pruned_bound_table],
         ["verified by forward scan", stats.verified],
         ["pruned fraction", f"{stats.pruned_fraction:.1%}"],
         ["campaign time", f"{campaign_seconds:.4f} s"],
         ["brute-force sweep", f"{brute_seconds:.4f} s"],
         ["speedup", f"{brute_seconds / campaign_seconds:.1f}x"
          if campaign_seconds else "inf"],
         ["identical to brute force", identical]],
    )
    if not identical:
        raise SystemExit("reverse audiences drifted from the brute-force "
                         "sweep")


COMMANDS: Dict[str, Callable] = {
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "table5": _cmd_table5,
    "table6": _cmd_table6,
    "fig8": _cmd_fig8,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig13": _cmd_fig13,
    "fig15": _cmd_fig15,
    "fig20": _cmd_fig20,
    "appendix-a": _cmd_appendix_a,
    "tune": _cmd_tune,
    "above-t": _cmd_above_t,
    "lsh": _cmd_lsh,
    "aip": _cmd_aip,
    "serve": _cmd_serve,
    "calibrate": _cmd_calibrate,
    "explain": _cmd_explain,
    "campaign": _cmd_campaign,
}


def _cmd_list(args) -> None:
    print("available experiments:")
    for name in COMMANDS:
        print(f"  {name}")
    print("datasets:", ", ".join(DATASET_ORDER))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fexipro",
        description="Regenerate FEXIPRO (SIGMOD 2017) tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list
    )
    for name, func in COMMANDS.items():
        cmd = sub.add_parser(name, help=f"run {name}")
        cmd.add_argument("--dataset", default="movielens",
                         choices=DATASET_ORDER)
        cmd.add_argument("--k", type=int, default=1)
        cmd.add_argument("--scale", type=float, default=None,
                         help="dataset size multiplier (default: env "
                              "REPRO_SCALE or 0.25)")
        cmd.add_argument("--queries", type=int, default=None,
                         help="max query vectors (default: env "
                              "REPRO_MAX_QUERIES or 60)")
        cmd.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name == "serve":
            cmd.add_argument("--workers", type=int, default=4,
                             help="worker processes for the batch "
                                  "serving comparison (default 4)")
            cmd.add_argument("--executor", default="auto",
                             choices=("auto", "process", "serial"),
                             help="scan execution backend: 'process' runs "
                                  "scans on real cores over a shared-"
                                  "memory index replica, 'serial' runs "
                                  "them in one ordered loop; 'auto' "
                                  "(default) sends only multi-query "
                                  "batches of blocked scans to processes")
            cmd.add_argument("--engine", default=None,
                             choices=("auto", "reference", "blocked",
                                      "gemm"),
                             help="scan engine override: 'auto' turns on "
                                  "the cost-based planner (per-batch "
                                  "engine choice, bitwise-identical "
                                  "results); default: the index's own "
                                  "engine")
            cmd.add_argument("--shards", type=int, default=0,
                             help="also demo intra-query parallelism: fan "
                                  "each query over this many length-band "
                                  "shards (0 = off)")
            cmd.add_argument("--deadline-ms", type=float, default=None,
                             help="per-query scan budget in ms; expired "
                                  "queries follow --truncation-policy "
                                  "(default: no deadline)")
            cmd.add_argument("--budget-flops", type=float, default=None,
                             help="per-query compute budget in coordinate "
                                  "FLOPs (a full scan costs about n*d); "
                                  "turns on budget mode with certified "
                                  "result bands; mutually exclusive with "
                                  "--deadline-ms")
            cmd.add_argument("--truncation-policy", default="degrade",
                             choices=("degrade", "fail"),
                             help="what a scan cut short by --deadline-ms "
                                  "or --budget-flops does: 'degrade' "
                                  "(default) returns the exact prefix "
                                  "top-k, 'fail' raises a structured "
                                  "error")
            cmd.add_argument("--shed-capacity-flops", type=float,
                             default=None,
                             help="aggregate FLOP capacity per batch for "
                                  "admission control; overload shrinks "
                                  "budgets then sheds excess queries with "
                                  "structured errors (requires "
                                  "--budget-flops)")
            cmd.add_argument("--cache-capacity", type=int, default=0,
                             help="also demo the exactness-preserving "
                                  "query cache with this many LRU entries "
                                  "(0 = off)")
            cmd.add_argument("--metrics-port", type=int, default=None,
                             help="also expose /metrics + /healthz on this "
                                  "port (0 = any free port) and print one "
                                  "scrape (default: off)")
        if name == "explain":
            cmd.add_argument("--query", type=int, default=0,
                             help="which workload query to explain "
                                  "(default 0)")
        if name == "campaign":
            cmd.add_argument("--probes", type=int, default=4,
                             help="how many probe items to audience-build "
                                  "(default 4)")
            cmd.add_argument("--engine", default=None,
                             choices=("auto", "reference", "blocked",
                                      "gemm"),
                             help="engine for the verification scans "
                                  "('auto' = the cost-based planner; "
                                  "default: the index's own engine)")
        cmd.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
