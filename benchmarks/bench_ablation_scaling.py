"""Ablation on the integer-scaling design choice (DESIGN.md call-out).

Split (Eq. 7) vs uniform (Eq. 4) scaling: Section 6 argues the SVD skew
makes a single global maximum crush the tail integers; the split keeps
both partial bounds tight.
"""

import pytest

from repro import FexiproIndex
from repro.analysis import report
from repro.analysis.workloads import describe, get_workload


@pytest.mark.parametrize("dataset", ("movielens", "netflix"))
def test_split_vs_uniform_scaling(benchmark, sink, dataset, bench_queries):
    workload = get_workload(dataset, query_cap=bench_queries)

    def run():
        rows = []
        for split in (True, False):
            index = FexiproIndex(workload.items, variant="F-SI",
                                 split_scaling=split)
            full = sum(index.query(q, 1).stats.full_products
                       for q in workload.queries)
            pruned_int = sum(
                index.query(q, 1).stats.pruned_integer_partial
                + index.query(q, 1).stats.pruned_integer_full
                for q in workload.queries
            )
            rows.append({
                "scaling": "split (Eq. 7)" if split else "uniform (Eq. 4)",
                "avg_full": full / len(workload.queries),
                "avg_int_pruned": pruned_int / len(workload.queries),
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with sink.section(f"ablation_scaling_{dataset}") as out:
        report.print_header("Ablation - split vs uniform integer scaling",
                            describe(workload), out=out)
        report.print_table(
            ["scaling", "avg entire products", "avg integer-pruned"],
            [[r["scaling"], round(r["avg_full"], 2),
              round(r["avg_int_pruned"], 2)] for r in rows],
            out=out,
        )
    split_row, uniform_row = rows
    assert split_row["avg_full"] <= uniform_row["avg_full"] + 1e-9
