"""Extension experiment: batch query processing (paper future work).

The paper proposes unifying single and batch retrieval.  Our batch path
(:func:`repro.core.batch.batch_retrieve`) amortizes the query-side
preprocessing of Algorithm 4 across the workload; on a GEMM-engine index
it also scores each chunk of queries with one BLAS-3 product per block
(:func:`repro.core.gemm.scan_gemm_many`).  This bench verifies both
batch paths against their per-query loops — ids for the cascade, ids,
score bits and every pruning counter for GEMM — and reports the times.
"""

import time

import pytest

from repro import FexiproIndex
from repro.analysis import report
from repro.analysis.workloads import describe, get_workload
from repro.core.batch import batch_retrieve


def _timed(fn):
    started = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - started


def _fingerprint(results):
    return [(r.ids, [s.hex() for s in r.scores], r.stats.as_dict())
            for r in results]


@pytest.mark.parametrize("dataset", ("movielens", "yahoo"))
def test_batch_vs_loop(benchmark, sink, dataset):
    workload = get_workload(dataset)
    index = FexiproIndex(workload.items, variant="F-SIR")
    gemm_index = FexiproIndex(workload.items, variant="F-SIR",
                              engine="gemm")
    queries = workload.queries

    def run():
        loop, loop_time = _timed(lambda: [index.query(q, 10)
                                          for q in queries])
        batch, batch_time = _timed(lambda: batch_retrieve(index, queries,
                                                          10))
        g_loop, g_loop_time = _timed(lambda: [gemm_index.query(q, 10)
                                              for q in queries])
        fused, fused_time = _timed(lambda: gemm_index.batch_query(queries,
                                                                  10))
        agree = all(a.ids == b.ids for a, b in zip(loop, batch))
        gemm_agree = _fingerprint(g_loop) == _fingerprint(fused)
        return (loop_time, batch_time, g_loop_time, fused_time, agree,
                gemm_agree)

    (loop_time, batch_time, g_loop_time, fused_time, agree,
     gemm_agree) = benchmark.pedantic(run, rounds=1, iterations=1)
    with sink.section(f"extension_batch_{dataset}") as out:
        report.print_header("Extension - batch vs per-query processing",
                            describe(workload), out=out)
        report.print_table(
            ["mode", "time (s)"],
            [["per-query loop", round(loop_time, 4)],
             ["batched prep", round(batch_time, 4)],
             ["per-query GEMM loop", round(g_loop_time, 4)],
             ["fused GEMM batch", round(fused_time, 4)]],
            out=out,
        )
    assert agree
    assert gemm_agree
    # At bench scale the scan dominates and per-query prep is only a few
    # percent of the time, so the two modes sit within noise of each
    # other; assert no *regression* beyond noise rather than a win.
    assert batch_time <= loop_time * 1.5 + 0.01
    assert fused_time <= g_loop_time * 1.5 + 0.01
