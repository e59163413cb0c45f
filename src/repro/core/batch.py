"""Batch query processing over a FEXIPRO index (paper future work).

The paper's conclusion proposes unifying single-query FEXIPRO with LEMP's
batch setting.  The per-query scan is already optimal for one vector; what
a batch shares is the *query-side preprocessing* of Algorithm 4, Lines 2–9.

Historically this module carried its own vectorized copy of that
preparation, which drifted from the single-query path in its degenerate
value handling (all-zero scaling blocks, denormal norms) — exactly the bug
class that silently breaks the "exact retrieval" guarantee.  The
preparation now has a *single* implementation,
:func:`repro.core.index.prepare_query_states` (re-exported here), which
both :meth:`FexiproIndex.query` and :func:`batch_retrieve` call; the two
entry points are bit-identical by construction.

:func:`batch_retrieve` validates the whole query matrix once, prepares
every :class:`~repro.core.index.QueryState` through the shared function and
runs the ordinary scan per query — timing each scan so per-query latency
survives batch mode.  On a ``"gemm"`` index it scores chunks of
:data:`~repro.core.gemm.GEMM_CHUNK` queries with one BLAS-3 product per
block instead (:func:`~repro.core.gemm.scan_gemm_many`), with the same
ids, scores and counters.  For parallel, instrumented batch serving use
:class:`repro.serve.RetrievalService`, which is built on the same
primitives.
"""

from __future__ import annotations

import time
from typing import List

from .. import _faultsites
from .._validation import as_query_matrix, check_k
from .gemm import GEMM_CHUNK
from .index import FexiproIndex, QueryState, prepare_query_states
from .stats import RetrievalResult, assemble_result

__all__ = [
    "FexiproIndex",
    "QueryState",
    "batch_retrieve",
    "prepare_query_states",
]


def batch_retrieve(index: FexiproIndex, queries, k: int = 10,
                   ) -> List[RetrievalResult]:
    """Answer a whole query matrix with shared query-side preprocessing.

    Returns exactly what ``[index.query(q, k) for q in queries]`` would —
    same ids, scores, and pruning counters — with validation done once for
    the whole matrix.  Each result's ``elapsed`` covers its own scan (the
    shared preparation is not attributed to individual queries); a fused
    GEMM chunk's wall time is shared equally by its queries.  The fused
    path is skipped while a fault injector is armed, so every per-query
    ``scan`` fault site still fires.
    """
    # One snapshot for the whole batch: preparation and every scan share
    # a single frozen catalog even if writes or a compaction land mid-batch.
    snap = index._live
    queries = as_query_matrix(queries, snap.d)
    k = check_k(k, snap.visible_count)
    if k == 0:
        return [RetrievalResult() for __ in queries]
    states = prepare_query_states(snap, queries)
    results: List[RetrievalResult] = []
    if index.engine == "gemm" and len(states) > 1 \
            and _faultsites.active is None:
        for lo in range(0, len(states), GEMM_CHUNK):
            outcomes = index._scan_gemm_chunk(states[lo:lo + GEMM_CHUNK], k,
                                              snapshot=snap)
            for positions, scores, stats, elapsed, __ in outcomes:
                results.append(assemble_result(snap.full_order, positions,
                                               scores, stats, elapsed))
        return results
    for state in states:
        started = time.perf_counter()
        buffer, stats = index._scan(state, k, snapshot=snap)
        elapsed = time.perf_counter() - started
        results.append(assemble_result(snap.full_order,
                                       *buffer.items_and_scores(),
                                       stats, elapsed))
    return results
