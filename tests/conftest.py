"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def make_mf_like(n: int, d: int, seed: int = 0, decay: float = 0.08,
                 norm_sigma: float = 0.4, rotate: bool = True):
    """Generate an MF-like (items, queries) pair for retrieval tests.

    Mirrors the zoo generator's structure at small scale: decaying planted
    spectrum, spread-out item norms, values near zero, and an orthogonal
    rotation hiding the spectrum from the raw coordinates.
    """
    rng = np.random.default_rng(seed)
    spectrum = np.exp(-decay * np.arange(d))
    items = rng.normal(size=(n, d)) * spectrum
    items *= rng.lognormal(0.0, norm_sigma, size=(n, 1)) * 0.3
    queries = rng.normal(size=(max(8, n // 20), d)) * spectrum * 0.3
    if rotate:
        rotation, __ = np.linalg.qr(rng.normal(size=(d, d)))
        items = items @ rotation
        queries = queries @ rotation
    return items, queries


def brute_force_topk(items: np.ndarray, query: np.ndarray, k: int):
    """Ground-truth top-k ids and scores by full enumeration."""
    scores = items @ query
    order = np.argsort(-scores, kind="stable")[:k]
    return order, scores[order]


def oracle_topk(snap, qs, k: int, positions=None):
    """Brute-force top-k by (score descending, scan position ascending).

    Scores every candidate global position (default: every visible row
    of the snapshot ``snap``) with the engines' exact floats — base rows
    with ``exact_scores`` in the transformed basis, delta rows (``n + i``)
    on the raw rows with ``w = d`` — and sorts with ``np.lexsort``,
    independent of :class:`~repro.core.topk.TopKBuffer`.  Returns
    ``(positions, scores)`` lists, best first.
    """
    from repro.core.score import exact_scores

    if positions is None:
        positions = np.concatenate([np.flatnonzero(~snap.base_dead),
                                    snap.n + snap.delta_alive_idx])
    positions = np.asarray(sorted(positions), dtype=np.int64)
    base = positions < snap.n
    scores = np.empty(positions.size)
    scores[base] = exact_scores(snap.items_bar, positions[base], qs.q_bar,
                                snap.w)[1]
    scores[~base] = exact_scores(snap.delta_items, positions[~base] - snap.n,
                                 qs.q, snap.d)[1]
    top = np.lexsort((positions, -scores))[:k]
    return positions[top].tolist(), scores[top].tolist()


@pytest.fixture
def small_items():
    """A small MF-like item matrix (deterministic)."""
    items, __ = make_mf_like(400, 16, seed=11)
    return items


@pytest.fixture
def small_queries():
    """Query vectors matched to :func:`small_items`."""
    __, queries = make_mf_like(400, 16, seed=11)
    return queries


@pytest.fixture
def medium_pair():
    """A medium (items, queries) pair for cross-method comparisons."""
    return make_mf_like(1200, 24, seed=5)


def stepped_clock():
    """A clock on which every poll burns 0.25 "seconds"."""
    calls = {"n": 0}

    def clock():
        calls["n"] += 1
        return float(calls["n"]) * 0.25

    return clock


def serial_shard_fanout(sharded, query, k: int, options=None, order=None):
    """The process fan-out's one-worker schedule, run in this process.

    A ``ProcessScanPool`` with one worker runs a query's shard tasks in
    span order, each seeded from the shared slot its predecessors raised.
    This oracle runs the same :func:`~repro.core.sharded.scan_shard_span`
    calls in the same order against a query-local threshold cell and
    merges them the same way, so a one-worker ``executor="process"``
    query must equal it in ids, scores, counters and reports.  Returns
    ``(result, reports)`` like ``ShardedFexiproIndex.query_detailed``.

    ``order`` (a permutation of the span indices) runs the shards in
    another order instead, as a many-worker pool may.
    """
    import time

    from repro._validation import as_query_vector
    from repro.core.delta import catalog_result, effective_k
    from repro.core.options import ScanOptions
    from repro.core.sharded import _merge_shards, scan_shard_span
    from repro.serve.procpool import _LocalThreshold

    opts = ScanOptions() if options is None else options
    snap = sharded.index._live
    started = time.perf_counter()
    qs = sharded.index._prepare_query(as_query_vector(query, snap.d),
                                      snapshot=snap)
    spans = sharded._catalog_spans(snap)
    k_eff = effective_k(snap, k)
    cell = _LocalThreshold(opts.initial_threshold)
    outputs = [None] * len(spans)
    for shard_id in (range(len(spans)) if order is None else order):
        start, stop = spans[shard_id]
        seed = cell.value
        buffer, stats, seen, outcome = scan_shard_span(
            snap, qs, k_eff, shard_id, start, stop,
            ScanOptions(initial_threshold=seed, shared=cell,
                        deadline=opts.deadline))
        outputs[shard_id] = (buffer, stats, seen, None, outcome)
    buffer, stats, reports = _merge_shards(snap, k, k_eff, spans, outputs,
                                           None, None)
    result = catalog_result(snap, qs.q_norm, *buffer.items_and_scores(),
                            stats, time.perf_counter() - started,
                            budgeted=False)
    return result, reports


def span_shape(span):
    """A span's name, attributes and events, without timestamps."""
    events = [{key: value for key, value in event.items() if key != "at"}
              for event in span.events]
    return span.name, dict(span.attributes), events
