"""Sharded intra-query parallel scan: :class:`ShardedFexiproIndex`.

PR 1 parallelized *across* queries; a single query still scanned all n
items on one core.  This module partitions the length-sorted item matrix
into S contiguous length bands ("shards") and answers **one** query by
scanning the shards concurrently on the GIL-releasing NumPy kernels of the
blocked engine — the intra-query axis of parallelism, the one that cuts
tail latency for a single hot query.

Exactness is preserved by construction:

- All shards share *one* preprocessed :class:`~repro.core.index.FexiproIndex`
  (one sort, one SVD basis, one scaling, one reduction), so every arithmetic
  operation a shard performs is the same operation — on the same arrays —
  the single-shard scan performs.  Scores are therefore bit-identical.
- Each shard runs the unchanged Algorithm 4/5 cascade
  (:func:`repro.core.blocked.scan_blocked`) over its span, with its live
  threshold *seeded* from a shared best-so-far cell
  (:class:`SharedThreshold`) and re-polled at block boundaries.  The cell
  only ever holds thresholds *achieved* by k collected results, and it only
  grows; a stale read merely weakens pruning, never drops a true top-k item.
- Because later shards hold shorter items, the Cauchy–Schwarz test can
  eliminate whole shards before their scan starts, once the shared
  threshold exceeds ``||q|| * shard.max_norm`` — counted as
  ``shards_skipped`` in :class:`~repro.core.stats.PruningStats`.
- A final exact merge of the per-shard
  :class:`~repro.core.topk.TopKBuffer`s (:meth:`TopKBuffer.merge`, replayed
  in ascending-position order) reproduces the single scan's selection,
  including its tie handling.

Pruning *counters* other than the result-defining ones are a property of
the execution schedule, not of the answer: a shard seeded with a strong
threshold scans fewer items than the single sequential scan would have at
the same positions (and a weakly seeded shard scans more), so the
aggregated counters are the exact sum of the per-shard counters but are
not expected to equal the single-scan counters — except for ``shards=1``,
where the sharded scan *is* the single scan.

Example
-------
>>> import numpy as np
>>> from repro import ShardedFexiproIndex
>>> rng = np.random.default_rng(0)
>>> items = rng.normal(scale=0.3, size=(10_000, 32))
>>> index = ShardedFexiproIndex(items, shards=4)
>>> result = index.query(rng.normal(scale=0.3, size=32), k=5)
>>> len(result.ids)
5
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import _faultsites
from .._validation import as_query_vector, check_k
from ..exceptions import ValidationError
from .blocked import scan_blocked
from .delta import (
    LiveCatalog,
    apply_tombstones,
    catalog_result,
    effective_k,
    scan_delta,
)
from .driver import BlockCursor
from .index import FexiproIndex, QueryState, _empty_result
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .stats import PruningStats, RetrievalResult, StageTimings
from .topk import TopKBuffer

__all__ = [
    "ShardedFexiproIndex",
    "SharedThreshold",
    "default_shards",
    "scan_shard_span",
    "shard_spans",
]

#: Valid values for the ``executor`` knob (how the intra-query fan-out
#: runs when the caller does not choose for it).
EXECUTORS = ("auto", "process", "serial")


def check_executor(executor) -> str:
    """Validate an ``executor`` knob value (shared with the service)."""
    if executor == "thread":
        raise ValidationError(
            "executor='thread' was removed (the GIL serialized its scans); "
            "use 'serial' or 'process'"
        )
    if executor not in EXECUTORS:
        raise ValidationError(
            f"executor must be one of {EXECUTORS}; got {executor!r}"
        )
    return executor


#: The span-capable scan kernels — what a shard can actually run, and
#: what the planner chooses between for a sharded query.
SPAN_ENGINES = ("blocked", "gemm")

#: Engines a sharded index may use: the span-capable kernels plus the
#: planner.  ``"reference"`` has no span scan and is rejected.
SHARD_ENGINES = SPAN_ENGINES + ("auto",)


def default_shards() -> int:
    """A sensible shard count for this host: one per core, in [2, 16].

    Two shards minimum so the shard-skip test has something to skip even on
    a single-core host (shards then run sequentially, each seeded by its
    predecessors); sixteen maximum because the per-query fan-out cost grows
    with S while the marginal parallelism of tiny shards shrinks.
    """
    return max(2, min(16, os.cpu_count() or 1))


def shard_spans(n: int, shards: int) -> List[Tuple[int, int]]:
    """Split positions ``[0, n)`` into ``shards`` contiguous spans.

    Sizes differ by at most one, larger spans first.  With ``shards > n``
    the tail spans are empty (``start == stop``) — legal, scanned as
    no-ops — so a shard count chosen for a big index keeps working after
    heavy :meth:`ShardedFexiproIndex.remove_items`.
    """
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ValidationError(
            f"shards must be a positive integer; got {shards!r}"
        )
    if n < 0:
        raise ValidationError(f"n must be non-negative; got {n}")
    base, extra = divmod(n, shards)
    spans: List[Tuple[int, int]] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


class SharedThreshold:
    """A monotonically growing cross-shard best-so-far threshold cell.

    Shards :meth:`offer` their buffer's threshold when they complete (the
    k-th best score among results they actually collected — ``-inf`` while
    fewer than k exist, which the cell ignores) and read :attr:`value` when
    they start and at block boundaries.  The value is therefore always a
    score *achieved by k collected items*, i.e. a valid lower bound on the
    global k-th best; pruning against it is exact.

    Reads are deliberately lock-free: a torn/stale read can only return an
    older (smaller) value, which weakens pruning but never misprunes.
    Writes take the lock so the cell never moves backwards.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, value: float = -math.inf):
        self._value = float(value)
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """Current best-so-far threshold (monotone, lock-free read)."""
        return self._value

    def offer(self, candidate: float) -> bool:
        """Raise the cell to ``candidate`` if it improves it.

        Returns ``True`` if the cell moved.  ``-inf`` offers (a shard that
        never filled its buffer) are no-ops.
        """
        candidate = float(candidate)
        if candidate <= self._value:
            return False
        with self._lock:
            if candidate > self._value:
                self._value = candidate
                return True
            return False


@dataclass
class ShardScanReport:
    """Per-shard outcome of one sharded scan (tests, benchmarks, metrics)."""

    span: Tuple[int, int]
    stats: PruningStats
    seeded_threshold: float

    @property
    def skipped(self) -> bool:
        """Whether the whole shard was eliminated before its scan started."""
        return self.stats.shards_skipped > 0


def scan_shard_span(index: FexiproIndex, qs: QueryState, k: int,
                    shard_id: int, start: int, stop: int,
                    options: ScanOptions, engine: str = "blocked"):
    """Scan one shard of one prepared query — the unit of fan-out work.

    This is the body of the sharded scan's per-shard task, hoisted to
    module level so it is importable by reference from worker
    *processes* (closures do not pickle); the in-process fan-out calls
    exactly the same function, so the two executors cannot drift.

    All per-call state rides in ``options``: ``shared`` is anything with
    the :class:`SharedThreshold` duck type — the in-process cell, or a
    cross-process slot — and ``initial_threshold`` is the seed the shard
    starts from, which callers read from that cell.  The deadline and
    budget are polled once at the shard boundary (by the same
    :class:`~repro.core.driver.BlockCursor` the kernels use, charging
    nothing) and then per block inside the kernel.  Returns ``(buffer,
    stats, seed, outcome)`` with ``outcome`` one of ``"empty"`` /
    ``"deadline"`` / ``"budget"`` / ``"skipped"`` / ``"scanned"``; the
    trace ``options.span`` (if any) is closed with the same outcome
    attributes the sharded scan has always recorded.

    ``engine`` selects the span-capable scan kernel: ``"blocked"``
    (default, the cascade) or ``"gemm"``
    (:func:`repro.core.gemm.scan_gemm`).  Both return bitwise-identical
    buffers over the same span, so the planner may choose per shard
    without affecting the merged result.

    ``index`` may be a :class:`FexiproIndex` (worker processes attach a
    whole replica) or a captured :class:`~repro.core.delta.LiveCatalog`
    snapshot (the in-process fan-out).  A span starting at or past the
    base extent is the live catalog's **delta pseudo-span**, scanned
    brute-force by :func:`~repro.core.delta.scan_delta` under the same
    shared-threshold/deadline/budget discipline.
    """
    snap = getattr(index, "_live", index)
    if start >= snap.n and stop > start:
        return _scan_delta_span(snap, qs, k, shard_id, start, stop, options)
    seed = options.initial_threshold
    span = options.span
    if start >= stop:
        if span is not None:
            span.set(outcome="empty").end()
        return TopKBuffer(k), PruningStats(), seed, "empty"
    stats = PruningStats(n_items=stop - start)
    # Shard-boundary poll: a stop leaves the whole band unscanned (a
    # spent budget's certified tail bound is then ``||q|| * norms[start]``).
    boundary = BlockCursor(options, stats, traced=False)
    if not boundary.poll(start, 0, seed):
        if span is not None:
            span.set(outcome=boundary.reason, start=start, stop=stop).end()
        return TopKBuffer(k), stats, seed, boundary.reason
    if qs.q_norm * float(snap.norms_sorted[start]) <= seed:
        # Cauchy-Schwarz at shard granularity: no item in this shard can
        # beat a threshold already achieved by k collected results.  The
        # whole band dies unscanned.
        stats.length_terminated = 1
        stats.shards_skipped = 1
        if span is not None:
            span.set(outcome="skipped", start=start, stop=stop).end()
        return TopKBuffer(k), stats, seed, "skipped"
    with _faultsites.tagged(f"shard={shard_id}"):
        if engine == "gemm":
            from .gemm import scan_gemm

            buffer, stats = scan_gemm(
                snap, qs, k,
                start=start, stop=stop, options=options,
            )
        else:
            buffer, stats = scan_blocked(
                snap, qs, k, snap.block_size,
                start=start, stop=stop, options=options,
            )
    options.shared.offer(buffer.threshold)
    if span is not None:
        span.set(outcome="scanned",
                 offered_threshold=buffer.threshold).end()
    return buffer, stats, seed, "scanned"


def _scan_delta_span(snap: LiveCatalog, qs: QueryState, k: int,
                     shard_id: int, start: int, stop: int,
                     options: ScanOptions):
    """The delta pseudo-span body of :func:`scan_shard_span`.

    Runs the brute-force delta scan with the same shared-threshold,
    deadline and budget plumbing as a base shard; a whole-tier
    Cauchy–Schwarz skip is reported as ``shards_skipped`` exactly like a
    skipped length band.  Delta accounting lands in the ``delta_*``
    counters, never in ``n_items``/``scanned`` (the base cascade's
    balance invariants stay intact).
    """
    span = options.span
    with _faultsites.tagged(f"shard={shard_id}"):
        buffer, stats, outcome = scan_delta(snap, qs, k, options)
    if outcome == "skipped":
        stats.shards_skipped = 1
    if span is not None:
        if outcome == "scanned":
            span.set(outcome="scanned", delta=True,
                     offered_threshold=buffer.threshold).end()
        else:
            span.set(outcome=outcome, delta=True, start=start,
                     stop=stop).end()
    return buffer, stats, options.initial_threshold, outcome


def _merge_shards(snap: LiveCatalog, k: int, k_eff: int,
                  spans: List[Tuple[int, int]], outputs,
                  collect_timings: bool, trace_span):
    """Merge per-shard ``(buffer, stats, seed, timings, outcome)`` exactly.

    Buffers merge in span order (ascending positions, so ties resolve as
    in the single scan), tombstones are masked back down to ``k``, and
    ``trace_span`` gets one ``merge`` event.  Returns ``(merged_buffer,
    total_stats, reports, timings)`` — the sharded scan's result shape.
    """
    merged = TopKBuffer(k_eff)
    total = PruningStats()
    timings = StageTimings() if collect_timings else None
    reports: List[ShardScanReport] = []
    for span, (buffer, stats, seed, shard_timings, __) in zip(spans,
                                                             outputs):
        merged.merge(buffer)
        total.merge(stats)
        reports.append(ShardScanReport(span=span, stats=stats,
                                       seeded_threshold=seed))
        if timings is not None and shard_timings is not None:
            timings.merge(shard_timings)
    if snap.base_dead_count:
        merged, masked = apply_tombstones(snap, merged, k)
        total.tombstones_masked += masked
    if trace_span is not None:
        trace_span.event("merge", threshold=merged.threshold,
                         shards_skipped=total.shards_skipped,
                         deadline_hit=total.deadline_hit,
                         budget_exhausted=total.budget_exhausted,
                         tombstones_masked=total.tombstones_masked)
    return merged, total, reports, timings


class ShardedFexiproIndex:
    """Exact top-k retrieval with intra-query parallel shard scans.

    Parameters
    ----------
    items:
        Item matrix, rows as vectors — exactly as for
        :class:`~repro.core.index.FexiproIndex`.
    shards:
        Number of contiguous length bands (default: one per core, in
        [2, 16]).  ``shards=1`` degenerates to the plain single scan.
    workers:
        Worker processes for the intra-query fan-out (default:
        ``shards``), clamped to the shard count.  In-process, the shards
        always run sequentially — in band order, each seeded by its
        predecessors.
    executor:
        How the fan-out runs when the caller does not choose:
        ``"process"`` scans shards on real cores via a
        :class:`repro.serve.procpool.ProcessScanPool` over a
        shared-memory replica (falling back in-process when the host
        cannot start one); ``"serial"`` always scans in-process;
        ``"auto"`` (default) picks processes only when they can actually
        win — multiple workers, shards and cores, and no in-process-only
        instrumentation (armed fault injector, tracer span) active.
    **index_options:
        Forwarded to :class:`FexiproIndex` (``variant``, ``rho``, ``e``,
        ``block_size``, ...).  ``engine`` may be ``"blocked"`` (default),
        ``"gemm"`` or ``"auto"`` — the span-capable kernels; with
        ``"auto"`` the cost model picks blocked vs GEMM once per query,
        before the fan-out.  ``"reference"`` has no span scan and is
        rejected.

    The preprocessed single index is exposed as :attr:`index`; it is fully
    usable on its own (and serves as the serial baseline in benchmarks and
    the identity oracle in tests).
    """

    def __init__(self, items, *, shards: Optional[int] = None,
                 workers: Optional[int] = None, executor: str = "auto",
                 **index_options):
        engine = index_options.setdefault("engine", "blocked")
        if engine not in SHARD_ENGINES:
            raise ValidationError(
                "ShardedFexiproIndex requires a span-capable engine "
                f"{SHARD_ENGINES}; got engine={engine!r}"
            )
        self._configure(FexiproIndex(items, **index_options), shards,
                        workers, executor)

    @classmethod
    def from_index(cls, index: FexiproIndex, *,
                   shards: Optional[int] = None,
                   workers: Optional[int] = None,
                   executor: str = "auto") -> "ShardedFexiproIndex":
        """Wrap an already preprocessed index without re-running Algorithm 3."""
        if not isinstance(index, FexiproIndex):
            raise ValidationError(
                f"from_index needs a FexiproIndex; got {type(index).__name__}"
            )
        if index.engine not in SHARD_ENGINES:
            raise ValidationError(
                "ShardedFexiproIndex requires a span-capable engine "
                f"{SHARD_ENGINES}; the wrapped index uses {index.engine!r}"
            )
        self = cls.__new__(cls)
        self._configure(index, shards, workers, executor)
        return self

    def _configure(self, index: FexiproIndex, shards: Optional[int],
                   workers: Optional[int], executor: str = "auto") -> None:
        self.index = index
        if shards is None:
            shards = default_shards()
        if not isinstance(shards, int) or isinstance(shards, bool) \
                or shards < 1:
            raise ValidationError(
                f"shards must be a positive integer; got {shards!r}"
            )
        self.n_shards = int(shards)
        if workers is None:
            workers = self.n_shards
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise ValidationError(
                f"workers must be a positive integer; got {workers!r}"
            )
        self.workers = int(workers)
        self.executor = check_executor(executor)
        self._procpool = None

    # ------------------------------------------------------------------
    # Pass-through surface
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Visible catalog size (base plus delta, minus tombstones)."""
        return self.index.n

    @property
    def n_base(self) -> int:
        """Rows in the preprocessed base tier (the shardable extent)."""
        return self.index.n_base

    @property
    def d(self) -> int:
        return self.index.d

    @property
    def order(self):
        return self.index.order

    @property
    def spans(self) -> List[Tuple[int, int]]:
        """Current *base* shard spans (recomputed, so updates are safe).

        The delta tier, when non-empty, rides as one extra pseudo-span
        ``(n_base, n_base + delta_count)`` appended at scan time — it is
        not part of this property because it is not a length band.
        """
        return shard_spans(self.index.n_base, self.n_shards)

    def add_items(self, new_items) -> List[int]:
        """Delegate to the inner index; the delta tier absorbs the write."""
        return self.index.add_items(new_items)

    def remove_items(self, ids) -> int:
        """Delegate to the inner index (tombstone masks, no rebuild)."""
        return self.index.remove_items(ids)

    def compact(self) -> bool:
        """Delegate to :meth:`FexiproIndex.compact`; spans follow the swap."""
        return self.index.compact()

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------

    def query(self, query, k: int = 10, *,
              options: Optional[ScanOptions] = None,
              engine: Optional[str] = None) -> RetrievalResult:
        """Exact top-k for one query, scanned shard-parallel.

        Returns ids/scores identical to ``self.index.query(query, k)``;
        ``stats`` is the exact sum of the per-shard pruning counters (plus
        ``shards_skipped``).  ``engine`` overrides the per-shard scan
        engine for this call only; results are bitwise identical across
        engines.
        """
        result, __ = self.query_detailed(query, k, options=options,
                                         engine=engine)
        return result

    def query_detailed(
        self, query, k: int = 10, *,
        options: Optional[ScanOptions] = None,
        engine: Optional[str] = None,
    ) -> Tuple[RetrievalResult, List[ShardScanReport]]:
        """Like :meth:`query`, also returning per-shard scan reports.

        Stage timings accumulate into ``options.timings`` when given.
        """
        timings_acc = options.timings if options is not None else None
        snap = self.index._live
        q = as_query_vector(query, snap.d)
        k = check_k(k, snap.visible_count)
        started = time.perf_counter()
        if k == 0:
            return _empty_result(
                started,
                budgeted=options is not None and options.budget is not None,
            ), []
        qs = self.index._prepare_query(q, snapshot=snap)
        buffer, total, reports, scan_timings = self._scan_sharded(
            qs, k, collect_timings=timings_acc is not None,
            options=options, snapshot=snap, engine=engine,
        )
        if timings_acc is not None and scan_timings is not None:
            timings_acc.merge(scan_timings)
        elapsed = time.perf_counter() - started
        result = catalog_result(
            snap, qs.q_norm, *buffer.items_and_scores(), total, elapsed,
            budgeted=options is not None and options.budget is not None,
            reports=reports)
        return result, reports

    def explain(self, query, k: int = 10, *, tracer=None,
                options: Optional[ScanOptions] = None):
        """Run one query shard-parallel with full instrumentation.

        Returns a :class:`repro.obs.QueryExplanation` whose ``shards``
        field carries one per-shard account (span, seeded threshold,
        skip/deadline outcome, per-rule counts).  See
        :func:`repro.obs.explain_query`.
        """
        from ..obs.explain import explain_query

        return explain_query(self, query, k, tracer=tracer, options=options)

    def batch_query(self, queries, k: int = 10) -> List[RetrievalResult]:
        """Run :meth:`query` over rows of a query matrix, independently."""
        from .._validation import as_query_matrix

        queries = as_query_matrix(queries, self.index.d)
        return [self.query(row, k) for row in queries]

    # ------------------------------------------------------------------
    # The sharded scan
    # ------------------------------------------------------------------

    def _scan_sharded(self, qs: QueryState, k: int, *,
                      collect_timings: bool = False,
                      options: Optional[ScanOptions] = None,
                      engine: Optional[str] = None,
                      snapshot: Optional[LiveCatalog] = None):
        """Fan one prepared query out over the shards and merge exactly.

        Returns ``(merged_buffer, total_stats, reports, timings)``.
        In-process, the shards run in band order, each seeded by its
        predecessors.  Per-call behaviour rides in ``options`` (a
        :class:`~repro.core.options.ScanOptions`).

        Only an unbudgeted fan-out whose resolved engine is ``"blocked"``
        may run on worker processes, on the pool :meth:`_maybe_procpool`
        picks per the index's ``executor``.  When no pool serves, or the
        published replica raced a mutation, the shards run in-process
        over the captured snapshot.

        ``options.initial_threshold`` seeds the :class:`SharedThreshold`
        cell before any shard starts (the warm-start path of
        :mod:`repro.serve.cache`).  The caller must guarantee a **strict**
        lower bound on the query's true k-th inner product; the cell then
        behaves exactly as if an earlier shard had offered that value —
        every shard prunes against it from its first block, and whole
        shards may be skipped outright, while ids and scores stay bitwise
        identical to the cold scan.

        ``options.deadline`` (a :class:`repro.serve.resilience.Deadline`)
        is polled at shard boundaries — an expired deadline returns a
        shard unscanned with ``deadline_hit`` set — and forwarded into
        each shard's :func:`scan_blocked`, which polls it at block
        boundaries.  The merged degraded result is the exact top-k of the
        union of the per-shard scanned prefixes: every threshold in the
        shared cell was achieved by collected (scanned) items, so pruned
        and unvisited items are provably below the merged buffer's k-th
        score.  Each shard runs under a ``shard=<i>`` fault-injection tag
        so injector rules can fail shard scans without touching single
        scans.

        ``options.span`` makes the fan-out trace itself: one ``scan.shard``
        child span per shard (carrying its span bounds, seeded threshold
        and outcome — scanned / skipped / deadline / empty) plus a
        ``merge`` event on the parent after the exact merge.
        """
        opts = DEFAULT_SCAN_OPTIONS if options is None else options
        trace_span = opts.span
        index = self.index
        snap = index._live if snapshot is None else snapshot
        spans = self._catalog_spans(snap)
        if engine is None:
            engine = index.engine
        # The planner resolves "auto" once per query, *before* the
        # fan-out — every shard then runs the same kernel, and both
        # kernels return bitwise-identical buffers over any span, so the
        # decision can never change the merged result.
        planned = engine == "auto"
        if planned:
            engine, __ = index.plan_engine(SPAN_ENGINES)
        started = time.perf_counter() if planned else 0.0
        budget = opts.budget
        budgeted = budget is not None and math.isfinite(budget.total)
        # The base engine collects at the inflated capacity so tombstone
        # masking can never leave fewer than k alive survivors.
        k_eff = effective_k(snap, k)
        if engine == "blocked" and not budgeted:
            chosen = self._maybe_procpool(opts)
            if chosen is not None:
                out = self._scan_sharded_process(
                    chosen, qs, k, opts, collect_timings, snap, spans)
                if out is not None:
                    return out
            # No process pool serves, or the replica raced a mutation
            # (its token no longer matches this snapshot): scan the
            # captured snapshot in-process.
        shared = SharedThreshold(opts.initial_threshold)
        if trace_span is not None:
            trace_span.set(mode="sharded", shards=len(spans),
                           engine=engine,
                           initial_threshold=shared.value)

        def run_shard(numbered: Tuple[int, Tuple[int, int]]):
            shard_id, (start, stop) = numbered
            shard_timings = StageTimings() if collect_timings else None
            seed = shared.value
            shard_span = trace_span.child(
                "scan.shard", shard=shard_id, seeded_threshold=seed,
            ) if trace_span is not None else None
            buffer, stats, seed, outcome = scan_shard_span(
                snap, qs, k_eff, shard_id, start, stop,
                opts.replace(initial_threshold=seed, shared=shared,
                             timings=shard_timings, span=shard_span),
                engine=engine,
            )
            return buffer, stats, seed, shard_timings, outcome

        if budgeted:
            # Greedy best-first budget allocation: spans are descending
            # length bands, so scanning them serially in span order feeds
            # the shared FlopBudget to the shards with the highest
            # Cauchy–Schwarz upper-bound potential first, and each shard
            # inherits exactly the units its predecessors left over.  A
            # parallel fan-out would race the accounting and split the
            # budget arbitrarily; serial execution makes the spend — and
            # therefore the scanned prefix — deterministic.
            outputs = [run_shard(numbered)
                       for numbered in enumerate(spans)]
        else:
            from ..serve.executor import map_in_order

            outputs = map_in_order(run_shard, list(enumerate(spans)))

        out = _merge_shards(snap, k, k_eff, spans, outputs, collect_timings,
                            trace_span)
        if planned and index.cost_model is not None:
            index.cost_model.observe(
                engine, out[1], time.perf_counter() - started)
        return out

    def _scan_sharded_process(self, procpool, qs: QueryState, k: int,
                              opts: ScanOptions, collect_timings: bool,
                              snap: LiveCatalog,
                              spans: List[Tuple[int, int]]):
        """The multi-process twin of the in-process fan-out below.

        The workers attach the published replica of :attr:`index` and run
        the very same :func:`scan_shard_span`; the cross-shard threshold
        lives in a shared-memory slot and the deadline travels as an
        absolute monotonic expiry.  The merge is byte-for-byte the same
        loop, in the same span order, so results stay bitwise identical
        to the in-process path (:func:`_merge_shards`).  Trace spans are
        reconstructed post-hoc from the per-shard outcomes (a worker
        process cannot write into the parent's tracer ring).

        Returns ``None`` when the published replica does not match this
        scan's captured snapshot (a mutation landed between the snapshot
        capture and replica publication) — the caller then falls back to
        the in-process fan-out over the snapshot it actually holds.
        """
        trace_span = opts.span
        handle = procpool.ensure_replica(self.index)
        if tuple(handle.token) != (snap.uid, snap.state_version):
            return None
        if trace_span is not None:
            trace_span.set(mode="sharded", shards=len(spans),
                           initial_threshold=float(opts.initial_threshold),
                           executor="process")
        k_eff = effective_k(snap, k)
        outputs = procpool.run_shards(
            handle, qs, k_eff, spans, seed=float(opts.initial_threshold),
            deadline=opts.deadline, collect=collect_timings)
        if trace_span is not None:
            for shard_id, (span, out) in enumerate(zip(spans, outputs)):
                buffer, __, seed, __, outcome = out
                child = trace_span.child("scan.shard", shard=shard_id,
                                         seeded_threshold=seed)
                if outcome == "scanned":
                    child.set(outcome=outcome,
                              offered_threshold=buffer.threshold)
                elif outcome == "empty":
                    child.set(outcome=outcome)
                else:
                    child.set(outcome=outcome, start=span[0], stop=span[1])
                child.end()
        return _merge_shards(snap, k, k_eff, spans, outputs, collect_timings,
                             trace_span)

    def _catalog_spans(self, snap: LiveCatalog) -> List[Tuple[int, int]]:
        """The scan spans of one snapshot: base length bands + delta tail.

        The live catalog's mutable tail rides as one extra pseudo-span
        after the base bands (positions ``[n_base, n_base + delta_count)``);
        :func:`scan_shard_span` dispatches it to the brute-force delta
        scan.  Omitted when every delta row is tombstoned.
        """
        spans = shard_spans(snap.n, self.n_shards)
        if snap.delta_count and snap.delta_alive_count:
            spans = spans + [(snap.n, snap.n + snap.delta_count)]
        return spans

    def _maybe_procpool(self, opts: ScanOptions):
        """The process pool to fan out on, or ``None`` for in-process.

        Explicit ``executor="process"`` gets the pool whenever the host
        can start one (falling back to the in-process path otherwise —
        never an error).  ``"auto"`` is conservative: real parallelism must
        be worth having (multiple workers, shards and cores) and nothing
        in-process-only may be armed — a live fault injector fires in the
        *parent's* sites, and a tracer's ring only the parent can write
        block-level events into.
        """
        executor = self.executor
        if executor == "serial":
            return None
        from ..serve.procpool import process_executor_usable

        if not process_executor_usable():
            return None
        if executor == "auto":
            workers = max(1, min(self.workers, self.n_shards))
            if workers < 2 or self.n_shards < 2 \
                    or (os.cpu_count() or 1) < 2 \
                    or _faultsites.active is not None \
                    or opts.span is not None:
                return None
        return self._resolve_procpool()

    def _resolve_procpool(self):
        if self._procpool is None:
            from ..serve.procpool import ProcessScanPool

            self._procpool = ProcessScanPool(
                max(1, min(self.workers, self.n_shards)))
        return self._procpool

    @property
    def resolved_workers(self) -> int:
        """Effective intra-query pool size (after shard/core clamping)."""
        if self.executor == "serial":
            return 1
        return max(1, min(self.workers, self.n_shards, os.cpu_count() or 1))

    # ------------------------------------------------------------------
    # Persistence and lifecycle
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the sharded index (inner index + shard configuration).

        Checksummed format 2 (:mod:`repro.core.persist`), same pickle
        caveats as :meth:`FexiproIndex.save`; the process pool is never
        stored — it is recreated on first use.
        """
        from .persist import save_checksummed

        save_checksummed(path, "ShardedFexiproIndex", self)

    @classmethod
    def load(cls, path) -> "ShardedFexiproIndex":
        """Load an index previously stored with :meth:`save`.

        Checksum-verified; corrupted or truncated files raise
        :class:`~repro.exceptions.IndexIntegrityError` naming the path,
        and legacy format-1 files load through a compatibility path.
        """
        from .persist import load_checksummed

        return load_checksummed(path, "ShardedFexiproIndex", cls)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_procpool"] = None  # process pools do not pickle
        return state

    def __setstate__(self, state):
        state = dict(state)
        state.pop("_pool", None)  # files saved with a thread pool slot
        # Files saved before the executor knob existed restore as "auto";
        # "thread" named the in-process fan-out, which is "serial" now.
        executor = state.setdefault("executor", "auto")
        if executor == "thread":
            state["executor"] = "serial"
        else:
            check_executor(executor)
        self.__dict__.update(state)
        self._procpool = None

    def close(self) -> None:
        """Shut the process pool down (if one was ever created)."""
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None

    def __enter__(self) -> "ShardedFexiproIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedFexiproIndex(shards={self.n_shards}, "
            f"workers={self.workers}, index={self.index!r})"
        )
