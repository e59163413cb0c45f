"""Sharded scans over worker processes: :class:`ShardedFexiproIndex`.

FEXIPRO answers a query with one sequential, length-sorted scan.  This
module partitions the length-sorted item matrix into S contiguous length
bands ("shards") and can fan **one** query's shards out over worker
processes (:class:`repro.serve.procpool.ProcessScanPool`), each scanning
its band with the blocked cascade against a cross-process best-so-far
threshold — the intra-query axis of parallelism, the one that cuts tail
latency for a single hot query on a multicore host.

In one process there is nothing to fan out.  Shards scanned one after
another are the single scan plus coordination: Algorithm 4's
Cauchy–Schwarz stop already ends the scan where a later band would be
skipped.  So whenever no worker process serves a query — the ``"serial"``
executor, a budget, an engine other than ``"blocked"``, or ``"auto"``
declining processes — the index runs its inner index's single scan, and
the counters, bounds and spans are that scan's.

The process fan-out is exact by construction:

- All shards share *one* preprocessed :class:`~repro.core.index.FexiproIndex`
  (one sort, one SVD basis, one scaling, one reduction), published once
  as a shared-memory replica, so every arithmetic operation a shard
  performs is the same operation — on the same arrays — the single scan
  performs.  Scores are therefore bit-identical.
- Each shard runs the unchanged Algorithm 4/5 cascade
  (:func:`repro.core.blocked.scan_blocked`) over its span, with its live
  threshold *seeded* from a shared best-so-far slot and re-polled at
  block boundaries.  The slot only ever holds values one ulp below
  thresholds *achieved* by k collected results, and it only grows; a
  stale read merely weakens pruning, never drops a true top-k score.
  Being strictly below, a threshold from a *later* shard never prunes
  this shard's rows tied with it either, which rank ahead, so ids match
  the single scan in any schedule.
- Because later shards hold shorter items, the Cauchy–Schwarz test can
  eliminate whole shards before their scan starts, once the shared
  threshold exceeds ``||q|| * shard.max_norm`` — counted as
  ``shards_skipped`` in :class:`~repro.core.stats.PruningStats`.
- A final exact merge of the per-shard
  :class:`~repro.core.topk.TopKBuffer`s (:meth:`TopKBuffer.merge`) keeps
  the k best under the buffer's one order (score descending, position
  ascending), which does not depend on merge order — the single scan's
  selection, ties included.

A fanned-out query's counters are the exact sum of the per-shard
counters, a property of the schedule rather than of the answer: they are
not expected to equal the single scan's.

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

import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

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
from .stats import PruningStats, RetrievalResult
from .topk import TopKBuffer

__all__ = [
    "ShardedFexiproIndex",
    "default_shards",
    "scan_shard_span",
    "shard_spans",
]

#: Valid values for the ``executor`` knob (whether a query may fan out
#: over worker processes).
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


def default_shards() -> int:
    """A sensible shard count for this host: one per core, in [2, 16].

    Two shards minimum so a process fan-out has bands to spread and the
    shard-skip test something to skip even on a single-core host; sixteen
    maximum because the per-query fan-out cost grows with S while the
    marginal parallelism of tiny shards shrinks.
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
                    options: ScanOptions):
    """Scan one shard of one prepared query — the unit of fan-out work.

    This is the body of a worker process's shard task
    (:mod:`repro.serve.procpool`), kept at module level so it is
    importable by reference from the workers (closures do not pickle).

    All per-call state rides in ``options``: ``shared`` is the
    cross-shard threshold cell (anything with a monotone ``value`` and an
    ``offer`` method — the pool's shared-memory slot), and
    ``initial_threshold`` is the seed the shard starts from, which callers
    read from that cell.  The deadline is polled once at the shard
    boundary (by the same :class:`~repro.core.driver.BlockCursor` the
    kernels use) and then per block inside the blocked kernel.  Returns
    ``(buffer, stats, seed, outcome)`` with ``outcome`` one of
    ``"empty"`` / ``"deadline"`` / ``"skipped"`` / ``"scanned"``; the
    trace ``options.span`` (if any) is closed with matching outcome
    attributes.

    ``index`` is a :class:`FexiproIndex` (a worker's attached replica) or
    a :class:`~repro.core.delta.LiveCatalog` snapshot.  A span starting
    at or past the base extent is the live catalog's **delta
    pseudo-span**, scanned brute-force by
    :func:`~repro.core.delta.scan_delta` under the same
    shared-threshold/deadline discipline.
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
    # Shard-boundary poll: an expired deadline leaves the whole band
    # unscanned.
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
        buffer, stats = scan_blocked(
            snap, qs, k, snap.block_size,
            start=start, stop=stop, options=options,
        )
    _offer(options.shared, buffer)
    if span is not None:
        span.set(outcome="scanned",
                 offered_threshold=buffer.threshold).end()
    return buffer, stats, seed, "scanned"


def _offer(shared, buffer: TopKBuffer) -> None:
    """Offer a shard's k-th score to the cross-shard cell, one ulp lower.

    A shard reading the cell prunes on ``bound <= t``.  Its own rows that
    tie the offered score may rank ahead of the offering shard's (the
    order is score, then position), so the cell must stay strictly below
    every offered score for any shard schedule to equal the single scan.
    """
    shared.offer(np.nextafter(buffer.threshold, -np.inf))


def _scan_delta_span(snap: LiveCatalog, qs: QueryState, k: int,
                     shard_id: int, start: int, stop: int,
                     options: ScanOptions):
    """The delta pseudo-span body of :func:`scan_shard_span`.

    Runs the brute-force delta scan with the same shared-threshold and
    deadline plumbing as a base shard; a whole-tier
    Cauchy–Schwarz skip is reported as ``shards_skipped`` exactly like a
    skipped length band.  Delta accounting lands in the ``delta_*``
    counters, never in ``n_items``/``scanned`` (the base cascade's
    balance invariants stay intact).
    """
    span = options.span
    with _faultsites.tagged(f"shard={shard_id}"):
        buffer, stats, outcome = scan_delta(snap, qs, k, options)
    _offer(options.shared, buffer)
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
                  timings, trace_span):
    """Merge per-shard ``(buffer, stats, seed, timings, outcome)`` exactly.

    Buffers merge into one (the buffer's order does not depend on merge
    order), tombstones are masked back down to ``k``, shard
    timings accumulate into ``timings`` (when given) and ``trace_span``
    gets one ``merge`` event.  Returns ``(merged_buffer, total_stats,
    reports)``.
    """
    merged = TopKBuffer(k_eff)
    total = PruningStats()
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
    return merged, total, reports


class ShardedFexiproIndex:
    """Exact top-k retrieval with intra-query shard scans on processes.

    Parameters
    ----------
    items:
        Item matrix, rows as vectors — exactly as for
        :class:`~repro.core.index.FexiproIndex`.
    shards:
        Number of contiguous length bands (default: one per core, in
        [2, 16]).
    workers:
        Worker processes for the fan-out (default: ``shards``), clamped
        to the shard count.
    executor:
        Whether a query may fan out over worker processes: ``"process"``
        fans every eligible query out on a
        :class:`repro.serve.procpool.ProcessScanPool` over a
        shared-memory replica whenever the host can start one;
        ``"serial"`` never does; ``"auto"`` (default) does only when
        processes can actually win — two or more workers and cores, and
        no in-process-only instrumentation (armed fault injector, tracer
        span) active.  Eligible means unbudgeted and run by the
        ``"blocked"`` engine; every other query runs the inner index's
        single scan.
    **index_options:
        Forwarded to :class:`FexiproIndex` (``variant``, ``rho``, ``e``,
        ``engine``, ``block_size``, ...).

    The preprocessed single index is exposed as :attr:`index`; it is fully
    usable on its own (and serves as the serial baseline in benchmarks and
    the identity oracle in tests).
    """

    def __init__(self, items, *, shards: Optional[int] = None,
                 workers: Optional[int] = None, executor: str = "auto",
                 **index_options):
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
        """Exact top-k for one query (see :meth:`query_detailed`).

        Returns ids/scores identical to ``self.index.query(query, k)``.
        ``engine`` overrides the scan engine for this call only; results
        are bitwise identical across engines.
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

        An unbudgeted query whose engine is ``"blocked"`` fans out over
        the process pool :meth:`_maybe_procpool` picks; its ``stats`` are
        the exact sum of the per-shard reports.  Every other query — and
        one whose published replica raced a mutation — runs the inner
        index's single scan over the captured snapshot, with the caller's
        ``options`` and ``engine`` unchanged, and returns ``[]`` reports:
        its result equals ``self.index.query(query, k, ...)`` in every
        field.  Stage timings accumulate into ``options.timings`` when
        given.
        """
        snap = self.index._live
        q = as_query_vector(query, snap.d)
        k = check_k(k, snap.visible_count)
        started = time.perf_counter()
        budgeted = options is not None and options.budget is not None
        if k == 0:
            return _empty_result(started, budgeted=budgeted), []
        qs = self.index._prepare_query(q, snapshot=snap)
        out = None
        if not budgeted and \
                (self.index.engine if engine is None else engine) == "blocked":
            opts = DEFAULT_SCAN_OPTIONS if options is None else options
            procpool = self._maybe_procpool(opts)
            if procpool is not None:
                out = self._scan_sharded_process(procpool, qs, k, opts, snap)
        if out is None:
            buffer, stats = self.index._scan(qs, k, options=options,
                                             engine=engine, snapshot=snap)
            reports: List[ShardScanReport] = []
        else:
            buffer, stats, reports = out
        result = catalog_result(
            snap, qs.q_norm, *buffer.items_and_scores(), stats,
            time.perf_counter() - started, budgeted=budgeted)
        return result, reports

    def explain(self, query, k: int = 10, *, tracer=None,
                options: Optional[ScanOptions] = None):
        """Explain the inner index's single scan of one query.

        A query scanned in one process is that single scan, so this is
        :meth:`FexiproIndex.explain` on :attr:`index`; see
        :func:`repro.obs.explain_query`.
        """
        return self.index.explain(query, k, tracer=tracer, options=options)

    def batch_query(self, queries, k: int = 10) -> List[RetrievalResult]:
        """Run :meth:`query` over rows of a query matrix, independently."""
        from .._validation import as_query_matrix

        queries = as_query_matrix(queries, self.index.d)
        return [self.query(row, k) for row in queries]

    # ------------------------------------------------------------------
    # The process fan-out
    # ------------------------------------------------------------------

    def _scan_sharded_process(self, procpool, qs: QueryState, k: int,
                              opts: ScanOptions, snap: LiveCatalog):
        """Fan one prepared query out over the pool's worker processes.

        The workers attach the published replica of :attr:`index` and run
        :func:`scan_shard_span` on one span each; the cross-shard
        threshold lives in a shared-memory slot seeded with
        ``opts.initial_threshold`` (a warm start: the caller guarantees a
        **strict** lower bound on the query's true k-th inner product),
        and the deadline travels as an absolute monotonic expiry, polled
        at shard and block boundaries.  The merge runs in span order
        (:func:`_merge_shards`).  Trace spans are reconstructed post-hoc
        from the per-shard outcomes (a worker process cannot write into
        the parent's tracer ring).

        Returns ``(merged_buffer, total_stats, reports)``, or ``None``
        when the published replica does not match this scan's captured
        snapshot (a mutation landed between the snapshot capture and
        replica publication) — the caller then runs the single scan over
        the snapshot it actually holds.
        """
        trace_span = opts.span
        handle = procpool.ensure_replica(self.index)
        if tuple(handle.token) != snap.token:
            return None
        spans = self._catalog_spans(snap)
        if trace_span is not None:
            trace_span.set(mode="sharded", shards=len(spans),
                           initial_threshold=float(opts.initial_threshold),
                           executor="process")
        # The base engine collects at the inflated capacity so tombstone
        # masking can never leave fewer than k alive survivors.
        k_eff = effective_k(snap, k)
        outputs = procpool.run_shards(
            handle, qs, k_eff, spans, seed=float(opts.initial_threshold),
            deadline=opts.deadline, collect=opts.timings is not None)
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
        return _merge_shards(snap, k, k_eff, spans, outputs, opts.timings,
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
        """The process pool to fan out on, or ``None`` for the single scan.

        Explicit ``executor="process"`` gets the pool whenever the host
        can start one (falling back to the single scan otherwise — never
        an error).  ``"auto"`` is conservative: real parallelism must be
        worth having (multiple workers and cores) and nothing
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
            if self.resolved_workers < 2 \
                    or (os.cpu_count() or 1) < 2 \
                    or _faultsites.active is not None \
                    or opts.span is not None:
                return None
        return self._resolve_procpool()

    def _resolve_procpool(self):
        if self._procpool is None:
            from ..serve.procpool import ProcessScanPool

            self._procpool = ProcessScanPool(self.resolved_workers)
        return self._procpool

    @property
    def resolved_workers(self) -> int:
        """Processes in the fan-out's pool (1 under ``"serial"``).

        ``workers`` clamped to the shard count — the size
        :meth:`_resolve_procpool` starts — not to host cores.
        """
        if self.executor == "serial":
            return 1
        return max(1, min(self.workers, self.n_shards))

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
        and a file that is not a saved sharded index, or holds one too
        old to load, raises :class:`~repro.exceptions.ValidationError`.
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
