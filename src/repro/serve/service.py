"""The batch retrieval service: scans over shared preparation.

:class:`RetrievalService` is the serving-layer entry point.  A batch is
answered in two phases:

1. **Prepare** — the whole query matrix is validated and every
   :class:`~repro.core.index.QueryState` is built by
   :func:`repro.core.index.prepare_query_states`, the same single
   implementation the one-off :meth:`FexiproIndex.query` path uses.  Results
   are therefore bit-identical to a serial loop, pool or no pool.
2. **Scan** — every state gets FEXIPRO's one length-sorted cascade scan
   (Algorithm 5): in chunks of whole queries on worker processes
   attached to a shared-memory replica of the index
   (:mod:`repro.serve.procpool`), or one query after another in this
   process.
   Worker processes pay off only for a batch of two or more blocked
   scans: one query costs less to scan here than to ship, and threads
   would not help, since the GIL serializes the cascade's Python replay.
   A service over a :class:`~repro.core.sharded.ShardedFexiproIndex`
   scans its inner index the same way; the process shard fan-out is the
   sharded index's own query API.  Whichever source ran a query, its raw
   outcome ends in one attempt loop and one finish step, so retry, isolation,
   deadline/budget policy, span closing, certified bounds and result
   assembly exist once.

On top of the two phases sits a failure model (see ``DESIGN.md`` §2.8):

- **Stop triggers** — ``ServiceConfig.deadline_ms`` arms a fresh
  monotonic :class:`~repro.serve.resilience.Deadline` per query, or
  ``ServiceConfig.budget_flops`` a fresh
  :class:`~repro.core.budget.FlopBudget` (never both), polled by the
  engines at block boundaries.  A truncated scan either degrades (the
  exact top-k of the scanned length-sorted prefix, ``complete=False``)
  or fails the query (:class:`~repro.exceptions.DeadlineExceededError` /
  :class:`~repro.exceptions.BudgetExhaustedError`), per
  ``truncation_policy``.
- **Per-query fault isolation** — a raising query does not poison the
  batch: it becomes a structured
  :class:`~repro.serve.resilience.QueryError` in
  :attr:`BatchResponse.errors` (after one bounded retry for transient
  faults), every other query is served normally.

Every query feeds the service's :class:`~repro.serve.metrics.MetricsRegistry`
with latency observations, pruning-counter rollups and (optionally) the
engines' per-stage wall times; resilience events surface as
``deadline.*``, ``retries*`` and ``errors.queries`` counters.
"""

from __future__ import annotations

import copy
import math
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .. import _faultsites
from .._validation import as_query_matrix, as_query_vector, check_k
from ..core.index import FexiproIndex, _empty_result, prepare_query_states
from ..core.reverse import CampaignResponse, ReverseIndex, campaign_scan
from ..core.sharded import ShardedFexiproIndex
from ..core.stats import (
    PruningStats,
    RetrievalResult,
    StageTimings,
    aggregate_stats,
)
from ..core.budget import FlopBudget
from ..core.delta import LiveCatalog, catalog_bounds, catalog_result
from ..core.options import ScanOptions
from ..core.driver import raise_if_truncated
from ..core.gemm import GEMM_CHUNK
from ..exceptions import OverloadSheddedError, QueryError, \
    ServiceClosedError, ValidationError
from ..obs.trace import Span, Tracer
from .cache import CacheLookup, QueryCache, _copy_result, \
    canonical_query_bytes
from .config import ServiceConfig
from .metrics import MetricsRegistry
from .resilience import Deadline, RetryPolicy


@dataclass
class BatchResponse:
    """Everything known about one served batch.

    ``results`` are in request order and identical (ids, scores) to what
    a serial ``[index.query(q, k) for q in queries]`` would produce —
    pruning counters too when the service scans the index's own engine;
    each result's ``elapsed`` covers its own scan.  ``stats``
    is the exact sum of the per-query pruning counters.  ``mode`` is
    ``"inter"``: whole queries are spread over the executor.  Unless the
    service's ``config.engine`` is ``None``, it is suffixed with the engine
    that ran the scans (``"inter/gemm"``) and ``planner`` carries the
    decision record: the chosen engine, the cost model's per-engine
    predictions, predicted vs. actual scan seconds and the resulting
    mispredict ratio (``None`` fields when the engine was fixed rather
    than planned).  Planning never changes results — every engine is
    bitwise-identical — so the record is purely a latency account.

    Failures are isolated per query: a failed query's slot in ``results``
    is ``None`` and a structured :class:`QueryError` lands in ``errors``;
    deadline-degraded queries keep their (exact-prefix) result with
    ``complete=False``.  :attr:`complete` is the batch-level rollup.

    When the service runs a :class:`~repro.serve.cache.QueryCache`,
    ``provenance`` records where each answer came from, aligned with
    ``results``: ``"hit"`` (served from cache, no scan), ``"cold"``
    (scanned) or ``"shed"`` (dropped by admission control before any
    scan) — ``None`` when caching is disabled.  ``stats`` sums the
    counters of *performed* scans only; a cache hit did no pruning work,
    so replaying its cached counters would double-count the trajectory
    the paper's tables are built from.
    """

    results: List[Optional[RetrievalResult]] = field(default_factory=list)
    stats: PruningStats = field(default_factory=PruningStats)
    elapsed: float = 0.0
    prepare_time: float = 0.0
    timings: Optional[StageTimings] = None
    mode: str = "inter"
    errors: List[QueryError] = field(default_factory=list)
    provenance: Optional[List[str]] = None
    planner: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def throughput(self) -> float:
        """Queries answered per wall-clock second."""
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def deadline_hits(self) -> int:
        """How many queries were truncated by their deadline."""
        return sum(1 for r in self.results
                   if r is not None and r.stats.deadline_hit)

    @property
    def budget_hits(self) -> int:
        """How many queries were truncated by a spent FLOP budget."""
        return sum(1 for r in self.results
                   if r is not None and r.stats.budget_exhausted)

    @property
    def shed(self) -> int:
        """Queries dropped by admission control (``code="shed"`` errors)."""
        return sum(1 for e in self.errors if e.code == "shed")

    @property
    def complete(self) -> bool:
        """Whether every query succeeded with no truncated scan.

        ``False`` when any query failed or was shed, or when a deadline or
        FLOP budget truncated any scan (the truncated results are still
        the exact top-k of their scanned prefixes).
        """
        return not self.errors and self.deadline_hits == 0 \
            and self.budget_hits == 0

    @property
    def cache_hits(self) -> int:
        """Queries answered straight from the cache (0 without a cache)."""
        return self.provenance.count("hit") if self.provenance else 0


def _first_rows(queries: np.ndarray) -> List[int]:
    """Per row, the first row of ``queries`` with its cache-key bytes."""
    if len(queries) < 2:
        return list(range(len(queries)))
    seen: dict = {}
    return [seen.setdefault(canonical_query_bytes(row), i)
            for i, row in enumerate(queries)]


def _fill_copies(first: List[int], results: list, provenance: List[str],
                 errors: List[QueryError]) -> List[str]:
    """Give each repeated row its first row's outcome; full provenance.

    ``provenance`` has one entry per first row.  A copy gets its own
    copy of the first row's result, the same provenance and, when the
    first row failed or was shed, its own error record.  Returns the
    per-row provenance; ``errors`` ends in row order.
    """
    if len(provenance) == len(first):
        return provenance
    tags = iter(provenance)
    out = []
    failed = {error.index: error for error in errors}
    added = False
    for i, f in enumerate(first):
        if f == i:
            out.append(next(tags))
            continue
        out.append(out[f])
        if results[f] is not None:
            results[i] = _copy_result(results[f], len(results[f].ids))
        elif f in failed:
            error = failed[f]
            errors.append(QueryError(index=i, error=error.error,
                                     retried=error.retried,
                                     code=error.code))
            added = True
    if added:
        errors.sort(key=lambda error: error.index)
    return out


@dataclass
class _Pending:
    """The scanned part of one batch, built once by ``batch()``.

    Per prepared state ``j``: its batch position ``indices[j]`` (error
    records and fault tags carry it).  Whichever executor scans state
    ``j`` fills its slots — ``results``, ``errors`` and ``timings`` — so
    answers land in request order no matter which process produced them.
    """

    snap: LiveCatalog
    k: int
    states: list
    indices: List[int]
    engine: Optional[str]
    budget_flops: Optional[float]
    collect: bool
    span: Optional[Span]

    def __post_init__(self):
        m = len(self.states)
        self.results: List[Optional[RetrievalResult]] = [None] * m
        self.errors: List[Optional[QueryError]] = [None] * m
        self.timings: List[Optional[StageTimings]] = [None] * m


class RetrievalService:
    """Answer query batches over a shared index.

    Parameters
    ----------
    index:
        A preprocessed :class:`~repro.core.index.FexiproIndex`, or a
        :class:`~repro.core.sharded.ShardedFexiproIndex`, whose inner
        index the service then scans: in one process the shards would
        run one after another, the same scan plus coordination.  The
        shard count shows in :meth:`metrics_snapshot`.  The service only
        reads the index; one index can back several services.
    config:
        A :class:`~repro.serve.config.ServiceConfig` (defaults are sane for
        a small multicore host).
    metrics:
        An optional externally owned registry; by default the service
        creates its own, exposed as :attr:`metrics`.
    cache:
        An optional externally owned :class:`~repro.serve.cache.QueryCache`
        (one cache may front several services over the same index — each
        entry is bound to its snapshot's ``(uid, state_version)`` token,
        which keeps entries from different indexes or snapshots apart).  By
        default the service builds its own when
        ``config.cache_capacity > 0``, exposed as :attr:`cache` (``None``
        when caching is off).
    tracer:
        An optional externally owned :class:`~repro.obs.Tracer`.  By
        default the service builds its own when
        ``config.trace_sample_rate > 0``, exposed as :attr:`tracer`
        (``None`` when tracing is off — the engines then pay one branch
        per block).  Sampling is per *batch*: a sampled batch gets a
        ``serve.batch`` root span with prepare / cache-lookup / per-query
        scan children.
    reverse:
        An optional :class:`~repro.core.reverse.ReverseIndex` over a user
        corpus, unlocking :meth:`campaign` (reverse-MIPS audience
        building).  It must wrap the same item index the service serves.
        When the reverse index has no bound cache of its own, the
        service's query cache is attached, so forward serving traffic
        keeps sharpening the reverse scan's exact thresholds.
    clock / sleep:
        Injectable time sources (``time.monotonic`` / ``time.sleep``) used
        by deadlines, the query cache and retry backoff — swap in fakes
        for deterministic resilience tests.  A fake clock cannot tick
        inside worker processes, so it is refused (``ValidationError``)
        with ``executor="process"``; ``"auto"`` then serves in-process.

    The service is a context manager; leaving the ``with`` block shuts any
    worker processes down (``close()`` is idempotent, and serving after close
    raises :class:`~repro.exceptions.ServiceClosedError`).
    """

    def __init__(self,
                 index: Union[FexiproIndex, ShardedFexiproIndex],
                 config: Optional[ServiceConfig] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 *,
                 cache: Optional[QueryCache] = None,
                 tracer: Optional[Tracer] = None,
                 reverse: Optional[ReverseIndex] = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        if isinstance(index, ShardedFexiproIndex):
            self.sharded_index: Optional[ShardedFexiproIndex] = index
            self.index = index.index
        else:
            self.sharded_index = None
            self.index = index
        self.config = config if config is not None else ServiceConfig()
        if self.config.executor == "process" and clock is not time.monotonic:
            raise ValidationError(
                "executor='process' needs the real monotonic clock: worker "
                "processes arm their deadlines on it, not on an injected "
                "clock"
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if cache is not None:
            self.cache: Optional[QueryCache] = cache
        elif self.config.cache_capacity:
            self.cache = QueryCache(
                self.config.cache_capacity,
                ttl_s=self.config.cache_ttl_s,
                clock=clock,
            )
        else:
            self.cache = None
        if tracer is not None:
            self.tracer: Optional[Tracer] = tracer
        elif self.config.trace_sample_rate > 0.0:
            self.tracer = Tracer(
                sample_rate=self.config.trace_sample_rate,
                ring_size=self.config.trace_ring_size,
            )
        else:
            self.tracer = None
        self.reverse = reverse
        if reverse is not None:
            if reverse._inner is not self.index:
                raise ValidationError(
                    "the reverse index must wrap the same item index the "
                    "service serves"
                )
            if reverse.cache is None:
                reverse.cache = self.cache
        self.metrics_server = None
        self._clock = clock
        self._executor_mode = self._resolve_executor()
        self._requested = 1 if self.config.executor == "serial" \
            else self.config.workers
        self._closed = False
        self._procpool = None
        self._retry = RetryPolicy(
            retries=self.config.retries,
            backoff_ms=self.config.retry_backoff_ms,
            sleep=sleep,
        )
        if self.config.compaction_interval_s is not None:
            from .compactor import Compactor

            self.compactor: Optional["Compactor"] = Compactor(
                self.index, self.config.compaction_interval_s,
                delta_limit=self.config.compaction_delta_limit,
                metrics=self.metrics, clock=clock,
            ).start()
        else:
            self.compactor = None
        if self.config.metrics_port is not None:
            self.start_metrics_server(port=self.config.metrics_port,
                                      host=self.config.metrics_host)

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------

    def query(self, query, k: Optional[int] = None) -> RetrievalResult:
        """Serve one query through the batch machinery (metrics included).

        A failed query re-raises its underlying error (including
        :class:`~repro.exceptions.DeadlineExceededError` or
        :class:`~repro.exceptions.BudgetExhaustedError` under
        ``truncation_policy="fail"``); a degraded one returns normally
        with ``complete=False``.
        """
        q = as_query_vector(query, self.index.d)
        response = self.batch(q.reshape(1, -1), k)
        if response.errors:
            raise response.errors[0].error
        return response.results[0]

    def batch(self, queries, k: Optional[int] = None) -> BatchResponse:
        """Serve a whole query matrix; rows are answered independently.

        With a cache configured, each row is first probed against it: a
        hit (the query cached at this ``k`` or a larger one) skips
        preparation and scanning entirely, and everything else is
        scanned — see :mod:`repro.serve.cache` for the exactness
        argument.  Ids and scores are identical to the cache-less service
        either way.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        wall_started = time.perf_counter()
        # One frozen catalog snapshot serves the whole batch: validation,
        # cache decisions, preparation, every scan, bounds and cache
        # stores all agree on a single visible catalog even when writers
        # or the background compactor swap the live state mid-batch.
        snap = self.index._live
        queries = as_query_matrix(queries, snap.d)
        k = check_k(self.config.default_k if k is None else k,
                    snap.visible_count)
        m = queries.shape[0]
        if k == 0:
            # Every visible item has been removed: the exact answer to
            # any query is the well-formed empty result (banded in budget
            # mode).
            budgeted = self.config.budget_flops is not None
            response = BatchResponse(
                results=[_empty_result(wall_started, budgeted=budgeted)
                         for __ in range(m)],
                elapsed=time.perf_counter() - wall_started)
            self._observe(response)
            return response
        root = self.tracer.start("serve.batch", queries=m, k=k) \
            if self.tracer is not None else None

        cache = self.cache
        lookups: Optional[List[Optional[CacheLookup]]] = None
        if cache is not None:
            lookup_span = root.child("cache.lookup") \
                if root is not None else None
            # Rows with equal query bytes are probed, scanned and stored
            # once, through their first row; the copies share its outcome.
            first = _first_rows(queries)
            lookups = [cache.lookup(snap, queries[i], k) if first[i] == i
                       else None for i in range(m)]
            pending = [i for i in range(m) if lookups[i] is not None
                       and lookups[i].kind != "hit"]
            self._band_hits(snap, queries, lookups)
            if lookup_span is not None:
                lookup_span.set(queries=m, hits=sum(
                    1 for i in range(m)
                    if lookups[first[i]].kind == "hit")).end()
        else:
            pending = list(range(m))

        # Admission control runs BEFORE preparation: a shed query is
        # never prepared, scanned or cached — zero partial state.
        errors: List[QueryError] = []
        pending, budget_flops = self._admission(pending, errors, root)
        shed_set = {e.index for e in errors}

        # Prepare only the queries that actually need a scan; hits are
        # answered without touching Algorithm 4 at all.
        prep_span = root.child("prepare") if root is not None else None
        prep_started = time.perf_counter()
        if len(pending) == m:
            states = prepare_query_states(snap, queries) if m else []
        elif pending:
            states = prepare_query_states(
                snap, np.ascontiguousarray(queries[pending]))
        else:
            states = []
        prepare_time = time.perf_counter() - prep_started
        if prep_span is not None:
            prep_span.set(prepared=len(states)).end()

        collect = self.config.collect_timings
        timings: Optional[StageTimings] = None
        if collect:
            timings = StageTimings(prepare=prepare_time)

        engine, planner_info = self._plan_batch(snap, len(states), root)
        if root is not None:
            root.set(mode="inter")
        work = _Pending(snap=snap, k=k, states=states, indices=pending,
                        engine=engine,
                        budget_flops=budget_flops, collect=collect,
                        span=root)
        if states:
            self._scan_inter_query(work)
        errors.extend(e for e in work.errors if e is not None)
        if timings is not None:
            for scan_timings in work.timings:
                if scan_timings is not None:
                    timings.merge(scan_timings)
        scanned = work.results

        provenance: Optional[List[str]] = None
        if lookups is None:
            if len(scanned) == m:
                results = scanned
            else:
                # Shed queries were carved out of ``pending``; their
                # slots stay None, every scanned slot keeps its request
                # position.
                results = [None] * m
                for j, i in enumerate(pending):
                    results[i] = scanned[j]
        else:
            results = [None if lookup is None else lookup.result
                       for lookup in lookups]
            for j, i in enumerate(pending):
                results[i] = scanned[j]
                if scanned[j] is not None:
                    cache.store(snap, queries[i], k, scanned[j])
            for i in shed_set:
                results[i] = None
            provenance = ["shed" if i in shed_set
                          else "hit" if lookup.kind == "hit" else "cold"
                          for i, lookup in enumerate(lookups)
                          if lookup is not None]
            provenance = _fill_copies(first, results, provenance, errors)

        total_stats = aggregate_stats(r.stats for r in scanned
                                      if r is not None)
        mode = "inter"
        if planner_info is not None:
            mode = self._finish_plan(planner_info, engine, scanned,
                                     total_stats)
        elapsed = time.perf_counter() - wall_started
        response = BatchResponse(results=results, stats=total_stats,
                                 elapsed=elapsed, prepare_time=prepare_time,
                                 timings=timings, mode=mode, errors=errors,
                                 provenance=provenance, planner=planner_info)
        if root is not None:
            root.set(errors=len(errors),
                     deadline_hits=response.deadline_hits,
                     budget_hits=response.budget_hits,
                     shed=response.shed).end()
        self._observe(response)
        return response

    def campaign(self, items, k: Optional[int] = None, *,
                 engine: Optional[str] = None) -> CampaignResponse:
        """Audience-build a batch of probe items (reverse MIPS, served).

        For each catalog item id in ``items``, computes the exact
        audience — every user whose forward top-k would contain it — via
        the attached :class:`~repro.core.reverse.ReverseIndex`, through
        :func:`~repro.core.reverse.campaign_scan`: probes run one after
        another in this process, one snapshot pair pinned before the
        first probe serves them all, and failures are isolated per probe
        exactly like :meth:`batch`: a failed probe's slot is ``None``
        with a structured :class:`~repro.exceptions.QueryError` in
        ``errors``.  The service's per-query trigger (a
        ``config.deadline_ms`` deadline or a ``config.budget_flops``
        budget) is armed afresh for each probe's verification scans; a
        trigger that fires mid-probe fails *that probe* whatever the
        ``truncation_policy`` (an audience is exact or absent, never
        partial).
        ``engine`` overrides the configured scan engine for the
        verification scans.

        Every probe feeds the ``reverse.*`` metrics family and the
        ``latency.reverse_seconds`` histogram; sampled campaigns get a
        ``serve.campaign`` root span with one ``reverse.scan`` child per
        probe.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        rindex = self.reverse
        if rindex is None:
            raise ValidationError(
                "no reverse index attached: pass reverse= to the service "
                "(or users= to Fexipro) before calling campaign()"
            )
        probe_ids = [int(i) for i in np.asarray(items).reshape(-1)]
        k = check_k(self.config.default_k if k is None else k,
                    self.index._live.visible_count)
        if engine is None:
            engine = self.config.engine
        m = len(probe_ids)
        root = self.tracer.start("serve.campaign", probes=m, k=k) \
            if self.tracer is not None else None
        response = campaign_scan(
            rindex, probe_ids, k,
            options=lambda: self._armed(self.config.budget_flops),
            engine=engine, span=root)
        if root is not None:
            root.set(errors=len(response.errors),
                     audience=response.stats.audience,
                     verified=response.stats.verified).end()
        self._observe_campaign(response)
        return response

    def _observe_campaign(self, response: CampaignResponse) -> None:
        """Feed one campaign into the ``reverse.*`` metrics family."""
        metrics = self.metrics
        metrics.counter("reverse.campaigns").inc()
        metrics.counter("reverse.probes").inc(len(response.results))
        if response.errors:
            metrics.counter("errors.queries").inc(len(response.errors))
            metrics.counter("reverse.errors").inc(len(response.errors))
        stats = response.stats
        metrics.counter("reverse.users_swept").inc(stats.n_users)
        metrics.counter("reverse.pruned.cauchy_schwarz").inc(
            stats.pruned_cauchy_schwarz)
        metrics.counter("reverse.pruned.bound_table").inc(
            stats.pruned_bound_table)
        metrics.counter("reverse.cached_admits").inc(stats.admitted_cached)
        metrics.counter("reverse.verified").inc(stats.verified)
        metrics.counter("reverse.audience").inc(stats.audience)
        metrics.counter("reverse.cache_bound_hits").inc(
            stats.cache_bound_hits)
        hist = metrics.histogram("latency.reverse_seconds")
        for result in response.results:
            if result is not None:
                hist.observe(result.elapsed)

    def explain(self, query, k: Optional[int] = None):
        """EXPLAIN one query as this service would serve it.

        Runs the query through :func:`repro.obs.explain.explain_query`
        against the index the service scans (the inner index when a
        sharded one is wrapped: the single scan serving runs).  The cache
        is probed first, and whether serving would answer the query from
        it is recorded as the explanation's ``provenance`` (``"hit"`` /
        ``"cold"``).  Unlike serving, a hit still *runs* the cascade, cold
        — EXPLAIN describes work, it does not skip it — and no deadline
        is armed, so the account is always the complete one.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        from ..obs.explain import explain_query
        snap = self.index._live
        q = as_query_vector(query, snap.d)
        k = check_k(self.config.default_k if k is None else k,
                    snap.visible_count)
        provenance = "cold"
        if self.cache is not None and k > 0 \
                and self.cache.lookup(snap, q, k).kind == "hit":
            provenance = "hit"
        # Explain builds its own always-sampling tracer (the service's
        # tracer may head-sample this query away, losing the trajectory).
        return explain_query(self.index, q, k, provenance=provenance,
                             snapshot=snap)

    def _band_hits(self, snap: LiveCatalog, queries: np.ndarray,
                   lookups: List[Optional[CacheLookup]]) -> None:
        """Give every cache hit the band this service's mode serves.

        An entry carries whatever band the service that stored it had,
        and one cache may front services in both modes.  An unbudgeted
        service serves hits with no band; a budget-mode service serves
        the band a complete scan carries — the exact scores as lower
        bounds and the Cauchy–Schwarz cap past the scanned prefix the
        entry's stats record — computing it for an entry stored without.
        """
        budgeted = self.config.budget_flops is not None
        bare = []
        for i, lookup in enumerate(lookups):
            if lookup is None or lookup.kind != "hit":
                continue
            if not budgeted:
                lookup.result.bounds = None
            elif lookup.result.bounds is None:
                bare.append(i)
        if not bare:
            return
        states = prepare_query_states(snap,
                                      np.ascontiguousarray(queries[bare]))
        for i, qs in zip(bare, states):
            result = lookups[i].result
            result.bounds = catalog_bounds(
                snap, qs.q_norm, result.scores,
                [(0, snap.n, result.stats.scanned)],
                result.stats.delta_scanned)

    # ------------------------------------------------------------------
    # Executor selection
    # ------------------------------------------------------------------

    def _resolve_executor(self) -> str:
        """Resolve ``config.executor`` to ``"process"`` or ``"serial"``, once.

        ``"auto"`` keeps processes in play only when they can actually
        win: several workers, several cores, a process start method the
        host supports, and the real monotonic clock (an injected fake
        clock cannot tick inside another process, so deadline semantics
        would silently change).  Explicit ``"process"`` is honoured even
        when the other heuristics say no; the constructor has already
        refused it under an injected clock.  :meth:`_wants_processes` then
        decides per batch.
        """
        from .procpool import process_executor_usable

        mode = self.config.executor
        if mode != "auto":
            return mode
        if (self.config.workers > 1
                and (os.cpu_count() or 1) > 1
                and self._clock is time.monotonic
                and process_executor_usable(self.config.mp_start_method)):
            return "process"
        return "serial"

    def _wants_processes(self, work: _Pending) -> bool:
        """Whether ``work`` is offered the process pool: the one decision.

        Explicit ``"process"`` offers it to every batch whose engine is
        the blocked cascade (the only one workers run).  ``"auto"`` offers
        it only to batches of two or more such queries: shipping a single
        query to a worker costs more than scanning it here.  The pool
        itself may still be out (:meth:`_acquire_procpool`), and the scan
        then runs in-process.
        """
        if self._executor_mode != "process":
            return False
        if work.engine not in (None, "blocked"):
            return False
        return self.config.executor == "process" or len(work.states) > 1

    def _acquire_procpool(self):
        """The live process pool, or ``None`` when it cannot serve now.

        ``None`` while a fault injector is armed: injected faults fire at
        the *parent's* call sites, and shipping the scan to a process
        that has no injector would quietly un-test the chaos suite.  Also
        ``None`` when the host cannot start worker processes at all.
        """
        if _faultsites.active is not None:
            return None
        if self._procpool is None:
            from .procpool import ProcessScanPool

            try:
                self._procpool = ProcessScanPool(
                    self.config.workers,
                    start_method=self.config.mp_start_method)
            except ValidationError:
                return None
        return self._procpool

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _plan_batch(self, snap: LiveCatalog, pending: int,
                    root: Optional[Span]) -> Tuple[Optional[str],
                                                   Optional[dict]]:
        """The planner's ``plan()`` step: pick this batch's scan engine.

        With ``config.engine=None`` this is a no-op (``(None, None)``) —
        scans run on the index's own engine.  A fixed engine is passed
        through with a minimal decision record.  ``"auto"`` (the default)
        consults the index's calibrated
        :class:`~repro.analysis.cost_model.CostModel` (calibrating it on
        first use) and picks the engine with the lowest predicted batch
        cost over ``snap``, the snapshot the batch scans.  A calibration
        pass that raises (its scans pass the same fault sites as served
        scans) does not fail the batch: it is counted
        (``planner.calibration_errors``), recorded as the decision's
        ``calibration_error``, and the batch runs the blocked cascade;
        the next batch calibrates again.  The decision is counted per
        engine (``planner.decisions.<engine>``), gauged (calibration age)
        and traced (a ``plan`` event on the batch's root span); the
        actual cost is reconciled by :meth:`_finish_plan` after the scans.
        """
        configured = self.config.engine
        if configured is None or pending == 0:
            return configured, None
        info: dict = {"configured": configured, "engine": configured,
                      "mode": "inter", "queries": pending,
                      "predictions": None, "predicted_seconds": None,
                      "actual_seconds": None, "mispredict_ratio": None}
        if configured == "auto":
            from ..analysis.cost_model import ensure_cost_model

            try:
                model = ensure_cost_model(self.index)
            except Exception as error:
                self.metrics.counter("planner.calibration_errors").inc()
                engine = "blocked"
                info.update(engine=engine, calibration_error=(
                    f"{type(error).__name__}: {error}"))
            else:
                engine, predictions = model.choose(n=snap.n)
                info.update(
                    engine=engine,
                    predictions=predictions,
                    predicted_seconds=predictions[engine] * pending,
                    calibration_age_seconds=model.age_seconds(),
                    observations=model.observations,
                )
                self.metrics.gauge("planner.calibration_age_seconds").set(
                    model.age_seconds())
                self.metrics.gauge("planner.observations").set(
                    model.observations)
        else:
            engine = configured
        self.metrics.counter(f"planner.decisions.{engine}").inc()
        if root is not None:
            root.event("plan", engine=engine, configured=configured,
                       predicted_seconds=info["predicted_seconds"])
        return engine, info

    def _finish_plan(self, info: dict, engine: str,
                     scanned, total_stats: PruningStats) -> str:
        """Reconcile the plan with what the scans actually cost.

        Records actual scan seconds and the mispredict ratio
        (actual / predicted, 1.0 = perfectly calibrated) into the
        decision record and the ``planner.mispredict_ratio`` gauge, and
        — for planned (``"auto"``) batches — feeds the observation back
        into the cost model's decaying window, so a drifting workload
        re-steers future decisions without a recalibration pass.
        Returns the engine-suffixed batch mode (``"inter/gemm"``).
        """
        actual = sum(r.elapsed for r in scanned if r is not None)
        info["actual_seconds"] = actual
        predicted = info["predicted_seconds"]
        if predicted and actual > 0:
            ratio = actual / predicted
            info["mispredict_ratio"] = ratio
            self.metrics.gauge("planner.mispredict_ratio").set(ratio)
        if info["configured"] == "auto" and actual > 0 \
                and self.index.cost_model is not None:
            self.index.cost_model.observe(engine, total_stats, actual)
        return f"inter/{engine}"

    # ------------------------------------------------------------------
    # Dispatch: two sources of raw outcomes, one attempt/finish pair
    # ------------------------------------------------------------------

    def _fuses(self, work: _Pending) -> bool:
        """Whether ``work`` takes the fused GEMM path: the one decision.

        Its engine resolves to ``"gemm"``, it holds two or more states,
        and nothing in it acts per query per block: no deadline or
        budget (polled per block), no sampled trace (one scan span per
        query) and no armed fault injector (per-query ``scan`` sites —
        the rule of :meth:`_acquire_procpool`).  A one-query batch,
        such as every cold start's, always scans alone.
        """
        engine = self.index.engine if work.engine is None else work.engine
        return (engine == "gemm" and len(work.states) > 1
                and self.config.deadline_ms is None
                and work.budget_flops is None and work.span is None
                and _faultsites.active is None)

    def _scan_fused(self, work: _Pending) -> None:
        """Scan ``work`` in chunks of :data:`GEMM_CHUNK` queries.

        Each chunk is one :meth:`FexiproIndex._scan_gemm_chunk` call (one
        GEMM per block for the whole chunk), and each of its outcomes ends in
        :meth:`_attempt` like a worker's.  A chunk whose fused call
        raises is counted (``policy.fused_fallback``) and scanned again
        query by query, so retry and isolation hold per query.
        """
        m = len(work.states)
        for lo in range(0, m, GEMM_CHUNK):
            chunk = range(lo, min(lo + GEMM_CHUNK, m))
            try:
                outcomes = self.index._scan_gemm_chunk(
                    work.states[lo:chunk.stop], work.k, snapshot=work.snap,
                    collect=work.collect)
            except Exception:
                self.metrics.counter("policy.fused_fallback").inc()
                outcomes = [None] * len(chunk)
            for j, outcome in zip(chunk, outcomes):
                self._attempt(work, j, outcome)

    def _scan_inter_query(self, work: _Pending) -> None:
        """Scan whole queries: fused, on worker processes or one by one.

        When :meth:`_fuses` says so, chunks of queries share one GEMM per
        block (:meth:`_scan_fused`).  When :meth:`_wants_processes` says
        so, worker processes scan the batch (:meth:`_map_inter_process`);
        their ``"ok"`` outcomes are finished here and their ``"err"``
        outcomes replayed in-process.  Otherwise, or when the process
        pool cannot serve this batch, the queries run in order in this
        process, each in its own :meth:`_attempt` loop.
        """
        if self._fuses(work):
            self._scan_fused(work)
            return
        if self._wants_processes(work):
            outputs = self._map_inter_process(work)
            if outputs is not None:
                # Replays share the batch's slots but run the engine the
                # workers ran: the index's own.
                replay = copy.copy(work)
                replay.engine = None
                for j, out in enumerate(outputs):
                    if out[0] == "ok":
                        __, stats, positions, scores, elapsed, timings = out
                        self._attempt(work, j, (positions, scores, stats,
                                                elapsed, timings))
                    else:
                        self._attempt(replay, j)
                return
        for j in range(len(work.states)):
            self._attempt(work, j)

    def _map_inter_process(self, work: _Pending):
        """Scan the batch's query states on worker processes, or ``None``.

        ``None`` means the process pool cannot serve this batch: it is out
        (:meth:`_acquire_procpool`), the replica publish or task dispatch
        failed, or the published replica does not match the batch's
        snapshot because a mutation raced the publish — the last two
        counted as ``policy.process_fallback``.  Query states are tiny (a
        handful of scalars plus one reduced vector), so pickling them per
        batch is noise next to the scans; the index itself never travels
        — workers attach the shared-memory replica.
        """
        procpool = self._acquire_procpool()
        if procpool is None:
            return None
        try:
            handle = procpool.ensure_replica(self.index)
            if tuple(handle.token) != work.snap.token:
                self.metrics.counter("policy.process_fallback").inc()
                return None
            items = [(qi, pickle.dumps(state,
                                       protocol=pickle.HIGHEST_PROTOCOL))
                     for qi, state in zip(work.indices, work.states)]
            return procpool.run_query_chunks(
                handle, items, work.k,
                deadline_ms=self.config.deadline_ms,
                budget_flops=work.budget_flops,
                collect=work.collect,
                chunk_size=self.config.chunk_size)
        except Exception:
            self.metrics.counter("policy.process_fallback").inc()
            return None

    def _attempt(self, work: _Pending, j: int, outcome=None) -> None:
        """The one attempt loop every scanned query ends in; never raises.

        ``outcome`` is a raw outcome a worker process already produced
        (an ``"ok"`` scan), and is finished first.  Otherwise each
        attempt scans state ``j`` in-process (:meth:`_scan_one`) under the
        ``q=<i>`` fault tag and a fresh ``scan`` span.  A transient
        failure is retried per the service's :class:`RetryPolicy`; a final
        failure, including a ``"fail"`` policy on a truncated scan,
        becomes the slot's :class:`QueryError` (counted in
        ``errors.queries``).
        """
        qi = work.indices[j]
        attempt = 0
        span: Optional[Span] = None
        while True:
            try:
                if outcome is None:
                    span = work.span.child("scan", query=qi,
                                           attempt=attempt) \
                        if work.span is not None else None
                    with _faultsites.tagged(f"q={qi}"):
                        outcome = self._scan_one(work, j, span)
                self._finish(work, j, outcome, span)
                if attempt:
                    self.metrics.counter("retries.recovered").inc()
                return
            except Exception as error:
                if span is not None:
                    span.set(error=type(error).__name__).end()
                outcome = None
                if self._retry.should_retry(error, attempt):
                    attempt += 1
                    self.metrics.counter("retries").inc()
                    self._retry.backoff()
                    continue
                self.metrics.counter("errors.queries").inc()
                work.errors[j] = QueryError(index=qi, error=error,
                                            retried=attempt > 0)
                return

    def _scan_one(self, work: _Pending, j: int, span: Optional[Span]):
        """One in-process single scan of state ``j``, as a raw outcome.

        Every call arms a fresh trigger (a retry starts with a full
        budget) and scans the batch's snapshot (a retry cannot silently
        move to a newer catalog than its neighbours saw).
        """
        timings = StageTimings() if work.collect else None
        started = time.perf_counter()
        buffer, stats = self.index._scan(
            work.states[j], work.k,
            options=self._armed(work.budget_flops,
                                timings=timings, span=span),
            engine=work.engine, snapshot=work.snap,
        )
        elapsed = time.perf_counter() - started
        return (*buffer.items_and_scores(), stats, elapsed, timings)

    def _finish(self, work: _Pending, j: int, outcome,
                span: Optional[Span]) -> None:
        """Finish one successful raw outcome into state ``j``'s slots.

        ``outcome`` is ``(positions, scores, stats, elapsed, timings)``:
        the survivors' raw length-sorted positions and scores by
        descending score, the pruning counters, scan seconds and stage
        timings (or ``None``).  The truncation policy runs first — under
        ``"fail"`` a truncated scan raises here, before anything is
        recorded — then the span closes (with a ``degraded`` event for a
        truncated scan), and the timings and result fill the slots; the
        batch merges the slots' timings in request order.
        """
        positions, scores, stats, elapsed, timings = outcome
        if self.config.truncation_policy == "fail":
            raise_if_truncated(stats, f"query {work.indices[j]}")
        if span is not None:
            if stats.deadline_hit or stats.budget_exhausted:
                span.event("degraded", scanned=stats.scanned)
            span.end()
        work.timings[j] = timings
        work.results[j] = catalog_result(
            work.snap, work.states[j].q_norm, positions, scores, stats,
            elapsed, budgeted=work.budget_flops is not None)

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------

    def _armed(self, budget_flops: Optional[float],
               **fields) -> ScanOptions:
        """Scan options with a fresh per-query stop trigger.

        A :class:`Deadline` of ``config.deadline_ms``, a
        :class:`FlopBudget` of ``budget_flops`` (``config.budget_flops``,
        possibly shrunk by admission control; ``None`` outside budget
        mode), or neither; ``fields`` fill the rest of the options.
        """
        deadline = None if self.config.deadline_ms is None \
            else Deadline.after_ms(self.config.deadline_ms, clock=self._clock)
        budget = None if budget_flops is None else FlopBudget(budget_flops)
        return ScanOptions(deadline=deadline, budget=budget, **fields)

    def _estimate_query_flops(self) -> float:
        """Per-query coordinate estimate for admission control.

        Uses the index's calibrated
        :class:`~repro.analysis.cost_model.CostModel` (the planner's
        selectivity fractions) when one can be built, priced for the
        engine that will run: a planned (``"auto"``) service is priced as
        the engine the model currently picks, so budgets are sized for
        it.  Falls back to the un-pruned worst case ``n * d``.  The
        estimate only steers admission — it can never change any served
        result.
        """
        engine = self.config.engine or self.index.engine
        try:
            from ..analysis.cost_model import ensure_cost_model

            model = ensure_cost_model(self.index)
            n = self.index._live.n
            if engine == "auto":
                engine, __ = model.choose(n=n)
            estimate = float(model.expected_coordinates(engine, n))
        except Exception:
            estimate = float(self.index.n * self.index.d)
        if not math.isfinite(estimate) or estimate <= 0:
            estimate = float(self.index.n * self.index.d)
        return max(1.0, estimate)

    #: Shrunk per-query budgets never drop below this fraction of
    #: ``budget_flops`` — beyond it, admission sheds instead of starving
    #: every query into a useless sliver of its budget.
    SHED_BUDGET_FLOOR = 0.1

    def _admission(self, pending: List[int], errors: List[QueryError],
                   root: Optional[Span],
                   ) -> Tuple[List[int], Optional[float]]:
        """Overload admission control for one batch (budget mode only).

        Returns ``(admitted, per_query_budget_flops)``.  Outside budget
        mode this is a no-op returning ``(pending, None)``.  In budget
        mode the batch's aggregate demand — queue depth × the cost
        model's per-query estimate, clamped to ``budget_flops`` — is
        compared against ``shed_capacity_flops``:

        - fits: every query is admitted with the full budget;
        - over capacity but ``capacity / depth`` is at least
          :data:`SHED_BUDGET_FLOOR` of the budget: all queries are
          admitted with proportionally shrunk budgets
          (``shed.shrunk_queries``);
        - otherwise: the head of the queue is admitted at the floor
          budget and the tail is shed with structured
          ``QueryError(code="shed")`` records (``shed.queries``) — shed
          queries are never prepared or scanned.
        """
        config = self.config
        if config.budget_flops is None:
            return pending, None
        budget_flops = float(config.budget_flops)
        capacity = config.shed_capacity_flops
        if capacity is None or not pending:
            return pending, budget_flops
        per_query = min(self._estimate_query_flops(), budget_flops)
        demand = per_query * len(pending)
        if demand <= capacity:
            return pending, budget_flops
        floor = self.SHED_BUDGET_FLOOR * budget_flops
        shrunk = capacity / len(pending)
        if floor <= shrunk:
            self.metrics.counter("shed.shrunk_queries").inc(len(pending))
            if root is not None:
                root.event("budget_shrunk", queries=len(pending),
                           budget_flops=shrunk, demand=demand,
                           capacity=float(capacity))
            return pending, shrunk
        admitted_count = int(capacity // floor) if floor > 0 else 0
        admitted = pending[:admitted_count]
        shed = pending[admitted_count:]
        self.metrics.counter("shed.queries").inc(len(shed))
        if admitted:
            self.metrics.counter("shed.shrunk_queries").inc(len(admitted))
        for qi in shed:
            errors.append(QueryError(
                index=qi,
                error=OverloadSheddedError(
                    f"query {qi} shed: batch demand {demand:g} coordinate "
                    f"units exceeds capacity {capacity:g}"
                ),
                code="shed",
            ))
        if root is not None:
            root.event("shed", shed=len(shed), admitted=len(admitted),
                       demand=demand, capacity=float(capacity))
        return admitted, (floor if admitted else budget_flops)

    # ------------------------------------------------------------------
    # Metrics and lifecycle
    # ------------------------------------------------------------------

    def _observe(self, response: BatchResponse) -> None:
        metrics = self.metrics
        metrics.counter("batches").inc()
        metrics.counter("queries").inc(len(response.results))
        metrics.counter("policy.inter_query").inc()
        batch_hist = metrics.histogram("latency.batch_seconds")
        batch_hist.observe(response.elapsed)
        scan_hist = metrics.histogram("latency.scan_seconds")
        provenance = response.provenance
        for qi, result in enumerate(response.results):
            if result is None:
                continue
            if provenance is not None and provenance[qi] == "hit":
                # A hit's elapsed is the *original* scan's; replaying it
                # into the latency distribution would describe work this
                # batch never did.
                continue
            scan_hist.observe(result.elapsed)
        if provenance is not None:
            metrics.counter("cache.hits").inc(response.cache_hits)
            metrics.counter("cache.cold_queries").inc(
                provenance.count("cold"))
        if response.deadline_hits:
            metrics.counter("deadline.degraded_queries").inc(
                response.deadline_hits)
        if response.budget_hits:
            metrics.counter("budget.degraded_queries").inc(
                response.budget_hits)
        metrics.observe_pruning(response.stats)
        if response.timings is not None:
            metrics.record_stage_timings(response.timings)

    def metrics_snapshot(self) -> dict:
        """A JSON-serializable snapshot of the service's metrics.

        Besides the registry contents this reports the deployment shape:
        ``workers`` (the requested count; the resolved count, which is
        the worker processes the resolved executor starts, or 1 for the
        in-process loop of ``"serial"``; and the host core count),
        ``shards`` (the wrapped index's shard count, or ``None`` for a
        plain index), ``executor`` (the configured and resolved scan
        backend — ``"process"`` or ``"serial"`` — plus the live process
        pool's start method, per-worker task counts and replicas when one
        exists) and ``cache`` (the query cache's counters, or ``None``
        when caching is off).
        """
        snapshot = self.metrics.snapshot()
        snapshot["workers"] = {
            "requested": self._requested,
            "resolved": (self.config.workers
                         if self._executor_mode == "process" else 1),
            "host_cores": os.cpu_count() or 1,
        }
        snapshot["shards"] = (self.sharded_index.n_shards
                              if self.sharded_index is not None else None)
        snapshot["executor"] = {
            "configured": self.config.executor,
            "mode": self._executor_mode,
            "pool": (self._procpool.snapshot()
                     if self._procpool is not None else None),
        }
        snapshot["cache"] = (self.cache.snapshot()
                             if self.cache is not None else None)
        snapshot["compactor"] = (self.compactor.snapshot()
                                 if self.compactor is not None else None)
        snapshot["tracer"] = (self.tracer.snapshot()
                              if self.tracer is not None else None)
        return snapshot

    def start_metrics_server(self, port: int = 0,
                             host: str = "127.0.0.1"):
        """Expose :meth:`metrics_snapshot` over HTTP (Prometheus format).

        Starts a :class:`~repro.obs.http.MetricsServer` on a daemon
        thread serving ``GET /metrics`` (text exposition format 0.0.4)
        and ``GET /healthz`` (``503`` once the service is closed).
        ``port=0`` binds a free port — read it back from the returned
        server's ``port``/``url``.  Idempotent while a server is running;
        :meth:`close` shuts it down with the pool.
        """
        if self.metrics_server is not None:
            return self.metrics_server
        from ..obs.http import MetricsServer
        self.metrics_server = MetricsServer(self, host=host, port=port)
        return self.metrics_server

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Shut the service down; it cannot serve afterwards.

        Idempotent — a second ``close()`` is a no-op, while serving after
        close raises :class:`~repro.exceptions.ServiceClosedError`.
        """
        if self.compactor is not None:
            self.compactor.close()
        if self.metrics_server is not None:
            self.metrics_server.close()
        if self._procpool is not None:
            self._procpool.close()
            self._procpool = None
        self._closed = True

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetrievalService(index={self.index!r}, "
            f"workers={self.config.workers})"
        )
