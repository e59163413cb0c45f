"""Configuration for the batch serving layer."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..core.sharded import check_executor
from ..exceptions import ValidationError


def default_workers() -> int:
    """A sensible worker count for this host: one per core, capped at 8.

    Worker processes beyond the core count only add scheduling noise; the
    cap keeps a big machine from starting dozens of processes for a layer
    whose block scans already saturate memory bandwidth with a few.
    """
    return max(1, min(8, os.cpu_count() or 1))


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for :class:`repro.serve.RetrievalService`.

    Parameters
    ----------
    workers:
        Size of the process pool (not clamped to the host's cores); it
        also sets the default chunking of worker-process tasks.  ``1``
        never starts worker processes under ``"auto"``.
    chunk_size:
        Queries per worker-process task; the in-process loop scans one
        query after another and is not chunked.  ``None`` picks
        ``ceil(m / (4 * workers))`` so each worker sees about four chunks
        per batch: large enough that task overhead is negligible, small
        enough that an unlucky chunk of slow queries cannot straggle the
        whole batch.
    default_k:
        Result-list size used when a request does not specify ``k``.
    collect_timings:
        When true, engines attribute per-stage wall time to the service's
        metrics registry (a few clock calls per block — cheap for the
        blocked engine, expensive for the reference engine).
    engine:
        Per-service scan engine: ``"auto"`` (the default), ``"reference"``,
        ``"blocked"`` or ``"gemm"``, or ``None`` to defer to the index's
        own configured engine.  ``"auto"`` is the cost-based planner:
        each batch is routed to the engine (blocked cascade or GEMM) the
        index's calibrated :class:`~repro.analysis.cost_model.CostModel`
        predicts cheapest, the decision and predicted/actual cost are
        exposed through :attr:`BatchResponse.mode` (``"inter/gemm"``) /
        :attr:`BatchResponse.planner` and the ``planner.*`` metrics, and
        observed scan costs are fed back into the model.  The first
        batch pays a short calibration pass.  All engines return
        bitwise-identical ids and scores, so this knob can only ever
        change latency — and the pruning counters, which are the
        engine's own: GEMM reports ``scanned == full_products``.  Pin
        ``"blocked"`` to serve the paper's cascade and its counters.
    executor:
        Where scans run.  ``"process"`` runs them in worker *processes*
        attached zero-copy to a shared-memory replica of the index
        (:mod:`repro.serve.procpool`) — real cores for the Python-heavy
        pruning cascade; ``"serial"`` runs every query, one after another,
        in the serving process; ``"auto"`` (default) sends to processes
        only multi-query batches of blocked scans, when processes can win
        (multiple workers and cores, a real monotonic clock, no armed
        fault injector), and runs everything else serially.  A service
        built with an injected ``clock=`` refuses ``"process"``.  Results are
        bitwise identical across all three.  The thread executor was
        removed: the GIL serialized its scans.
    mp_start_method:
        Start method for process executors (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``); ``None`` defers to the ``REPRO_MP_START``
        environment variable, then the platform preference.
    deadline_ms:
        Per-query scan time budget in milliseconds (``None`` = unlimited).
        A fresh monotonic :class:`~repro.serve.resilience.Deadline` is
        armed per query and polled at block boundaries.
    budget_flops:
        Per-query FLOP budget in coordinate (multiply-accumulate) units —
        the currency of :class:`~repro.analysis.cost_model.CostModel`; a
        full un-pruned scan costs about ``n * d`` units.  When set, the
        service runs in *compute*-denominated SLO mode (budget mode):
        every query is armed with a fresh
        :class:`~repro.core.budget.FlopBudget` of this size, and results
        carry a certified :class:`~repro.core.budget.ResultBounds` band.
        A query gets one stop trigger, so ``deadline_ms`` must then be
        ``None``.
    truncation_policy:
        What a scan truncated by its deadline or budget does.
        ``"degrade"`` (default): the query returns the exact top-k of the
        length-sorted prefix it scanned, flagged ``complete=False`` with
        ``stats.deadline_hit`` or ``stats.budget_exhausted`` set.
        ``"fail"``: the query raises
        :class:`~repro.exceptions.DeadlineExceededError` or
        :class:`~repro.exceptions.BudgetExhaustedError` instead
        (surfaced per query in :attr:`BatchResponse.errors`; re-raised by
        :meth:`RetrievalService.query`).  A campaign probe fails on a
        truncated verification scan under either policy.
    shed_capacity_flops:
        Optional admission-control capacity in the same units.  When a
        batch's aggregate demand — queue depth × the cost model's
        per-query FLOP estimate (clamped to ``budget_flops``) — exceeds
        this capacity, per-query budgets are shrunk proportionally (never
        below 10% of ``budget_flops``); queries that still do not fit are
        shed with a structured ``QueryError(code="shed")`` wrapping
        :class:`~repro.exceptions.OverloadSheddedError`, before any scan
        work runs.  Requires ``budget_flops``; ``None`` (default)
        disables shedding.
    retries:
        Bounded re-executions after a *transient* per-query fault
        (exceptions carrying ``transient=True``); default 1.  Deadline
        expiry is never retried.
    retry_backoff_ms:
        Sleep between attempts (via the service's injectable ``sleep``).
    cache_capacity:
        Queries retained by the service's :class:`~repro.serve.cache.
        QueryCache` (LRU beyond it; one entry per query serves every
        ``k`` up to the largest cached).  ``0`` (the default) disables caching
        entirely — no fingerprinting, no lookups, behaviour identical to
        earlier releases.  Ignored when an external cache is handed to the
        service directly.
    cache_ttl_s:
        Optional time-to-live for cache entries in seconds (``None`` =
        entries live until evicted or invalidated by a catalog write or
        compaction).
    compaction_interval_s:
        When set, the service runs a background
        :class:`~repro.serve.compactor.Compactor` thread that wakes every
        this-many seconds and re-runs Algorithm 3 over the merged
        base + delta catalog whenever pending mutations exist, atomically
        swapping the fresh epoch in (queries racing the swap see either
        the old or the new snapshot, both exact).  ``None`` (default)
        starts no compactor — call
        :meth:`~repro.core.index.FexiproIndex.compact` manually.
    compaction_delta_limit:
        Optional delta-tier size trigger: once the mutable tail holds at
        least this many rows the compactor compacts on its next wake-up
        regardless of how recently it last ran (the wake-up poll runs at
        a fraction of ``compaction_interval_s`` so the limit engages
        promptly).  Requires ``compaction_interval_s``.
    trace_sample_rate:
        Probability that one served batch is traced (a root span plus
        prepare/cache/scan/shard children in the service's
        :class:`~repro.obs.Tracer`).  ``0.0`` (the default) disables
        tracing entirely: no tracer is built and the engines pay one
        ``is None`` branch per block.  An externally owned tracer passed
        to the service overrides this setting.
    trace_ring_size:
        Capacity of the service-owned tracer's in-memory span ring (only
        used when ``trace_sample_rate > 0`` builds one).
    metrics_port:
        When set, the service starts an HTTP exposition thread serving
        Prometheus text format on ``/metrics`` and a liveness probe on
        ``/healthz`` (``0`` = pick a free port, exposed via
        ``service.metrics_server.port``).  ``None`` (default) starts no
        server.
    metrics_host:
        Bind address for the exposition server (default loopback).
    """

    workers: int = 4
    chunk_size: Optional[int] = None
    default_k: int = 10
    collect_timings: bool = True
    engine: Optional[str] = "auto"
    executor: str = "auto"
    mp_start_method: Optional[str] = None
    deadline_ms: Optional[float] = None
    budget_flops: Optional[float] = None
    truncation_policy: str = "degrade"
    shed_capacity_flops: Optional[float] = None
    retries: int = 1
    retry_backoff_ms: float = 0.0
    cache_capacity: int = 0
    cache_ttl_s: Optional[float] = None
    compaction_interval_s: Optional[float] = None
    compaction_delta_limit: Optional[int] = None
    trace_sample_rate: float = 0.0
    trace_ring_size: int = 512
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValidationError(
                f"workers must be a positive integer; got {self.workers!r}"
            )
        if self.chunk_size is not None and (
                not isinstance(self.chunk_size, int) or self.chunk_size < 1):
            raise ValidationError(
                f"chunk_size must be a positive integer or None; "
                f"got {self.chunk_size!r}"
            )
        if not isinstance(self.default_k, int) or self.default_k < 1:
            raise ValidationError(
                f"default_k must be a positive integer; got {self.default_k!r}"
            )
        if self.engine is not None and self.engine not in (
                "reference", "blocked", "gemm", "auto"):
            raise ValidationError(
                f"engine must be one of ('reference', 'blocked', 'gemm', "
                f"'auto') or None; got {self.engine!r}"
            )
        check_executor(self.executor)
        if self.mp_start_method is not None and (
                not isinstance(self.mp_start_method, str)
                or self.mp_start_method not in
                ("fork", "spawn", "forkserver")):
            raise ValidationError(
                f"mp_start_method must be 'fork', 'spawn', 'forkserver' or "
                f"None; got {self.mp_start_method!r}"
            )
        if self.deadline_ms is not None and not (
                isinstance(self.deadline_ms, (int, float))
                and not isinstance(self.deadline_ms, bool)
                and self.deadline_ms > 0):
            raise ValidationError(
                f"deadline_ms must be a positive number or None; "
                f"got {self.deadline_ms!r}"
            )
        if self.budget_flops is not None and not (
                isinstance(self.budget_flops, (int, float))
                and not isinstance(self.budget_flops, bool)
                and self.budget_flops >= 0):
            raise ValidationError(
                f"budget_flops must be a non-negative number or None; "
                f"got {self.budget_flops!r}"
            )
        if self.deadline_ms is not None and self.budget_flops is not None:
            raise ValidationError(
                "set deadline_ms or budget_flops, not both: a query gets "
                "one degradation trigger (wall-clock or compute)"
            )
        if self.truncation_policy not in ("degrade", "fail"):
            raise ValidationError(
                f"truncation_policy must be 'degrade' or 'fail'; "
                f"got {self.truncation_policy!r}"
            )
        if self.shed_capacity_flops is not None:
            if not (isinstance(self.shed_capacity_flops, (int, float))
                    and not isinstance(self.shed_capacity_flops, bool)
                    and self.shed_capacity_flops > 0):
                raise ValidationError(
                    f"shed_capacity_flops must be a positive number or "
                    f"None; got {self.shed_capacity_flops!r}"
                )
            if self.budget_flops is None:
                raise ValidationError(
                    "shed_capacity_flops requires budget_flops (admission "
                    "control estimates demand in budget units)"
                )
        if not isinstance(self.retries, int) or isinstance(self.retries, bool) \
                or self.retries < 0:
            raise ValidationError(
                f"retries must be a non-negative integer; "
                f"got {self.retries!r}"
            )
        if not isinstance(self.retry_backoff_ms, (int, float)) or \
                isinstance(self.retry_backoff_ms, bool) or \
                self.retry_backoff_ms < 0:
            raise ValidationError(
                f"retry_backoff_ms must be non-negative; "
                f"got {self.retry_backoff_ms!r}"
            )
        if not isinstance(self.cache_capacity, int) or \
                isinstance(self.cache_capacity, bool) or \
                self.cache_capacity < 0:
            raise ValidationError(
                f"cache_capacity must be a non-negative integer; "
                f"got {self.cache_capacity!r}"
            )
        if self.cache_ttl_s is not None and not (
                isinstance(self.cache_ttl_s, (int, float))
                and not isinstance(self.cache_ttl_s, bool)
                and self.cache_ttl_s > 0):
            raise ValidationError(
                f"cache_ttl_s must be a positive number or None; "
                f"got {self.cache_ttl_s!r}"
            )
        if self.compaction_interval_s is not None and not (
                isinstance(self.compaction_interval_s, (int, float))
                and not isinstance(self.compaction_interval_s, bool)
                and self.compaction_interval_s > 0):
            raise ValidationError(
                f"compaction_interval_s must be a positive number or None; "
                f"got {self.compaction_interval_s!r}"
            )
        if self.compaction_delta_limit is not None:
            if not isinstance(self.compaction_delta_limit, int) or \
                    isinstance(self.compaction_delta_limit, bool) or \
                    self.compaction_delta_limit < 1:
                raise ValidationError(
                    f"compaction_delta_limit must be a positive integer or "
                    f"None; got {self.compaction_delta_limit!r}"
                )
            if self.compaction_interval_s is None:
                raise ValidationError(
                    "compaction_delta_limit requires compaction_interval_s "
                    "(the compactor thread that enforces it)"
                )
        if not isinstance(self.trace_sample_rate, (int, float)) or \
                isinstance(self.trace_sample_rate, bool) or \
                not 0.0 <= float(self.trace_sample_rate) <= 1.0:
            raise ValidationError(
                f"trace_sample_rate must be a number in [0, 1]; "
                f"got {self.trace_sample_rate!r}"
            )
        if not isinstance(self.trace_ring_size, int) or \
                isinstance(self.trace_ring_size, bool) or \
                self.trace_ring_size < 1:
            raise ValidationError(
                f"trace_ring_size must be a positive integer; "
                f"got {self.trace_ring_size!r}"
            )
        if self.metrics_port is not None and (
                not isinstance(self.metrics_port, int)
                or isinstance(self.metrics_port, bool)
                or not 0 <= self.metrics_port <= 65535):
            raise ValidationError(
                f"metrics_port must be an integer in [0, 65535] or None; "
                f"got {self.metrics_port!r}"
            )
        if not isinstance(self.metrics_host, str) or not self.metrics_host:
            raise ValidationError(
                f"metrics_host must be a non-empty string; "
                f"got {self.metrics_host!r}"
            )
