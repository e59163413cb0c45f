"""The stable public facade of the reproduction.

Everything an application needs lives here under names that will not
move: the :class:`Fexipro` entry point (build / load / save / query /
explain / serve over either index flavour), the serving layer
(:class:`RetrievalService`, :class:`ServiceConfig`), the observability
toolkit (:class:`Tracer`, :func:`explain_query`,
:func:`render_prometheus`, :class:`MetricsServer`) and the complete
exception hierarchy rooted at :class:`ReproError`.

Deep imports (``repro.core.index``, ``repro.serve.service``, …) keep
working — they are the implementation, free to be reorganised between
releases — but code written against ``repro.api`` (or the identical
top-level ``repro`` namespace) is what the API-surface snapshot test and
``docs/api.md`` guard::

    from repro.api import Fexipro

    engine = Fexipro(items, variant="F-SIR")
    result = engine.query(q, k=10)
    print(engine.explain(q, k=10).format())

    with engine.serve(ServiceConfig(workers=4)) as service:
        response = service.batch(queries, k=10)
"""

from __future__ import annotations

from typing import List, Optional, Union

from ._validation import as_query_matrix
from .analysis.cost_model import CostModel
from .core.budget import FlopBudget, ResultBounds
from .core.delta import LiveCatalog
from .core.index import FexiproIndex
from .core.options import ScanOptions
from .core.reverse import (
    CampaignResponse,
    ReverseIndex,
    ReverseResult,
    ReverseStats,
    campaign_scan,
)
from .core.sharded import ShardedFexiproIndex
from .core.stats import PruningStats, RetrievalResult, StageTimings
from .exceptions import (
    BudgetExhaustedError,
    DeadlineExceededError,
    DimensionMismatchError,
    EmptyIndexError,
    IndexIntegrityError,
    NotPreprocessedError,
    OverloadSheddedError,
    QueryError,
    ReproError,
    ServiceClosedError,
    TracingError,
    ValidationError,
)
from .obs import (
    JsonLinesSink,
    MetricsServer,
    QueryExplanation,
    ReverseExplanation,
    Span,
    Tracer,
    explain_query,
    explain_reverse,
    render_prometheus,
)
from .serve.compactor import Compactor
from .serve.config import ServiceConfig
from .serve.metrics import MetricsRegistry
from .serve.resilience import Deadline
from .serve.service import BatchResponse, RetrievalService

__all__ = [
    "BatchResponse",
    "BudgetExhaustedError",
    "CampaignResponse",
    "Compactor",
    "CostModel",
    "Deadline",
    "DeadlineExceededError",
    "DimensionMismatchError",
    "EmptyIndexError",
    "Fexipro",
    "FexiproIndex",
    "FlopBudget",
    "IndexIntegrityError",
    "JsonLinesSink",
    "LiveCatalog",
    "MetricsRegistry",
    "MetricsServer",
    "NotPreprocessedError",
    "OverloadSheddedError",
    "PruningStats",
    "QueryError",
    "QueryExplanation",
    "ReproError",
    "ResultBounds",
    "RetrievalResult",
    "RetrievalService",
    "ReverseExplanation",
    "ReverseIndex",
    "ReverseResult",
    "ReverseStats",
    "ScanOptions",
    "ServiceClosedError",
    "ServiceConfig",
    "ShardedFexiproIndex",
    "Span",
    "StageTimings",
    "Tracer",
    "TracingError",
    "ValidationError",
    "campaign_scan",
    "explain_query",
    "explain_reverse",
    "render_prometheus",
]

_Inner = Union[FexiproIndex, ShardedFexiproIndex]


class Fexipro:
    """One stable handle over both index flavours.

    ``Fexipro(items, ...)`` preprocesses *items* (Algorithm 3) exactly
    like :class:`~repro.core.index.FexiproIndex`; pass ``shards=`` (a
    count, or ``0`` for the host default) to build the sharded,
    intra-query-parallel flavour instead.  Queries, explains, saves and
    serving all dispatch to whichever index backs the handle, so
    application code never branches on the flavour — and never imports a
    deep module path that a refactor might move.

    Pass ``engine="auto"`` (an index option) to let the cost-based
    planner pick the scan engine per query: a short calibration pass
    fits a :class:`CostModel` on first use (or via :meth:`calibrate`),
    and every query is routed to the engine — blocked cascade or GEMM —
    the model predicts cheapest.  Results are bitwise identical across
    engines, so the knob only ever changes latency.  The handle itself
    defaults to the blocked cascade (the paper's engine, whose pruning
    counters :meth:`explain` reports); :meth:`serve` plans by default
    (``ServiceConfig.engine="auto"``).

    Pass ``users=`` (an ``(m, d)`` matrix of user factor vectors, or a
    prebuilt :class:`FexiproIndex` over one) to make the handle
    **dual-corpus**: the forward surface (:meth:`query`,
    :meth:`batch_query`) answers "which items does this user want", and
    the reverse surface (:meth:`reverse_query`, :meth:`campaign`)
    answers the advertiser-side "which users would put this item in
    their exact top-k".  All four accept the same per-call kwargs —
    ``budget=``, ``deadline=``, ``engine=``, or a full ``options=``
    bundle.

    The underlying indexes stay reachable as :attr:`index` and
    :attr:`reverse` for anything this facade does not wrap.
    """

    def __init__(self, items=None, *, shards: Optional[int] = None,
                 index: Optional[_Inner] = None, users=None,
                 **index_options):
        if (items is None) == (index is None):
            raise ValidationError(
                "pass exactly one of items (build) or index (wrap)"
            )
        if index is not None:
            if index_options or shards is not None:
                raise ValidationError(
                    "index options only apply when building from items"
                )
            if not isinstance(index, (FexiproIndex, ShardedFexiproIndex)):
                raise ValidationError(
                    f"index must be a FexiproIndex or ShardedFexiproIndex; "
                    f"got {type(index).__name__}"
                )
            self.index: _Inner = index
        elif shards is not None:
            self.index = ShardedFexiproIndex(
                items, shards=shards or None, **index_options)
        else:
            self.index = FexiproIndex(items, **index_options)
        self.reverse: Optional[ReverseIndex] = None
        if users is not None:
            self.attach_users(users)

    # -- construction --------------------------------------------------

    @classmethod
    def from_index(cls, index: _Inner) -> "Fexipro":
        """Wrap an already built index (either flavour) without copying."""
        return cls(index=index)

    @classmethod
    def load(cls, path) -> "Fexipro":
        """Load a saved index of either flavour (checksum-verified).

        Tries the plain format first and falls back to the sharded one;
        a corrupt file raises
        :class:`~repro.exceptions.IndexIntegrityError` either way, and a
        well-formed file of some third kind raises
        :class:`~repro.exceptions.ValidationError`.
        """
        try:
            return cls(index=FexiproIndex.load(path))
        except ValidationError:
            return cls(index=ShardedFexiproIndex.load(path))

    def save(self, path) -> None:
        """Persist the underlying index (see :meth:`FexiproIndex.save`)."""
        self.index.save(path)

    # -- retrieval -----------------------------------------------------

    @staticmethod
    def _call_options(options: Optional[ScanOptions],
                      budget: Optional[float],
                      deadline) -> Optional[ScanOptions]:
        """Fold the uniform per-call kwargs into one options bundle.

        Every retrieval surface (:meth:`query`, :meth:`batch_query`,
        :meth:`reverse_query`, :meth:`campaign`) resolves its kwargs
        here, so the validation story is identical everywhere:
        ``budget`` arms a fresh :class:`FlopBudget` (coordinate units),
        ``deadline`` arms a fresh monotonic
        :class:`~repro.serve.resilience.Deadline` (seconds, or a
        prebuilt ``Deadline``), each mutually exclusive with the same
        field already set on ``options``.  :class:`ScanOptions` itself
        refuses a deadline together with a budget: a scan gets one
        degradation trigger.
        """
        if budget is None and deadline is None:
            return options
        base = options if options is not None else ScanOptions()
        if budget is not None:
            if base.budget is not None:
                raise ValidationError(
                    "pass budget= or options.budget, not both"
                )
            base = base.replace(budget=FlopBudget(budget))
        if deadline is not None:
            if base.deadline is not None:
                raise ValidationError(
                    "pass deadline= or options.deadline, not both"
                )
            if not isinstance(deadline, Deadline):
                deadline = Deadline(float(deadline))
            base = base.replace(deadline=deadline)
        return base

    def query(self, query, k: int = 10, *,
              options: Optional[ScanOptions] = None,
              budget: Optional[float] = None,
              deadline=None,
              engine: Optional[str] = None) -> RetrievalResult:
        """Exact top-k inner products for one query vector.

        ``budget`` arms a fresh per-call
        :class:`~repro.core.budget.FlopBudget` of that many coordinate
        units (a full un-pruned scan costs about ``n * d``).  On
        exhaustion the result is the exact top-k of the length-sorted
        prefix scanned, flagged ``complete=False`` with a certified
        :class:`ResultBounds` band attached; ``budget=math.inf`` is
        bitwise identical to an unbudgeted query.  ``deadline`` arms a
        fresh wall-clock :class:`Deadline` of that many seconds (or
        accepts a prebuilt one); on expiry the result is likewise the
        exact prefix top-k, flagged via ``stats.deadline_hit``.  Budget
        and deadline are mutually exclusive — with each other and with
        the same fields on an ``options`` bundle — because a single
        call gets one degradation trigger.  ``engine`` overrides the
        scan engine for this call (results are bitwise identical across
        engines).
        """
        options = self._call_options(options, budget, deadline)
        return self.index.query(query, k, options=options, engine=engine)

    def batch_query(self, queries, k: int = 10, *,
                    options: Optional[ScanOptions] = None,
                    budget: Optional[float] = None,
                    deadline=None,
                    engine: Optional[str] = None) -> List[RetrievalResult]:
        """Exact top-k for each row of a query matrix, independently.

        Accepts the same per-call kwargs as :meth:`query`; ``budget``
        and ``deadline`` are armed **per query**, not shared across the
        batch (use :meth:`serve` for admission-controlled batch
        execution with shared capacity).
        """
        queries = as_query_matrix(queries, self.d)
        return [self.query(row, k, options=options, budget=budget,
                           deadline=deadline, engine=engine)
                for row in queries]

    def explain(self, query, k: int = 10, *,
                tracer: Optional[Tracer] = None,
                options: Optional[ScanOptions] = None) -> QueryExplanation:
        """EXPLAIN the pruning cascade for one query (see
        :func:`repro.obs.explain_query`)."""
        return self.index.explain(query, k, tracer=tracer, options=options)

    def serve(self, config: Optional[ServiceConfig] = None,
              **service_kwargs) -> RetrievalService:
        """Open a :class:`RetrievalService` over this index.

        The service is a context manager; extra keyword arguments
        (``metrics=``, ``cache=``, ``tracer=``, …) pass through to
        :class:`RetrievalService`.  A handle with an attached user
        corpus passes its :class:`ReverseIndex` along automatically, so
        the service's :meth:`~RetrievalService.campaign` works out of
        the box (and shares the service's query cache as an exact
        bound source).
        """
        if self.reverse is not None:
            service_kwargs.setdefault("reverse", self.reverse)
        return RetrievalService(self.index, config, **service_kwargs)

    # -- reverse retrieval ---------------------------------------------

    def attach_users(self, users, *, cache=None,
                     **user_index_options) -> ReverseIndex:
        """Attach (or replace) the user corpus behind the reverse surface.

        ``users`` is an ``(m, d)`` matrix of user factor vectors or a
        prebuilt :class:`FexiproIndex` over one; extra keyword arguments
        configure the user-side index build.  Returns the new
        :class:`ReverseIndex` (also reachable as :attr:`reverse`).
        """
        self.reverse = ReverseIndex(self.index, users, cache=cache,
                                    **user_index_options)
        return self.reverse

    def _require_reverse(self) -> ReverseIndex:
        if self.reverse is None:
            raise ValidationError(
                "no user corpus attached: pass users= at construction "
                "or call attach_users() before reverse_query/campaign"
            )
        return self.reverse

    def reverse_query(self, item, k: int = 10, *,
                      options: Optional[ScanOptions] = None,
                      budget: Optional[float] = None,
                      deadline=None,
                      engine: Optional[str] = None) -> ReverseResult:
        """The exact audience of catalog item ``item`` at depth ``k``.

        Reverse MIPS: every visible user whose exact forward top-k
        contains ``item``, bitwise identical to running :meth:`query`
        for each user and checking membership.  Accepts the same
        per-call kwargs as :meth:`query`; budgets and deadlines ride
        into the verification scans, and a truncated verification
        raises (:class:`DeadlineExceededError` /
        :class:`BudgetExhaustedError`) rather than ever returning an
        uncertain audience.  Requires a user corpus (``users=`` or
        :meth:`attach_users`).
        """
        rindex = self._require_reverse()
        options = self._call_options(options, budget, deadline)
        return rindex.reverse_query(item, k, options=options, engine=engine)

    def campaign(self, items, k: int = 10, *,
                 options: Optional[ScanOptions] = None,
                 budget: Optional[float] = None,
                 deadline=None,
                 engine: Optional[str] = None,
                 isolate: bool = True) -> CampaignResponse:
        """Audience-build a batch of probe items (see :func:`campaign_scan`).

        One consistent snapshot pair serves every probe, failures are
        isolated per probe (``isolate=False`` re-raises instead), and
        the per-call kwargs mirror :meth:`query` — a ``deadline`` or
        ``budget`` here spans the whole campaign.  For metrics, traces
        and a fresh per-probe deadline, serve the handle and call
        :meth:`RetrievalService.campaign`, which runs the same loop.
        """
        rindex = self._require_reverse()
        options = self._call_options(options, budget, deadline)
        return campaign_scan(rindex, items, k, options=options,
                             engine=engine, isolate=isolate)

    def explain_reverse(self, item, k: int = 10, *,
                        options: Optional[ScanOptions] = None,
                        engine: Optional[str] = None) -> ReverseExplanation:
        """EXPLAIN one reverse query's pruning cascade (see
        :func:`repro.obs.explain_reverse`)."""
        return self._require_reverse().explain(item, k, options=options,
                                               engine=engine)

    def add_users(self, rows) -> List[int]:
        """Append user vectors to the reverse corpus; returns their ids.

        ``O(delta)`` like :meth:`add_items`; accepts a matrix or a
        single 1-D vector.
        """
        return self._require_reverse().add_users(rows)

    def remove_users(self, ids) -> int:
        """Tombstone users by id; returns how many were actually removed."""
        return self._require_reverse().remove_users(ids)

    @property
    def n_users(self) -> int:
        """Visible users in the reverse corpus (0 when none attached)."""
        return 0 if self.reverse is None else self.reverse.n_users

    # -- planner -------------------------------------------------------

    def calibrate(self, **kwargs) -> CostModel:
        """Fit (or refit) the per-index engine cost model now.

        Runs the short measurement pass of
        :func:`repro.analysis.cost_model.calibrate_cost_model` against
        the underlying index and attaches the resulting
        :class:`CostModel` (it also rides along in :meth:`save`).
        Calibration is otherwise lazy — the first ``engine="auto"``
        query triggers it — so calling this is only needed to move the
        measurement cost off the query path, or to force a refit.
        """
        inner = self.index.index if self.sharded else self.index
        return inner.calibrate(**kwargs)

    @property
    def cost_model(self) -> Optional[CostModel]:
        """The calibrated engine cost model (``None`` before first fit)."""
        inner = self.index.index if self.sharded else self.index
        return inner.cost_model

    # -- live catalog --------------------------------------------------

    def add_items(self, new_items) -> List[int]:
        """Append rows to the live catalog; returns their assigned ids.

        ``O(delta)`` — writes land in the brute-force delta tier and are
        visible to the next query atomically; no rebuild runs until
        :meth:`compact`.  Results stay exact throughout.
        """
        return self.index.add_items(new_items)

    def remove_items(self, ids) -> int:
        """Tombstone items by id; returns how many were actually removed.

        Idempotent; removing every item leaves an empty catalog whose
        queries return well-formed empty results.
        """
        return self.index.remove_items(ids)

    def compact(self) -> bool:
        """Fold the delta tier and tombstones into the base tier now.

        Re-runs Algorithm 3 preprocessing over the visible catalog and
        swaps the fresh snapshot atomically; returns whether there was
        anything to fold.  Serving deployments normally leave this to the
        background compactor (``ServiceConfig.compaction_interval_s``).
        """
        return self.index.compact()

    @property
    def pending_mutations(self) -> int:
        """Delta rows plus tombstones awaiting the next compaction."""
        inner = self.index.index if self.sharded else self.index
        return inner._live.pending_mutations

    # -- introspection -------------------------------------------------

    @property
    def sharded(self) -> bool:
        """Whether the handle wraps the intra-query-parallel flavour."""
        return isinstance(self.index, ShardedFexiproIndex)

    @property
    def n(self) -> int:
        """Number of indexed items."""
        return self.index.n

    @property
    def d(self) -> int:
        """Item vector dimensionality."""
        return self.index.d

    @property
    def variant(self):
        """The FEXIPRO variant configuration backing the index."""
        inner = self.index.index if self.sharded else self.index
        return inner.variant

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flavour = "sharded" if self.sharded else "single"
        return (f"Fexipro(n={self.n}, d={self.d}, "
                f"variant={self.variant.name!r}, flavour={flavour!r})")
