"""EXPLAIN for the pruning cascade: a per-query, per-rule account.

The aggregate ``pruning.*`` counters say what the cascade does on average;
:func:`explain_query` says what it did to *one* query.  It runs the query
with a span attached and converts the engine's
:class:`~repro.core.stats.PruningStats` into a chain of
:class:`StageAccount` records — candidates entering, pruned by, and
surviving each rule of Algorithm 4/5, in cascade order:

1. ``cauchy_schwarz`` — length termination (Line 11 of Algorithm 4); the
   untouched suffix of the length-sorted scan counts as pruned here.
2. ``integer_partial`` — the partial integer bound, Equation 6.
3. ``integer_full`` — the full integer bound, Equation 3.
4. ``incremental`` — incremental pruning on the exact partial product,
   Equation 1.
5. ``monotone`` — the monotone-space bound (Lemma 1 / Theorem 4).
6. ``full_product`` — survivors whose exact inner product was computed.

The chain is exact by construction: each stage's ``entered`` equals the
previous stage's ``survived``, and the engines' own counter invariant
(``scanned == sum(pruned_*) + full_products``, verified by the tier-1
suite from both engine loops) guarantees the accounts sum back to the
:class:`~repro.serve.metrics.MetricsRegistry` counters the service already
exposes — :meth:`QueryExplanation.verify` asserts it on every build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from ..core.delta import catalog_result
from ..core.options import ScanOptions
from ..core.stats import PruningStats, RetrievalResult, StageTimings
from ..exceptions import ValidationError
from .trace import Tracer

__all__ = ["QueryExplanation", "ReverseExplanation", "StageAccount",
           "explain_query", "explain_reverse", "stage_accounts",
           "reverse_stage_accounts"]

#: Cascade order of the pruning rules (see module docstring).
STAGES = (
    "cauchy_schwarz",
    "integer_partial",
    "integer_full",
    "incremental",
    "monotone",
    "full_product",
)

#: Which ``PruningStats`` field holds each pruning stage's kill count.
_PRUNED_FIELD = {
    "integer_partial": "pruned_integer_partial",
    "integer_full": "pruned_integer_full",
    "incremental": "pruned_incremental",
    "monotone": "pruned_monotone",
}


@dataclass(frozen=True)
class StageAccount:
    """Candidate flow through one rule of the cascade."""

    stage: str
    entered: int
    pruned: int
    survived: int

    def as_dict(self) -> Dict[str, int]:
        return {"stage": self.stage, "entered": self.entered,
                "pruned": self.pruned, "survived": self.survived}


def stage_accounts(stats: PruningStats) -> List[StageAccount]:
    """Derive the per-rule candidate chain from one scan's counters.

    ``cauchy_schwarz`` accounts for everything the length cut kept the
    scan from visiting (``n_items - scanned``); each later stage enters
    with the previous stage's survivors and prunes its own counter's
    worth; ``full_product`` is the terminal stage (its survivors *are* the
    computed products).  Inactive stages (a variant without integer
    bounds, say) appear with ``pruned == 0`` so the chain shape is
    variant-independent.
    """
    accounts: List[StageAccount] = []
    entered = stats.n_items
    pruned = stats.n_items - stats.scanned
    accounts.append(StageAccount("cauchy_schwarz", entered, pruned,
                                 entered - pruned))
    entered -= pruned
    for stage in STAGES[1:-1]:
        pruned = getattr(stats, _PRUNED_FIELD[stage])
        accounts.append(StageAccount(stage, entered, pruned,
                                     entered - pruned))
        entered -= pruned
    accounts.append(StageAccount("full_product", entered, 0, entered))
    return accounts


@dataclass
class QueryExplanation:
    """The structured account :meth:`FexiproIndex.explain` returns.

    ``stages`` is the per-rule candidate chain (see
    :func:`stage_accounts`); ``counters`` are the raw
    :class:`~repro.core.stats.PruningStats` values, byte-for-byte what
    :meth:`MetricsRegistry.observe_pruning` would add to the service's
    ``pruning.*`` counters for this query; ``rule_seconds`` is per-stage
    wall time (the :class:`~repro.core.stats.StageTimings` taxonomy);
    ``thresholds`` is the trajectory of the live threshold at each block
    boundary poll (blocked engine) or admitted raise (reference engine,
    capped); ``planner`` records the cost-based engine decision (chosen
    engine, per-engine predicted costs, calibration age) when the index
    is configured with ``engine="auto"``, else ``None``; ``spans`` are
    the exported trace spans backing all of the above.
    """

    k: int
    variant: str
    engine: str
    mode: str
    result: RetrievalResult
    stages: List[StageAccount]
    rule_seconds: Dict[str, float]
    thresholds: List[Dict[str, Any]]
    provenance: str = "cold"
    initial_threshold: float = -math.inf
    planner: Optional[Dict[str, Any]] = None
    spans: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def counters(self) -> Dict[str, int]:
        """The scan's pruning counters (``PruningStats.as_dict()``)."""
        return self.result.stats.as_dict()

    def stage(self, name: str) -> StageAccount:
        """Look one stage account up by name."""
        for account in self.stages:
            if account.stage == name:
                return account
        raise ValidationError(f"unknown stage {name!r}; have {STAGES}")

    def verify(self) -> None:
        """Assert the chain is internally consistent with the counters.

        Raises :class:`~repro.exceptions.ValidationError` on any mismatch
        — this is the machine-checked contract that ``explain`` never
        drifts from the counters the service aggregates.
        """
        stats = self.result.stats
        chained = self.stages[0].entered
        previous = None
        for account in self.stages:
            if previous is not None and account.entered != previous.survived:
                raise ValidationError(
                    f"stage {account.stage!r} entered {account.entered}, "
                    f"but {previous.stage!r} survived {previous.survived}"
                )
            if account.survived != account.entered - account.pruned:
                raise ValidationError(
                    f"stage {account.stage!r} does not balance: "
                    f"{account.entered} - {account.pruned} != "
                    f"{account.survived}"
                )
            previous = account
        if chained != stats.n_items:
            raise ValidationError(
                f"chain enters {chained} items, stats carry {stats.n_items}"
            )
        if self.stages[-1].survived != stats.full_products:
            raise ValidationError(
                f"chain ends with {self.stages[-1].survived} full products, "
                f"stats counted {stats.full_products}"
            )
        pruned_after_scan = sum(
            account.pruned for account in self.stages[1:])
        if stats.scanned != pruned_after_scan + stats.full_products:
            raise ValidationError(
                f"scanned {stats.scanned} != pruned {pruned_after_scan} "
                f"+ full {stats.full_products}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dump of the whole explanation."""
        return {
            "k": self.k,
            "variant": self.variant,
            "engine": self.engine,
            "mode": self.mode,
            "ids": list(self.result.ids),
            "scores": [float(s) for s in self.result.scores],
            "complete": self.result.complete,
            "elapsed": self.result.elapsed,
            "provenance": self.provenance,
            "initial_threshold": self.initial_threshold,
            "stages": [account.as_dict() for account in self.stages],
            "counters": self.counters,
            "rule_seconds": dict(self.rule_seconds),
            "thresholds": list(self.thresholds),
            "planner": None if self.planner is None else dict(self.planner),
            "bounds": (None if self.result.bounds is None
                       else self.result.bounds.as_dict()),
        }

    def format(self) -> str:
        """A human-readable table (what ``fexipro explain`` prints)."""
        lines = [
            f"query explain: k={self.k} variant={self.variant} "
            f"engine={self.engine} mode={self.mode} "
            f"provenance={self.provenance}",
            f"{'stage':<16} {'entered':>10} {'pruned':>10} {'survived':>10}"
            f" {'seconds':>10}",
        ]
        seconds_of = {
            "integer_partial": self.rule_seconds.get("integer", 0.0),
            "incremental": self.rule_seconds.get("incremental", 0.0),
            "monotone": self.rule_seconds.get("monotone", 0.0),
            "full_product": self.rule_seconds.get("full", 0.0),
        }
        for account in self.stages:
            seconds = seconds_of.get(account.stage)
            cell = f"{seconds:.6f}" if seconds is not None else "-"
            lines.append(
                f"{account.stage:<16} {account.entered:>10} "
                f"{account.pruned:>10} {account.survived:>10} {cell:>10}"
            )
        stats = self.result.stats
        if stats.delta_items or stats.tombstones_masked:
            lines.append(
                f"delta: items={stats.delta_items} "
                f"scanned={stats.delta_scanned} "
                f"tombstones_masked={stats.tombstones_masked}")
        if not self.result.complete:
            trigger = ("budget" if self.result.stats.budget_exhausted
                       else "deadline")
            lines.append(f"note: {trigger}-degraded (exact prefix top-k)")
        if self.result.bounds is not None:
            bounds = self.result.bounds
            lines.append(
                f"band: kth_lower={bounds.kth_lower:.6g} "
                f"tail_upper={bounds.tail_upper:.6g} "
                f"certified={bounds.certified}")
        if self.planner is not None:
            predictions = self.planner.get("predictions") or {}
            predicted = ", ".join(
                f"{name}={seconds:.2e}s"
                for name, seconds in sorted(predictions.items()))
            lines.append(
                f"planner: chose {self.planner['engine']}"
                + (f" ({predicted})" if predicted else ""))
        return "\n".join(lines)


def _threshold_trajectory(spans: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Pull the threshold-at-poll series out of exported span events."""
    trajectory: List[Dict[str, Any]] = []
    for span in spans:
        for event in span["events"]:
            if event["name"] == "block":
                point = {"position": event["start"],
                         "threshold": event["threshold"]}
            elif event["name"] == "threshold":
                point = {"position": event["position"],
                         "threshold": event["value"]}
            else:
                continue
            trajectory.append(point)
    return trajectory


def explain_query(index, query, k: int = 10, *,
                  tracer: Optional[Tracer] = None,
                  options: Optional[ScanOptions] = None,
                  provenance: str = "cold",
                  snapshot=None) -> QueryExplanation:
    """Run one query fully instrumented and account for every rule.

    ``index`` is a :class:`~repro.core.index.FexiproIndex` (any engine);
    :meth:`ShardedFexiproIndex.explain
    <repro.core.sharded.ShardedFexiproIndex.explain>` passes its inner
    index, whose single scan is what runs in one process.  ``options``
    carries an initial threshold or a deadline to reproduce a serving
    configuration; ``tracer`` defaults to a fresh always-sampling one
    whose spans end up in ``explanation.spans``.  ``snapshot`` pins the
    live-catalog snapshot to explain against (the serving layer passes
    the one its cache probe saw); by default the current
    snapshot is captured once and used throughout, so the account stays
    consistent even when writers or a compaction race the explanation.

    The returned explanation is :meth:`~QueryExplanation.verify`-ed before
    it is handed back: the per-rule candidate counts provably sum to the
    scan's pruning counters.  The base cascade chain balances exactly as
    before — delta-tier work (``delta_items``/``delta_scanned``) and
    tombstone masking sit outside it, reported through the counters and
    the formatted account's ``delta:`` line.
    """
    from .._validation import as_query_vector, check_k

    snap = index._live if snapshot is None else snapshot
    q = as_query_vector(query, snap.d)
    k = check_k(k, snap.visible_count)
    if tracer is None:
        tracer = Tracer(sample_rate=1.0)
    opts = options if options is not None else ScanOptions()
    if k == 0:
        # Every visible item has been removed: nothing to scan, nothing
        # to account — a well-formed empty explanation.
        result = RetrievalResult()
        explanation = QueryExplanation(
            k=0,
            variant=index.variant.name,
            engine=index.engine,
            mode="single",
            result=result,
            stages=stage_accounts(result.stats),
            rule_seconds=StageTimings().as_dict(),
            thresholds=[],
            provenance=provenance,
            initial_threshold=float(opts.initial_threshold),
        )
        explanation.verify()
        return explanation

    # Resolve an "auto" engine here, through the same cost model serving
    # uses, so the explanation reports the engine that actually ran and
    # the predictions behind the choice.
    planner: Optional[Dict[str, Any]] = None
    engine_override: Optional[str] = None
    if index.engine == "auto":
        engine_override, predictions = index.plan_engine()
        planner = {
            "engine": engine_override,
            "predictions": predictions,
            "calibration_age_seconds": index.cost_model.age_seconds(),
            "observations": index.cost_model.observations,
        }

    root = tracer.start("explain", k=k, variant=index.variant.name)
    started = perf_counter()
    timings = StageTimings()

    prep_span = root.child("prepare") if root is not None else None
    tick = perf_counter()
    qs = index._prepare_query(q, snapshot=snap)
    timings.prepare = perf_counter() - tick
    if prep_span is not None:
        prep_span.end()

    scan_span = root.child("scan") if root is not None else None
    buffer, stats = index._scan(
        qs, k, options=opts.replace(timings=timings, span=scan_span),
        engine=engine_override, snapshot=snap)
    if scan_span is not None:
        scan_span.end()
    elapsed = perf_counter() - started
    if root is not None:
        root.set(mode="single", scanned=stats.scanned).end()

    result = catalog_result(snap, qs.q_norm, *buffer.items_and_scores(),
                            stats, elapsed, budgeted=opts.budget is not None)
    span_dicts = [s.as_dict() for s in tracer.spans
                  if root is not None and s.trace_id == root.trace_id]
    explanation = QueryExplanation(
        k=k,
        variant=index.variant.name,
        engine=engine_override or index.engine,
        mode="single",
        result=result,
        stages=stage_accounts(stats),
        rule_seconds=timings.as_dict(),
        thresholds=_threshold_trajectory(span_dicts),
        provenance=provenance,
        initial_threshold=float(opts.initial_threshold),
        planner=planner,
        spans=span_dicts,
    )
    explanation.verify()
    return explanation


# ----------------------------------------------------------------------
# Reverse MIPS EXPLAIN
# ----------------------------------------------------------------------

#: The reverse cascade, in scan order.  A user leaves the flow at
#: exactly one rule: pruned by the Cauchy–Schwarz norm product, pruned
#: by its bound-table threshold, admitted outright by an exact cached
#: threshold, or resolved (either way) by a forward verification scan.
REVERSE_STAGES = (
    "cauchy_schwarz",
    "bound_table",
    "cached_admit",
    "forward_verify",
)


def reverse_stage_accounts(stats) -> List[StageAccount]:
    """Per-rule candidate flow for one reverse scan.

    ``pruned`` counts the users a rule *resolved* — eliminated for the
    pruning rules, admitted for ``cached_admit``, and rejected for
    ``forward_verify`` (whose ``survived`` is the verified audience).
    """
    entered = stats.n_users
    accounts = []
    flows = (
        ("cauchy_schwarz", stats.pruned_cauchy_schwarz),
        ("bound_table", stats.pruned_bound_table),
        ("cached_admit", stats.admitted_cached),
        ("forward_verify", stats.verified_rejected),
    )
    for stage, resolved in flows:
        accounts.append(StageAccount(stage=stage, entered=entered,
                                     pruned=resolved,
                                     survived=entered - resolved))
        entered -= resolved
    return accounts


@dataclass
class ReverseExplanation:
    """EXPLAIN for one reverse query: who was pruned by what, and why.

    ``stages`` is the per-rule account over the user sweep (it provably
    balances against ``counters`` — :meth:`verify` runs on every build),
    ``counters`` the raw :class:`~repro.core.reverse.ReverseStats` dict
    (including the merged forward-verification counters), ``result``
    the exact :class:`~repro.core.reverse.ReverseResult`.
    """

    item: int
    k: int
    result: Any
    stages: List[StageAccount]
    counters: Dict[str, Any]
    bounds: Dict[str, int]

    def verify(self) -> None:
        """Machine-check the account against the scan's counters."""
        stats = self.result.stats
        resolved = (stats.pruned_cauchy_schwarz + stats.pruned_bound_table
                    + stats.admitted_cached + stats.verified)
        if resolved != stats.n_users:
            raise ValidationError(
                f"reverse account does not balance: {resolved} users "
                f"resolved of {stats.n_users} swept"
            )
        if stats.verified != (stats.verified_admitted
                              + stats.verified_rejected):
            raise ValidationError(
                "verification split does not sum to verified count"
            )
        if stats.audience != self.result.audience_size:
            raise ValidationError(
                "admitted counters disagree with the audience size"
            )
        if (stats.bounds_exact + stats.bounds_length_sort
                != stats.n_users):
            raise ValidationError(
                "bound provenance does not cover the user sweep"
            )
        final = self.stages[-1]
        if final.survived != stats.verified_admitted:
            raise ValidationError(
                "stage chain tail disagrees with verified admissions"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "item": self.item,
            "k": self.k,
            "audience_size": self.result.audience_size,
            "stages": [a.as_dict() for a in self.stages],
            "counters": self.counters,
            "bounds": dict(self.bounds),
        }

    def format(self) -> str:
        """Human-readable per-rule account, widest rule first."""
        stats = self.result.stats
        lines = [
            f"REVERSE EXPLAIN item={self.item} k={self.k} "
            f"users={stats.n_users} audience={self.result.audience_size}",
            f"  bounds: exact={stats.bounds_exact} "
            f"length_sort={stats.bounds_length_sort} "
            f"cache_hits={stats.cache_bound_hits}",
        ]
        verbs = {"cauchy_schwarz": "pruned", "bound_table": "pruned",
                 "cached_admit": "admitted", "forward_verify": "rejected"}
        for account in self.stages:
            share = account.pruned / stats.n_users if stats.n_users else 0.0
            lines.append(
                f"  {account.stage:<15} entered={account.entered:<7} "
                f"{verbs[account.stage]}={account.pruned:<7} "
                f"({share:6.1%} of sweep)"
            )
        lines.append(
            f"  verified={stats.verified} "
            f"(admitted={stats.verified_admitted}, "
            f"rejected={stats.verified_rejected}); forward counters: "
            f"scanned={stats.forward.scanned} "
            f"full_products={stats.forward.full_products}"
        )
        return "\n".join(lines)


def explain_reverse(rindex, item, k: int = 10, *,
                    options: Optional[ScanOptions] = None,
                    engine: Optional[str] = None) -> ReverseExplanation:
    """Run one reverse query and account for every rule of the cascade.

    The returned explanation is :meth:`~ReverseExplanation.verify`-ed
    before it is handed back: the per-rule user counts provably sum to
    the sweep, and the stage-chain tail equals the verified audience.
    """
    result = rindex.reverse_query(item, k, options=options, engine=engine)
    explanation = ReverseExplanation(
        item=result.item,
        k=k,
        result=result,
        stages=reverse_stage_accounts(result.stats),
        counters=result.stats.as_dict(),
        bounds={"exact": result.stats.bounds_exact,
                "length_sort": result.stats.bounds_length_sort,
                "cache_hits": result.stats.cache_bound_hits},
    )
    explanation.verify()
    return explanation
