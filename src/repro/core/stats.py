"""Instrumentation records for retrieval runs.

The paper's analysis (Tables 3 and 7, Figures 9 and 12) is driven by
*machine-independent* counters: how many candidate item vectors were stopped
at each stage of the pruning cascade and, crucially, for how many the entire
exact inner product had to be computed.  Every retrieval engine in this
library fills in a :class:`PruningStats` per query so those tables can be
regenerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - imported only for type checking
    from .budget import ResultBounds


@dataclass
class PruningStats:
    """Per-query counters for one top-k retrieval.

    Attributes mirror the stages of Algorithm 4/5 in the paper:

    - ``n_items``: number of indexed item vectors.
    - ``scanned``: vectors reached by the sequential scan before the
      Cauchy–Schwarz early-termination condition fired.
    - ``length_terminated``: 1 if the scan stopped early via the
      ``||q||*||p|| <= t`` test (Line 11 of Algorithm 4), else 0.
    - ``pruned_integer_partial``: vectors discarded by the *partial* integer
      bound (Equation 6; Lines 2–5 of Algorithm 5).
    - ``pruned_integer_full``: vectors discarded by the full integer bound
      (Equation 3; Lines 6–8).
    - ``pruned_incremental``: vectors discarded by incremental pruning on the
      exact partial product (Equation 1; Lines 9–13).
    - ``pruned_monotone``: vectors discarded by the reduced-space partial
      bound (Lemma 1 / Theorem 4; Lines 14–17).
    - ``full_products``: vectors for which the *entire* exact product was
      computed (Lines 18–20) — the quantity reported in Tables 3 and 7.
    - ``shards_skipped``: whole length-band shards eliminated before their
      scan even started, because the cross-shard best-so-far threshold
      already exceeded ``||q|| * max ||p||`` of the shard (the
      Cauchy–Schwarz test applied at shard granularity by the process
      fan-out of :class:`repro.core.sharded.ShardedFexiproIndex`).
      Always 0 for a single scan.
    - ``deadline_hit``: 1 if the scan was truncated by an expired
      :class:`~repro.serve.resilience.Deadline` (per shard for a process
      fan-out, so merged records count affected shards).  The scan visits
      items in descending-length order, so a truncated result is still the
      *exact* top-k of the ``scanned`` prefix — but not necessarily of the
      whole index; :attr:`RetrievalResult.complete` exposes the flag.
    - ``budget_exhausted``: 1 if the scan was truncated by a spent
      :class:`~repro.core.budget.FlopBudget`.  Same exact-prefix degradation
      contract, with a certified band on the unseen tail attached to the
      result (:attr:`RetrievalResult.bounds`).
    - ``delta_items`` / ``delta_scanned``: alive delta-tier rows
      considered for this query and how many the brute-force delta scan
      actually visited (see :mod:`repro.core.delta`).  These sit
      *outside* the base pruning cascade — ``n_items``/``scanned`` keep
      their base-tier meaning, so the cascade balance invariants of
      :class:`repro.obs.explain.QueryExplanation` are unchanged.
    - ``tombstones_masked``: candidates dropped by the tombstone mask
      during the final replay of a live-catalog scan.
    """

    n_items: int = 0
    scanned: int = 0
    length_terminated: int = 0
    pruned_integer_partial: int = 0
    pruned_integer_full: int = 0
    pruned_incremental: int = 0
    pruned_monotone: int = 0
    full_products: int = 0
    shards_skipped: int = 0
    deadline_hit: int = 0
    budget_exhausted: int = 0
    delta_items: int = 0
    delta_scanned: int = 0
    tombstones_masked: int = 0

    def merge(self, other: "PruningStats") -> None:
        """Accumulate another query's counters into this record (in place)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def skipped_by_termination(self) -> int:
        """Vectors never reached because the scan terminated early."""
        return max(0, self.n_items - self.scanned)

    @property
    def pruned_total(self) -> int:
        """Vectors reached but discarded before a full product was needed."""
        return (
            self.pruned_integer_partial
            + self.pruned_integer_full
            + self.pruned_incremental
            + self.pruned_monotone
        )

    def as_dict(self) -> Dict[str, int]:
        """Return all counters as a plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def aggregate_stats(stats: Iterable[PruningStats]) -> PruningStats:
    """Roll a set of per-query counter records up into one total record.

    The serving layer reports batch-level pruning behaviour this way; the
    result's counters are the exact sums of the per-query counters, so an
    aggregated parallel batch can be checked against a serial loop.
    """
    total = PruningStats()
    for record in stats:
        total.merge(record)
    return total


@dataclass
class StageTimings:
    """Wall-clock seconds spent in each stage of the pruning cascade.

    Filled by the retrieval engines when instrumentation is requested
    (``timings=`` argument); all fields accumulate, so one record can
    aggregate many queries.  Stages mirror :class:`PruningStats`:

    - ``prepare``: query-side preparation (Algorithm 4 Lines 2–9).
    - ``integer``: integer-bound computation (Algorithm 5 Lines 2–8).
    - ``incremental``: exact head partial products (Lines 9–13).
    - ``monotone``: reduced-space bound evaluation (Lines 14–17).
    - ``full``: residual exact products (Lines 18–20).
    - ``select``: threshold bookkeeping — the candidate replay and top-k
      buffer maintenance around the vectorized stages.

    The blocked engine attributes its vectorized per-block sections; the
    reference engine attributes per item.  Timing the reference engine's
    per-item stages adds measurable clock-call overhead, so enable it for
    analysis, not for throughput measurements.
    """

    prepare: float = 0.0
    integer: float = 0.0
    incremental: float = 0.0
    monotone: float = 0.0
    full: float = 0.0
    select: float = 0.0

    def merge(self, other: "StageTimings") -> None:
        """Accumulate another record into this one (in place)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    @property
    def total(self) -> float:
        """Sum of all attributed stage times."""
        return sum(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> Dict[str, float]:
        """Return all stage times as a plain dictionary."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def average_full_products(stats: Iterable[PruningStats]) -> float:
    """Average number of entire q·p computations over a set of queries.

    This is the metric of Tables 3 and 7 in the paper.
    """
    stats = list(stats)
    if not stats:
        return 0.0
    return sum(s.full_products for s in stats) / len(stats)


def full_product_histogram(
    stats: Iterable[PruningStats], bins: List[int]
) -> List[int]:
    """Histogram per-query entire-product counts into ``bins`` (Figure 12).

    ``bins`` gives the right edge of each bucket; a final overflow bucket is
    appended for counts exceeding the last edge.
    """
    edges = sorted(bins)
    counts = [0] * (len(edges) + 1)
    for record in stats:
        value = record.full_products
        for i, edge in enumerate(edges):
            if value <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts


@dataclass
class RetrievalResult:
    """A complete answer for one query: ids, scores and instrumentation.

    ``ids`` and ``scores`` are sorted by descending inner product; ``stats``
    carries the pruning counters, and ``elapsed`` the retrieval wall-clock
    time in seconds (0.0 when the engine was not timed).  ``bounds`` is
    the certified band (:class:`repro.core.budget.ResultBounds`) attached
    by budget-armed scans — ``None`` for unbudgeted retrievals.
    """

    ids: List[int] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)
    stats: PruningStats = field(default_factory=PruningStats)
    elapsed: float = 0.0
    bounds: Optional["ResultBounds"] = None

    @property
    def complete(self) -> bool:
        """``False`` when a deadline or budget truncated the scan.

        An incomplete result is still the *exact* top-k of the
        length-sorted prefix the scan visited (``stats.scanned`` items) —
        the exact-prefix degradation contract of ``DESIGN.md`` §2.8, with
        the budget tier's certified band described in §2.13.
        """
        return (self.stats.deadline_hit == 0
                and self.stats.budget_exhausted == 0)

    def __len__(self) -> int:
        return len(self.ids)

    def top(self) -> int:
        """The best item id (convenience accessor)."""
        if not self.ids:
            raise IndexError("empty retrieval result")
        return self.ids[0]


def assemble_result(order, positions: Iterable[int],
                    scores: Iterable[float], stats: PruningStats,
                    elapsed: float = 0.0,
                    bounds: Optional["ResultBounds"] = None,
                    ) -> RetrievalResult:
    """Materialize a :class:`RetrievalResult` from scan-space positions.

    ``order`` is the index's position→original-id mapping
    (:attr:`repro.core.index.FexiproIndex.order`); ``positions`` and
    ``scores`` come sorted by descending score (usually from
    :meth:`repro.core.topk.TopKBuffer.items_and_scores`).  ``bounds`` is
    the optional certified band attached by budget-armed callers.

    This is the *single* implementation of the id mapping and result
    assembly.  Every retrieval entry point — :meth:`FexiproIndex.query`,
    :meth:`FexiproIndex.query_above`, :func:`repro.core.batch.batch_retrieve`,
    the serving layer and the sharded scan — delegates here, so the mapping
    cannot drift between paths.
    """
    ids = [int(order[p]) for p in positions]
    return RetrievalResult(ids=ids, scores=[float(s) for s in scores],
                           stats=stats, elapsed=elapsed, bounds=bounds)
