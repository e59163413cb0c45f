"""Machine-independent cost model for sequential-scan retrieval.

Wall-clock comparisons are substrate-bound (see EXPERIMENTS.md), so this
module prices a query in *coordinate touches* — the currency the paper's
analysis implicitly uses.  Each pruning-stage counter maps to the number
of vector coordinates the scan had to read:

=====================  ===========================================
stage                  coordinates touched per candidate
=====================  ===========================================
length test            0 (norms are precomputed scalars)
integer partial        w        (head integer dot)
integer full           d        (head + tail integer dots)
incremental            w        (exact head dot; integer head reused)
monotone               0        (scalar constants only)
entire product         d        (head + tail exact dots)
=====================  ===========================================

The model intentionally ignores constant factors (float vs int, branch
cost); its job is to *rank* configurations and methods the way the paper's
Tables 3/4 do, portably.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..core.stats import PruningStats

#: Engines the calibrated model prices (and the planner chooses between).
#: The reference cascade is a fixed engine only: it does the blocked
#: cascade's work at several times its per-coordinate rate, so the
#: planner would never pick it, and timing it dominated calibration.
PLANNER_ENGINES = ("blocked", "gemm")

#: Each calibration sample runs the blocked cascade under a deadline of
#: this multiple of the same sample's GEMM time: past it, blocked has
#: already lost, so the rest of its scan would measure nothing useful.
CALIBRATION_DEADLINE_FACTOR = 2.0

#: Sample queries :func:`calibrate_cost_model` times each engine on.
CALIBRATION_SAMPLES = 4

#: One observation moves an engine's rate by at most this factor, so a
#: single stall (a page fault, a GC pause) cannot lock an engine out.
RATE_STEP_LIMIT = 4.0


@dataclass(frozen=True)
class CostBreakdown:
    """Coordinate touches of one (or an aggregate of) queries."""

    integer_coordinates: float
    exact_coordinates: float

    @property
    def total(self) -> float:
        return self.integer_coordinates + self.exact_coordinates

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.integer_coordinates + other.integer_coordinates,
            self.exact_coordinates + other.exact_coordinates,
        )


def query_cost(stats: PruningStats, w: int, d: int) -> CostBreakdown:
    """Price one query's scan from its pruning counters.

    Every scanned candidate pays the integer head dot (when the integer
    stage ran at all — inferred from its counters); survivors of each
    stage pay the next stage's coordinates, ending with ``d`` for entire
    products.
    """
    if not 1 <= w <= d:
        raise ValueError(f"w must be in [1, {d}]; got {w}")
    integer_ran = (stats.pruned_integer_partial
                   + stats.pruned_integer_full) > 0
    integer_cost = 0.0
    if integer_ran:
        # All scanned candidates pay the head integer dot; those passing
        # the partial test also pay the tail integer dot.
        passed_partial = stats.scanned - stats.pruned_integer_partial
        integer_cost = stats.scanned * w + passed_partial * (d - w)
    # Exact arithmetic: candidates reaching the incremental stage pay the
    # head dot; entire products additionally pay the tail.
    reached_exact = (stats.scanned - stats.pruned_integer_partial
                     - stats.pruned_integer_full)
    exact_cost = reached_exact * w + stats.full_products * (d - w)
    return CostBreakdown(integer_coordinates=float(integer_cost),
                         exact_coordinates=float(exact_cost))


def workload_cost(stats: Iterable[PruningStats], w: int,
                  d: int) -> CostBreakdown:
    """Aggregate :func:`query_cost` over a workload."""
    total = CostBreakdown(0.0, 0.0)
    for record in stats:
        total = total + query_cost(record, w, d)
    return total


def naive_cost(n: int, d: int, n_queries: int = 1) -> CostBreakdown:
    """What an exhaustive scan pays: every coordinate, every query."""
    return CostBreakdown(integer_coordinates=0.0,
                         exact_coordinates=float(n * d * n_queries))


def speedup_estimate(method_cost: CostBreakdown,
                     baseline_cost: CostBreakdown,
                     integer_discount: float = 1.0) -> float:
    """Predicted speedup of a method over a baseline.

    ``integer_discount`` prices an integer coordinate relative to a float
    one (< 1 on hardware where integer multiply-adds are cheaper — the
    paper's C++ setting; 1.0 on this NumPy substrate).
    """
    if integer_discount <= 0:
        raise ValueError("integer_discount must be positive")
    method_total = (method_cost.integer_coordinates * integer_discount
                    + method_cost.exact_coordinates)
    baseline_total = (baseline_cost.integer_coordinates * integer_discount
                      + baseline_cost.exact_coordinates)
    if method_total <= 0:
        return float("inf")
    return baseline_total / method_total


# ----------------------------------------------------------------------
# Calibrated per-(index, workload) model — the planner's substrate
# ----------------------------------------------------------------------

def observed_coordinates(stats: PruningStats, w: int, d: int) -> float:
    """Coordinates one scan actually touched, plus per-item bookkeeping.

    :func:`query_cost` prices the arithmetic; one extra unit per scanned
    item prices the cascade's per-candidate branch/bound bookkeeping so a
    scan that prunes everything at the length test still has nonzero
    cost.  Works unchanged for the GEMM engine, whose stats report
    ``scanned == full_products`` — the formula then collapses to
    ``n*d + n``, exactly what the matmul touches.
    """
    return query_cost(stats, w, d).total + float(stats.scanned)


@dataclass
class CostModel:
    """Per-index calibrated engine cost model, re-fit online.

    Built by :func:`calibrate_cost_model` (a short measurement pass) and
    attached to the index as ``index.cost_model`` — pickled with it, so a
    saved index keeps its calibration.  Binds to the index's ``uid``
    only (:meth:`matches`): rates are properties of the machine and the
    engines, and fractions of the workload, so neither writes to the
    delta tier nor a compaction (a new SVD basis over the same rows)
    invalidates them.  Callers price with the snapshot they will scan by
    passing its extent as ``n``.

    Two kinds of state are fitted:

    - ``rates``: seconds per *coordinate touched* for each engine
      (:data:`PLANNER_ENGINES`).  Machine- and substrate-dependent — this
      is where "a NumPy GEMM coordinate is much cheaper than a cascade
      coordinate" lives.
    - ``fractions``: the observed pruning selectivity of the cascade on
      recent traffic (what fraction of items is scanned before the
      Cauchy–Schwarz cut, what fraction each bound stage removes), which
      turns the counters of future queries into *expected* coordinates.

    Both are refit from served batches through :meth:`observe` with an
    exponentially decaying window (``decay`` is the weight of the newest
    observation), so a drifting workload re-steers the planner without a
    recalibration pass; one observation moves a rate by at most
    :data:`RATE_STEP_LIMIT` either way.  A mis-calibrated model can only
    mis-*rank* engines — every engine returns bitwise-identical results,
    so planning affects latency, never answers.
    """

    uid: str
    n: int
    d: int
    w: int
    use_integer: bool
    rates: Dict[str, float]
    fractions: Dict[str, float]
    calibrated_at: float = field(default_factory=time.time)
    decay: float = 0.15
    observations: int = 0

    # -- prediction ----------------------------------------------------

    def expected_coordinates(self, engine: str,
                             n: Optional[int] = None) -> float:
        """Expected coordinates per query for ``engine`` on ``n`` items."""
        n = self.n if n is None else int(n)
        if engine == "gemm":
            # The GEMM engine streams every coordinate of every item it
            # scans; the Cauchy–Schwarz prefix cut is workload-dependent,
            # so the scanned fraction applies to it too.
            scanned = self.fractions.get("gemm_scanned", 1.0) * n
            return scanned * self.d + scanned
        scanned = self.fractions["scanned"] * n
        coords = scanned  # per-candidate bookkeeping
        f_pp = self.fractions["pruned_integer_partial"]
        f_pf = self.fractions["pruned_integer_full"]
        if self.use_integer:
            coords += scanned * self.w + scanned * (1.0 - f_pp) \
                * (self.d - self.w)
        reached = scanned * max(0.0, 1.0 - f_pp - f_pf)
        coords += reached * self.w \
            + scanned * self.fractions["full_products"] * (self.d - self.w)
        return coords

    def predict(self, engine: str, n: Optional[int] = None,
                queries: int = 1) -> float:
        """Predicted wall-clock seconds for ``queries`` queries."""
        if engine not in self.rates:
            raise ValueError(
                f"engine must be one of {sorted(self.rates)}; got {engine!r}"
            )
        return self.rates[engine] \
            * self.expected_coordinates(engine, n) * queries

    def choose(self, engines: Optional[Sequence[str]] = None,
               n: Optional[int] = None,
               ) -> Tuple[str, Dict[str, float]]:
        """Pick the cheapest engine; returns ``(engine, predictions)``."""
        engines = tuple(self.rates) if engines is None else tuple(engines)
        predictions = {e: self.predict(e, n) for e in engines}
        return min(predictions, key=predictions.get), predictions

    # -- online refit --------------------------------------------------

    def observe(self, engine: str, stats: PruningStats,
                elapsed: float) -> None:
        """Fold one served scan into the decaying window.

        Updates the engine's rate from ``elapsed`` over the coordinates
        the scan actually touched, and (for cascade engines) the
        selectivity fractions from the pruning counters.  Non-positive or
        degenerate observations are ignored.
        """
        if elapsed <= 0 or stats.n_items <= 0 or engine not in self.rates:
            return
        coords = observed_coordinates(stats, self.w, self.d)
        if coords > 0:
            self._ewma_rate(engine, elapsed / coords)
        self.observations += 1
        if stats.scanned <= 0:
            return
        scanned_frac = stats.scanned / stats.n_items
        if engine == "gemm":
            self._ewma_fraction("gemm_scanned", scanned_frac)
            return
        self._ewma_fraction("scanned", scanned_frac)
        self._ewma_fraction("pruned_integer_partial",
                            stats.pruned_integer_partial / stats.scanned)
        self._ewma_fraction("pruned_integer_full",
                            stats.pruned_integer_full / stats.scanned)
        self._ewma_fraction("full_products",
                            stats.full_products / stats.scanned)

    def _ewma_rate(self, key: str, value: float) -> None:
        if not math.isfinite(value) or value <= 0:
            return
        old = self.rates[key]
        value = min(max(value, old / RATE_STEP_LIMIT), old * RATE_STEP_LIMIT)
        self.rates[key] = (1.0 - self.decay) * old + self.decay * value

    def _ewma_fraction(self, key: str, value: float) -> None:
        value = min(max(float(value), 0.0), 1.0)
        old = self.fractions.get(key, value)
        self.fractions[key] = (1.0 - self.decay) * old + self.decay * value

    # -- bookkeeping ---------------------------------------------------

    def matches(self, index) -> bool:
        """Whether this model was calibrated for ``index`` (any snapshot)."""
        return self.uid == getattr(index, "uid", None)

    def age_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the calibration measurement pass ran."""
        return max(0.0, (time.time() if now is None else now)
                   - self.calibrated_at)

    def as_dict(self) -> dict:
        """JSON-ready summary (CLI / metrics / explain exposure)."""
        return {
            "uid": self.uid,
            "n": self.n,
            "d": self.d,
            "w": self.w,
            "rates": dict(self.rates),
            "fractions": dict(self.fractions),
            "age_seconds": self.age_seconds(),
            "observations": self.observations,
            "predictions": {e: self.predict(e) for e in self.rates},
        }


def calibrate_cost_model(index, *, k: int = 10,
                         samples: int = CALIBRATION_SAMPLES,
                         ) -> CostModel:
    """Short measurement pass: fit a :class:`CostModel` for ``index``.

    Samples item rows at evenly spaced positions of the length-sorted
    order as stand-in queries (the matrix-factorization setting queries
    and items share a space).  Each sample is scanned by GEMM first, then
    by the blocked cascade under a deadline of
    :data:`CALIBRATION_DEADLINE_FACTOR` times that GEMM time, and each
    engine's seconds-per-coordinate is fitted as the median observed rate
    over the coordinates each scan visited.  The cascade selectivity
    fractions come from the blocked runs; a blocked scan the deadline cut
    off counts as a full scan in ``fractions["scanned"]``: it has already
    lost to GEMM, so it is priced pessimistically rather than from the
    short, weakly pruned prefix it reached.

    The pass is deliberately cheap — at most three GEMM times per
    sample — so it can run at build/load time or lazily on the first
    ``auto`` query.  The model keeps improving online via
    :meth:`CostModel.observe`.  ``index`` may be a
    :class:`~repro.core.index.FexiproIndex` or a captured
    :class:`~repro.core.delta.LiveCatalog`; the pass measures one
    snapshot's base tier, the extent every engine scans.
    """
    from time import perf_counter

    from ..core.blocked import scan_blocked
    from ..core.gemm import scan_gemm
    from ..core.index import prepare_query_states
    from ..serve.resilience import Deadline
    from ..core.options import ScanOptions

    index = getattr(index, "_live", index)
    samples = max(1, min(int(samples), index.n))
    positions = [int(i * (index.n - 1) / max(1, samples - 1))
                 for i in range(samples)] if samples > 1 else [0]
    queries = index.items_sorted[sorted(set(positions))]
    states = prepare_query_states(index, queries)
    k = max(1, min(int(k), index.n))

    rate_samples: Dict[str, list] = {engine: [] for engine in
                                     PLANNER_ENGINES}
    blocked_stats = []
    gemm_stats = []
    for qs in states:
        tick = perf_counter()
        __, g_stats = scan_gemm(index, qs, k)
        g_elapsed = perf_counter() - tick
        options = ScanOptions(deadline=Deadline(
            g_elapsed * CALIBRATION_DEADLINE_FACTOR))
        tick = perf_counter()
        __, b_stats = scan_blocked(index, qs, k, index.block_size,
                                   options=options)
        b_elapsed = perf_counter() - tick
        for engine, stats, elapsed in (("gemm", g_stats, g_elapsed),
                                       ("blocked", b_stats, b_elapsed)):
            coords = observed_coordinates(stats, index.w, index.d)
            if elapsed > 0 and coords > 0:
                rate_samples[engine].append(elapsed / coords)
        gemm_stats.append(g_stats)
        blocked_stats.append(b_stats)
    rates = {engine: statistics.median(values) if values else 1e-9
             for engine, values in rate_samples.items()}

    fractions: Dict[str, float] = {
        "scanned": 1.0,
        "pruned_integer_partial": 0.0,
        "pruned_integer_full": 0.0,
        "full_products": 1.0,
        "gemm_scanned": 1.0,
    }
    scanned = sum(s.scanned for s in blocked_stats)
    visited = sum(s.n_items for s in blocked_stats)
    if scanned > 0 and visited > 0:
        priced = sum(s.n_items if s.deadline_hit else s.scanned
                     for s in blocked_stats)
        fractions["scanned"] = priced / visited
        fractions["pruned_integer_partial"] = \
            sum(s.pruned_integer_partial for s in blocked_stats) / scanned
        fractions["pruned_integer_full"] = \
            sum(s.pruned_integer_full for s in blocked_stats) / scanned
        fractions["full_products"] = \
            sum(s.full_products for s in blocked_stats) / scanned
    g_scanned = sum(s.scanned for s in gemm_stats)
    g_visited = sum(s.n_items for s in gemm_stats)
    if g_scanned > 0 and g_visited > 0:
        fractions["gemm_scanned"] = g_scanned / g_visited

    return CostModel(
        uid=index.uid, n=index.n, d=index.d, w=index.w,
        use_integer=index.scaled is not None,
        rates=rates, fractions=fractions,
    )


def ensure_cost_model(index, **calibrate_kwargs) -> CostModel:
    """Return the index's cost model, calibrating it if there is none.

    Reuses ``index.cost_model`` when it was fitted for this index's
    ``uid`` — across writes and compactions, which change neither the
    machine's rates nor the workload's selectivity; otherwise runs
    :func:`calibrate_cost_model` and attaches the result.  This is the
    lazy path behind ``engine="auto"`` — the first planned query pays the
    measurement pass, later ones just consult (and refine) the model.
    """
    model = getattr(index, "cost_model", None)
    if model is not None and model.matches(index):
        return model
    model = calibrate_cost_model(index, **calibrate_kwargs)
    index.cost_model = model
    return model
