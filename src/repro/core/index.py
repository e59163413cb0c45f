"""The FEXIPRO index: preprocessing (Algorithm 3) and retrieval (Algorithm 4).

:class:`FexiproIndex` is the main public entry point of this library.  It is
built once over an item matrix and then serves any number of single-vector
top-k inner-product queries — including dynamically adjusted user vectors,
the recommender-system scenario (FindMe, Xbox) that motivates the paper.

Example
-------
>>> import numpy as np
>>> from repro import FexiproIndex
>>> rng = np.random.default_rng(0)
>>> items = rng.normal(scale=0.3, size=(1000, 32))
>>> index = FexiproIndex(items, variant="F-SIR")
>>> result = index.query(rng.normal(scale=0.3, size=32), k=5)
>>> len(result.ids)
5
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .._validation import (
    as_item_matrix,
    as_item_rows,
    as_query_matrix,
    as_query_vector,
    check_k,
    safe_norm,
    safe_row_norms,
)
from ..exceptions import ValidationError
from .blocked import DEFAULT_BLOCK_SIZE, scan_blocked
from .delta import (
    LiveCatalog,
    catalog_result,
    compacted_live,
    effective_k,
    finish_catalog_above,
    finish_catalog_scan,
)
from .gemm import _C_SAFETY, _EPS
from .options import DEFAULT_SCAN_OPTIONS, ScanOptions
from .reduction import MonotoneQuery, MonotoneReduction
from .scaling import DEFAULT_E, ScaledItems, ScaledQuery
from .scanner import scan_reference
from .stats import RetrievalResult, assemble_result
from .svd import DEFAULT_RHO, SVDTransform, fit_svd, identity_transform
from .variants import DEFAULT_VARIANT, VariantConfig, get_variant

_ENGINES = ("blocked", "reference", "gemm", "auto")


@dataclass
class QueryState:
    """Everything an engine needs about one query, computed once.

    Built by :func:`prepare_query_states` — this corresponds to Lines 2–9
    of Algorithm 4 (transform the query, scale it, compute its norms and
    reduction constants).  The norms only scale bounds, so they carry the
    relative term of :func:`~repro.core.gemm.dot_error_margin`: a row
    parallel to the query can score ulps above the product of the norms.
    """

    q_norm: float
    q_bar: np.ndarray
    q_bar_tail_norm: float
    scaled: Optional[ScaledQuery]
    monotone: Optional[MonotoneQuery]
    #: The raw (untransformed) query vector.  The delta tier of a live
    #: catalog stores raw rows — no SVD basis exists for rows appended
    #: after the build — so its brute-force scan needs the original
    #: query to form exact products (:func:`repro.core.delta.scan_delta`).
    q: Optional[np.ndarray] = None


def prepare_query_states(index: "FexiproIndex",
                         queries: np.ndarray) -> List[QueryState]:
    """Algorithm 4 Lines 2–9 for every row of a query matrix.

    This is the *single* implementation of query-side preparation: the
    single-query path (:meth:`FexiproIndex._prepare_query`) delegates here
    with a one-row matrix, and the batch path
    (:func:`repro.core.batch.batch_retrieve`) and the serving layer
    (:class:`repro.serve.RetrievalService`) pass whole workloads.  Having
    one implementation removes the batch/single divergence bug class
    structurally: there is no second copy of the degenerate-value handling
    (zero blocks, denormal norms) to drift out of sync.

    Every per-row quantity is computed with exactly the code the scalar
    path uses (``safe_norm``, ``transform_query``, ``scale_query``,
    ``for_query``), so a row's :class:`QueryState` is bit-identical no
    matter how many other rows share the call.  BLAS matmuls are *not*
    row-consistent across batch shapes on every substrate, so a batched
    ``(m, d) @ (d, d)`` transform here would silently break the exactness
    contract between ``batch_retrieve`` and ``index.query`` — only the
    validation is batched.

    ``index`` may be either a :class:`FexiproIndex` or a captured
    :class:`~repro.core.delta.LiveCatalog` snapshot; callers that go on
    to scan should prepare against the *same* snapshot they scan, so a
    compaction landing in between cannot mix two SVD bases.
    """
    queries = as_query_matrix(queries, index.d)
    states: List[QueryState] = []
    widen = 1.0 + _C_SAFETY * index.d * _EPS
    for row in queries:
        q_norm = safe_norm(row) * widen
        q_bar = index.transform.transform_query(row)
        q_bar_tail_norm = safe_norm(q_bar[index.w:]) * widen
        scaled = index.scaled.scale_query(q_bar) \
            if index.scaled is not None else None
        monotone = index.reduction.for_query(q_bar) \
            if index.reduction is not None else None
        states.append(QueryState(
            q_norm=q_norm,
            q_bar=q_bar,
            q_bar_tail_norm=q_bar_tail_norm,
            scaled=scaled,
            monotone=monotone,
            q=np.ascontiguousarray(row, dtype=np.float64),
        ))
    return states


class FexiproIndex:
    """Exact top-k inner-product index over an item factor matrix.

    Parameters
    ----------
    items:
        Item matrix with *rows* as item vectors, shape ``(n, d)``.  (The
        paper's ``P`` is the transpose of this.)
    variant:
        One of the paper's configurations: ``"F-S"``, ``"F-I"``, ``"F-SI"``,
        ``"F-SR"`` or ``"F-SIR"`` (default), or a
        :class:`~repro.core.variants.VariantConfig`.
    rho:
        Singular-mass ratio selecting the checking dimension ``w``
        (Section 3; default 0.7).
    e:
        Integer scaling parameter (Section 4.2; default 100).
    engine:
        ``"blocked"`` (vectorized cascade, default), ``"reference"``
        (literal per-vector Algorithm 4/5 — slower, used for
        verification), ``"gemm"`` (BLAS matmul candidate generation with
        exact rescoring — wins when pruning selectivity collapses), or
        ``"auto"`` (per-query cost-based choice between the blocked
        cascade and GEMM via a calibrated
        :class:`repro.analysis.cost_model.CostModel`).  Every
        engine returns bitwise-identical ids and scores; only latency and
        pruning counters differ.
    block_size:
        Items per vectorized block for the blocked engine.

    Attributes
    ----------
    preprocess_time:
        Wall-clock seconds spent in preprocessing (Algorithm 3); the
        quantity reported in brackets in the paper's Tables 4 and 8.
    w:
        The selected checking dimension.
    """

    def __init__(self, items, *, variant: Union[str, VariantConfig] = DEFAULT_VARIANT,
                 rho: float = DEFAULT_RHO, e: float = DEFAULT_E,
                 engine: str = "blocked",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 split_scaling: bool = True):
        if engine not in _ENGINES:
            raise ValidationError(
                f"engine must be one of {_ENGINES}; got {engine!r}"
            )
        if isinstance(variant, VariantConfig):
            self.variant = variant
        else:
            self.variant = get_variant(variant)
        self.engine = engine
        self.block_size = int(block_size)
        self.rho = float(rho)
        self.e = float(e)
        self.split_scaling = bool(split_scaling)

        # Identity token for caches: survives pickling (a re-loaded copy of
        # the *same* saved index keeps its uid, so cache entries stay valid),
        # while an index built from different data gets a different uid.
        self.uid = uuid.uuid4().hex

        # Calibrated engine cost model (repro.analysis.cost_model), fitted
        # lazily on the first "auto" scan or explicitly via calibrate();
        # pickled with the index so saved calibrations survive reload.
        self.cost_model = None

        # Live-catalog locks: mutators (add/remove and the compaction
        # swap) serialize on ``_mutate_lock``; at most one compaction
        # rebuild runs at a time under ``_compact_lock``.  Queries take
        # neither — they capture ``self._live`` once and scan a frozen
        # snapshot.
        self._mutate_lock = threading.Lock()
        self._compact_lock = threading.Lock()

        started = time.perf_counter()
        items = as_item_matrix(items)
        built = self._build_base(
            items, np.arange(items.shape[0], dtype=np.int64))
        self._live = LiveCatalog(
            uid=self.uid, variant=self.variant.name,
            block_size=self.block_size,
            epoch=0, state_version=0,
            order=built["order"], items_sorted=built["items_sorted"],
            norms_sorted=built["norms_sorted"],
            transform=built["transform"], w=built["w"],
            items_bar=built["items_bar"], bar_norms=built["bar_norms"],
            bar_tail_norms=built["bar_tail_norms"],
            scaled=built["scaled"], reduction=built["reduction"],
        )
        self._next_id = items.shape[0]
        self.preprocess_time = time.perf_counter() - started

    def _build_base(self, items: np.ndarray,
                    external_ids: np.ndarray) -> dict:
        """Algorithm 3: full preprocessing over ``items`` (pure builder).

        ``external_ids[i]`` is the id reported in query results for row
        ``i`` of ``items`` — ``arange(n)`` at construction; compaction
        feeds the surviving ids back through so ids stay stable across
        rebuilds.  Returns the preprocessed arrays as a dict (plus
        ``perm``, the sorted-position → input-row permutation the
        compaction swap needs) without touching ``self`` — the caller
        installs the result atomically as a new
        :class:`~repro.core.delta.LiveCatalog` snapshot.
        """
        n, d = items.shape

        # Algorithm 3, Line 2: sort by original length, descending.
        # (Underflow-safe norms: the Cauchy-Schwarz cut must never see a
        # norm rounded down to 0 for a denormal-but-nonzero vector.)
        norms = safe_row_norms(items)
        positions = np.argsort(-norms, kind="stable")
        items_sorted = np.ascontiguousarray(items[positions])

        # Algorithm 3, Line 3: thin SVD (or the energy reorder for F-I).
        if self.variant.use_svd:
            transform: SVDTransform = fit_svd(items_sorted, self.rho)
        else:
            transform = identity_transform(items_sorted, self.rho)
        w = transform.w
        items_bar = transform.items

        # Full transformed-row norms for the GEMM selection margin, and
        # residual norms ||p_bar_h|| for incremental pruning (Eq. 1).
        bar_norms = safe_row_norms(items_bar)
        bar_tail_norms = safe_row_norms(items_bar[:, w:]) \
            if w < d else np.zeros(n)

        # Algorithm 3, Line 8: split scaling + integer approximations.
        scaled: Optional[ScaledItems] = None
        if self.variant.use_integer:
            scaled = ScaledItems(items_bar, w, self.e,
                                 split=self.split_scaling)

        # Algorithm 3, Line 9: monotonicity reduction constants.
        reduction: Optional[MonotoneReduction] = None
        if self.variant.use_reduction:
            reduction = MonotoneReduction(items_bar, transform.sigma, w)

        return {
            "order": external_ids[positions],
            "perm": positions,
            "items_sorted": items_sorted,
            "norms_sorted": np.ascontiguousarray(norms[positions]),
            "transform": transform,
            "w": w,
            "items_bar": items_bar,
            "bar_norms": bar_norms,
            "bar_tail_norms": bar_tail_norms,
            "scaled": scaled,
            "reduction": reduction,
        }

    # ------------------------------------------------------------------
    # Snapshot delegation
    # ------------------------------------------------------------------
    # The index publishes its whole catalog state as one immutable
    # ``LiveCatalog`` reference; these read-only properties keep the
    # historical flat-attribute API working (engines, tests, tooling all
    # read ``index.items_bar`` etc.).  Each property read re-resolves
    # ``self._live``, so *consistent multi-attribute* use must capture
    # the snapshot once (as every query path in this library does).

    @property
    def n(self) -> int:
        """Visible catalog size: base plus delta, minus tombstones."""
        return self._live.visible_count

    @property
    def n_base(self) -> int:
        """Rows in the preprocessed base tier (the engines' scan extent)."""
        return self._live.n

    @property
    def d(self) -> int:
        return self._live.d

    @property
    def order(self) -> np.ndarray:
        return self._live.order

    @property
    def items_sorted(self) -> np.ndarray:
        return self._live.items_sorted

    @property
    def norms_sorted(self) -> np.ndarray:
        return self._live.norms_sorted

    @property
    def transform(self):
        return self._live.transform

    @property
    def w(self) -> int:
        return self._live.w

    @property
    def items_bar(self) -> np.ndarray:
        return self._live.items_bar

    @property
    def bar_norms(self) -> np.ndarray:
        return self._live.bar_norms

    @property
    def bar_tail_norms(self) -> np.ndarray:
        return self._live.bar_tail_norms

    @property
    def scaled(self) -> Optional[ScaledItems]:
        return self._live.scaled

    @property
    def reduction(self) -> Optional[MonotoneReduction]:
        return self._live.reduction

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------

    def query(self, query, k: int = 10, *,
              options: Optional[ScanOptions] = None,
              engine: Optional[str] = None) -> RetrievalResult:
        """Retrieve the exact top-k items by inner product for one query.

        Returns a :class:`~repro.core.stats.RetrievalResult` whose ``ids``
        are row indices into the *original* item matrix, sorted by
        descending score, with pruning statistics and elapsed time attached.
        ``options`` (a :class:`~repro.core.options.ScanOptions`) threads
        per-call behaviour — deadline, warm-start threshold, timings, span
        — to the engine; the default runs a plain cold scan.  ``engine``
        overrides the scan engine for this call only (``"reference"``,
        ``"blocked"``, ``"gemm"`` or ``"auto"``); results are bitwise
        identical across engines.
        """
        snap = self._live
        q = as_query_vector(query, snap.d)
        k = check_k(k, snap.visible_count)
        started = time.perf_counter()
        if k == 0:
            # Every item tombstoned: a well-formed empty result (the
            # live-catalog analogue of querying an empty corpus).
            return _empty_result(started, budgeted=options is not None
                                 and options.budget is not None)
        qs = self._prepare_query(q, snapshot=snap)
        buffer, stats = self._scan(qs, k, options=options, snapshot=snap,
                                   engine=engine)
        elapsed = time.perf_counter() - started
        return catalog_result(snap, qs.q_norm, *buffer.items_and_scores(),
                              stats, elapsed, budgeted=options is not None
                              and options.budget is not None)

    def explain(self, query, k: int = 10, *, tracer=None,
                options: Optional[ScanOptions] = None):
        """Run one query with full instrumentation and account for it.

        Returns a :class:`repro.obs.QueryExplanation`: per-pruning-rule
        candidate counts (entering/pruned/surviving each stage of the
        Algorithm 4/5 cascade), per-stage wall time, the threshold
        trajectory, and the raw spans.  See :func:`repro.obs.explain_query`.
        """
        from ..obs.explain import explain_query

        return explain_query(self, query, k, tracer=tracer, options=options)

    def batch_query(self, queries, k: int = 10) -> List[RetrievalResult]:
        """Answer each row of a query matrix independently.

        Same ids, scores and counters as :meth:`query` per row, through
        :func:`repro.core.batch.batch_retrieve`: one validation (NaN or
        infinite rows fail before any work), one preparation and one
        catalog snapshot for the whole matrix.
        """
        from .batch import batch_retrieve

        return batch_retrieve(self, queries, k)

    def query_above(self, query, threshold: float) -> RetrievalResult:
        """Retrieve *all* items with ``q . p > threshold`` (above-t).

        This is LEMP's original problem formulation, which the paper lists
        as future work for the FEXIPRO techniques.  The same pruning
        cascade applies; with a fixed threshold it runs fully vectorized.
        Results are sorted by descending score.  Scores are the same
        floats :meth:`query` returns (one row-stable formula,
        :func:`~repro.core.score.exact_scores`), so a threshold just below
        the k-th score of ``query(q, k)`` returns exactly its items (and
        any item tied with the k-th).
        """
        from .above import scan_above

        snap = self._live
        q = as_query_vector(query, snap.d)
        started = time.perf_counter()
        qs = self._prepare_query(q, snapshot=snap)
        positions, scores, stats = scan_above(snap, qs, float(threshold))
        if not snap.clean:
            positions, scores = finish_catalog_above(
                snap, qs, positions, scores, stats, float(threshold))
        elapsed = time.perf_counter() - started
        return assemble_result(snap.full_order, positions, scores, stats,
                               elapsed)

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------

    def add_items(self, new_items) -> List[int]:
        """Add item vectors to the live catalog; returns their assigned ids.

        Accepts a ``(n, d)`` matrix or a single 1-D vector (one row),
        mirroring the query-side ergonomics.
        New ids continue from the construction count (and past removals),
        so existing ids never change.  Writes land in the mutable delta
        tier — an ``O(delta)`` array append, never a rebuild — and become
        visible to the next query atomically.  Delta rows are scanned
        brute-force (exact by construction) until a :meth:`compact`
        folds them into the preprocessed base tier.
        """
        rows = as_item_rows(new_items, name="new_items")
        if rows.shape[1] != self.d:
            raise ValidationError(
                f"new items have {rows.shape[1]} dims, index has {self.d}"
            )
        with self._mutate_lock:
            ids = list(range(self._next_id, self._next_id + rows.shape[0]))
            self._next_id += rows.shape[0]
            self._live = self._live.with_appended(
                rows, np.asarray(ids, dtype=np.int64))
        return ids

    def remove_items(self, ids) -> int:
        """Remove items by id; returns how many were actually removed.

        Unknown (or already-removed) ids are ignored, making deletes
        idempotent.  Removal writes a tombstone mask over the base and
        delta tiers — ``O(catalog)`` mask work, no rebuild — and the next
        :meth:`compact` reclaims the space.  Removing every item is
        legal: the catalog is then empty and queries return well-formed
        empty results until new items arrive.
        """
        with self._mutate_lock:
            live, removed = self._live.with_tombstones(ids)
            if removed:
                self._live = live
        return removed

    def compact(self) -> bool:
        """Fold the delta tier and tombstones back into the base tier.

        Re-runs Algorithm 3 preprocessing over the currently visible
        rows *outside* the mutation lock (writes keep landing while the
        rebuild runs), then atomically swaps in the new snapshot —
        replaying, positionally, any adds/removes that raced the rebuild
        into the fresh delta tier.  Queries in flight keep their old
        snapshot; new queries see the compacted catalog.  The visible
        catalog is unchanged by construction, but the new SVD basis
        rounds scores differently, so ``state_version`` bumps like on any
        write: no cached answer or threshold crosses the fold.  The cost
        model survives: its rates and fractions do not depend on the
        basis.

        Returns ``True`` if a compaction ran, ``False`` if there was
        nothing to compact (clean catalog, or every item tombstoned —
        an empty corpus has no base to rebuild).  Thread-safe; at most
        one compaction runs at a time.
        """
        with self._compact_lock:
            live0 = self._live
            if live0.clean or live0.visible_count == 0:
                return False
            rows, ids, sources = live0.visible_rows()
            built = self._build_base(rows, ids)
            with self._mutate_lock:
                self._live = compacted_live(live0, self._live, built,
                                            sources)
        return True

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path, *, format: Optional[int] = None) -> None:
        """Persist the preprocessed index to ``path`` (checksummed pickle).

        Recommender deployments preprocess offline and serve online; this
        avoids re-running the thin SVD / scaling / reduction at start-up.
        The file carries a SHA-256 checksum of the serialized payload
        (format 2, :mod:`repro.core.persist`), so corruption fails loudly
        at load time.  ``format=3`` writes the mmap-friendly layout
        instead (page-aligned raw array segments after the metadata
        pickle) — same checksum guarantees via :meth:`load`, plus O(meta)
        zero-copy attach via :func:`repro.core.persist.attach_mmap` for
        scan worker processes.  Only load files you trust — pickle
        executes code on load.
        """
        from .persist import FORMAT_VERSION, save_checksummed

        save_checksummed(path, "FexiproIndex", self,
                         format=FORMAT_VERSION if format is None else format)

    @classmethod
    def load(cls, path) -> "FexiproIndex":
        """Load an index previously stored with :meth:`save`.

        Verifies the embedded checksum first and raises
        :class:`~repro.exceptions.IndexIntegrityError` (naming the path)
        for truncated, bit-flipped or undecodable files, and
        :class:`~repro.exceptions.ValidationError` for a file that is not
        a saved index or holds one too old to load (rebuild it).
        """
        from .persist import load_checksummed

        return load_checksummed(path, "FexiproIndex", cls)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _prepare_query(self, q: np.ndarray, *,
                       snapshot: Optional[LiveCatalog] = None) -> QueryState:
        """Lines 2–9 of Algorithm 4, via the shared batch implementation.

        Delegates to :func:`prepare_query_states` with a one-row matrix so
        single-query and batch preparation can never diverge.  Pass the
        ``snapshot`` the caller intends to scan so preparation and scan
        share one SVD basis even if a compaction lands in between.
        """
        target = self._live if snapshot is None else snapshot
        return prepare_query_states(target, q.reshape(1, -1))[0]

    def calibrate(self, **kwargs):
        """Run the cost-model measurement pass now and attach the result.

        Fits per-engine seconds-per-coordinate rates and observed cascade
        selectivity from a handful of deadline-capped sample scans (see
        :func:`repro.analysis.cost_model.calibrate_cost_model`).  The
        model rides along in :meth:`save`, so serving processes load a
        pre-calibrated index; ``engine="auto"`` scans keep re-fitting it
        online from their own observations.  Returns the fitted
        :class:`~repro.analysis.cost_model.CostModel`.
        """
        from ..analysis.cost_model import calibrate_cost_model

        self.cost_model = calibrate_cost_model(self, **kwargs)
        return self.cost_model

    def plan_engine(self, engines=None):
        """Cost-model choice of concrete engine (the ``"auto"`` resolver).

        Ensures a calibrated model exists (a lazy measurement pass on
        first use; writes and compactions keep it) and returns
        ``(engine, predictions)`` with the predicted per-query seconds
        over the current snapshot for every candidate engine.
        """
        from ..analysis.cost_model import ensure_cost_model

        model = ensure_cost_model(self)
        return model.choose(engines, n=self._live.n)

    def _scan(self, qs: QueryState, k: int, *,
              options: Optional[ScanOptions] = None,
              engine: Optional[str] = None,
              snapshot: Optional[LiveCatalog] = None):
        """Dispatch one prepared query to the configured engine.

        Per-call behaviour (timings, deadline, budget, warm-start
        threshold, span) rides in ``options``.
        ``options.initial_threshold`` warm-starts the live pruning
        threshold; it MUST be a *strict* lower bound on this query's true
        k-th inner product (see :mod:`repro.core.reverse` for how such
        bounds are obtained soundly).  The default ``-inf`` is the cold
        scan.

        ``engine`` overrides the index's configured engine for this call
        (the serving planner's per-batch dispatch); ``"auto"`` — as an
        override or as the configured engine — resolves through
        :meth:`plan_engine` and feeds the scan's observed cost back into
        the model.  Results are engine-independent (bitwise), so the
        override can never change an answer.

        ``snapshot`` pins the :class:`~repro.core.delta.LiveCatalog` to
        scan (defaults to the current one).  On a clean snapshot this is
        exactly the historical base-tier scan; with pending mutations the
        base engine runs at the inflated capacity
        :func:`~repro.core.delta.effective_k`, the delta tier is scanned
        brute-force into the same buffer, and tombstones are masked out
        — see DESIGN §2.14 for the exactness argument.
        """
        opts = DEFAULT_SCAN_OPTIONS if options is None else options
        snap = self._live if snapshot is None else snapshot
        engine = self.engine if engine is None else engine
        if engine not in _ENGINES:
            raise ValidationError(
                f"engine must be one of {_ENGINES}; got {engine!r}"
            )
        if engine == "auto":
            engine, __ = self.plan_engine()
            tick = time.perf_counter()
            buffer, stats = self._scan(qs, k, options=opts, engine=engine,
                                       snapshot=snap)
            self.cost_model.observe(engine, stats,
                                    time.perf_counter() - tick)
            return buffer, stats
        k_eff = effective_k(snap, k)
        if engine == "reference":
            buffer, stats = scan_reference(snap, qs, k_eff, options=opts)
        elif engine == "gemm":
            from .gemm import scan_gemm

            buffer, stats = scan_gemm(snap, qs, k_eff, options=opts)
        else:
            buffer, stats = scan_blocked(snap, qs, k_eff, self.block_size,
                                         options=opts)
        if snap.clean:
            return buffer, stats
        return finish_catalog_scan(snap, qs, k, buffer, stats, opts)

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __getstate__(self):
        state = self.__dict__.copy()
        # Locks are process-local; a loaded/replicated index gets fresh
        # ones.  Everything else — including the whole ``_live``
        # snapshot, delta tier and tombstones — rides along.
        state.pop("_mutate_lock", None)
        state.pop("_compact_lock", None)
        return state

    def __setstate__(self, state):
        if (not hasattr(state.get("_live"), "bar_norms")
                or "integer_storage_dtype" in state):
            raise ValidationError(
                "this saved index predates the current snapshot layout "
                "(GEMM row norms, one float64 copy of the integer parts); "
                "rebuild it from the item matrix and save it again"
            )
        self.__dict__.update(state)
        self._mutate_lock = threading.Lock()
        self._compact_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FexiproIndex(variant={self.variant.name!r}, n={self.n}, "
            f"d={self.d}, w={self.w}, engine={self.engine!r})"
        )


def _empty_result(started: float, *, budgeted: bool) -> RetrievalResult:
    """A well-formed empty answer for an empty visible catalog."""
    bounds = None
    if budgeted:
        from .budget import ResultBounds

        bounds = ResultBounds(lower=(), tail_upper=float("-inf"))
    return RetrievalResult(elapsed=time.perf_counter() - started,
                           bounds=bounds)


def topk_exact(items, query, k: int,
               variant: Union[str, VariantConfig] = DEFAULT_VARIANT,
               ) -> RetrievalResult:
    """One-shot convenience wrapper: build an index and answer one query.

    For repeated queries build a :class:`FexiproIndex` once instead — the
    preprocessing (sorting, thin SVD, scaling, reduction) is amortized over
    all queries, exactly as the paper intends.
    """
    index = FexiproIndex(items, variant=variant)
    return index.query(query, k)
