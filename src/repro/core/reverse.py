"""Reverse MIPS: which users would put item ``p`` in their exact top-k?

FEXIPRO answers the forward question ("which items does user ``u``
want"); this module answers the advertiser-side *reverse* question
("Reverse Maximum Inner Product Search", Amagata & Hara): given a probe
item ``p`` from the catalog, find every user whose exact forward top-k
would contain ``p`` — the "who do I notify about this item" audience.

The machinery is FEXIPRO's own bound, pointed the other way.  Item ``p``
enters user ``u``'s top-k iff ``q_u . p`` ranks among ``u``'s ``k`` best
inner products, so any *lower bound* ``L_u`` on ``u``'s k-th score is a
sound pruning threshold: ``q_u . p < L_u`` proves ``p`` out.  The
:class:`ReverseIndex` keeps a per-user k-th-score bound table with two
tiers:

- **exact** thresholds — the k-th score of a previously computed forward
  result for ``q_u`` (from this index's own verifications, or from the
  serving layer's :class:`~repro.serve.cache.QueryCache`), bound to the
  item snapshot's ``(uid, state_version)`` token exactly like cache
  entries.  An exact threshold prunes *and* admits: ``q_u . p`` strictly
  above the true k-th score proves membership with no scan at all.
- **length-sort** fallbacks — the smallest of ``u``'s scores against the
  ``k`` largest-norm visible items.  Any ``k`` achievable scores
  lower-bound the k-th best; taking the items FEXIPRO's length-sorted
  scan visits first makes the bound tight for the same reason the scan
  terminates early.

The scan itself is a three-rule cascade mirroring the forward engines:
a Cauchy–Schwarz norm-product prescreen, a vectorized dot-product test
against the bound table, then exact **verification** of the survivors by
a real forward top-k query — warm-started with the bound, pinned to one
catalog snapshot, and composed with the existing planner
(``engine="auto"``), FLOP budgets and deadlines.

Floating-point soundness: the vectorized prescreens compute scores with
BLAS GEMV/GEMM, whose rounding may differ by a few ulps from the scalar
products the forward engines produce.  Every prescreen comparison
therefore carries an explicit error margin (:func:`score_margin`, a
generous multiple of the classic ``d * eps * |q| * |p|`` inner-product
error bound); decisions inside the uncertainty band fall through to
verification, which is bitwise-exact by construction.  This is what
makes the audience *provably identical* to the brute-force oracle (run
the forward top-k for every user, keep the users whose top-k contains
``p``) — see ``tests/test_reverse.py`` and DESIGN §2.15.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .. import _faultsites
from .._validation import check_k, safe_norm, safe_row_norms
from ..exceptions import QueryError, ValidationError
from .delta import LiveCatalog
from .driver import raise_if_truncated
from .gemm import _C_SAFETY, _ETA
from .index import FexiproIndex, prepare_query_states
from .options import ScanOptions
from .sharded import ShardedFexiproIndex
from .stats import PruningStats

__all__ = [
    "CampaignResponse",
    "ReverseIndex",
    "ReverseResult",
    "ReverseStats",
    "campaign_scan",
    "score_margin",
]

#: Headroom multiplier over the first-order inner-product rounding bound
#: ``d * eps * |q| * |p|``.  64x covers the GEMV-vs-scalar-dot spread,
#: the norm computations on both sides and the bound's own rounding with
#: orders of magnitude to spare, while remaining ~1e-12 relative — far
#: too small to cost measurable pruning power.
_MARGIN_HEADROOM = 64.0

_EPS = float(np.finfo(np.float64).eps)


def score_margin(d: int, norm_products: np.ndarray) -> np.ndarray:
    """A sound cap on |vectorized score - engine score| for dot products.

    ``norm_products`` is ``|q_u| * |p|`` per comparison (any upper bound
    works).  Both the BLAS-computed value and the engines' scalar value
    lie within the classic ``gamma_d``-style bound of the real product,
    so their spread is within twice it; :data:`_MARGIN_HEADROOM` buys the
    rest.  The relative term underflows to 0 for denormal-range
    products, where each rounding can still be off by a smallest
    denormal, so the absolute underflow allowance of
    :func:`~repro.core.gemm.dot_error_margin` is added; it is far below
    one ulp of any normal-range margin.  Comparisons decided outside
    this margin transfer soundly to the engines' floats; anything inside
    it must be verified exactly.
    """
    return _MARGIN_HEADROOM * d * _EPS * np.abs(norm_products) \
        + (_C_SAFETY * d) * _ETA


@dataclass
class ReverseStats:
    """Per-rule account of one reverse scan (the forward-stats analogue).

    The rules partition the user sweep: every visible user is either
    pruned by the Cauchy–Schwarz norm product (``pruned_cauchy_schwarz``),
    pruned by its bound-table threshold (``pruned_bound_table``), admitted
    outright by an exact cached threshold (``admitted_cached``), or
    verified by a forward top-k scan (``verified`` =
    ``verified_admitted + verified_rejected``).  ``bounds_exact`` /
    ``bounds_length_sort`` record where each user's threshold came from
    (``cache_bound_hits`` counts exact thresholds served by the query
    cache), and ``forward`` sums the pruning counters of every
    verification scan performed.
    """

    n_users: int = 0
    pruned_cauchy_schwarz: int = 0
    pruned_bound_table: int = 0
    admitted_cached: int = 0
    verified: int = 0
    verified_admitted: int = 0
    verified_rejected: int = 0
    bounds_exact: int = 0
    bounds_length_sort: int = 0
    cache_bound_hits: int = 0
    forward: PruningStats = field(default_factory=PruningStats)

    @property
    def audience(self) -> int:
        """Users whose top-k provably contains the probe."""
        return self.admitted_cached + self.verified_admitted

    @property
    def pruned_total(self) -> int:
        """Users eliminated without a forward scan."""
        return self.pruned_cauchy_schwarz + self.pruned_bound_table

    @property
    def pruned_fraction(self) -> float:
        """Fraction of the user sweep that never needed verification."""
        if self.n_users == 0:
            return 0.0
        return (self.n_users - self.verified) / self.n_users

    def merge(self, other: "ReverseStats") -> None:
        """Accumulate another scan's counters into this one (for batches)."""
        self.n_users += other.n_users
        self.pruned_cauchy_schwarz += other.pruned_cauchy_schwarz
        self.pruned_bound_table += other.pruned_bound_table
        self.admitted_cached += other.admitted_cached
        self.verified += other.verified
        self.verified_admitted += other.verified_admitted
        self.verified_rejected += other.verified_rejected
        self.bounds_exact += other.bounds_exact
        self.bounds_length_sort += other.bounds_length_sort
        self.cache_bound_hits += other.cache_bound_hits
        self.forward.merge(other.forward)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict of every counter (forward counters nested)."""
        out = {
            "n_users": self.n_users,
            "pruned_cauchy_schwarz": self.pruned_cauchy_schwarz,
            "pruned_bound_table": self.pruned_bound_table,
            "admitted_cached": self.admitted_cached,
            "verified": self.verified,
            "verified_admitted": self.verified_admitted,
            "verified_rejected": self.verified_rejected,
            "bounds_exact": self.bounds_exact,
            "bounds_length_sort": self.bounds_length_sort,
            "cache_bound_hits": self.cache_bound_hits,
        }
        out["forward"] = self.forward.as_dict()
        return out


@dataclass
class ReverseResult:
    """The exact audience of one probe item.

    ``user_ids`` (ascending) are every visible user whose exact forward
    top-k contains ``item``; ``kth_scores`` aligns with them and carries
    the exact k-th score that admitted each user — the forward engines'
    own float for that user's k-th best inner product (the *lowest*
    score when the visible catalog holds fewer than ``k`` items, in
    which case every item is trivially in every top-k).  The
    ``state_version`` fields pin which snapshots the audience is exact
    against; a consumer comparing them to the current index versions can
    tell a fresh audience from one computed before a racing mutation or
    compaction landed — a stale audience is therefore detectable, never
    silent.
    """

    item: int
    user_ids: List[int]
    kth_scores: List[float]
    stats: ReverseStats
    elapsed: float
    item_state_version: int
    user_state_version: int

    @property
    def audience_size(self) -> int:
        """How many users the probe item reaches."""
        return len(self.user_ids)

    def __len__(self) -> int:
        return len(self.user_ids)


@dataclass
class CampaignResponse:
    """Everything known about one served campaign (the reverse
    :class:`~repro.serve.service.BatchResponse`).

    ``results`` are in probe order; a failed probe's slot is ``None``
    with a structured :class:`~repro.exceptions.QueryError` in
    ``errors`` (same fault-isolation contract as forward batches).
    ``stats`` is the exact sum of the per-probe reverse counters,
    ``mode`` records the execution axis (``"reverse/inter"``, suffixed
    with the engine when one was pinned), and ``provenance`` — aligned
    with ``results`` — tags each probe ``"warm"`` when any exact
    bound-table threshold helped it or ``"cold"`` for a pure
    length-sort-bound scan.
    """

    results: List[Optional[ReverseResult]] = field(default_factory=list)
    stats: ReverseStats = field(default_factory=ReverseStats)
    elapsed: float = 0.0
    mode: str = "reverse/inter"
    errors: List[QueryError] = field(default_factory=list)
    provenance: Optional[List[str]] = None
    planner: Optional[dict] = None

    def __len__(self) -> int:
        return len(self.results)

    @property
    def throughput(self) -> float:
        """Probes answered per wall-clock second."""
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def audience_sizes(self) -> List[Optional[int]]:
        """Per-probe audience size, ``None`` for failed slots."""
        return [None if r is None else r.audience_size
                for r in self.results]

    @property
    def complete(self) -> bool:
        """Whether every probe produced its exact audience."""
        return not self.errors

    @property
    def warm_probes(self) -> int:
        """Probes that used at least one exact bound-table threshold."""
        return self.provenance.count("warm") if self.provenance else 0


class _BoundTable:
    """Exact k-th-score thresholds for one ``k``, token-bound.

    ``exact`` maps user external id -> the forward engines' k-th score
    for that user, valid only while the item snapshot's
    ``(uid, state_version)`` token matches — the same binding the query
    cache uses.  Adds can raise the true k-th score, removes can lower
    it, and a compaction refits the basis the scores are rounded in, so
    no entry survives any of them.
    """

    __slots__ = ("k", "token", "exact")

    def __init__(self, k: int):
        self.k = k
        self.token: Optional[Tuple[str, int]] = None
        self.exact: Dict[int, float] = {}

    def validate(self, token: Tuple[str, int]) -> None:
        if token != self.token:
            self.exact.clear()
            self.token = token


def _probe_vector(snap: LiveCatalog, item: int) -> np.ndarray:
    """The visible catalog row for external id ``item`` (or raise)."""
    pos = np.flatnonzero(snap.order == item)
    if pos.size:
        p = int(pos[0])
        if not snap.base_dead[p]:
            return snap.items_sorted[p]
    dpos = np.flatnonzero(snap.delta_ids == item)
    if dpos.size:
        p = int(dpos[-1])
        if not snap.delta_dead[p]:
            return snap.delta_items[p]
    raise ValidationError(
        f"item {item} is not in the visible catalog; reverse queries "
        f"probe an existing catalog item by id (add_items returns ids)"
    )


def _top_norm_rows(snap: LiveCatalog, count: int) -> np.ndarray:
    """Up to ``count`` visible rows with the largest norms.

    Base rows are already length-sorted descending, so the first
    ``count`` alive base positions are the base candidates; the delta
    tier is small and merged by brute force.  Returns fewer rows when
    the visible catalog is smaller than ``count``.
    """
    alive = np.flatnonzero(~snap.base_dead)[:count]
    cand_rows = [snap.items_sorted[alive]]
    cand_norms = [snap.norms_sorted[alive]]
    if snap.delta_alive_count:
        take = snap.delta_alive_idx[
            np.argsort(-snap.delta_norms[snap.delta_alive_idx],
                       kind="stable")[:count]]
        cand_rows.append(snap.delta_items[take])
        cand_norms.append(snap.delta_norms[take])
    rows = np.concatenate(cand_rows)
    norms = np.concatenate(cand_norms)
    top = np.argsort(-norms, kind="stable")[:count]
    return np.ascontiguousarray(rows[top])


class ReverseIndex:
    """Exact reverse-MIPS index over a (user corpus, item corpus) pair.

    Parameters
    ----------
    forward:
        The item-side index — a preprocessed
        :class:`~repro.core.index.FexiproIndex` or
        :class:`~repro.core.sharded.ShardedFexiproIndex` — whose catalog
        probe items come from and whose engines run the verification
        scans.  The reverse index only reads it; live-catalog mutations
        on the forward index compose (every reverse scan pins one
        snapshot).
    users:
        The user corpus: a ``(m, d)`` matrix of user factor vectors, or
        an already built :class:`FexiproIndex` over one.  Built indexes
        share the live-catalog machinery, so :meth:`add_users` /
        :meth:`remove_users` are ``O(delta)`` and race-safe exactly like
        item mutations.
    cache:
        An optional :class:`~repro.serve.cache.QueryCache` consulted for
        exact per-user forward results (serving deployments pass the
        service cache): a hit is an exact k-th-score threshold *and* a
        free verification.
    user_index_options:
        Extra keyword arguments for building the user-side
        :class:`FexiproIndex` when ``users`` is a raw matrix.
    """

    def __init__(self, forward: Union[FexiproIndex, ShardedFexiproIndex],
                 users, *, cache=None, **user_index_options):
        if isinstance(forward, ShardedFexiproIndex):
            self.forward: Union[FexiproIndex, ShardedFexiproIndex] = forward
            self._inner: FexiproIndex = forward.index
        elif isinstance(forward, FexiproIndex):
            self.forward = forward
            self._inner = forward
        else:
            raise ValidationError(
                f"forward must be a FexiproIndex or ShardedFexiproIndex; "
                f"got {type(forward).__name__}"
            )
        if isinstance(users, FexiproIndex):
            if user_index_options:
                raise ValidationError(
                    "user index options only apply when building from a "
                    "user matrix"
                )
            self.users: FexiproIndex = users
        else:
            self.users = FexiproIndex(users, **user_index_options)
        if self.users.d != self._inner.d:
            raise ValidationError(
                f"user vectors have {self.users.d} dims, item index has "
                f"{self._inner.d}"
            )
        self.cache = cache
        self._lock = threading.Lock()
        self._tables: Dict[int, _BoundTable] = {}
        self._rows_key: Optional[Tuple[str, int]] = None
        self._rows_val: Optional[Tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = None
        self._length_key: Optional[Tuple] = None
        self._length_val: Optional[np.ndarray] = None

    # -- corpus introspection / mutation -------------------------------

    @property
    def n_users(self) -> int:
        """Visible users in the corpus."""
        return self.users._live.visible_count

    @property
    def d(self) -> int:
        """Factor dimensionality (shared by both corpora)."""
        return self.users.d

    def add_users(self, rows) -> List[int]:
        """Append user vectors; returns their assigned ids (O(delta))."""
        return self.users.add_items(rows)

    def remove_users(self, ids) -> int:
        """Tombstone users by id; returns how many were removed."""
        return self.users.remove_items(ids)

    def pin(self) -> Tuple[LiveCatalog, LiveCatalog]:
        """Capture one consistent ``(item, user)`` snapshot pair.

        A campaign pins once and passes the pair to every probe, so
        racing catalog mutations on either corpus cannot tear the
        audience mid-batch — the snapshot-consistency contract tested by
        the mutation-chaos lane.
        """
        return self._inner._live, self.users._live

    # -- internals -----------------------------------------------------

    def _user_rows(self, usnap: LiveCatalog):
        """Visible user rows, ids and norms — cached per snapshot."""
        key = usnap.token
        with self._lock:
            if self._rows_key == key:
                return self._rows_val
        if usnap.visible_count == 0:
            val = (np.empty((0, usnap.d)), np.empty(0, dtype=np.int64),
                   np.empty(0))
        else:
            rows, uids, __ = usnap.visible_rows()
            val = (np.ascontiguousarray(rows), uids, safe_row_norms(rows))
        with self._lock:
            self._rows_key, self._rows_val = key, val
        return val

    def _length_bounds(self, fsnap: LiveCatalog, usnap: LiveCatalog,
                       rows: np.ndarray, norms: np.ndarray,
                       k: int) -> np.ndarray:
        """Length-sort lower bounds on every user's k-th score.

        The k-th largest of a user's scores against a candidate pool of
        the largest-norm visible items lower-bounds the k-th best over
        the whole catalog: the pool's scores are all achievable, and
        adding items can only push the k-th best up.  Pooling a few
        multiples of ``k`` (the items FEXIPRO's length-sorted scan
        visits first) keeps the bound tight even when high-norm items
        score negatively for a user.  Computed as one ``(m, |pool|)``
        GEMM per (catalog, corpus, k) state and cached; the float-error
        margin is subtracted here so downstream comparisons against
        engine-computed floats stay sound.
        """
        key = (k, fsnap.token, usnap.token)
        with self._lock:
            if self._length_key == key:
                return self._length_val
        pool = min(int(fsnap.visible_count), max(4 * k, 64))
        top = _top_norm_rows(fsnap, pool)
        if top.shape[0] < k:
            # Fewer than k visible items: every item is in every top-k
            # and no finite lower bound exists.
            bounds = np.full(rows.shape[0], -math.inf)
        else:
            scores = rows @ top.T
            kth = -np.partition(-scores, k - 1, axis=1)[:, k - 1]
            top_norm = float(safe_row_norms(top).max()) if top.size else 0.0
            margin = score_margin(fsnap.d, norms * top_norm)
            bounds = kth - margin
        with self._lock:
            self._length_key, self._length_val = key, bounds
        return bounds

    def _verify(self, fsnap: LiveCatalog, qs, q_row: np.ndarray, k: int,
                item: int, seed: float, options: ScanOptions,
                engine: Optional[str], stats: ReverseStats):
        """Run one exact forward top-k for a survivor user.

        Returns ``(admitted, kth_score)``.  A query-cache hit — the
        user's answer cached at this ``k`` or a larger one, served as its
        first ``k`` items — answers without a scan.  Otherwise the scan is
        warm-started with the user's bound (a strict lower bound on the
        true k-th score, so results stay bitwise identical to a cold
        scan), pinned to the campaign's item snapshot, and budget/deadline
        truncation raises rather than ever returning an uncertain
        membership.
        """
        if self.cache is not None:
            hit = self.cache.lookup(fsnap, q_row, k)
            if hit.kind == "hit":
                # A hit did no pruning work; replaying its cached
                # counters would double-count (same rule as serving).
                stats.cache_bound_hits += 1
                return item in hit.result.ids, float(hit.result.scores[-1])
        opts = options.replace(initial_threshold=seed) \
            if seed > -math.inf else options
        buffer, fstats = self._inner._scan(qs, k, options=opts,
                                           snapshot=fsnap, engine=engine)
        raise_if_truncated(fstats, "reverse verification scan")
        stats.forward.merge(fstats)
        positions, scores = buffer.items_and_scores()
        ids = [int(fsnap.full_order[p]) for p in positions]
        kth = float(scores[-1]) if len(scores) < k else float(scores[k - 1])
        return item in ids, kth

    # -- the reverse scan ----------------------------------------------

    def reverse_query(self, item, k: int = 10, *,
                      options: Optional[ScanOptions] = None,
                      engine: Optional[str] = None,
                      span=None,
                      snapshots: Optional[Tuple[LiveCatalog,
                                                LiveCatalog]] = None
                      ) -> ReverseResult:
        """The exact audience of catalog item ``item`` at depth ``k``.

        ``options`` rides into every verification scan (deadline and
        FLOP budget compose exactly as on forward queries — a truncated
        verification raises rather than guessing); ``engine`` overrides
        the per-scan engine (``"auto"`` routes through the calibrated
        planner); ``snapshots`` pins a previously captured
        :meth:`pin` pair (campaigns pass one pair for every probe).
        """
        started = time.perf_counter()
        fsnap, usnap = snapshots if snapshots is not None else self.pin()
        item = self._check_item(item)
        p = _probe_vector(fsnap, item)
        k = check_k(k, fsnap.visible_count)
        options = options if options is not None else ScanOptions()
        rows, uids, norms = self._user_rows(usnap)
        m = rows.shape[0]
        stats = ReverseStats(n_users=m)
        if m == 0:
            return ReverseResult(
                item=item, user_ids=[], kth_scores=[], stats=stats,
                elapsed=time.perf_counter() - started,
                item_state_version=fsnap.state_version,
                user_state_version=usnap.state_version)

        token = fsnap.token
        with self._lock:
            table = self._tables.setdefault(k, _BoundTable(k))
            table.validate(token)
            exact = np.fromiter(
                (table.exact.get(int(u), math.nan) for u in uids),
                dtype=np.float64, count=m)
        has_exact = ~np.isnan(exact)
        bounds = self._length_bounds(fsnap, usnap, rows, norms, k)
        lower = np.where(has_exact, exact, bounds)
        stats.bounds_exact = int(has_exact.sum())
        stats.bounds_length_sort = m - stats.bounds_exact

        # Rule 1 — Cauchy–Schwarz: |q_u||p| (plus margin) below the
        # user's threshold proves q_u . p can never reach the top-k.
        p_norm = safe_norm(p)
        cap = norms * p_norm
        margin = score_margin(fsnap.d, cap)
        alive = (cap + margin) >= lower
        stats.pruned_cauchy_schwarz = int(m - alive.sum())

        # Rule 2 — bound table: the actual dot against the threshold.
        idx = np.flatnonzero(alive)
        scores = rows[idx] @ p
        m2 = margin[idx]
        keep = (scores + m2) >= lower[idx]
        stats.pruned_bound_table = int(keep.size - keep.sum())
        idx, scores, m2 = idx[keep], scores[keep], m2[keep]

        # Rule 3 — exact thresholds admit without a scan: a score
        # strictly above the true k-th (outside the float margin) proves
        # membership; anything inside the margin — including the common
        # boundary case where the probe *is* the user's k-th item — is
        # verified by a real forward scan.
        admitted_ids: List[int] = []
        admitted_kth: List[float] = []
        verify_list: List[int] = []
        for j, s, mg in zip(idx, scores, m2):
            if has_exact[j] and s - mg > exact[j]:
                stats.admitted_cached += 1
                admitted_ids.append(int(uids[j]))
                admitted_kth.append(float(exact[j]))
            else:
                verify_list.append(int(j))

        if span is not None:
            span.event("reverse.bounds", users=m,
                       exact=stats.bounds_exact,
                       cauchy_schwarz_pruned=stats.pruned_cauchy_schwarz,
                       bound_table_pruned=stats.pruned_bound_table,
                       cached_admits=stats.admitted_cached,
                       to_verify=len(verify_list))

        if verify_list:
            states = prepare_query_states(fsnap, rows[verify_list])
            for j, qs in zip(verify_list, states):
                uid = int(uids[j])
                seed = math.nextafter(lower[j], -math.inf) \
                    if lower[j] > -math.inf else -math.inf
                admitted, kth = self._verify(
                    fsnap, qs, rows[j], k, item, seed, options, engine,
                    stats)
                stats.verified += 1
                if admitted:
                    stats.verified_admitted += 1
                    admitted_ids.append(uid)
                    admitted_kth.append(kth)
                else:
                    stats.verified_rejected += 1
                # Record the now-exact threshold for later probes — but
                # only while the table is still bound to *this* scan's
                # snapshot; a probe pinned to an older catalog must not
                # poison a table that moved on.
                with self._lock:
                    if table.token == token:
                        table.exact[uid] = kth

        order = np.argsort(admitted_ids, kind="stable")
        result = ReverseResult(
            item=item,
            user_ids=[admitted_ids[i] for i in order],
            kth_scores=[admitted_kth[i] for i in order],
            stats=stats,
            elapsed=time.perf_counter() - started,
            item_state_version=fsnap.state_version,
            user_state_version=usnap.state_version)
        if span is not None:
            span.set(audience=result.audience_size,
                     verified=stats.verified)
        return result

    def explain(self, item, k: int = 10, *,
                options: Optional[ScanOptions] = None,
                engine: Optional[str] = None):
        """Run one reverse query fully accounted (see
        :func:`repro.obs.explain.explain_reverse`)."""
        from ..obs.explain import explain_reverse

        return explain_reverse(self, item, k, options=options,
                               engine=engine)

    @staticmethod
    def _check_item(item) -> int:
        if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
            raise ValidationError(
                f"probe item must be a catalog item id (integer); got "
                f"{type(item).__name__}"
            )
        return int(item)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ReverseIndex(users={self.n_users}, "
                f"items={self._inner._live.visible_count}, d={self.d})")


def campaign_scan(rindex: ReverseIndex, items, k: int = 10, *,
                  options: Union[ScanOptions,
                                 Callable[[], ScanOptions], None] = None,
                  engine: Optional[str] = None,
                  isolate: bool = True,
                  span=None) -> CampaignResponse:
    """Audience-build a batch of probe items over one snapshot pair.

    The one campaign loop: :meth:`repro.api.Fexipro.campaign` and
    :meth:`repro.serve.RetrievalService.campaign` both run it.  The
    snapshot pair is pinned once, so every probe's audience is exact
    against the same catalog state no matter what racing mutations land
    mid-campaign.  Each probe runs under the ``q=<i>`` fault tag and,
    when ``span`` (the caller's root span) is given, in a
    ``reverse.scan`` child span.  ``options`` is either one
    :class:`ScanOptions` shared by every probe (a deadline or budget in
    it then spans the whole campaign) or a zero-argument callable that
    builds each probe's options afresh (the service arms a new deadline
    per probe this way).  When ``isolate`` is true, a probe that raises
    any ``Exception`` gets a ``None`` result slot and a structured
    :class:`~repro.exceptions.QueryError`; otherwise the error
    propagates.
    """
    wall_started = time.perf_counter()
    snapshots = rindex.pin()
    probe_ids = [int(i) for i in np.asarray(items).reshape(-1)]
    probe_options = options if callable(options) else (lambda: options)
    results: List[Optional[ReverseResult]] = []
    errors: List[QueryError] = []
    provenance: List[str] = []
    agg = ReverseStats()
    for i, item in enumerate(probe_ids):
        probe_span = span.child("reverse.scan", query=i, item=item) \
            if span is not None else None
        try:
            with _faultsites.tagged(f"q={i}"):
                result = rindex.reverse_query(
                    item, k, options=probe_options(), engine=engine,
                    span=probe_span, snapshots=snapshots)
        except Exception as exc:
            if probe_span is not None:
                probe_span.set(error=type(exc).__name__).end()
            if not isolate:
                raise
            errors.append(QueryError(index=i, error=exc))
            results.append(None)
            provenance.append("error")
            continue
        if probe_span is not None:
            probe_span.end()
        results.append(result)
        provenance.append(
            "warm" if result.stats.bounds_exact else "cold")
        agg.merge(result.stats)
    mode = "reverse/inter" if engine is None else f"reverse/inter/{engine}"
    return CampaignResponse(
        results=results, stats=agg,
        elapsed=time.perf_counter() - wall_started,
        mode=mode, errors=errors, provenance=provenance)
