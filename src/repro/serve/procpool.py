"""The multi-process scan executor: :class:`ProcessScanPool`.

Threads cannot parallelize the scans: the blocked engine's pruning
cascade spends much of its time in *Python* (per-row replay, heap pushes,
bound bookkeeping), so the GIL serialized them, and the thread executor
was removed.  This module runs the shard/chunk tasks on real cores:

- the preprocessed index is published once as a read-only format-3
  replica in ``/dev/shm`` (:mod:`repro.core.replica`) and every worker
  process attaches it zero-copy via ``mmap`` — no per-task pickling of
  the item matrix, no copies, O(meta) cold start;
- the cross-shard best-so-far threshold is a slot in a shared
  ``RawArray`` of doubles guarded by a process lock
  (:class:`_SlotThreshold`), polled lock-free at block boundaries and
  raised only to thresholds achieved by k collected results — a stale
  read only weakens pruning, never mis-prunes, so results stay bitwise
  identical;
- deadlines travel as an absolute ``time.monotonic`` expiry (the Linux
  monotonic clock is system-wide) and are re-polled in the worker at the
  same block/shard boundaries, so exact-prefix degradation keeps working;
- fault injection stays deterministic: rules are handed to the pool at
  construction and each worker arms a *fresh* injector seeded
  ``fault_seed + worker_id`` in its initializer — identical under fork
  and spawn start methods, and never the parent's injector (whose RNG,
  lock and counters must not be shared into children).

Exactness is inherited: workers run the unchanged
:func:`repro.core.sharded.scan_shard_span` /
:meth:`~repro.core.index.FexiproIndex._scan` code paths over the same
arrays (bit-for-bit, via the replica) with the same threshold semantics,
so the merged answer equals the single scan's — the property
``tests/test_mp.py`` pins across every variant and engine.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from dataclasses import replace as dataclass_replace
from multiprocessing.sharedctypes import RawArray
from typing import Dict, List, Optional, Sequence, Tuple

from .. import _faultsites
from ..core.options import ScanOptions
from ..core.replica import (
    ReplicaHandle,
    attach_replica,
    discard_replica,
    publish_replica,
)
from ..core.sharded import scan_shard_span
from ..core.stats import StageTimings
from ..exceptions import ServiceClosedError, ValidationError

__all__ = [
    "ProcessScanPool",
    "process_executor_usable",
    "resolve_chunk_size",
    "resolve_start_method",
]

#: Concurrent cross-shard threshold cells per pool.  One query in flight
#: uses one slot; the free list recycles them, and an (unlikely) overflow
#: degrades to a query-local threshold — exact, just less cross-shard
#: pruning for that query.
THRESHOLD_SLOTS = 64

#: Target number of chunk tasks handed to each worker process per batch.
#: More chunks mean better load balance when per-query cost is skewed
#: (Figure 9 of the paper shows it is); fewer mean less task overhead.
#: Four is a standard compromise.
CHUNKS_PER_WORKER = 4


def resolve_chunk_size(total: int, workers: int,
                       chunk_size: Optional[int] = None) -> int:
    """Pick the number of queries per worker-process task.

    An explicit ``chunk_size`` wins; otherwise the batch is split into
    about :data:`CHUNKS_PER_WORKER` chunks per worker.
    """
    if total < 0:
        raise ValidationError(f"total must be non-negative; got {total}")
    if workers < 1:
        raise ValidationError(f"workers must be positive; got {workers}")
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be positive; got {chunk_size}"
            )
        return chunk_size
    if total == 0:
        return 1
    return max(1, math.ceil(total / (CHUNKS_PER_WORKER * workers)))


def resolve_start_method(method: Optional[str] = None) -> str:
    """Pick the multiprocessing start method for scan workers.

    Priority: explicit argument > the ``REPRO_MP_START`` environment
    variable (the CI matrix knob) > ``fork`` where the platform offers it
    (cheapest: the preprocessed parent state is inherited, not re-imported)
    > the platform default.  An unavailable explicit choice raises
    :class:`ValidationError`.
    """
    if method is None:
        method = os.environ.get("REPRO_MP_START") or None
    available = multiprocessing.get_all_start_methods()
    if method is not None:
        if method not in available:
            raise ValidationError(
                f"mp start method {method!r} is not available here "
                f"(have {available})"
            )
        return method
    return "fork" if "fork" in available else available[0]


def process_executor_usable(method: Optional[str] = None) -> bool:
    """Whether a process scan pool can exist on this host at all."""
    try:
        resolve_start_method(method)
    except ValidationError:
        return False
    return True


# ----------------------------------------------------------------------
# Worker-side state and tasks (module-level: picklable by reference)
# ----------------------------------------------------------------------

_WORKER: dict = {}


class _SlotThreshold:
    """Cross-process monotone best-so-far threshold cell.

    ``value`` is the best k-th score any shard of the query has achieved;
    shards :meth:`offer` their own when they finish.  Reads are lock-free
    (a torn/stale read returns an older, smaller value — weaker pruning,
    never mispruning); writes take the process lock so the slot never
    moves backwards.
    """

    __slots__ = ("_cells", "_lock", "_slot")

    def __init__(self, cells, lock, slot: int):
        self._cells = cells
        self._lock = lock
        self._slot = slot

    @property
    def value(self) -> float:
        return self._cells[self._slot]

    def offer(self, candidate: float) -> bool:
        candidate = float(candidate)
        if candidate <= self._cells[self._slot]:
            return False
        with self._lock:
            if candidate > self._cells[self._slot]:
                self._cells[self._slot] = candidate
                return True
            return False


class _LocalThreshold:
    """Fallback threshold for a query that could not get a shared slot."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def offer(self, candidate: float) -> bool:
        candidate = float(candidate)
        if candidate <= self.value:
            return False
        self.value = candidate
        return True


class _MonotonicDeadline:
    """Deadline duck-type rebuilt from an absolute monotonic expiry.

    ``time.monotonic`` is CLOCK_MONOTONIC, which is system-wide on
    Linux, so an expiry computed in the parent means the same instant in
    every worker.  Only ``expired``/``remaining`` are needed at the
    block/shard poll sites.
    """

    __slots__ = ("_expires_at",)

    def __init__(self, expires_at: float):
        self._expires_at = float(expires_at)

    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def remaining(self) -> float:
        return max(0.0, self._expires_at - time.monotonic())


def _worker_init(cells, lock, counter, fault_rules, fault_seed: int) -> None:
    """Per-process initializer: claim a worker id, scrub inherited state.

    Runs once in every pool process under both start methods.  The
    fork-safety contract: no parent injector, no parent tag stack, no
    parent metrics/cache/server objects are ever used in a worker — the
    only shared state is the replica mapping and the threshold cells,
    both designed for it.
    """
    _faultsites.reset_for_worker()
    with counter.get_lock():
        worker_id = counter.value
        counter.value += 1
    _WORKER["id"] = worker_id
    _WORKER["cells"] = cells
    _WORKER["lock"] = lock
    _WORKER["attachments"] = {}
    if fault_rules:
        from .faults import FaultInjector

        # Fresh rule copies (zeroed ``fired`` counts) and a per-worker
        # seed: fork and spawn workers see byte-identical injector state,
        # the spawn-vs-fork parity test's load-bearing property.
        rules = [dataclass_replace(rule) for rule in fault_rules]
        FaultInjector(rules, seed=int(fault_seed) + worker_id).install()


def _attach(path: str, token: Tuple[str, int]):
    """Attach (or reuse) the replica at ``path`` for identity ``token``.

    The per-worker cache holds one attachment per index, keyed by its uid
    (``token[0]``) and revalidated by the full token: every catalog state
    swap makes the parent publish a new file under a fresh path, and the
    tasks that follow carry the new (path, token) — the attachment they
    replace is closed, releasing its mapping, and a genuinely stale file
    fails the attach with ``IndexIntegrityError`` instead of serving
    outdated answers.
    """
    cache = _WORKER["attachments"]
    attachment = cache.get(token[0])
    if attachment is not None:
        if tuple(attachment.token) == tuple(token):
            return attachment.obj
        cache.pop(token[0]).close()
    attachment = attach_replica(ReplicaHandle(path=path, token=tuple(token)))
    cache[token[0]] = attachment
    return attachment.obj


def _shard_task(payload):
    """One shard of one query, scanned in a worker process."""
    (path, token, qs_bytes, k, shard_id, start, stop,
     slot, seed, expires, collect) = payload
    index = _attach(path, token)
    qs = pickle.loads(qs_bytes)
    if slot >= 0:
        shared = _SlotThreshold(_WORKER["cells"], _WORKER["lock"], slot)
    else:
        shared = _LocalThreshold(seed)
    deadline = None if expires is None else _MonotonicDeadline(expires)
    timings = StageTimings() if collect else None
    buffer, stats, seen_seed, outcome = scan_shard_span(
        index, qs, k, shard_id, start, stop,
        ScanOptions(initial_threshold=shared.value, shared=shared,
                    deadline=deadline, timings=timings),
    )
    return buffer, stats, seen_seed, timings, outcome, _WORKER["id"]


def _chunk_task(payload):
    """A chunk of whole queries (the inter-query axis) in a worker.

    The chunk first passes the ``worker`` fault site: a task that dies
    there fails the whole ``pool.map``, and the parent then scans the
    batch in-process.  Per-query outcomes are structured
    (``"ok"``/``"err"`` tuples) rather than raised: one poisoned query
    must not take its chunk-mates down, and the parent re-runs ``"err"``
    queries through its own retry/isolation machinery with the real
    exception semantics.
    """
    path, token, items, k, deadline_ms, budget_flops, collect = payload
    index = _attach(path, token)
    if _faultsites.active is not None:
        _faultsites.fire(_faultsites.WORKER, "procpool.chunk")
    out = []
    for qi, qs_bytes in items:
        qs = pickle.loads(qs_bytes)
        timings = StageTimings() if collect else None
        try:
            with _faultsites.tagged(f"q={qi}"):
                deadline = None
                if deadline_ms is not None:
                    from .resilience import Deadline

                    deadline = Deadline.after_ms(deadline_ms)
                budget = None
                if budget_flops is not None:
                    from ..core.budget import FlopBudget

                    budget = FlopBudget(budget_flops)
                started = time.perf_counter()
                buffer, stats = index._scan(
                    qs, k,
                    options=ScanOptions(deadline=deadline,
                                        budget=budget,
                                        timings=timings),
                )
                elapsed = time.perf_counter() - started
            positions, scores = buffer.items_and_scores()
            out.append(("ok", stats, tuple(positions), tuple(scores),
                        elapsed, timings))
        except Exception as error:
            out.append(("err", type(error).__name__, str(error),
                        bool(getattr(error, "transient", False))))
    return out, _WORKER["id"]


def _discard_paths(paths: List[str]) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# The parent-side pool
# ----------------------------------------------------------------------

class ProcessScanPool:
    """An order-preserving scan executor over real OS processes.

    Parameters
    ----------
    workers:
        Pool size.  Deliberately *not* clamped to the host core count:
        processes schedule preemptively, and the correctness tests need
        multi-worker pools on one-core hosts.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default per
        :func:`resolve_start_method` (``REPRO_MP_START`` env, then fork).
    replica_dir:
        Where replicas are spooled (default ``/dev/shm`` when usable).
    fault_rules / fault_seed:
        Deterministic chaos for the workers: each worker arms a fresh
        :class:`~repro.serve.faults.FaultInjector` over copies of these
        rules, seeded ``fault_seed + worker_id`` (default seed: the
        ``REPRO_FAULT_SEED`` environment variable, or 0).

    The pool is lazy — no process exists until the first scan — and a
    context manager; :meth:`close` tears the processes down and unlinks
    every published replica.
    """

    def __init__(self, workers: int, *,
                 start_method: Optional[str] = None,
                 replica_dir: Optional[str] = None,
                 fault_rules: Optional[Sequence] = None,
                 fault_seed: Optional[int] = None):
        if not isinstance(workers, int) or isinstance(workers, bool) \
                or workers < 1:
            raise ValidationError(
                f"workers must be a positive integer; got {workers!r}"
            )
        self.requested = int(workers)
        self.workers = int(workers)
        self.start_method = resolve_start_method(start_method)
        self.replica_dir = replica_dir
        self._fault_rules = list(fault_rules) if fault_rules else []
        if fault_seed is None:
            fault_seed = int(os.environ.get("REPRO_FAULT_SEED", "0") or 0)
        self._fault_seed = int(fault_seed)
        self._lock = threading.Lock()
        self._pool = None
        self._cells = None
        self._cell_lock = None
        self._counter = None
        self._free_slots = list(range(THRESHOLD_SLOTS))
        self._replicas: Dict[str, ReplicaHandle] = {}
        self._replica_paths: List[str] = []
        self._finalizer = weakref.finalize(
            self, _discard_paths, self._replica_paths)
        self.worker_tasks: Dict[int, int] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def _ensure_pool(self):
        with self._lock:
            if self._closed:
                raise ServiceClosedError("process scan pool is closed")
            if self._pool is None:
                ctx = multiprocessing.get_context(self.start_method)
                self._cells = RawArray(ctypes.c_double, THRESHOLD_SLOTS)
                self._cell_lock = ctx.Lock()
                self._counter = ctx.Value("i", 0)
                self._pool = ctx.Pool(
                    self.workers,
                    initializer=_worker_init,
                    initargs=(self._cells, self._cell_lock, self._counter,
                              self._fault_rules, self._fault_seed),
                )
            return self._pool

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def effective_workers(self) -> int:
        """Distinct worker processes that have completed at least one task."""
        return len(self.worker_tasks)

    def close(self) -> None:
        """Shut the processes down and unlink every published replica."""
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, None
            handles = list(self._replicas.values())
            self._replicas.clear()
            self._replica_paths.clear()
        if pool is not None:
            pool.close()
            pool.join()
        for handle in handles:
            discard_replica(handle)

    def __enter__(self) -> "ProcessScanPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- replicas ------------------------------------------------------

    def ensure_replica(self, index) -> ReplicaHandle:
        """The current replica of ``index``, (re)published on state change.

        Keyed by ``uid`` (stable across states of the same index): a
        ``state_version`` bump republishes under a fresh path and unlinks
        the old file, so workers can only ever attach bytes that match
        the token their task carries.
        """
        from ..core.persist import identity_token

        token = identity_token(index)
        if token is None:
            raise ValidationError(
                f"cannot replicate {type(index).__name__}: no "
                f"(uid, state_version) identity"
            )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("process scan pool is closed")
            stale = self._replicas.get(token[0])
            if stale is not None and tuple(stale.token) == token:
                return stale
            handle = publish_replica(index, directory=self.replica_dir)
            self._replicas[token[0]] = handle
            self._replica_paths.append(handle.path)
            if stale is not None:
                if stale.path in self._replica_paths:
                    self._replica_paths.remove(stale.path)
                discard_replica(stale)
            return handle

    # -- scanning ------------------------------------------------------

    def run_shards(self, handle: ReplicaHandle, qs, k: int,
                   spans: Sequence[Tuple[int, int]], *,
                   seed: float = -math.inf, deadline=None,
                   collect: bool = False):
        """Fan one prepared query's shards over the worker processes.

        Returns one ``(buffer, stats, seeded_threshold, timings,
        outcome)`` tuple per span, in span order.  ``seed`` primes the
        shared threshold slot (``ScanOptions.initial_threshold``);
        ``deadline`` is converted to an absolute monotonic expiry and
        re-polled in the workers at the usual boundaries.
        """
        pool = self._ensure_pool()
        slot = self._acquire_slot(float(seed))
        expires = None
        if deadline is not None:
            expires = time.monotonic() + max(0.0, deadline.remaining())
        qs_bytes = pickle.dumps(qs, protocol=pickle.HIGHEST_PROTOCOL)
        payloads = [
            (handle.path, tuple(handle.token), qs_bytes, k, shard_id,
             start, stop, slot, float(seed), expires, collect)
            for shard_id, (start, stop) in enumerate(spans)
        ]
        try:
            # chunksize=1: shards have wildly uneven cost (early bands
            # do most of the scanning), so dynamic dispatch beats
            # pre-partitioning.
            outputs = pool.map(_shard_task, payloads, chunksize=1)
        finally:
            self._release_slot(slot)
        results = []
        for buffer, stats, seen_seed, timings, outcome, wid in outputs:
            self._note_worker(wid)
            results.append((buffer, stats, seen_seed, timings, outcome))
        return results

    def run_query_chunks(self, handle: ReplicaHandle, items, k: int, *,
                         deadline_ms=None, budget_flops=None,
                         collect: bool = False,
                         chunk_size: Optional[int] = None):
        """Spread whole queries over the processes (the inter-query axis).

        ``items`` are ``(qi, pickled_query_state)`` pairs, sent
        ``chunk_size`` to a task (``None``: :func:`resolve_chunk_size`);
        the return value is one structured outcome per item, in order —
        see :func:`_chunk_task` for the ``"ok"``/``"err"`` shapes.
        ``budget_flops`` arms a fresh per-query
        :class:`~repro.core.budget.FlopBudget` inside each worker —
        budgets are per query, so the inter-query axis needs no shared
        accounting cell.
        """
        pool = self._ensure_pool()
        chunk_size = resolve_chunk_size(len(items), self.workers, chunk_size)
        chunks = [items[i:i + chunk_size]
                  for i in range(0, len(items), chunk_size)]
        payloads = [(handle.path, tuple(handle.token), chunk, k,
                     deadline_ms, budget_flops, collect)
                    for chunk in chunks]
        outputs = pool.map(_chunk_task, payloads, chunksize=1)
        flat = []
        for chunk_out, wid in outputs:
            self._note_worker(wid)
            flat.extend(chunk_out)
        return flat

    # -- bookkeeping ---------------------------------------------------

    def _acquire_slot(self, seed: float) -> int:
        with self._lock:
            if not self._free_slots or self._cells is None:
                return -1
            slot = self._free_slots.pop()
            self._cells[slot] = seed
            return slot

    def _release_slot(self, slot: int) -> None:
        if slot < 0:
            return
        with self._lock:
            self._free_slots.append(slot)

    def _note_worker(self, worker_id: int) -> None:
        with self._lock:
            self.worker_tasks[worker_id] = \
                self.worker_tasks.get(worker_id, 0) + 1

    def snapshot(self) -> dict:
        """JSON-serializable deployment/activity facts for metrics."""
        with self._lock:
            return {
                "start_method": self.start_method,
                "workers": self.workers,
                "live": self._pool is not None,
                "effective_workers": len(self.worker_tasks),
                "tasks_per_worker": {str(k): v for k, v
                                     in sorted(self.worker_tasks.items())},
                "replicas": [
                    {"path": h.path, "state_version": h.token[1],
                     "nbytes": h.nbytes}
                    for h in self._replicas.values()
                ],
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProcessScanPool(workers={self.workers}, "
                f"start_method={self.start_method!r}, "
                f"effective={self.effective_workers})")
