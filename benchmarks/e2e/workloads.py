"""The four end-to-end workloads: inputs, load generators and metrics.

Every workload resizes a ``datasets/zoo.py`` recipe (d=50), asks for the
top ``K`` items, and pins the service to ``WORKERS`` workers so that the
configuration does not depend on the host.  Inputs derive from the seed
alone; the program only ever sees the generated matrices.

- ``batch-*`` are closed loops: one client sends a batch of distinct users
  and waits for the answer before sending the next.
- ``online-yelp`` and ``live-movielens`` are open loops: the requests of
  a Poisson schedule are sent at their due times whether or not earlier
  ones finished, and each is timed from its due time, so a stall also
  shows in the latency of the requests queued behind it.  The schedule
  holds exactly ``rate * seconds`` requests (a Poisson process conditioned
  on its count), so every run of a workload does the same amount of work.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

import oracle
from host import tree_memory_mb
from layers import LayerTracer

K = 10
WORKERS = 2
COLD_STARTS = 3
#: Every SAMPLE_EVERY-th answer is checked against brute force.
SAMPLE_EVERY = 20
#: Rows the live workload's writes append, cycled if a run needs more.
EXTRA_ROWS = 2048
MIN_ITEMS = 100
MIN_USERS = 50


@dataclass(frozen=True)
class Spec:
    """One workload: catalog, traffic shape and service configuration."""

    kind: str                 # "batch" | "online" | "live"
    recipe: str               # datasets/zoo.py key
    n_items: int
    users: int                # size of the user-vector pool
    service: dict             # ServiceConfig fields beyond ``workers``
    shards: Optional[int] = None
    batch: int = 0            # users per closed-loop batch
    rate: float = 0.0         # open-loop requests per second
    zipf: Optional[float] = None
    add_frac: float = 0.0
    remove_frac: float = 0.0
    limit_ms: Optional[float] = None


SPECS = {
    "batch-yahoo": Spec(
        kind="batch", recipe="yahoo", n_items=200_000, users=20_000,
        batch=1000, service={}),
    "batch-netflix": Spec(
        kind="batch", recipe="netflix", n_items=17_770, users=20_000,
        batch=1000, service={"engine": "auto"}),
    "online-yelp": Spec(
        kind="online", recipe="yelp", n_items=60_785, users=50_000,
        shards=2, rate=150.0, zipf=1.2, limit_ms=10.0,
        service={"cache_capacity": 8192}),
    "live-movielens": Spec(
        kind="live", recipe="movielens", n_items=10_681, users=20_000,
        rate=100.0, add_frac=0.015, remove_frac=0.005, limit_ms=25.0,
        service={"compaction_interval_s": 2.0}),
}


class OracleMismatch(Exception):
    """A served answer disagreed with brute force."""


@dataclass
class Inputs:
    items: np.ndarray            # the catalog the workload starts from
    users: np.ndarray            # user vectors queries are drawn from
    extra: np.ndarray            # rows the live workload appends
    rng: np.random.Generator     # schedule stream


@dataclass
class Outcome:
    """What a load generator measured, before metrics are derived."""

    attempted: int
    failed: int
    samples: List[oracle.Sample]
    checked_items: np.ndarray
    values: dict
    diagnostics: dict


def make_inputs(spec: Spec, seed: int, scale: float) -> Inputs:
    from repro.datasets.zoo import ZOO

    n_items = max(MIN_ITEMS, round(spec.n_items * scale))
    n_extra = EXTRA_ROWS if spec.kind == "live" else 0
    recipe = replace(ZOO[spec.recipe], n_items=n_items + n_extra,
                     n_queries=max(MIN_USERS, round(spec.users * scale)))
    data = recipe.generate(seed)
    return Inputs(items=data.items[:n_items], users=data.queries,
                  extra=data.items[n_items:],
                  rng=np.random.default_rng([seed, 1]))


def _build(spec: Spec, items):
    from repro.api import Fexipro

    if spec.shards:
        return Fexipro(items, shards=spec.shards)
    return Fexipro(items)


def _config(spec: Spec, **overrides):
    from repro.api import ServiceConfig

    return ServiceConfig(workers=WORKERS, **{**spec.service, **overrides})


def _close(fx, service) -> None:
    if service is not None:
        service.close()
    if fx is not None and fx.sharded:
        fx.index.close()


def run(name: str, seed: int, seconds: float, scale: float = 1.0,
        tracer: Optional[LayerTracer] = None) -> dict:
    """Run one workload once; returns its result record.

    Raises :class:`OracleMismatch` when any checked answer is wrong.
    """
    spec = SPECS[name]
    inputs = make_inputs(spec, seed, scale)
    batch = max(1, min(round(spec.batch * scale), len(inputs.users)))
    first = inputs.users[:1]

    # The first build in a process pays one-time import costs; a tiny
    # throwaway build keeps them out of every timed cold start.
    tiny = _build(spec, inputs.items[:MIN_ITEMS])
    with tiny.serve(_config(spec, executor="serial")) as service:
        service.batch(first, K)
    _close(tiny, None)

    setups = []
    fx = service = None
    try:
        for __ in range(COLD_STARTS):
            _close(fx, service)
            fx = service = None
            started = time.perf_counter()
            fx = _build(spec, inputs.items)
            service = fx.serve(_config(spec))
            response = service.batch(first, K)
            setups.append(time.perf_counter() - started)
            if response.errors:
                raise RuntimeError(f"cold start failed: {response.errors}")
        measured_from = time.perf_counter()
        if spec.kind == "batch":
            outcome = _closed_loop(service, inputs, batch, seconds, tracer)
        else:
            outcome = _open_loop(spec, fx, service, inputs, seconds, tracer)
        mem_mb = tree_memory_mb()
    finally:
        _close(fx, service)

    problems = oracle.check(outcome.checked_items, outcome.samples, K)
    if problems:
        raise OracleMismatch(
            f"{name}: {len(problems)} of {len(outcome.samples)} checked "
            f"answers wrong; first: {problems[0]}")

    record = {"workload": name, "seed": seed, "seconds": seconds,
              "scale": scale, "trace": tracer is not None, "correct": True,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "checked": len(outcome.samples)}
    if tracer is not None:
        values = tracer.metrics(measured_from, tracer.span_cost())
        record["metrics"] = _as_metrics(values)
        record["diagnostics"] = {}
        return record
    values = {"setup_s": (statistics.median(setups), "s"),
              **outcome.values,
              "mem_mb": (mem_mb, "MiB")}
    record["metrics"] = _as_metrics(values)
    record["diagnostics"] = _as_metrics({
        "failed_frac": (outcome.failed / outcome.attempted, "fraction"),
        **outcome.diagnostics})
    return record


def _as_metrics(values: dict) -> dict:
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in values.items()}


def _tails(prefix: str, values_ms: List[float]) -> dict:
    """p90/p99 wherever at least ten samples lie beyond them."""
    out = {}
    for q in (90, 99):
        if len(values_ms) * (100 - q) / 100 >= 10:
            out[f"{prefix}p{q}_ms"] = (float(np.percentile(values_ms, q)),
                                       "ms")
    return out


def _sample(samples, query, result, visible=None) -> None:
    samples.append(oracle.Sample(query=np.array(query), ids=list(result.ids),
                                 scores=list(result.scores),
                                 visible=visible))


def _request(tracer, request_id, kind, call):
    """Run one generated request, inside a root span when tracing."""
    if tracer is None:
        return call()
    root = tracer.open_request(request_id, kind)
    try:
        return call()
    finally:
        tracer.close_request(root)


# ----------------------------------------------------------------------
# Closed loop: batches of distinct users
# ----------------------------------------------------------------------

def _closed_loop(service, inputs: Inputs, batch: int, seconds: float,
                 tracer) -> Outcome:
    users = inputs.users
    order = inputs.rng.permutation(len(users))
    # One untimed batch first: each worker process attaches the replica
    # and faults its pages in on its first task.
    service.batch(users[order[-batch:]], K)
    samples: List[oracle.Sample] = []
    latencies, misses = [], []
    sent = answered = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        rows = users[np.take(order, np.arange(sent, sent + batch),
                             mode="wrap")]
        started = time.perf_counter()
        response = _request(tracer, len(latencies), "batch",
                            lambda: service.batch(rows, K))
        elapsed = time.perf_counter() - started
        latencies.append(elapsed)
        if response.cache_hits < len(rows):
            misses.append(elapsed)
        for i, result in enumerate(response.results):
            if result is None:
                continue
            answered += 1
            if (sent + i) % SAMPLE_EVERY == 0:
                _sample(samples, rows[i], result)
        sent += len(rows)
    lat_ms = [1e3 * x for x in latencies]
    return Outcome(
        attempted=sent, failed=sent - answered, samples=samples,
        checked_items=inputs.items,
        values={"qps": (answered / sum(latencies), "queries/s"),
                "p50_ms": (statistics.median(lat_ms), "ms"),
                "miss_p50_ms": (1e3 * statistics.median(misses), "ms")},
        diagnostics={"batch_size": (batch, "count"),
                     "latency_samples": (len(lat_ms), "count"),
                     **_tails("", lat_ms)})


# ----------------------------------------------------------------------
# Open loop: a Poisson schedule of single requests (and writes)
# ----------------------------------------------------------------------

@dataclass
class _Op:
    due: float
    kind: str            # "read" | "add" | "remove"
    arg: int             # user row, extra row or item id


def _schedule(spec: Spec, inputs: Inputs, seconds: float) -> List[_Op]:
    rng = inputs.rng
    n_ops = max(1, round(spec.rate * seconds))
    dues = np.sort(rng.uniform(0.0, seconds, n_ops))
    n_users = len(inputs.users)
    if spec.zipf is not None:
        weights = np.arange(1, n_users + 1, dtype=np.float64) ** -spec.zipf
        ranks = np.searchsorted(np.cumsum(weights / weights.sum()),
                                rng.random(n_ops))
        readers = rng.permutation(n_users)[np.minimum(ranks, n_users - 1)]
    else:
        readers = rng.integers(0, n_users, n_ops)
    n_add = round(n_ops * spec.add_frac)
    n_remove = round(n_ops * spec.remove_frac)
    kinds = np.array(["add"] * n_add + ["remove"] * n_remove
                     + ["read"] * (n_ops - n_add - n_remove))
    rng.shuffle(kinds)
    alive = list(range(len(inputs.items)))
    added = 0
    ops = []
    for due, kind, reader in zip(dues, kinds, readers):
        if kind == "add":
            ops.append(_Op(float(due), "add", added % len(inputs.extra)))
            alive.append(len(inputs.items) + added)
            added += 1
        elif kind == "remove":
            j = int(rng.integers(len(alive)))
            alive[j], alive[-1] = alive[-1], alive[j]
            ops.append(_Op(float(due), "remove", alive.pop()))
        else:
            ops.append(_Op(float(due), "read", int(reader)))
    return ops


class _Mirror:
    """The catalog the harness expects the program to hold, per request.

    Item ``i`` is row ``i`` of :attr:`rows`; it is visible to request
    ``j`` when it was added by an earlier request and not yet removed.
    """

    def __init__(self, items, extra, ops: List[_Op]):
        adds = [op for op in ops if op.kind == "add"]
        self.rows = np.vstack([items] + [extra[op.arg][None, :]
                                         for op in adds])
        self.added_at = np.full(len(self.rows), -1)
        self.removed_at = np.full(len(self.rows), len(ops) + 1)
        next_id = len(items)
        for j, op in enumerate(ops):
            if op.kind == "add":
                self.added_at[next_id] = j
                next_id += 1
            elif op.kind == "remove":
                self.removed_at[op.arg] = j

    def visible(self, j: int) -> np.ndarray:
        return (self.added_at < j) & (self.removed_at > j)


def _open_loop(spec: Spec, fx, service, inputs: Inputs, seconds: float,
               tracer) -> Outcome:
    ops = _schedule(spec, inputs, seconds)
    mirror = _Mirror(inputs.items, inputs.extra, ops)
    users = inputs.users
    next_id = len(inputs.items)
    samples: List[oracle.Sample] = []
    records = []         # (op, lag_s, latency_s, ok, provenance)
    after_write = False
    raw = []             # latency of the first read after each write
    reads_seen = 0
    errors = []

    def execute(op: _Op):
        nonlocal next_id
        if op.kind == "add":
            ids = fx.add_items(inputs.extra[op.arg])
            expected = [next_id]
            next_id += 1
            return ids == expected, None, None
        if op.kind == "remove":
            return fx.remove_items([op.arg]) == 1, None, None
        response = service.batch(users[op.arg][None, :], K)
        result = response.results[0]
        provenance = response.provenance[0] if response.provenance \
            else None
        return result is not None, provenance, result

    started = time.perf_counter()
    give_up = started + 2 * seconds
    for j, op in enumerate(ops):
        due = started + op.due
        now = time.perf_counter()
        if now > give_up:
            break
        if now < due:
            time.sleep(due - now)
        sent = time.perf_counter()
        try:
            ok, provenance, result = _request(
                tracer, j, op.kind, lambda: execute(op))
        except Exception as error:  # counted as failed, run continues
            errors.append(repr(error))
            ok, provenance, result = False, None, None
        done = time.perf_counter()
        records.append((op, sent - due, done - due, ok, provenance))
        if op.kind != "read":
            after_write = True
            continue
        if ok:
            if after_write:
                raw.append(done - due)
            if reads_seen % SAMPLE_EVERY == 0 or after_write:
                _sample(samples, users[op.arg], result,
                        visible=mirror.visible(j))
        after_write = False
        reads_seen += 1
    last_done = started + max(r[2] + r[0].due for r in records)
    if errors:
        print(f"{len(errors)} requests raised; first: {errors[0]}",
              file=sys.stderr)

    failed = len(ops) - sum(1 for r in records if r[3])
    reads = [r for r in records if r[0].kind == "read" and r[3]]
    writes = [r for r in records if r[0].kind != "read" and r[3]]
    read_ms = [1e3 * r[2] for r in reads]
    miss_ms = [1e3 * r[2] for r in reads if r[4] != "hit"]
    over = sum(1 for r in records if r[3] and 1e3 * r[2] > spec.limit_ms)
    diagnostics = {
        "slo_miss_frac": ((failed + over) / len(ops), "fraction"),
        "latency_samples": (len(read_ms), "count"),
        **_tails("", read_ms),
        **_tails("gen_lag_", [1e3 * r[1] for r in records]),
    }
    if service.cache is not None:
        diagnostics["hit_frac"] = (
            sum(1 for r in reads if r[4] == "hit") / len(reads), "fraction")
    if writes:
        diagnostics["write_p50_ms"] = (
            statistics.median(1e3 * r[2] for r in writes), "ms")
    if raw:
        diagnostics["raw_p50_ms"] = (1e3 * statistics.median(raw), "ms")
    return Outcome(
        attempted=len(ops), failed=failed, samples=samples,
        checked_items=mirror.rows,
        values={"qps": (sum(1 for r in records if r[3])
                        / (last_done - started), "queries/s"),
                "p50_ms": (statistics.median(read_ms), "ms"),
                "miss_p50_ms": (statistics.median(miss_ms), "ms")},
        diagnostics=diagnostics)
