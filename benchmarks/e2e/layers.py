"""Outside-in per-layer timing for the end-to-end benchmark.

The benchmark does not edit the program to time it.  Instead
:class:`LayerTracer` replaces each layer's public function at the name its
caller looks up (``repro.core.index.scan_blocked`` is the name
``FexiproIndex._scan`` calls, ``repro.serve.service.prepare_query_states``
the one ``RetrievalService.batch`` calls) with a wrapper that records a
span: layer, start, end, the span that caused it, and the request id the
load generator set.  Spans stay in memory and are written out when the
run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Children may run on pool threads while the parent
waits, so coverage is the union of the child intervals, not their sum.

Scan worker processes fork with these wrappers installed; the fork hook
switches tracing off in the child, so worker-side work is timed only by
the parent-side pool call that waits for it.  Its internal split comes
from the ``StageTimings`` the service already returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict

def _batch_facts(response):
    provenance = response.provenance
    scans = sum(1 for i, result in enumerate(response.results)
                if result is not None
                and (provenance is None or provenance[i] != "hit"))
    stats = response.stats
    timings = response.timings.as_dict() if response.timings else {}
    return {"engine": "gemm" if response.mode.endswith("/gemm")
            else "blocked",
            "scans": scans, "scanned": stats.scanned,
            "pruned": stats.pruned_total,
            "full_products": stats.full_products,
            "delta_items": stats.delta_items, "timings": timings}


def _shard_facts(outputs):
    skipped = sum(1 for out in outputs if out[4] == "skipped")
    worker_s = sum(out[3].total for out in outputs if out[3] is not None)
    return {"shards": len(outputs), "skipped": skipped, "worker_s": worker_s}


def _chunk_facts(outputs):
    return {"worker_s": sum(out[4] for out in outputs if out[0] == "ok")}


#: ``(layer, "module[:Class]", attribute, extract)``.  ``extract`` turns a
#: call's return value into the small fact the layer metrics need, so no
#: span holds on to a large result.
LAYERS = (
    ("index.prep", "repro.serve.service", "prepare_query_states", None),
    ("index.prep", "repro.core.index", "prepare_query_states", None),
    ("cache.lookup", "repro.serve.cache:QueryCache", "lookup",
     lambda lookup: lookup.kind == "hit"),
    ("cache.store", "repro.serve.cache:QueryCache", "store", None),
    ("cost_model.calibrate", "repro.analysis.cost_model",
     "calibrate_cost_model", None),
    ("cost_model.choose", "repro.analysis.cost_model:CostModel", "choose",
     lambda choice: choice[0]),
    # The scan kernels are timed only so that in-process scans are
    # attributed to a layer; their stage split comes from StageTimings.
    ("blocked.scan", "repro.core.index", "scan_blocked", None),
    ("blocked.scan", "repro.core.sharded", "scan_blocked", None),
    ("blocked.scan", "repro.core.blocked", "scan_blocked", None),
    ("gemm.scan", "repro.core.gemm", "scan_gemm", None),
    ("sharded.merge", "repro.core.topk:TopKBuffer", "merge", None),
    ("procpool.publish", "repro.serve.procpool:ProcessScanPool",
     "ensure_replica", lambda handle: handle.path),
    ("procpool.dispatch", "repro.serve.procpool:ProcessScanPool",
     "run_shards", _shard_facts),
    ("procpool.dispatch", "repro.serve.procpool:ProcessScanPool",
     "run_query_chunks", _chunk_facts),
    ("delta.scan", "repro.core.delta", "scan_delta", None),
    ("delta.scan", "repro.core.sharded", "scan_delta", None),
    ("delta.scan", "repro.core.index", "finish_catalog_scan", None),
    ("delta.write", "repro.core.delta:LiveCatalog", "with_appended", None),
    ("delta.write", "repro.core.delta:LiveCatalog", "with_tombstones", None),
    ("compactor.rebuild", "repro.core.index:FexiproIndex", "compact", bool),
    ("service.batch", "repro.serve.service:RetrievalService", "batch",
     _batch_facts),
)

#: Layers whose calls start their own tree: the compactor runs on a
#: background thread and is caused by no request.
DETACHED = {"compactor.rebuild"}

BLOCKED_STAGES = ("integer", "incremental", "monotone", "full", "select")


class LayerTracer:
    """Record spans around calls into the program's layers.

    A span is the list ``[layer, start, end, parent, request, facts]``
    where ``parent`` is the parent span itself (``None`` for a root).
    Each thread keeps its own stack; a span opened on a thread with an
    empty stack (a pool thread) takes the main thread's innermost open
    span as its parent, because the load generator is single-threaded
    and only the request it is waiting on can have caused the call.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self.spans: list = []
        self.enabled = True
        self.request_id = None
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._patches: list = []
        self.t0 = time.perf_counter()
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self.spans = []

    # -- installation --------------------------------------------------

    def install(self) -> "LayerTracer":
        for layer, owner, attr, extract in LAYERS:
            module, __, cls = owner.partition(":")
            target = importlib.import_module(module)
            if cls:
                target = getattr(target, cls)
            original = target.__dict__[attr]
            self._patches.append((target, attr, original))
            setattr(target, attr, self._wrap(layer, original, extract))
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, fn, extract):
        tracer = self
        detached = layer in DETACHED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif detached:
                parent = None
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = [layer, 0.0, 0.0, parent,
                    None if detached else tracer.request_id, None]
            tracer.spans.append(span)
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[5] = extract(result)
            return result

        return traced

    # -- request roots -------------------------------------------------

    def open_request(self, request_id, kind: str) -> list:
        """Open the root span of one generated request (main thread)."""
        self.request_id = request_id
        span = ["request", 0.0, 0.0, None, request_id, kind]
        self.spans.append(span)
        self._main_stack.append(span)
        span[1] = time.perf_counter()
        return span

    def close_request(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._main_stack.pop()
        self.request_id = None

    # -- analysis ------------------------------------------------------

    def self_times(self) -> dict:
        """Self time of every span, keyed by ``id(span)``."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        out = {}
        for span in self.spans:
            start, end = span[1], span[2]
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(id(span), ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[id(span)] = (end - start) - covered
        return out

    def metrics(self, measured_from: float, span_cost_s: float) -> dict:
        """Per-layer metrics over the whole run.

        ``measured_from`` is the ``perf_counter`` instant the measured
        phase began; request roots before it belong to set-up and are
        left out of the request-based fractions.  ``span_cost_s`` is the
        calibrated cost of recording one span.
        """
        self_s = self.self_times()
        seconds = defaultdict(float)
        calls = defaultdict(int)
        facts = defaultdict(list)
        for span in self.spans:
            seconds[span[0]] += self_s[id(span)]
            calls[span[0]] += 1
            if span[5] is not None:
                facts[span[0]].append(span[5])

        lookups = facts["cache.lookup"]
        choices = facts["cost_model.choose"]
        batches = facts["service.batch"]
        shard_calls = [f for f in facts["procpool.dispatch"] if "shards" in f]
        worker_s = sum(f["worker_s"] for f in facts["procpool.dispatch"])
        dispatch_s = seconds["procpool.dispatch"]
        by_engine = {engine: [b for b in batches if b["engine"] == engine]
                     for engine in ("blocked", "gemm")}

        def stage(engine, name):
            return sum(b["timings"].get(name, 0.0) for b in by_engine[engine])

        def ratio(num, den):
            return num / den if den else 0.0

        def per_scan(engine, key):
            group = by_engine[engine]
            return ratio(sum(b[key] for b in group),
                         sum(b["scans"] for b in group))

        blocked = by_engine["blocked"]
        roots = [s for s in self.spans
                 if s[0] == "request" and s[1] >= measured_from]
        measured_s = sum(s[2] - s[1] for s in roots)
        measured_spans = sum(1 for s in self.spans if s[1] >= measured_from)
        values = {
            "index.prep_s": (seconds["index.prep"], "s"),
            "index.prep_calls": (calls["index.prep"], "count"),
            "cache.lookup_s": (seconds["cache.lookup"], "s"),
            "cache.store_s": (seconds["cache.store"], "s"),
            "cache.hit_frac": (ratio(sum(lookups), len(lookups)), "fraction"),
            "cost_model.calibrate_s": (seconds["cost_model.calibrate"], "s"),
            "cost_model.choose_s": (seconds["cost_model.choose"], "s"),
            "cost_model.gemm_frac": (
                ratio(choices.count("gemm"), len(choices)), "fraction"),
            **{f"blocked.{name}_s": (stage("blocked", name), "s")
               for name in BLOCKED_STAGES},
            "blocked.prune_frac": (
                ratio(sum(b["pruned"] for b in blocked),
                      sum(b["scanned"] for b in blocked)), "fraction"),
            "blocked.scanned_per_query": (per_scan("blocked", "scanned"),
                                          "rows"),
            "blocked.full_per_query": (per_scan("blocked", "full_products"),
                                       "rows"),
            "gemm.full_s": (stage("gemm", "full"), "s"),
            "gemm.select_s": (stage("gemm", "select"), "s"),
            "gemm.scanned_per_query": (per_scan("gemm", "scanned"), "rows"),
            "sharded.merge_s": (seconds["sharded.merge"], "s"),
            "sharded.skipped_frac": (
                ratio(sum(f["skipped"] for f in shard_calls),
                      sum(f["shards"] for f in shard_calls)), "fraction"),
            "procpool.publishes": (len(set(facts["procpool.publish"])),
                                   "count"),
            "procpool.publish_s": (seconds["procpool.publish"], "s"),
            "procpool.dispatch_s": (dispatch_s, "s"),
            "procpool.worker_scan_s": (worker_s, "s"),
            "procpool.efficiency": (
                ratio(worker_s, dispatch_s * self.workers), "fraction"),
            "delta.scan_s": (seconds["delta.scan"], "s"),
            "delta.write_s": (seconds["delta.write"], "s"),
            "delta.rows_mean": (
                ratio(sum(b["delta_items"] for b in batches),
                      sum(b["scans"] for b in batches)), "rows"),
            "compactor.runs": (sum(facts["compactor.rebuild"]), "count"),
            "compactor.rebuild_s": (seconds["compactor.rebuild"], "s"),
            "service.self_s": (seconds["service.batch"], "s"),
            "unattributed_frac": (
                ratio(sum(self_s[id(s)] for s in roots), measured_s),
                "fraction"),
            "trace_overhead_frac": (
                ratio(measured_spans * span_cost_s, measured_s), "fraction"),
        }
        return values

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds one traced call adds over a bare call (calibrated)."""
        def bare():
            return None

        traced = self._wrap("calibration", bare, None)
        saved, self.spans = self.spans, []
        try:
            started = time.perf_counter()
            for __ in range(calls):
                bare()
            bare_s = time.perf_counter() - started
            started = time.perf_counter()
            for __ in range(calls):
                traced()
            traced_s = time.perf_counter() - started
        finally:
            self.spans = saved
        return max(0.0, (traced_s - bare_s) / calls)

    def write(self, path) -> None:
        """Write every span as JSON: ids, names, times relative to start."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        rows = [{"id": ids[id(span)], "name": span[0],
                 "start": span[1] - self.t0, "end": span[2] - self.t0,
                 "parent": None if span[3] is None else ids[id(span[3])],
                 "request": span[4]}
                for span in self.spans]
        with open(path, "w") as handle:
            json.dump(rows, handle)
