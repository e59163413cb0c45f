"""Lightweight, thread-safe serving metrics.

A deliberately small registry in the spirit of Prometheus client libraries,
with only what the serving layer needs and zero dependencies:

- :class:`Counter` — monotonically increasing integers (queries served,
  pruning-counter rollups);
- :class:`Gauge` — last-written point-in-time values (planner mispredict
  ratio, cost-model calibration age);
- :class:`Histogram` — fixed-bucket latency distributions with
  approximate quantiles;
- :class:`MetricsRegistry` — a named collection of all three, plus one
  aggregated :class:`~repro.core.stats.StageTimings` record fed by the
  retrieval engines.

Everything is guarded by locks so pool workers can report concurrently;
observation cost is a dict lookup, an add and a lock acquire, which is
noise next to a single block scan.
"""

from __future__ import annotations

import bisect
import os
import threading
import weakref
from typing import Dict, Optional, Sequence, Tuple

from ..core.stats import PruningStats, StageTimings
from ..exceptions import ValidationError

#: Registries whose locks must be re-initialized in a forked child: a
#: ``fork`` can land while another thread holds a registry/metric lock,
#: and the child would then inherit a lock nobody will ever release.
#: Scan worker processes never report into the parent's registry (they
#: return data; the parent observes), so a fresh unlocked lock is always
#: the correct child state.
_LIVE_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _reinit_locks_after_fork() -> None:
    for registry in list(_LIVE_REGISTRIES):
        registry._reinit_locks()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython has it
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)

#: Default latency buckets (seconds): log-ish spacing from 10 microseconds
#: to 10 seconds, a range that covers a block scan of anything from a few
#: hundred to a few hundred million items.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing, thread-safe counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counters only increase; got increment {amount}"
            )
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        """Zero the counter in place (held references stay valid)."""
        with self._lock:
            self._value = 0


class Gauge:
    """A thread-safe point-in-time value (goes up and down).

    Unlike a :class:`Counter`, :meth:`set` overwrites — the reading is
    "the latest known value", not an accumulation.  Used for planner
    telemetry (mispredict ratio, calibration age) where a sum would be
    meaningless.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the gauge in place (held references stay valid)."""
        with self._lock:
            self._value = 0.0


class Histogram:
    """A fixed-bucket histogram of non-negative observations (seconds).

    ``buckets`` are the inclusive upper bounds of each bucket; observations
    beyond the last bound land in an overflow bucket.  Quantiles are
    approximated by the upper bound of the bucket containing the target
    rank — the usual Prometheus-style estimate, biased at most one bucket
    upward.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValidationError("histogram needs at least one bucket")
        if any(b <= 0 for b in bounds):
            raise ValidationError("histogram buckets must be positive")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        slot = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def reset(self) -> None:
        """Drop all observations in place (bucket bounds are kept)."""
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._max = 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (upper bucket bound; max for overflow)."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile must be in [0, 1]; got {q}")
        with self._lock:
            if not self._count:
                return 0.0
            rank = q * self._count
            cumulative = 0
            for slot, bucket_count in enumerate(self._counts):
                cumulative += bucket_count
                if cumulative >= rank and bucket_count:
                    if slot < len(self.bounds):
                        return self.bounds[slot]
                    return self._max
            return self._max

    def snapshot(self) -> Dict[str, object]:
        """Return counts, sum, max and per-bucket tallies as a dict."""
        with self._lock:
            buckets = {
                f"le_{bound:g}": count
                for bound, count in zip(self.bounds, self._counts)
            }
            buckets["overflow"] = self._counts[-1]
            return {
                "count": self._count,
                "sum": self._sum,
                "max": self._max,
                "buckets": buckets,
            }

    def merge_snapshot(self, snap: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Bucket layouts must match (snapshot buckets are emitted in bound
        order, overflow last) — merging across different layouts would
        silently misfile observations, so it raises instead.
        """
        buckets = snap.get("buckets", {})
        counts = list(buckets.values())
        if len(counts) != len(self._counts):
            raise ValidationError(
                f"histogram bucket layout mismatch: {len(counts)} buckets "
                f"in snapshot, {len(self._counts)} here"
            )
        with self._lock:
            for slot, count in enumerate(counts):
                self._counts[slot] += int(count)
            self._count += int(snap.get("count", 0))
            self._sum += float(snap.get("sum", 0.0))
            self._max = max(self._max, float(snap.get("max", 0.0)))


class MetricsRegistry:
    """A named collection of counters, histograms and stage timings.

    One registry typically belongs to one
    :class:`~repro.serve.RetrievalService`; the pruning-counter rollup uses
    the ``pruning.<counter>`` namespace so the paper's machine-independent
    counters (Tables 3 and 7) are readable straight off a live service.

    Registries are **instance-isolated** by design: there is no module- or
    process-global registry, every ``MetricsRegistry()`` starts from zero,
    and a service only ever shares one when the caller passes the same
    object explicitly.  Tests (and embedders) therefore never see counts
    leak across services or test order; :meth:`reset` additionally zeroes
    a registry in place for callers that hold long-lived references to its
    :class:`Counter`/:class:`Histogram` objects.
    """

    def __init__(self, name: str = "repro.serve"):
        self.name = str(name)
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._stage_timings = StageTimings()
        _LIVE_REGISTRIES.add(self)

    def _reinit_locks(self) -> None:
        """Replace every lock with a fresh one (forked-child repair only)."""
        self._lock = threading.Lock()
        for counter in self._counters.values():
            counter._lock = threading.Lock()
        for gauge in self._gauges.values():
            gauge._lock = threading.Lock()
        for histogram in self._histograms.values():
            histogram._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Fetch (or lazily create) the counter called ``name``."""
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter()
            return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """Fetch (or lazily create) the gauge called ``name``."""
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge()
            return self._gauges[name]

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Fetch (or lazily create) the histogram called ``name``."""
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(
                    buckets if buckets is not None
                    else DEFAULT_LATENCY_BUCKETS
                )
            return self._histograms[name]

    def observe_pruning(self, stats: PruningStats) -> None:
        """Roll one query's pruning counters into ``pruning.*`` counters."""
        for key, value in stats.as_dict().items():
            self.counter(f"pruning.{key}").inc(value)

    def record_stage_timings(self, timings: StageTimings) -> None:
        """Accumulate an engine-produced stage-timing record."""
        with self._lock:
            self._stage_timings.merge(timings)

    @property
    def stage_timings(self) -> StageTimings:
        """A copy of the accumulated per-stage wall times."""
        with self._lock:
            copy = StageTimings()
            copy.merge(self._stage_timings)
            return copy

    def reset(self) -> None:
        """Zero every metric in place.

        Existing :class:`Counter` and :class:`Histogram` objects are kept
        (and zeroed), so references handed out earlier keep reporting into
        this registry — the isolation story for tests that reuse one
        registry across cases instead of building a fresh one.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            self._stage_timings = StageTimings()
        for counter in counters:
            counter.reset()
        for gauge in gauges:
            gauge.reset()
        for histogram in histograms:
            histogram.reset()

    def snapshot(self) -> Dict[str, object]:
        """A point-in-time dict of every metric (JSON-serializable)."""
        with self._lock:
            counters = {k: c.value for k, c in sorted(self._counters.items())}
            gauges = {k: g.value for k, g in sorted(self._gauges.items())}
            histograms = {k: h.snapshot()
                          for k, h in sorted(self._histograms.items())}
            stage_seconds = self._stage_timings.as_dict()
        return {
            "name": self.name,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "stage_seconds": stage_seconds,
        }

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The cross-process rollup path: a worker (or a sidecar service)
        snapshots its registry to a plain dict, ships it over whatever
        boundary separates them, and the owner merges it here — counters
        add, histogram buckets add, stage timings accumulate.  Metric
        names are created on demand, so the registries need not agree on
        a schema up front.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            # Gauges are point-in-time readings; the incoming snapshot is
            # newer than whatever was set here, so last-write wins.
            self.gauge(name).set(float(value))
        for name, hist_snap in snapshot.get("histograms", {}).items():
            self.histogram(name).merge_snapshot(hist_snap)
        stage = snapshot.get("stage_seconds")
        if stage:
            self.record_stage_timings(StageTimings(**stage))
