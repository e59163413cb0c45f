"""Resilience primitives for the serving layer.

Four small, independently testable pieces that
:class:`repro.serve.RetrievalService` threads through the scan path:

- :class:`Deadline` — a monotonic per-query time budget, polled by the
  engines at the same block boundaries where the sharded scan already
  polls :class:`~repro.core.sharded.SharedThreshold` (and at shard
  boundaries in the intra-query fan-out).  Because FEXIPRO scans items in
  descending-length order, a deadline-truncated scan returns the *exact*
  top-k of the prefix it visited (see ``DESIGN.md`` §2.8) — graceful
  degradation with a provable contract, per "To Index or Not to Index"
  (Abuzaid et al.) and the budgeted-MIPS line of work (Yu et al.).
- :class:`CircuitBreaker` — classic closed → open → half-open breaker
  guarding the intra-query shard fan-out; repeated shard failures route
  traffic to the proven single-scan path until a cooldown probe succeeds.
- :class:`RetryPolicy` — one bounded retry for faults marked transient,
  with injectable sleep for tests.
- :class:`~repro.exceptions.QueryError` — the structured per-query failure
  record surfaced in :attr:`repro.serve.BatchResponse.errors` instead of
  poisoning the whole batch (defined in :mod:`repro.exceptions`).

All clocks and sleeps are injectable so every behaviour is deterministic
under test.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Optional, Tuple

from ..exceptions import ValidationError

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "RetryPolicy",
    "is_transient",
]


class Deadline:
    """A monotonic time budget with a cheap ``expired()`` poll.

    Construction captures ``clock()`` once; polls are one clock call and a
    comparison.  The engines poll at block boundaries only (never per
    item), so an armed deadline costs a handful of clock reads per scan —
    and a ``None`` deadline costs a single branch per block
    (``benchmarks/bench_resilience.py`` gates the no-deadline hot path).
    """

    __slots__ = ("seconds", "_clock", "_expires_at")

    def __init__(self, seconds: float, *,
                 clock: Callable[[], float] = time.monotonic):
        seconds = float(seconds)
        if not seconds > 0 and not math.isinf(seconds):
            raise ValidationError(
                f"deadline seconds must be positive; got {seconds!r}"
            )
        self.seconds = seconds
        self._clock = clock
        self._expires_at = clock() + seconds

    @classmethod
    def after_ms(cls, milliseconds: float, *,
                 clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """Construct from a millisecond budget (the config's unit)."""
        return cls(float(milliseconds) / 1e3, clock=clock)

    def expired(self) -> bool:
        """Whether the budget is spent (monotone: never un-expires)."""
        return self._clock() >= self._expires_at

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - self._clock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(seconds={self.seconds}, remaining={self.remaining():.4f})"


class CircuitBreaker:
    """Closed → open → half-open breaker over a fallible execution path.

    ``record_failure()`` counts *consecutive* failures; reaching
    ``threshold`` opens the breaker, and :meth:`allow` then refuses until
    ``cooldown`` seconds pass, after which exactly one half-open probe is
    let through.  A probe success re-closes the breaker; a probe failure
    re-opens it (and restarts the cooldown).

    Transition methods return an event string (``"opened"``,
    ``"reclosed"``, ``"probe"``) or ``None``, which the service maps onto
    ``policy.breaker_*`` metrics counters.  All state changes are guarded
    by a lock; the breaker is shared by every worker of a service.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int = 3, cooldown: float = 1.0, *,
                 clock: Callable[[], float] = time.monotonic):
        if not isinstance(threshold, int) or threshold < 1:
            raise ValidationError(
                f"breaker threshold must be a positive integer; "
                f"got {threshold!r}"
            )
        if not cooldown >= 0:
            raise ValidationError(
                f"breaker cooldown must be non-negative; got {cooldown!r}"
            )
        self.threshold = threshold
        self.cooldown = float(cooldown)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = -math.inf
        self.opened_total = 0
        self.reclosed_total = 0
        self.probes_total = 0

    @property
    def state(self) -> str:
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def allow(self) -> Tuple[bool, Optional[str]]:
        """``(allowed, event)`` — whether the guarded path may run now."""
        with self._lock:
            if self._state == self.CLOSED:
                return True, None
            if self._state == self.OPEN and \
                    self._clock() >= self._opened_at + self.cooldown:
                self._state = self.HALF_OPEN
                self.probes_total += 1
                return True, "probe"
            # OPEN within cooldown, or HALF_OPEN with a probe already out.
            return False, None

    def record_success(self) -> Optional[str]:
        """Note a guarded-path success; re-closes a half-open breaker."""
        with self._lock:
            self._consecutive_failures = 0
            if self._state != self.CLOSED:
                self._state = self.CLOSED
                self.reclosed_total += 1
                return "reclosed"
            return None

    def record_failure(self) -> Optional[str]:
        """Note a guarded-path failure; may open (or re-open) the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            tripped = (self._state == self.HALF_OPEN
                       or (self._state == self.CLOSED
                           and self._consecutive_failures >= self.threshold))
            if tripped:
                self._state = self.OPEN
                self._opened_at = self._clock()
                self.opened_total += 1
                return "opened"
            return None

    def snapshot(self) -> dict:
        """JSON-ready state for ``metrics_snapshot()``."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "threshold": self.threshold,
                "cooldown_seconds": self.cooldown,
                "opened_total": self.opened_total,
                "reclosed_total": self.reclosed_total,
                "probes_total": self.probes_total,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CircuitBreaker(state={self._state!r}, "
                f"failures={self._consecutive_failures}/{self.threshold})")


def is_transient(error: BaseException) -> bool:
    """Whether the serving layer may retry after ``error``.

    The convention is an attribute, not a type: any exception carrying a
    truthy ``transient`` attribute (as
    :class:`~repro.exceptions.InjectedFault` does for rules declared
    transient) qualifies.  Deadline expiry is deliberately *not* transient
    — retrying a query that just spent its budget only spends it again.
    """
    return bool(getattr(error, "transient", False))


class RetryPolicy:
    """One bounded retry for transient faults, with injectable backoff.

    ``retries`` bounds how many *re*-executions follow the first attempt
    (the issue's contract is one); ``backoff_ms`` sleeps between attempts
    via the injectable ``sleep`` so tests never wait on a wall clock.
    """

    def __init__(self, retries: int = 1, backoff_ms: float = 0.0, *,
                 sleep: Callable[[float], None] = time.sleep):
        if not isinstance(retries, int) or retries < 0:
            raise ValidationError(
                f"retries must be a non-negative integer; got {retries!r}"
            )
        if not backoff_ms >= 0:
            raise ValidationError(
                f"backoff_ms must be non-negative; got {backoff_ms!r}"
            )
        self.retries = retries
        self.backoff_ms = float(backoff_ms)
        self._sleep = sleep

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) may be retried."""
        return attempt < self.retries and is_transient(error)

    def backoff(self) -> None:
        """Sleep the configured backoff before the next attempt."""
        if self.backoff_ms > 0:
            self._sleep(self.backoff_ms / 1e3)

