"""Resilience primitives for the serving layer.

Three small, independently testable pieces that
:class:`repro.serve.RetrievalService` threads through the scan path:

- :class:`Deadline` — a monotonic per-query time budget, polled by the
  engines at every block boundary (and at shard boundaries in
  :class:`~repro.core.sharded.ShardedFexiproIndex`'s process fan-out,
  where it travels as an absolute monotonic expiry).  Because FEXIPRO
  scans items in descending-length order, a deadline-truncated scan
  returns the *exact* top-k of the prefix it visited (see ``DESIGN.md``
  §2.8) — graceful degradation with a provable contract, per "To Index
  or Not to Index" (Abuzaid et al.) and the budgeted-MIPS line of work
  (Yu et al.).
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
import time
from typing import Callable

from ..exceptions import ValidationError

__all__ = [
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

