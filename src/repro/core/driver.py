"""The block driver: the scan stop protocol, written once for every kernel.

Algorithm 4 is one walk over length-sorted items, which every engine
runs in blocks.  At each block boundary, before any scoring,
:meth:`BlockCursor.enter` runs, in order: the
:class:`~repro.serve.resilience.Deadline` poll; the
:class:`~repro.core.budget.FlopBudget` poll, then the charge for the
block's coordinates (poll-then-charge, so a spent budget stops *before*
a block and the visited set stays a contiguous prefix of exactly
``stats.scanned`` items); the ``scan`` fault site (context
``<label>=<bstart>``); the monotone refresh of the live threshold from
the shared cell; and the ``block`` span event.  A stop sets
``stats.deadline_hit`` / ``stats.budget_exhausted``, records a
``deadline_expired`` / ``budget_exhausted`` event and leaves
``"deadline"`` / ``"budget"`` in :attr:`BlockCursor.reason`.

The blocked, GEMM and delta kernels call :meth:`~BlockCursor.enter` per
block; the reference engine calls :meth:`~BlockCursor.poll` per item;
the process fan-out's shard scans poll each shard boundary with zero
units.  A caller that cannot use a truncated scan turns it into an error
with :func:`raise_if_truncated`.
"""

from __future__ import annotations

from typing import Optional

from .. import _faultsites
from ..exceptions import BudgetExhaustedError, DeadlineExceededError
from .options import ScanOptions
from .stats import PruningStats

__all__ = ["BlockCursor", "raise_if_truncated"]


def raise_if_truncated(stats: PruningStats, scan: str) -> None:
    """Raise if a deadline or FLOP budget stopped the scan ``stats`` counts.

    :class:`~repro.exceptions.DeadlineExceededError` or
    :class:`~repro.exceptions.BudgetExhaustedError`, carrying the
    ``items_scanned`` prefix length; ``scan`` names the scan in the
    message.  A complete scan returns.
    """
    if stats.deadline_hit:
        raise DeadlineExceededError(
            f"{scan} hit its deadline after scanning {stats.scanned} of "
            f"{stats.n_items} items", items_scanned=stats.scanned)
    if stats.budget_exhausted:
        raise BudgetExhaustedError(
            f"{scan} exhausted its FLOP budget after scanning "
            f"{stats.scanned} of {stats.n_items} items",
            items_scanned=stats.scanned)


class BlockCursor:
    """The stop protocol of one scan, over the per-call state in ``options``.

    ``width`` is the budget charge per row (its coordinate count);
    ``label`` prefixes the fault-site context; ``traced=False`` records
    no span events, for callers that close their own span with
    :attr:`reason`.
    """

    __slots__ = ("deadline", "budget", "shared", "span", "stats", "width",
                 "label", "reason")

    def __init__(self, options: ScanOptions, stats: PruningStats,
                 width: int = 0, *, label: str = "block",
                 traced: bool = True):
        self.deadline = options.deadline
        self.budget = options.budget
        self.shared = options.shared
        self.span = options.span if traced else None
        self.stats = stats
        self.width = width
        self.label = label
        self.reason: Optional[str] = None

    def refresh(self, t: float) -> float:
        """``t`` raised to the shared cell's value, if one is armed."""
        shared = self.shared
        if shared is not None:
            polled = shared.value
            if polled > t:
                return polled
        return t

    def poll(self, position: int, units: int, t: float) -> bool:
        """Deadline, then budget at ``position``; ``False`` stops the scan.

        A pass charges ``units`` coordinates; ``t`` (the live threshold)
        is recorded on the stop event.
        """
        deadline = self.deadline
        if deadline is not None and deadline.expired():
            self.stats.deadline_hit = 1
            self.reason = "deadline"
            if self.span is not None:
                self.span.event("deadline_expired", position=position,
                                threshold=t)
            return False
        budget = self.budget
        if budget is not None:
            if budget.exhausted():
                self.stats.budget_exhausted = 1
                self.reason = "budget"
                if self.span is not None:
                    self.span.event("budget_exhausted", position=position,
                                    spent=budget.spent, threshold=t)
                return False
            budget.charge(units)
        return True

    def enter(self, bstart: int, bstop: int, t: float) -> float:
        """The whole protocol for block ``[bstart, bstop)``.

        Returns the refreshed live threshold; on a stop, :attr:`reason`
        is set and ``t`` comes back unchanged.
        """
        if not self.poll(bstart, (bstop - bstart) * self.width, t):
            return t
        if _faultsites.active is not None:
            _faultsites.fire(_faultsites.SCAN, f"{self.label}={bstart}")
        t = self.refresh(t)
        if self.span is not None:
            self.span.event("block", start=bstart, stop=bstop, threshold=t)
        return t

    def finish(self, t: float) -> None:
        """Record the scan's totals and final threshold on the span."""
        if self.span is not None:
            self.span.set(scanned=self.stats.scanned,
                          full_products=self.stats.full_products,
                          final_threshold=t)
