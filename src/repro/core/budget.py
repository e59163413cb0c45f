"""Per-query compute budgets and certified result bands.

Wall-clock deadlines (PR 3) make degradation *timely* but not
*predictable*: the same ``deadline_ms`` buys wildly different amounts of
work depending on host load, so under contention deadlines fire
chaotically.  This module adds the compute-denominated sibling — in the
spirit of "A Greedy Approach for Budgeted Maximum Inner Product Search"
(PAPERS.md) — a per-query **FLOP budget** polled and charged at exactly
the block boundaries where ``Deadline`` is already polled.

Two objects live here:

- :class:`FlopBudget` — a mutable spent/total accounting cell with the
  *poll-then-charge* discipline: an engine first asks :meth:`~FlopBudget.
  exhausted` (stopping cleanly **before** the next block when the answer
  is yes — a zero budget therefore yields a well-formed empty prefix,
  never an exception), then :meth:`~FlopBudget.charge`\\ s the upcoming
  block's coordinates and runs it.  One unit is one coordinate of the
  transformed item matrix (one multiply-accumulate), the same currency
  :class:`repro.analysis.cost_model.CostModel` predicts in, so a full
  un-pruned scan costs about ``n * d`` units.
- :class:`ResultBounds` — the **certified band** attached to budgeted
  results: per-result lower bounds (the exact scores themselves) plus a
  global upper bound on the score of *any* item the scan never visited.

Band certification argument
---------------------------
Every engine visits items in descending original-length order, and the
visited set is always a contiguous prefix of the scanned span with
``stats.scanned`` counting each visited item exactly once.  For a span
``[start, stop)`` whose scan stopped (budget, deadline, or the
Cauchy–Schwarz cut) after ``scanned`` items, the first unvisited
position is ``start + scanned`` and for every unvisited position ``j >=
start + scanned``::

    q . p_j  <=  ||q|| * ||p_j||  <=  ||q|| * ||p_{start+scanned}||

by Cauchy–Schwarz and the length sort.  :func:`tail_upper_bound` is that
right-hand side; :func:`certified_bounds` takes the max over the scanned
segments (a budgeted query is one single scan, so one segment).  Items
that *were* visited but pruned are provably at or below the achieved
threshold, which never exceeds the k-th reported score — so the band
``[scores[k-1], tail_upper]`` brackets every unreported item: reported
scores are exact lower bounds, and nothing unseen can beat
``tail_upper``.  The property is engine-independent and is pinned by
``tests/test_budget.py`` against brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from ..exceptions import ValidationError

__all__ = [
    "FlopBudget",
    "ResultBounds",
    "certified_bounds",
    "tail_upper_bound",
]


class FlopBudget:
    """A per-query compute budget in coordinate (multiply-accumulate) units.

    Engines poll :meth:`exhausted` at block boundaries — the same
    sites where deadlines are polled — and :meth:`charge` the coordinates
    of each block they decide to run (*poll-then-charge*: the last block
    may overshoot ``total`` by at most one block's worth of work, and a
    budget of ``0`` stops the scan before its first block, yielding a
    well-formed empty prefix).  ``math.inf`` disarms the stop condition
    entirely — an infinite budget changes no decision, so results stay
    bitwise identical to an unbudgeted scan (property-tested).

    The cell is deliberately lock-free (`spent` is a plain float): a
    budgeted query is always one single scan, which charges it from one
    thread, so the accounting is exact.
    """

    __slots__ = ("total", "spent")

    def __init__(self, total: float):
        try:
            total = float(total)
        except (TypeError, ValueError):
            raise ValidationError(
                f"budget total must be a number; got {total!r}"
            ) from None
        if math.isnan(total) or total < 0:
            raise ValidationError(
                f"budget total must be non-negative; got {total!r}"
            )
        self.total = total
        self.spent = 0.0

    def charge(self, units: float) -> None:
        """Record ``units`` coordinates of work (no stop decision here)."""
        self.spent += units

    def exhausted(self) -> bool:
        """Whether the budget is spent (never ``True`` for ``inf``)."""
        return self.spent >= self.total

    def remaining(self) -> float:
        """Units left, clamped at zero (block charges may overdraw)."""
        return max(0.0, self.total - self.spent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FlopBudget(total={self.total:g}, spent={self.spent:g})"


@dataclass(frozen=True)
class ResultBounds:
    """The certified band of a (possibly truncated) retrieval result.

    ``lower`` are the reported results' exact scores — each is a true
    inner product, hence a *tight* lower bound on itself.  ``tail_upper``
    bounds the score of every item the scan never visited (see the module
    docstring for the certification argument); ``-inf`` when the scan
    visited everything it was asked to.  ``certified`` is ``True``
    whenever the band was derived from the length-sort Cauchy–Schwarz
    argument — i.e. always, for bands produced by this library; the flag
    exists so future approximate front tiers can mark weaker bands.
    """

    lower: Tuple[float, ...]
    tail_upper: float
    certified: bool = True

    @property
    def kth_lower(self) -> float:
        """The weakest reported lower bound (``-inf`` for an empty prefix)."""
        return self.lower[-1] if self.lower else -math.inf

    def as_dict(self) -> dict:
        """JSON-ready summary of the band."""
        return {
            "lower": list(self.lower),
            "kth_lower": self.kth_lower,
            "tail_upper": self.tail_upper,
            "certified": self.certified,
        }


def tail_upper_bound(q_norm: float, norms_sorted, first_unseen: int,
                     stop: int) -> float:
    """Upper bound on any unvisited item's score in one scanned segment.

    ``norms_sorted`` are the index's descending original item lengths;
    ``first_unseen`` is ``start + stats.scanned`` for a segment scanned
    over ``[start, stop)``.  Returns ``-inf`` when the segment was
    visited completely — no unseen tail exists.
    """
    if first_unseen >= stop:
        return -math.inf
    return float(q_norm) * float(norms_sorted[first_unseen])


def certified_bounds(q_norm: float, norms_sorted,
                     scores: Iterable[float],
                     segments: Sequence[Tuple[int, int, int]],
                     ) -> ResultBounds:
    """Assemble the :class:`ResultBounds` band for one scan.

    ``segments`` is one ``(start, stop, scanned)`` triple per scanned
    span: a single scan contributes ``[(0, n, stats.scanned)]``.  An
    unscanned segment has ``scanned == 0``, so its bound is ``||q|| *
    norms[start]``.  The global tail bound is the max over segments.
    """
    tail = -math.inf
    for start, stop, scanned in segments:
        bound = tail_upper_bound(q_norm, norms_sorted, start + scanned, stop)
        if bound > tail:
            tail = bound
    return ResultBounds(lower=tuple(float(s) for s in scores),
                        tail_upper=tail)
