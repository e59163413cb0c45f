"""Bounded top-k result buffer.

The priority queue ``r`` of Algorithms 1 and 4: it keeps the ``k`` best
inner products seen so far, the running threshold ``t`` (the k-th score,
``-inf`` until ``k`` are held) and, for Equation 8's per-item constants
(:mod:`repro.core.reduction`), the item holding the k-th slot.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, List, Tuple


class TopKBuffer:
    """Keep the ``k`` best ``(score, item_id)`` pairs pushed so far.

    "Best" is one total order: higher score, then lower ``item_id`` (on
    the scan hot path, the scan position: length-sorted base positions,
    delta rows at ``n_base + i``).  The buffer holds the ``k`` best of
    everything pushed whatever the push order, so split scans, merges,
    masks and engines agree on ties, and the top-k is a prefix of the
    top-``(k+1)``.  A min-heap of ``(score, -item_id)`` keeps the worst
    entry at the root (:attr:`threshold`, :attr:`kth_item`); :meth:`push`
    admits what beats it, which in an ascending scan is ``score > t`` —
    every row a scan drops has ``k`` rows ahead of it under the order.

    Items ``a, a, c`` with ``q.c > q.a``, pushed in either order:

    >>> pushes = [(1.0, 0), (1.0, 1), (3.0, 2)]
    >>> buf, rev = TopKBuffer(2), TopKBuffer(2)
    >>> for score, item_id in pushes:
    ...     __ = buf.push(score, item_id)
    >>> for score, item_id in reversed(pushes):
    ...     __ = rev.push(score, item_id)
    >>> buf.items_and_scores() == rev.items_and_scores()
    True
    >>> buf.items_and_scores()
    ([2, 0], [3.0, 1.0])

    Parameters
    ----------
    k:
        Number of results to retain.  Must be positive.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive; got {k}")
        self.k = int(k)
        self._heap: List[Tuple[float, int]] = []

    @classmethod
    def from_ranked(cls, k: int, scores: List[float],
                    item_ids: List[int]) -> "TopKBuffer":
        """A buffer holding the pairs ``(scores[i], item_ids[i])``.

        For at most ``k`` pairs that already are the k best of what a
        scan offered (an array top-k, such as
        :func:`repro.core.gemm.scan_gemm_many`'s); the buffer then
        behaves as if each had been pushed.
        """
        buffer = cls(k)
        buffer._heap = [(score, -item_id)
                        for score, item_id in zip(scores, item_ids)]
        heapq.heapify(buffer._heap)
        return buffer

    def __len__(self) -> int:
        return len(self._heap)

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        """Yield the held ``(score, item_id)`` pairs in no set order."""
        return ((score, -neg_id) for score, neg_id in self._heap)

    @property
    def full(self) -> bool:
        """``True`` once ``k`` results have been collected."""
        return len(self._heap) >= self.k

    @property
    def threshold(self) -> float:
        """The running threshold ``t``: the k-th largest score so far.

        Returns ``-inf`` while the buffer is not yet full, so every candidate
        passes the pruning tests until ``k`` results exist.
        """
        if len(self._heap) < self.k:
            return -math.inf
        return self._heap[0][0]

    @property
    def kth_item(self) -> int:
        """The item id holding the worst retained slot under the order.

        Raises :class:`IndexError` if the buffer is empty.
        """
        if not self._heap:
            raise IndexError("top-k buffer is empty")
        return -self._heap[0][1]

    def push(self, score: float, item_id: int) -> bool:
        """Offer a candidate result.

        Returns ``True`` if the candidate was admitted (and therefore the
        threshold may have increased), ``False`` if it was discarded.
        """
        heap = self._heap
        if len(heap) < self.k:
            heapq.heappush(heap, (score, -item_id))
            return True
        worst = heap[0][0]
        if score > worst or (score == worst and -item_id > heap[0][1]):
            heapq.heapreplace(heap, (score, -item_id))
            return True
        return False

    def merge(self, other: "TopKBuffer") -> "TopKBuffer":
        """Fold another buffer's candidates into this one (in place).

        Holds the ``k`` best of both (``self.k`` governs the capacity);
        returns ``self`` so merges can be chained/reduced.
        """
        for score, item_id in other:
            self.push(score, item_id)
        return self

    def items_and_scores(self) -> Tuple[List[int], List[float]]:
        """Return ``(item_ids, scores)`` best first under the order."""
        ordered = sorted(self._heap, reverse=True)
        ids = [-neg_id for __, neg_id in ordered]
        scores = [score for score, __ in ordered]
        return ids, scores
