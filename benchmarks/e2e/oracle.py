"""The answer oracle: float64 brute force, tie-aware.

An answer passes when its scores match the brute-force top-k scores
within ``1e-9 * ||q|| * max ||p||`` and every returned id really has the
score reported for it.  Items whose true scores tie may come back in any
order, so ids are not compared position by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: Brute-force columns computed per matrix product; bounds the scratch
#: matrix at ``n_items * CHUNK`` doubles.
CHUNK = 32

RELATIVE_TOLERANCE = 1e-9


@dataclass
class Sample:
    """One served answer kept for checking.

    ``visible`` masks the rows of the item matrix that the catalog held
    when the answer was served (``None``: every row).
    """

    query: np.ndarray
    ids: List[int]
    scores: List[float]
    visible: Optional[np.ndarray] = None


def check(items: np.ndarray, samples: List[Sample], k: int) -> List[str]:
    """Check ``samples`` against ``items``; returns one line per mismatch."""
    problems = []
    norms = np.linalg.norm(items, axis=1)
    for first in range(0, len(samples), CHUNK):
        chunk = samples[first:first + CHUNK]
        brute = items @ np.stack([s.query for s in chunk]).T
        for j, sample in enumerate(chunk):
            problem = _check_one(brute[:, j], norms, sample, k)
            if problem is not None:
                problems.append(f"sample {first + j}: {problem}")
    return problems


def _check_one(column, norms, sample: Sample, k: int) -> Optional[str]:
    if sample.visible is not None:
        column = np.where(sample.visible, column, -np.inf)
        norms = norms[sample.visible]
    want = min(k, int(np.isfinite(column).sum()))
    if len(sample.ids) != want or len(set(sample.ids)) != want:
        return f"{len(sample.ids)} ids returned, expected {want} distinct"
    if want == 0:
        return None
    top = np.sort(np.partition(column, -want)[-want:])[::-1]
    tolerance = RELATIVE_TOLERANCE * float(np.linalg.norm(sample.query)) \
        * float(norms.max())
    for rank, (item, score) in enumerate(zip(sample.ids, sample.scores)):
        if abs(score - top[rank]) > tolerance:
            return f"rank {rank} score {score!r} != brute force {top[rank]!r}"
        if not 0 <= item < column.size or abs(column[item] - score) > tolerance:
            return f"id {item} does not score {score!r}"
    return None
