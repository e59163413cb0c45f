"""The one exact score: Algorithm 5's head partial plus its tail residue.

Every admitted score — reference, blocked and GEMM engines, the above-t
scan and the delta tier — comes from
:func:`exact_scores`.  A BLAS ``ddot``/GEMV may round the same row
differently depending on which rows share the call; ``np.add.reduce``
over a C-contiguous block sums each row on its own with NumPy's pairwise
kernel, so a row's float is the same in a one-row call and in a
thousand-row one.  (A Fortran-ordered block would be reduced column by
column, so the gathered rows are made C-contiguous first.)
``tests/test_properties_score.py`` pins this row stability.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def exact_scores(P: np.ndarray, rows, q: np.ndarray,
                 w: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row-stable ``(head, score)`` of ``q`` against ``P[rows]``.

    ``head[i] = sum_j<w P[rows[i], j] * q[j]`` is the partial product
    that drives the incremental bound (Equation 1) and
    ``score = head + sum_j>=w P[rows[i], j] * q[j]`` the full product
    (Lines 9 and 18-20 of Algorithm 5).  ``rows`` is a sequence of row
    indices; each output float depends only on its own row, never on the
    others in the call.  Raw rows without a head/tail split take
    ``w = d``.
    """
    # ``take`` always copies, so the product can overwrite the gather.
    prod = np.ascontiguousarray(P.take(rows, axis=0))
    prod *= q
    head = np.add.reduce(prod[:, :w], axis=1)
    return head, head + np.add.reduce(prod[:, w:], axis=1)
