"""Chunked, in-order execution of query batches in the serving process.

FEXIPRO answers a query with one sequential, length-sorted scan, and most
of the blocked cascade is Python (the select replay above all), so threads
cannot overlap two scans: the GIL serializes them.  In-process work
therefore runs as one ordered loop; real parallelism comes from worker
processes (:mod:`repro.serve.procpool`).  Chunking still groups queries
per task: it is the unit of the ``worker`` fault site and of chunk-level
retry, and the process executor hands chunks to its workers.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from .. import _faultsites
from ..exceptions import ValidationError

T = TypeVar("T")
R = TypeVar("R")

#: Target number of chunks handed to each worker per batch.  More chunks
#: mean better load balance when per-query cost is skewed (Figure 9 of the
#: paper shows it is); fewer mean less task overhead.  Four is a standard
#: compromise.
CHUNKS_PER_WORKER = 4


def resolve_chunk_size(total: int, workers: int,
                       chunk_size: Optional[int] = None) -> int:
    """Pick the number of queries per pool task.

    An explicit ``chunk_size`` wins; otherwise the batch is split into
    about :data:`CHUNKS_PER_WORKER` chunks per worker.
    """
    if total < 0:
        raise ValidationError(f"total must be non-negative; got {total}")
    if workers < 1:
        raise ValidationError(f"workers must be positive; got {workers}")
    if chunk_size is not None:
        if chunk_size < 1:
            raise ValidationError(
                f"chunk_size must be positive; got {chunk_size}"
            )
        return chunk_size
    if total == 0:
        return 1
    return max(1, math.ceil(total / (CHUNKS_PER_WORKER * workers)))


def chunk_spans(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    """Split ``range(total)`` into consecutive ``(start, stop)`` spans."""
    if chunk_size < 1:
        raise ValidationError(f"chunk_size must be positive; got {chunk_size}")
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


def map_in_order(fn: Callable[[T], R], items: Sequence[T], *,
                 return_exceptions: bool = False) -> List[R]:
    """Apply ``fn`` to every item in order on the calling thread.

    Each task passes through the ``worker`` fault-injection site before
    running (a no-op unless an injector is armed).  With
    ``return_exceptions=True`` a task that raises contributes its
    exception object to the result list instead of poisoning the whole
    map — the serving layer's per-chunk isolation hook.
    """
    out: List = []
    for item in items:
        try:
            if _faultsites.active is not None:
                _faultsites.fire(_faultsites.WORKER, "pool.map")
            out.append(fn(item))
        except Exception as error:
            if not return_exceptions:
                raise
            out.append(error)
    return out
