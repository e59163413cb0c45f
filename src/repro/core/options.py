"""One options object for the scan paths.

Every scan entry point takes its per-call state — ``timings``,
``deadline``, ``budget``, ``shared``, ``initial_threshold`` and ``span``
— as a single frozen :class:`ScanOptions` value passed as ``options=``.

``ScanOptions`` is deliberately *per-call* state (how to run this scan),
not shard geometry: ``start``/``stop``/``block_size`` describe *what* to
scan and stay explicit parameters of the blocked engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Optional

from ..exceptions import ValidationError

__all__ = ["DEFAULT_SCAN_OPTIONS", "ScanOptions"]


@dataclass(frozen=True)
class ScanOptions:
    """Per-call knobs shared by every scan entry point.

    Parameters
    ----------
    initial_threshold:
        Warm-start seed for the live threshold ``t``.  Must be a *strict*
        lower bound on the query's true k-th inner product (reverse
        verification passes one); results are then bitwise identical to
        a cold scan, only pruning counters change.
    deadline:
        Optional :class:`repro.serve.resilience.Deadline`, polled at block
        boundaries (per item in the reference engine).  On expiry the scan
        returns the exact top-k of the length-sorted prefix visited,
        flagged via ``stats.deadline_hit``.
    timings:
        Optional :class:`~repro.core.stats.StageTimings` accumulator for
        per-stage wall time.
    shared:
        Optional cross-shard threshold cell — anything with a monotone
        ``value`` and an ``offer`` method, such as the shared-memory slot
        of :mod:`repro.serve.procpool` — polled at block boundaries by
        the shard scans of a process fan-out (ignored by the reference
        engine, which never runs inside one).
    span:
        Optional :class:`repro.obs.Span`.  When present, the engines
        record block/threshold/deadline events on it; when ``None`` (the
        default) the cost is one branch per block — same shape as a
        disarmed deadline.
    budget:
        Optional :class:`repro.core.budget.FlopBudget`, polled and
        charged at the same block/shard boundaries as ``deadline`` (per
        item in the reference engine).  On exhaustion the scan returns
        the exact top-k of the length-sorted prefix visited, flagged via
        ``stats.budget_exhausted``, and budget-aware callers attach a
        certified :class:`~repro.core.budget.ResultBounds` band.  An
        infinite budget changes nothing — bitwise identical to ``None``.

    A scan stops on at most one trigger: ``deadline`` and ``budget``
    together raise :class:`~repro.exceptions.ValidationError`.
    """

    initial_threshold: float = -math.inf
    deadline: Optional[Any] = None
    timings: Optional[Any] = None
    shared: Optional[Any] = None
    span: Optional[Any] = None
    budget: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.budget is not None:
            raise ValidationError(
                "a scan takes a deadline or a FLOP budget, not both: pick "
                "one degradation trigger (wall-clock or compute) per scan"
            )

    def replace(self, **changes: Any) -> "ScanOptions":
        """A copy with the given fields swapped (dataclasses.replace)."""
        return _dc_replace(self, **changes)


#: The all-defaults instance shared by every call that passes no options —
#: frozen, so handing out one object is safe and allocation-free.
DEFAULT_SCAN_OPTIONS = ScanOptions()

