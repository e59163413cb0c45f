"""Deterministic, seedable fault injection for the serving stack.

Every resilience behaviour in this repo — deadline degradation, per-query
isolation, retry, shard fan-out failures, index-integrity verification —
is tested by *injecting real faults into the real code paths*, not by
mocking.  The call sites live in :mod:`repro._faultsites` (no-op unless an
injector is armed):

- ``scan``   — fired by the blocked/reference engines once per block (and
  tagged per query by the serving layer and per shard by the sharded
  fan-out), so a rule here raises or stalls *inside* a scan exactly as a
  bad memory page or a stolen CPU would;
- ``worker`` — fired at the start of each worker-process chunk task
  (:mod:`repro.serve.procpool`), modelling a task that dies before its
  per-query guards engage; armed through
  ``ProcessScanPool(fault_rules=...)``, since a parent-side injector
  keeps serving in-process;
- ``io``     — a byte-level transform applied to the serialized index
  payload in :mod:`repro.core.persist`, modelling bit rot and torn writes.

Determinism: all randomness comes from one ``random.Random(seed)`` guarded
by a lock, and rules fire in declaration order.  In-process execution is
one ordered loop, so a given seed always produces the same fault
sequence; CI sweeps ``REPRO_FAULT_SEED`` to vary it.

Example
-------
>>> from repro.serve.faults import FaultInjector, FaultRule
>>> injector = FaultInjector([FaultRule("scan", "raise", match="q=2",
...                                     transient=False)], seed=7)
>>> with injector:          # armed only inside the block
...     pass                # query 2's scan would now raise InjectedFault
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import _faultsites
from ..exceptions import InjectedFault, ValidationError

__all__ = ["FaultInjector", "FaultRule"]

_KINDS = ("raise", "stall", "corrupt")


@dataclass
class FaultRule:
    """One injection rule: where, what, how often.

    Parameters
    ----------
    site:
        ``"scan"``, ``"worker"`` or ``"io"`` (see module docstring).
    kind:
        ``"raise"`` (throw :class:`~repro.exceptions.InjectedFault`),
        ``"stall"`` (sleep ``stall_seconds`` — drives deadline tests with a
        real clock), or ``"corrupt"`` (flip one payload byte; ``io`` only).
    probability:
        Chance of firing per eligible call, drawn from the injector's
        seeded generator.  ``1.0`` (default) is fully deterministic.
    limit:
        Maximum number of firings, or ``None`` for unlimited.  ``limit=1``
        models a one-off transient fault.
    match:
        Substring the call's context must contain (e.g. ``"q=3"`` to poison
        one query, ``"shard="`` to hit only sharded fan-out scans).
    transient:
        Whether raised faults carry ``transient=True`` — the marker the
        serving layer's bounded retry honours.
    stall_seconds:
        Sleep length for ``kind="stall"``.
    """

    site: str
    kind: str
    probability: float = 1.0
    limit: Optional[int] = None
    match: Optional[str] = None
    transient: bool = False
    stall_seconds: float = 0.0
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.site not in (_faultsites.SCAN, _faultsites.WORKER,
                             _faultsites.IO):
            raise ValidationError(f"unknown fault site {self.site!r}")
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown fault kind {self.kind!r}")
        if self.kind == "corrupt" and self.site != _faultsites.IO:
            raise ValidationError(
                "corrupt faults only apply to the io site"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(
                f"probability must be in [0, 1]; got {self.probability!r}"
            )
        if self.limit is not None and self.limit < 0:
            raise ValidationError(
                f"limit must be non-negative or None; got {self.limit!r}"
            )
        if self.stall_seconds < 0:
            raise ValidationError(
                f"stall_seconds must be non-negative; "
                f"got {self.stall_seconds!r}"
            )


class FaultInjector:
    """Arms :mod:`repro._faultsites` with a deterministic rule set.

    A context manager: faults fire only while the ``with`` block is active
    (or between explicit :meth:`install`/:meth:`uninstall` calls), so a
    test that exits cleanly can never leak faults into the next one.

    ``fired`` counts firings per site for assertions.
    """

    def __init__(self, rules: Sequence[FaultRule], *, seed: int = 0,
                 sleep: Callable[[float], None] = time.sleep):
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self.fired: Dict[str, int] = {_faultsites.SCAN: 0,
                                      _faultsites.WORKER: 0,
                                      _faultsites.IO: 0}

    # -- the hooks _faultsites calls -----------------------------------

    def fire(self, site: str, context: str) -> None:
        """Raise or stall according to the first matching armed rule."""
        rule = self._draw(site, context, kinds=("raise", "stall"))
        if rule is None:
            return
        if rule.kind == "stall":
            self._sleep(rule.stall_seconds)
            return
        raise InjectedFault(
            f"injected {site} fault (seed={self.seed}, context={context!r})",
            transient=rule.transient,
        )

    def transform(self, site: str, payload: bytes, context: str) -> bytes:
        """Corrupt one deterministic byte of ``payload`` if a rule fires."""
        rule = self._draw(site, context, kinds=("corrupt",))
        if rule is None or not payload:
            return payload
        with self._lock:
            position = self._rng.randrange(len(payload))
        corrupted = bytearray(payload)
        corrupted[position] ^= 0xFF
        return bytes(corrupted)

    def _draw(self, site: str, context: str,
              kinds: Sequence[str]) -> Optional[FaultRule]:
        with self._lock:
            for rule in self.rules:
                if rule.site != site or rule.kind not in kinds:
                    continue
                if rule.match is not None and rule.match not in context:
                    continue
                if rule.limit is not None and rule.fired >= rule.limit:
                    continue
                if rule.probability < 1.0 and \
                        self._rng.random() >= rule.probability:
                    continue
                rule.fired += 1
                self.fired[site] += 1
                return rule
        return None

    # -- arming --------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Arm this injector process-wide (replacing any previous one)."""
        _faultsites.arm(self)
        return self

    def uninstall(self) -> None:
        """Disarm, but only if this injector is the armed one."""
        _faultsites.disarm(self)

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FaultInjector(seed={self.seed}, "
                f"rules={len(self.rules)}, fired={self.fired})")
