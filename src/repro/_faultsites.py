"""Process-global fault-injection sites (no-ops unless armed).

The scan, worker and IO layers call these hooks at well-defined points so
the deterministic :class:`repro.serve.faults.FaultInjector` can raise,
stall or corrupt *inside the real code paths* — the resilience tests then
exercise injected faults, not mocks.  This module sits below both
``repro.core`` and ``repro.serve`` and imports neither, so the hot paths
can reference it without import cycles.

Cost when disarmed (the production default) is one module-attribute read
and a ``None`` check per call site — the sites fire at block/shard/task
granularity, never per item, so the overhead is unmeasurable next to a
block scan (gated by ``benchmarks/bench_resilience.py``).

``tagged`` pushes a thread-local context tag (e.g. ``q=3`` for the query
being scanned, ``shard=2`` for an intra-query shard task) that is appended
to every ``fire``/``transform`` context string, letting injector rules
target one query or one shard without the call sites knowing about it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

#: Site names used by the call sites below.
SCAN = "scan"       # repro.core.blocked / repro.core.scanner, per block/item batch
WORKER = "worker"   # repro.serve.procpool chunk tasks, per task
IO = "io"           # repro.core.persist, on the serialized payload

#: The armed injector (anything with ``fire(site, context)`` and
#: ``transform(site, payload, context)``), or ``None``.
active = None

_tags = threading.local()


def _context(context: str) -> str:
    tags = getattr(_tags, "stack", None)
    if not tags:
        return context
    return ":".join(tags) + (f":{context}" if context else "")


@contextmanager
def tagged(tag: str) -> Iterator[None]:
    """Append ``tag`` to every fault context fired by this thread."""
    stack = getattr(_tags, "stack", None)
    if stack is None:
        stack = _tags.stack = []
    stack.append(tag)
    try:
        yield
    finally:
        stack.pop()


def fire(site: str, context: str = "") -> None:
    """Give the armed injector (if any) a chance to raise or stall here."""
    injector = active
    if injector is not None:
        injector.fire(site, _context(context))


def transform(site: str, payload: bytes, context: str = "") -> bytes:
    """Let the armed injector (if any) corrupt a serialized payload."""
    injector = active
    if injector is not None:
        return injector.transform(site, payload, _context(context))
    return payload


def arm(injector) -> None:
    """Install ``injector`` as the process-global active injector."""
    global active
    active = injector


def disarm(expected: Optional[object] = None) -> None:
    """Remove the active injector (optionally only if it is ``expected``)."""
    global active
    if expected is None or active is expected:
        active = None


def reset_for_worker() -> None:
    """Scrub inherited fault state in a freshly forked/spawned scan worker.

    A ``fork``-start worker inherits whatever the parent had at fork
    time: an armed injector (whose RNG/lock state must not be shared —
    the process pool re-arms a fresh, per-worker-seeded one) and the
    forking thread's tag stack (a worker must not report ``q=3`` context
    for work that belongs to a different query).  Spawn workers start
    clean; calling this is then a no-op by construction.
    """
    global active, _tags
    active = None
    _tags = threading.local()
