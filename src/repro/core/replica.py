"""Shared-memory index replicas for multi-process scanning.

A *replica* is a format-3 file (:mod:`repro.core.persist`) published to a
tmpfs directory — ``/dev/shm`` where available, so the bytes live in RAM
and an ``mmap`` attach from any process aliases the same physical pages.
This is the build-once / fan-out-read-only split behind the process scan
pool: the parent preprocesses the index once, publishes it, and every
scan worker attaches zero-copy in O(meta) time.

Staleness is structural, not advisory.  A replica's filename and header
both carry the index's ``(uid, state_version)`` snapshot token;
``add_items`` / ``remove_items`` / ``compact`` bump ``state_version`` in
the parent, the publisher then writes a *new* file for the new token,
and :func:`attach_replica` refuses a handle whose token no longer
matches the file — a worker
holding yesterday's replica cannot silently serve yesterday's answers
(:class:`~repro.exceptions.IndexIntegrityError`).
"""

from __future__ import annotations

import os
import tempfile
import uuid
from dataclasses import dataclass
from typing import Optional, Tuple

from ..exceptions import IndexIntegrityError, ValidationError
from .persist import (
    MmapAttachment,
    attach_mmap,
    identity_token,
    save_checksummed,
)

__all__ = [
    "ReplicaHandle",
    "attach_replica",
    "discard_replica",
    "publish_replica",
    "replica_dir",
]


def replica_dir() -> str:
    """The spool directory for replicas: ``/dev/shm`` if usable, else tmp.

    ``/dev/shm`` is a tmpfs on every mainstream Linux, so a replica there
    *is* shared memory; elsewhere (macOS, exotic containers) the system
    temp dir still works — the page cache keeps hot replicas resident,
    only eviction behaviour differs.
    """
    shm = "/dev/shm"
    if os.path.isdir(shm) and os.access(shm, os.W_OK):
        return shm
    return tempfile.gettempdir()


@dataclass(frozen=True)
class ReplicaHandle:
    """A published replica: where it lives and which index identity it is."""

    path: str
    token: Tuple[str, int]
    nbytes: int = 0


def publish_replica(index, directory: Optional[str] = None) -> ReplicaHandle:
    """Write ``index`` as a format-3 replica file; returns its handle.

    The filename embeds the ``(uid, state_version)`` token plus the
    publishing pid and a random suffix, so concurrent publishers (two
    services over one index) never collide and a stale file is
    recognizable on sight.
    """
    token = identity_token(index)
    if token is None:
        raise ValidationError(
            f"cannot publish a replica of {type(index).__name__}: "
            f"no (uid, state_version) identity"
        )
    directory = directory if directory is not None else replica_dir()
    name = (f"repro-replica-{token[0]}-v{token[1]}-"
            f"{os.getpid()}-{uuid.uuid4().hex[:8]}.fx3")
    path = os.path.join(directory, name)
    save_checksummed(path, type(index).__name__, index, format=3)
    return ReplicaHandle(path=path, token=token,
                         nbytes=os.path.getsize(path))


def attach_replica(handle: ReplicaHandle) -> MmapAttachment:
    """Attach a published replica read-only, enforcing token identity.

    The caller's ``handle.token`` is what the parent *believes* the index
    identity is; the file header records what was actually published.  A
    mismatch means the parent's index moved on (a write or compaction)
    while this worker still points at the old bytes — serving from them
    would return exact answers to a question nobody is asking anymore, so
    the attach fails structurally with :class:`IndexIntegrityError`.
    """
    from .index import FexiproIndex

    attachment = attach_mmap(handle.path, "FexiproIndex", FexiproIndex)
    if attachment.token is None \
            or tuple(attachment.token) != tuple(handle.token):
        stored = attachment.token
        attachment.close()
        raise IndexIntegrityError(
            handle.path,
            f"stale replica: file holds identity {stored!r}, caller "
            f"expects {tuple(handle.token)!r} (index state moved on)",
        )
    return attachment


def discard_replica(handle: ReplicaHandle) -> None:
    """Best-effort unlink of a replica file (attached readers keep pages)."""
    try:
        os.unlink(handle.path)
    except OSError:
        pass
