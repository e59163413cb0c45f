"""Versioned, checksummed index persistence (save formats 2 and 3).

Format-1 files (PRs 1–2) were a single pickled ``{"format": 1, "index":
obj}`` dict: corruption surfaced as a raw ``UnpicklingError`` (or worse,
loaded silently).  They no longer load: every one of them pickles an
index without the snapshot's ``bar_norms``, which refuses to unpickle
and asks for a rebuild (:class:`~repro.exceptions.ValidationError`).
Format 2 splits the file into a small pickled *header*
followed by the pickled *payload bytes*, with the payload's SHA-256 and
length recorded in the header::

    pickle({"format": 2, "kind": "FexiproIndex",
            "sha256": <hex digest of payload>, "nbytes": <len(payload)>})
    <payload bytes: pickle(index)>

``load_checksummed`` verifies length and digest *before* unpickling the
payload, so a bit-flipped or truncated file fails loudly with
:class:`~repro.exceptions.IndexIntegrityError` naming the path — it never
reaches the unpickler.  Undecodable files are wrapped in the same error
instead of leaking ``EOFError`` / ``UnpicklingError``.

``kind`` keeps the plain and sharded formats rejecting each other, as
before — a *well-formed* file of the wrong kind is a caller mistake
(:class:`~repro.exceptions.ValidationError`), not corruption.

Format 3 (PR 6) is the mmap-friendly layout behind multi-process scan
replicas: the object is pickled with protocol 5 and a ``buffer_callback``
that externalizes every large array buffer, leaving a small *meta* pickle
(object graph, dtypes, shapes, scalars) plus a table of raw, page-aligned
buffer segments::

    pickle(header)          # format, kind, (uid, state_version) token,
                            # digests, meta_nbytes, buffer table
    <meta pickle bytes>
    <zero padding to the next 4096-byte boundary>
    <buffer 0 bytes> <pad> <buffer 1 bytes> <pad> ...

Two readers exist.  :func:`load_checksummed` accepts format 3 alongside
format 2 and verifies the full SHA-256 (meta + every buffer, in table
order) before reconstructing — same guarantees as format 2, at full-read
cost.  :func:`attach_mmap` is the O(meta) path: it verifies only the meta
digest, maps the file read-only, and hands the unpickler zero-copy
``memoryview`` slices of the mapping — the arrays alias the page cache,
are shared across attaching processes, and come back with
``writeable=False``.  The header also records the index's ``(uid,
state_version)`` identity token so replica machinery can reject stale
attaches after any catalog write or compaction (:mod:`repro.core.replica`).

The serialized payload (format 2) or meta pickle (format 3) passes
through the ``io`` fault site (:mod:`repro._faultsites`) *after* the
checksum is computed, modelling bit rot between write and read — so the
integrity machinery is tested end to end by injecting real byte
corruption, not by monkeypatching hashes.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import pickle

from .. import _faultsites
from ..exceptions import IndexIntegrityError, ValidationError

#: Current on-disk format version (the default ``save`` layout).
FORMAT_VERSION = 2

#: The mmap-friendly layout used by process-pool scan replicas.
MMAP_FORMAT = 3

#: Alignment of the raw buffer segments in a format-3 file.  One page:
#: buffer starts coincide with page-cache boundaries, so a read-only
#: ``mmap`` attach aliases whole pages and never copies.
PAGE = 4096


def identity_token(obj):
    """The snapshot token ``(uid, state_version)`` of an index, or ``None``.

    A :class:`~repro.core.index.FexiproIndex` reports its current
    :attr:`~repro.core.delta.LiveCatalog.token`; a
    :class:`~repro.core.sharded.ShardedFexiproIndex` inherits its inner
    index's.  ``state_version`` bumps on *every* catalog state swap —
    appends, tombstones and compactions alike — so a replica attached to
    an older save is recognized as stale.  Objects without a live
    catalog (foreign types in tests) save with a ``None`` token and
    simply cannot participate in staleness checks.
    """
    live = getattr(getattr(obj, "index", obj), "_live", None)
    return None if live is None else live.token


def _align(offset: int) -> int:
    return -(-offset // PAGE) * PAGE


def _dump_out_of_band(obj):
    """Pickle ``obj`` with every large array buffer externalized.

    Returns ``(meta, buffers)``: the protocol-5 meta pickle plus the raw
    buffer bytes in pickling order.  The callback returns ``False`` —
    protocol 5's marker for *out-of-band* serialization — so the meta
    stays a few kilobytes no matter how big the index is.
    """
    buffers = []

    def external(pb):
        try:
            buffers.append(pb.raw())
        except BufferError:  # non-contiguous exporter: flatten a copy
            buffers.append(memoryview(pb).tobytes(order="A"))
        return False

    meta = pickle.dumps(obj, protocol=5, buffer_callback=external)
    return meta, buffers


def save_checksummed(path, kind: str, obj, *,
                     format: int = FORMAT_VERSION) -> None:
    """Write ``obj`` to ``path`` in the checksummed format-2 or -3 layout."""
    if format == MMAP_FORMAT:
        return _save_mmap(path, kind, obj)
    if format != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported save format {format!r} (use 2 or 3)"
        )
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "nbytes": len(payload),
    }
    # The fault site sits between checksum and write — an injected
    # ``corrupt`` models the disk flipping bits under us, which load
    # must catch against the vouched-for digest.
    payload = _faultsites.transform(_faultsites.IO, payload,
                                    f"save:{path}")
    with open(path, "wb") as handle:
        pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.write(payload)


def _save_mmap(path, kind: str, obj) -> None:
    """Write ``obj`` to ``path`` in the page-aligned format-3 layout."""
    meta, buffers = _dump_out_of_band(obj)
    # The payload digest covers the data region byte-for-byte — every
    # buffer *and* the zero padding aligning it — so a flip anywhere in
    # the region fails verification, even between buffers.  (Small
    # live-catalog arrays at the tail of the table make padding a real
    # fraction of the tail bytes.)
    digest = hashlib.sha256(meta)
    table = []
    offset = 0
    end = 0
    data_nbytes = 0
    for buf in buffers:
        view = memoryview(buf)
        digest.update(b"\0" * (offset - end))
        digest.update(view)
        table.append((offset, view.nbytes))
        end = offset + view.nbytes
        data_nbytes = end
        offset = _align(end)
    header = {
        "format": MMAP_FORMAT,
        "kind": kind,
        "token": identity_token(obj),
        "sha256": digest.hexdigest(),
        "meta_nbytes": len(meta),
        "meta_sha256": hashlib.sha256(meta).hexdigest(),
        "page": PAGE,
        "buffers": table,
        "data_nbytes": data_nbytes,
    }
    # Same contract as format 2: the fault site corrupts *after* the
    # digests are computed, so load/attach must catch the damage.
    meta = _faultsites.transform(_faultsites.IO, meta, f"save:{path}")
    with open(path, "wb") as handle:
        pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.write(meta)
        data_start = _align(handle.tell())
        handle.write(b"\0" * (data_start - handle.tell()))
        for (off, __), buf in zip(table, buffers):
            position = data_start + off
            handle.write(b"\0" * (position - handle.tell()))
            handle.write(buf)


def load_checksummed(path, kind: str, cls):
    """Load and verify an index saved by :func:`save_checksummed`.

    Accepts format-2 and format-3 files, both checksum-verified.
    Raises :class:`IndexIntegrityError` for unreadable, truncated or
    corrupted files, and :class:`ValidationError` for well-formed files
    that are simply not a saved ``cls``.
    """
    handle = open(path, "rb")  # a missing file is the caller's error,
    with handle:               # not corruption: FileNotFoundError stands
        try:
            head = pickle.load(handle)
        except ValidationError:
            raise  # an old pickled index that asks for a rebuild
        except Exception as error:
            raise IndexIntegrityError(
                path, f"unreadable header ({type(error).__name__}: {error})"
            ) from error
        if isinstance(head, dict) and head.get("format") == MMAP_FORMAT:
            if head.get("kind") != kind:
                raise ValidationError(
                    f"{str(path)!r} does not contain a {cls.__name__} "
                    f"(found kind {head.get('kind')!r})"
                )
            return _check_kind(
                path, cls, _load_mmap_verified(handle, path, head))
        if not isinstance(head, dict) or \
                head.get("format") != FORMAT_VERSION:
            raise ValidationError(
                f"{str(path)!r} is not a saved {cls.__name__}"
            )
        if head.get("kind") != kind:
            raise ValidationError(
                f"{str(path)!r} does not contain a {cls.__name__} "
                f"(found kind {head.get('kind')!r})"
            )
        nbytes, sha256 = head.get("nbytes"), head.get("sha256")
        if not isinstance(nbytes, int) or not isinstance(sha256, str):
            raise IndexIntegrityError(
                path, "format-2 header is missing nbytes/sha256"
            )
        try:
            payload = handle.read(nbytes + 1)
        except OSError as error:
            raise IndexIntegrityError(
                path, f"cannot read payload ({error})"
            ) from error

    if len(payload) != nbytes:
        raise IndexIntegrityError(
            path,
            f"payload is {len(payload)} bytes, header promises "
            f"{nbytes} (truncated or trailing garbage)",
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest != sha256:
        raise IndexIntegrityError(
            path,
            f"payload checksum mismatch (stored {sha256[:12]}…, "
            f"computed {digest[:12]}…)",
        )
    try:
        obj = pickle.loads(payload)
    except ValidationError:
        raise  # a decodable object that rejected its own state
    except Exception as error:  # checksum passed but payload undecodable
        raise IndexIntegrityError(
            path, f"payload failed to unpickle ({type(error).__name__}: "
                  f"{error})"
        ) from error
    return _check_kind(path, cls, obj)


def _check_mmap_head(path, head):
    meta_nbytes = head.get("meta_nbytes")
    meta_sha = head.get("meta_sha256")
    sha256 = head.get("sha256")
    table = head.get("buffers")
    if not isinstance(meta_nbytes, int) or not isinstance(meta_sha, str) \
            or not isinstance(sha256, str) or not isinstance(table, list):
        raise IndexIntegrityError(
            path, "format-3 header is missing meta/digest/buffer fields"
        )
    for entry in table:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2
                and all(isinstance(v, int) and v >= 0 for v in entry)):
            raise IndexIntegrityError(
                path, f"format-3 buffer table entry {entry!r} is malformed"
            )
    return meta_nbytes, meta_sha, sha256, table


def _verify_meta(path, meta, meta_nbytes, meta_sha):
    if len(meta) != meta_nbytes:
        raise IndexIntegrityError(
            path,
            f"meta pickle is {len(meta)} bytes, header promises "
            f"{meta_nbytes} (truncated)",
        )
    digest = hashlib.sha256(meta).hexdigest()
    if digest != meta_sha:
        raise IndexIntegrityError(
            path,
            f"meta checksum mismatch (stored {meta_sha[:12]}…, "
            f"computed {digest[:12]}…)",
        )


def _load_mmap_verified(handle, path, head):
    """Full-verification format-3 load (reads every buffer byte)."""
    meta_nbytes, meta_sha, sha256, table = _check_mmap_head(path, head)
    meta_start = handle.tell()
    meta = handle.read(meta_nbytes)
    _verify_meta(path, meta, meta_nbytes, meta_sha)
    data_start = _align(meta_start + meta_nbytes)
    gap = handle.read(data_start - (meta_start + meta_nbytes))
    if gap.count(0) != len(gap):
        raise IndexIntegrityError(
            path, "padding between meta and data region is not zeroed"
        )
    # Stream the data region sequentially — padding included, mirroring
    # the save-side digest — so every byte of the region is verified.
    digest = hashlib.sha256(meta)
    buffers = []
    cursor = 0
    for off, nbytes in table:
        if off < cursor:
            raise IndexIntegrityError(
                path, f"buffer table overlaps at offset {off}"
            )
        pad = handle.read(off - cursor)
        buf = handle.read(nbytes)
        if len(pad) != off - cursor or len(buf) != nbytes:
            raise IndexIntegrityError(
                path,
                f"buffer at offset {off} is {len(buf)} bytes, table "
                f"promises {nbytes} (truncated)",
            )
        digest.update(pad)
        digest.update(buf)
        # bytearray, not bytes: a fully loaded index owns writable
        # arrays, exactly like a format-2 load.
        buffers.append(bytearray(buf))
        cursor = off + nbytes
    if digest.hexdigest() != sha256:
        raise IndexIntegrityError(
            path,
            f"payload checksum mismatch (stored {sha256[:12]}…, "
            f"computed {digest.hexdigest()[:12]}…)",
        )
    try:
        return pickle.loads(meta, buffers=buffers)
    except ValidationError:
        raise  # a decodable object that rejected its own state
    except Exception as error:
        raise IndexIntegrityError(
            path, f"meta pickle failed to decode ({type(error).__name__}: "
                  f"{error})"
        ) from error


class MmapAttachment:
    """A zero-copy, read-only index attached to a format-3 file.

    ``obj`` is the reconstructed index whose array buffers alias the
    mapping (``writeable=False``); ``token`` is the file's ``(uid,
    state_version)`` identity.  Keep the attachment alive as long as the
    index is in use — :meth:`close` drops the object reference *before*
    unmapping so a live index can never dangle.  Context-manager
    friendly.
    """

    def __init__(self, obj, token, path, mapping, handle):
        self.obj = obj
        self.token = token
        self.path = path
        self._mmap = mapping
        self._handle = handle

    def close(self) -> None:
        self.obj = None
        if self._mmap is not None:
            # If the caller leaked array references past the attachment's
            # lifetime, leave the mapping to the GC rather than raising.
            with contextlib.suppress(BufferError, ValueError):
                self._mmap.close()
            self._mmap = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MmapAttachment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_mmap(path, kind: str, cls) -> MmapAttachment:
    """Attach a format-3 file read-only in O(meta) time.

    Verifies the header and the meta digest only — the raw buffer bytes
    are never read eagerly; they fault in from the page cache as the scan
    touches them, and every attaching process shares the same physical
    pages.  Only format-3 files attach (:class:`ValidationError`
    otherwise — use :func:`load_checksummed` for format 2); truncated
    or corrupted files raise :class:`IndexIntegrityError`.
    """
    handle = open(path, "rb")
    try:
        try:
            head = pickle.load(handle)
        except Exception as error:
            raise IndexIntegrityError(
                path, f"unreadable header ({type(error).__name__}: {error})"
            ) from error
        if not isinstance(head, dict) or head.get("format") != MMAP_FORMAT:
            raise ValidationError(
                f"{str(path)!r} is not an mmap-attachable (format-3) "
                f"{cls.__name__}"
            )
        if head.get("kind") != kind:
            raise ValidationError(
                f"{str(path)!r} does not contain a {cls.__name__} "
                f"(found kind {head.get('kind')!r})"
            )
        meta_nbytes, meta_sha, __, table = _check_mmap_head(path, head)
        meta_start = handle.tell()
        meta = handle.read(meta_nbytes)
        _verify_meta(path, meta, meta_nbytes, meta_sha)
        data_start = _align(meta_start + meta_nbytes)
        end = max((off + nbytes for off, nbytes in table), default=0)
        if os.fstat(handle.fileno()).st_size < data_start + end:
            raise IndexIntegrityError(
                path,
                f"file is shorter than the buffer table's "
                f"{data_start + end} bytes (truncated)",
            )
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        obj = base = views = None
        try:
            base = memoryview(mapping)
            views = [base[data_start + off:data_start + off + nbytes]
                     for off, nbytes in table]
            try:
                obj = pickle.loads(meta, buffers=views)
            except Exception as error:
                raise IndexIntegrityError(
                    path,
                    f"meta pickle failed to decode "
                    f"({type(error).__name__}: {error})",
                ) from error
            _check_kind(path, cls, obj)
        except BaseException:
            # Drop every exporter (a half-built object graph may hold
            # buffer views) before unmapping, else close() raises
            # BufferError and masks the real failure.
            obj = views = base = None
            with contextlib.suppress(BufferError, ValueError):
                mapping.close()
            raise
    except BaseException:
        handle.close()
        raise
    return MmapAttachment(obj, head.get("token"), str(path), mapping, handle)


def _check_kind(path, cls, obj):
    if not isinstance(obj, cls):
        raise ValidationError(
            f"{str(path)!r} does not contain a {cls.__name__}"
        )
    return obj
