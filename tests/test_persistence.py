"""Tests for index save/load."""

import pickle

import numpy as np
import pytest

from repro import FexiproIndex
from repro.exceptions import IndexIntegrityError, ValidationError


def test_save_load_round_trip(tmp_path, small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    path = tmp_path / "index.pkl"
    index.save(path)
    loaded = FexiproIndex.load(path)
    for q in small_queries[:5]:
        a = index.query(q, k=6)
        b = loaded.query(q, k=6)
        assert a.ids == b.ids
        np.testing.assert_allclose(a.scores, b.scores)
        assert a.stats.as_dict() == b.stats.as_dict()


def test_loaded_index_keeps_configuration(tmp_path, small_items):
    index = FexiproIndex(small_items, variant="F-SI", rho=0.8, e=50)
    path = tmp_path / "index.pkl"
    index.save(path)
    loaded = FexiproIndex.load(path)
    assert loaded.variant.name == "F-SI"
    assert loaded.rho == 0.8
    assert loaded.e == 50
    assert loaded.w == index.w


def test_load_rejects_foreign_pickles(tmp_path):
    path = tmp_path / "other.pkl"
    with open(path, "wb") as handle:
        pickle.dump({"something": "else"}, handle)
    with pytest.raises(ValidationError):
        FexiproIndex.load(path)
    with open(path, "wb") as handle:
        pickle.dump([1, 2, 3], handle)
    with pytest.raises(ValidationError):
        FexiproIndex.load(path)


def test_load_rejects_wrong_payload_type(tmp_path):
    path = tmp_path / "wrong.pkl"
    with open(path, "wb") as handle:
        pickle.dump({"format": 1, "index": "not an index"}, handle)
    with pytest.raises(ValidationError):
        FexiproIndex.load(path)


@pytest.mark.parametrize("fmt", [1, 2, 3])
def test_load_without_bar_norms_asks_for_a_rebuild(tmp_path, small_items,
                                                   fmt):
    """A snapshot saved before GEMM row norms were stored cannot load."""
    index = FexiproIndex(small_items)
    del index._live.bar_norms
    path = tmp_path / "old.bin"
    if fmt == 1:
        with open(path, "wb") as handle:
            pickle.dump({"format": 1, "index": index}, handle)
    else:
        index.save(path, format=fmt)
    with pytest.raises(ValidationError, match="rebuild"):
        FexiproIndex.load(path)


@pytest.mark.parametrize("fmt", [2, 3])
def test_load_with_an_int64_integer_copy_asks_for_a_rebuild(tmp_path,
                                                            small_items, fmt):
    """A snapshot saved with the int64 integer parts and their knob cannot load."""
    index = FexiproIndex(small_items)
    index.integer_storage_dtype = np.dtype(np.int64)
    path = tmp_path / "old.bin"
    index.save(path, format=fmt)
    with pytest.raises(ValidationError, match="rebuild"):
        FexiproIndex.load(path)


# ----------------------------------------------------------------------
# Sharded index persistence
# ----------------------------------------------------------------------

def test_sharded_save_load_round_trip(tmp_path, small_items, small_queries):
    from repro import ShardedFexiproIndex

    sharded = ShardedFexiproIndex(small_items, shards=5, workers=3,
                                  variant="F-SIR")
    path = tmp_path / "sharded.pkl"
    sharded.save(path)
    loaded = ShardedFexiproIndex.load(path)
    assert loaded.n_shards == 5
    assert loaded.workers == 3
    assert loaded.spans == sharded.spans
    assert loaded._procpool is None  # pools are never persisted
    for q in small_queries[:5]:
        a = sharded.query(q, k=6)
        b = loaded.query(q, k=6)
        assert a.ids == b.ids
        assert a.scores == b.scores


def test_sharded_load_maps_removed_thread_executor(tmp_path, small_items,
                                                   small_queries):
    from repro import ShardedFexiproIndex

    sharded = ShardedFexiproIndex(small_items, shards=3, variant="F-SIR")
    sharded.executor = "thread"  # as a file saved before its removal
    sharded.save(tmp_path / "thread.pkl")
    loaded = ShardedFexiproIndex.load(tmp_path / "thread.pkl")
    assert loaded.executor == "serial"
    for q in small_queries[:3]:
        assert loaded.query(q, k=6).ids == sharded.index.query(q, k=6).ids
    sharded.executor = "bogus"
    sharded.save(tmp_path / "bogus.pkl")
    with pytest.raises(ValidationError, match="executor"):
        ShardedFexiproIndex.load(tmp_path / "bogus.pkl")


def test_sharded_and_plain_formats_reject_each_other(tmp_path, small_items):
    from repro import ShardedFexiproIndex

    sharded = ShardedFexiproIndex(small_items, shards=3, workers=1)
    sharded_path = tmp_path / "sharded.pkl"
    sharded.save(sharded_path)
    with pytest.raises(ValidationError):
        FexiproIndex.load(sharded_path)

    plain_path = tmp_path / "plain.pkl"
    sharded.index.save(plain_path)
    with pytest.raises(ValidationError):
        ShardedFexiproIndex.load(plain_path)


# ----------------------------------------------------------------------
# Integrity: checksummed format 2 (PR 3)
# ----------------------------------------------------------------------

def _saved_index(tmp_path, small_items, name="index.pkl"):
    index = FexiproIndex(small_items, variant="F-SIR")
    path = tmp_path / name
    index.save(path)
    return index, path


def test_bit_flip_is_detected_and_names_the_path(tmp_path, small_items):
    _, path = _saved_index(tmp_path, small_items)
    blob = bytearray(path.read_bytes())
    blob[-100] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexIntegrityError) as excinfo:
        FexiproIndex.load(path)
    assert str(path) in str(excinfo.value)
    assert "checksum" in str(excinfo.value)


def test_truncated_file_is_detected(tmp_path, small_items):
    _, path = _saved_index(tmp_path, small_items)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(IndexIntegrityError) as excinfo:
        FexiproIndex.load(path)
    assert str(path) in str(excinfo.value)


def test_trailing_garbage_is_detected(tmp_path, small_items):
    _, path = _saved_index(tmp_path, small_items)
    with open(path, "ab") as handle:
        handle.write(b"extra bytes after the payload")
    with pytest.raises(IndexIntegrityError):
        FexiproIndex.load(path)


def test_empty_and_garbage_files_raise_integrity_error(tmp_path):
    empty = tmp_path / "empty.pkl"
    empty.write_bytes(b"")
    with pytest.raises(IndexIntegrityError) as excinfo:
        FexiproIndex.load(empty)
    assert str(empty) in str(excinfo.value)

    garbage = tmp_path / "garbage.pkl"
    garbage.write_bytes(b"\x00\x01this was never a pickle")
    with pytest.raises(IndexIntegrityError):
        FexiproIndex.load(garbage)


def test_missing_file_is_not_corruption(tmp_path):
    with pytest.raises(FileNotFoundError):
        FexiproIndex.load(tmp_path / "never-saved.pkl")


def test_format_2_header_records_kind_and_checksum(tmp_path, small_items):
    from repro.core.persist import FORMAT_VERSION

    _, path = _saved_index(tmp_path, small_items)
    with open(path, "rb") as handle:
        head = pickle.load(handle)
        payload = handle.read()
    assert head["format"] == FORMAT_VERSION
    assert head["kind"] == "FexiproIndex"
    assert head["nbytes"] == len(payload)
    import hashlib

    assert head["sha256"] == hashlib.sha256(payload).hexdigest()


def test_sharded_bit_flip_is_detected(tmp_path, small_items):
    from repro import ShardedFexiproIndex

    sharded = ShardedFexiproIndex(small_items, shards=3, workers=1)
    path = tmp_path / "sharded.pkl"
    sharded.save(path)
    blob = bytearray(path.read_bytes())
    blob[-50] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexIntegrityError):
        ShardedFexiproIndex.load(path)


def test_io_fault_injection_corrupts_save_detectably(tmp_path, small_items):
    from repro.serve import FaultInjector, FaultRule

    index = FexiproIndex(small_items)
    path = tmp_path / "chaos.pkl"
    injector = FaultInjector(
        [FaultRule(site="io", kind="corrupt", match="save")], seed=3)
    with injector:
        index.save(path)
    assert injector.fired["io"] == 1
    # The corrupt site fires after the checksum is computed (bit rot
    # between write and read), so the header vouches for the true bytes
    # and load must reject the flipped payload.
    with pytest.raises(IndexIntegrityError) as excinfo:
        FexiproIndex.load(path)
    assert str(path) in str(excinfo.value)


# ----------------------------------------------------------------------
# Format 3: the mmap-attachable replica layout (PR 6)
# ----------------------------------------------------------------------

def test_format3_save_load_round_trip(tmp_path, small_items, small_queries):
    index = FexiproIndex(small_items, variant="F-SIR")
    path = tmp_path / "index.fx3"
    index.save(path, format=3)
    loaded = FexiproIndex.load(path)
    for q in small_queries[:5]:
        a = index.query(q, k=6)
        b = loaded.query(q, k=6)
        assert a.ids == b.ids
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.stats.as_dict() == b.stats.as_dict()
    # A full load owns its arrays, exactly like a format-2 load.
    assert loaded.norms_sorted.flags.writeable
    assert loaded.uid == index.uid
    assert loaded._live.epoch == index._live.epoch


def test_format3_attach_is_readonly_and_identical(tmp_path, small_items,
                                                  small_queries):
    from repro.core.persist import attach_mmap, identity_token

    index = FexiproIndex(small_items, variant="F-SI")
    path = tmp_path / "index.fx3"
    index.save(path, format=3)
    with attach_mmap(path, "FexiproIndex", FexiproIndex) as attachment:
        assert tuple(attachment.token) == identity_token(index)
        attached = attachment.obj
        assert not attached.norms_sorted.flags.writeable
        for q in small_queries[:5]:
            a = index.query(q, k=6)
            b = attached.query(q, k=6)
            assert a.ids == b.ids
            np.testing.assert_array_equal(a.scores, b.scores)
            assert a.stats.as_dict() == b.stats.as_dict()


def test_format3_buffers_are_page_aligned(tmp_path, small_items):
    from repro.core.persist import PAGE

    index = FexiproIndex(small_items)
    path = tmp_path / "index.fx3"
    index.save(path, format=3)
    with open(path, "rb") as handle:
        head = pickle.load(handle)
        meta_start = handle.tell()
    assert head["format"] == 3
    data_start = -(-(meta_start + head["meta_nbytes"]) // PAGE) * PAGE
    for off, _nbytes in head["buffers"]:
        assert (data_start + off) % PAGE == 0


def test_format3_payload_bit_flip_detected_on_full_load(tmp_path,
                                                        small_items):
    index = FexiproIndex(small_items)
    path = tmp_path / "index.fx3"
    index.save(path, format=3)
    blob = bytearray(path.read_bytes())
    blob[-64] ^= 0xFF  # deep in the last buffer segment
    path.write_bytes(bytes(blob))
    with pytest.raises(IndexIntegrityError) as excinfo:
        FexiproIndex.load(path)
    assert "checksum" in str(excinfo.value)


def test_format3_truncation_detected_on_attach(tmp_path, small_items):
    from repro.core.persist import attach_mmap

    index = FexiproIndex(small_items)
    path = tmp_path / "index.fx3"
    index.save(path, format=3)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 4096])
    with pytest.raises(IndexIntegrityError):
        attach_mmap(path, "FexiproIndex", FexiproIndex)


def test_format2_file_does_not_attach(tmp_path, small_items):
    from repro.core.persist import attach_mmap

    index = FexiproIndex(small_items)
    path = tmp_path / "index.pkl"
    index.save(path)  # default format 2
    with pytest.raises(ValidationError):
        attach_mmap(path, "FexiproIndex", FexiproIndex)


def test_save_rejects_unknown_format(tmp_path, small_items):
    index = FexiproIndex(small_items)
    with pytest.raises(ValidationError):
        index.save(tmp_path / "index.bin", format=99)
