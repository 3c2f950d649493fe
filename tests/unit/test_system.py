"""Tests for the end-to-end EncryptedDedupSystem (content level)."""

import pytest

from repro.chunking import ChunkerSpec, GearChunker
from repro.common.errors import StorageError
from repro.crypto.keymanager import KeyManager
from repro.crypto.mle import ConvergentEncryption, ServerAidedMLE
from repro.datasets.filesystem import build_tree, deterministic_bytes
from repro.defenses.segmentation import SegmentationSpec
from repro.storage.system import EncryptedDedupSystem

SMALL_CHUNKS = ChunkerSpec(min_size=512, avg_size=2048, max_size=8192)
SMALL_SEGMENTS = SegmentationSpec(
    min_bytes=8 * 1024, avg_bytes=16 * 1024, max_bytes=32 * 1024
)


all_defense_combinations = pytest.mark.parametrize(
    "use_minhash,use_scramble",
    [(False, False), (True, False), (False, True), (True, True)],
)


def make_system(use_minhash=False, use_scramble=False, scheme=None):
    return EncryptedDedupSystem(
        scheme=scheme or ConvergentEncryption(),
        chunker=GearChunker(SMALL_CHUNKS),
        use_minhash=use_minhash,
        use_scramble=use_scramble,
        segmentation=SMALL_SEGMENTS,
        container_size=64 * 1024,
    )


@all_defense_combinations
def test_put_get_roundtrip_all_schemes(use_minhash, use_scramble):
    system = make_system(use_minhash, use_scramble)
    data = deterministic_bytes(1, "file", 150_000)
    stored = system.put_file("f.bin", data)
    system.flush()
    assert system.get_file(stored) == data


@all_defense_combinations
def test_empty_file_roundtrip(use_minhash, use_scramble):
    # An empty file is stored as one empty chunk (one padding block).
    system = make_system(use_minhash, use_scramble)
    stored = system.put_file("empty.bin", b"")
    system.flush()
    assert len(stored.recipe) == len(stored.keys) == 1
    assert system.get_file(stored) == b""


def test_server_aided_backend():
    system = make_system(scheme=ServerAidedMLE(KeyManager(b"s" * 32)))
    data = deterministic_bytes(2, "file", 50_000)
    stored = system.put_file("f.bin", data)
    system.flush()
    assert system.get_file(stored) == data


def test_deduplication_across_identical_files():
    system = make_system()
    data = deterministic_bytes(3, "file", 100_000)
    system.put_file("a.bin", data)
    system.flush()
    before = system.stored_bytes
    system.put_file("b.bin", data)  # identical copy
    system.flush()
    assert system.stored_bytes == before  # nothing new stored


def test_minhash_dedups_identical_files():
    system = make_system(use_minhash=True)
    data = deterministic_bytes(4, "file", 100_000)
    system.put_file("a.bin", data)
    system.flush()
    before = system.stored_bytes
    system.put_file("b.bin", data)
    system.flush()
    assert system.stored_bytes == before


def test_edited_file_stores_only_changed_region():
    system = make_system()
    data = deterministic_bytes(5, "file", 200_000)
    system.put_file("v1.bin", data)
    system.flush()
    before = system.stored_bytes
    edited = data[:100_000] + b"EDIT" * 8 + data[100_032:]
    system.put_file("v2.bin", edited)
    system.flush()
    added = system.stored_bytes - before
    assert 0 < added < len(data) * 0.2


def test_whole_tree_roundtrip():
    system = make_system(use_minhash=True, use_scramble=True)
    tree = build_tree(seed=6, num_files=8, mean_file_size=20_000)
    handles = {
        file.path: system.put_file(file.path, file.data)
        for file in tree.iter_files()
    }
    system.flush()
    for file in tree.iter_files():
        assert system.get_file(handles[file.path]) == file.data


def test_missing_chunk_raises():
    system = make_system()
    data = deterministic_bytes(7, "file", 10_000)
    stored = system.put_file("f.bin", data)
    # No flush: the open container is not sealed, so the fingerprint index
    # does not know the chunks yet.
    with pytest.raises(StorageError):
        system.get_file(stored)


def test_scramble_changes_upload_order_but_not_recipes():
    plain_system = make_system(use_minhash=True, use_scramble=False)
    scrambled_system = make_system(use_minhash=True, use_scramble=True)
    data = deterministic_bytes(8, "file", 120_000)
    a = plain_system.put_file("f.bin", data)
    b = scrambled_system.put_file("f.bin", data)
    # Same recipes (logical order identical)...
    assert [r.tag for r in a.recipe.chunks] == [r.tag for r in b.recipe.chunks]
    plain_system.flush()
    scrambled_system.flush()
    # ...different physical layout (container entry order).
    plain_order = [
        e.fingerprint
        for cid in sorted(plain_system.engine.containers.containers)
        for e in plain_system.engine.containers.get(cid).entries
    ]
    scrambled_order = [
        e.fingerprint
        for cid in sorted(scrambled_system.engine.containers.containers)
        for e in scrambled_system.engine.containers.get(cid).entries
    ]
    assert plain_order != scrambled_order
    assert sorted(plain_order) == sorted(scrambled_order)
    # And both restore fine.
    assert plain_system.get_file(a) == data
    assert scrambled_system.get_file(b) == data
