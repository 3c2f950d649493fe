"""Tests for the end-to-end EncryptedDedupSystem (content level)."""

import pytest

from repro.chunking import ChunkerSpec, GearChunker
from repro.common.errors import StorageError
from repro.common.rng import rng_from
from repro.common.units import MiB, format_size
from repro.crypto.keymanager import KeyManager
from repro.crypto.mle import ConvergentEncryption, ServerAidedMLE
from repro.datasets.filesystem import build_tree, deterministic_bytes
from repro.datasets.mutate import evolve_tree
from repro.defenses.scramble import DEQUE, scramble_indices
from repro.defenses.segmentation import SegmentationSpec, segment_stream
from repro.storage.ddfs import DDFSEngine
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


def test_combined_defense_uploads_in_the_order_of_a_second_segmentation():
    # MinHash + scrambling (examples/encrypted_backup_system.py, three
    # generations): put_file scrambles over the segments MinHash encryption
    # returned. It used to fingerprint and segment every file a second
    # time; that order is recomputed here and fed to a shadow engine.
    chunker = GearChunker(ChunkerSpec(min_size=1024, avg_size=4096, max_size=16384))
    segmentation = SegmentationSpec(
        min_bytes=32 * 1024, avg_bytes=64 * 1024, max_bytes=128 * 1024
    )
    scheme = ServerAidedMLE(KeyManager(b"system-wide-secret-0123456789abc"))
    system = EncryptedDedupSystem(
        scheme=scheme,
        chunker=chunker,
        use_minhash=True,
        use_scramble=True,
        segmentation=segmentation,
        container_size=1 << 20,
    )
    shadow = DDFSEngine(
        cache_budget_bytes=4 * MiB, bloom_capacity=1_000_000, container_size=1 << 20
    )
    trees = [build_tree(seed=42, num_files=20, mean_file_size=48 * 1024)]
    for generation in (1, 2):
        trees.append(
            evolve_tree(trees[-1], seed=42, generation=generation, modify_fraction=0.25)
        )
    files_stored = 0
    stored = []
    for tree in trees:
        for file in tree.iter_files():
            refs = system.put_file(file.path, file.data).recipe.chunks
            chunks = [chunk.data for chunk in chunker.split(file.data)] or [b""]
            segments = segment_stream(
                [scheme.fingerprinter(chunk) for chunk in chunks],
                [len(chunk) for chunk in chunks],
                segmentation,
            )
            rng = rng_from(0, "system-scramble", files_stored)
            for segment in segments:
                for offset in scramble_indices(len(segment), rng, DEQUE):
                    ref = refs[segment.start + offset]
                    shadow.process_chunk(ref.tag, ref.size)
            files_stored += 1
        system.flush()
        shadow.finish_backup()
        assert system.stored_bytes == shadow.containers.stored_bytes()
        stored.append(system.stored_bytes)

    containers = system.engine.containers
    assert containers.num_containers == shadow.containers.num_containers == 4
    for container_id in containers.containers:
        assert (
            containers.get(container_id).fingerprints()
            == shadow.containers.get(container_id).fingerprints()
        )
    # The sizes the example prints, as it printed them before the change.
    assert [
        format_size(after - before) for before, after in zip([0, *stored], stored)
    ] == ["1.1 MiB", "206.0 KiB", "276.1 KiB"]
