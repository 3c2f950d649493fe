"""Tests for the KVStore-backed attack state (paper's LevelDB path)."""

import pytest

from repro.attacks import AdvancedLocalityAttack, AttackEvaluator, LocalityAttack
from repro.attacks.persistent import (
    backend_count,
    load_chunk_stats,
    persist_chunk_stats,
)
from repro.attacks.streaming import NeighborStore
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup
from repro.index.kvstore import KVStore


def backup(tokens, sizes=None, label="b"):
    tokens = [t.encode().ljust(4, b"_") for t in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


class TestNeighborStore:
    def test_roundtrip_preserves_insertion_order(self):
        store = NeighborStore(KVStore(), fingerprint_bytes=4)
        table = {b"bbbb": 3, b"aaaa": 1, b"cccc": 2}
        store.write_table(b"keyk", table)
        loaded = store.get(b"keyk")
        assert loaded == table
        assert list(loaded) == [b"bbbb", b"aaaa", b"cccc"]

    def test_missing_returns_default(self):
        store = NeighborStore(KVStore(), fingerprint_bytes=4)
        assert store.get(b"none") == {}
        assert store.get(b"none", {b"xxxx": 1}) == {b"xxxx": 1}

    def test_invalid_fp_length(self):
        with pytest.raises(ConfigurationError):
            NeighborStore(KVStore(), fingerprint_bytes=0)


class TestPersistChunkStats:
    def test_matches_in_memory_count(self, tmp_path):
        from repro.attacks.frequency import count_with_neighbors

        stream = backup(["a", "b", "a", "c", "b", "a"])
        persisted = persist_chunk_stats(stream, tmp_path / "s")
        in_memory = count_with_neighbors(stream)
        assert persisted.frequencies == in_memory.frequencies
        assert persisted.sizes == in_memory.sizes
        for fingerprint in in_memory.left:
            assert persisted.left.get(fingerprint) == in_memory.left[fingerprint]
        for fingerprint in in_memory.right:
            assert persisted.right.get(fingerprint) == in_memory.right[fingerprint]

    def test_reload_from_disk(self, tmp_path):
        stream = backup(["a", "b", "a"])
        persist_chunk_stats(stream, tmp_path / "s")
        loaded = load_chunk_stats(tmp_path / "s")
        assert loaded.frequencies == {b"a___": 2, b"b___": 1}
        assert loaded.left.get(b"b___") == {b"a___": 1}
        assert loaded.unique_chunks == 2

    def test_reload_preserves_insertion_order(self, tmp_path):
        stream = backup(["z", "m", "a"])
        persist_chunk_stats(stream, tmp_path / "s")
        loaded = load_chunk_stats(tmp_path / "s")
        assert list(loaded.frequencies) == [b"z___", b"m___", b"a___"]

    def test_empty_backup_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            persist_chunk_stats(backup([]), tmp_path / "s")

    def test_load_missing_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_chunk_stats(tmp_path / "nothing")


class TestPersistentAttackEquivalence:
    """``count=backend_count(...)`` against the attacks' own in-RAM COUNT."""

    @pytest.mark.parametrize("attack", [LocalityAttack, AdvancedLocalityAttack])
    def test_identical_to_in_memory(self, attack, tmp_path, tiny_encrypted_mle):
        evaluator = AttackEvaluator(tiny_encrypted_mle)
        in_memory = evaluator.run(attack(u=1, v=15, w=50_000), -2, -1)
        persistent = evaluator.run(
            attack(u=1, v=15, w=50_000), -2, -1,
            count=backend_count(tmp_path / "work"),
        )
        # Same report, name included: COUNT is an argument, not an attack.
        assert persistent == in_memory

    def test_second_run_reuses_state(self, tmp_path, tiny_encrypted_mle, monkeypatch):
        from repro.attacks import persistent

        evaluator = AttackEvaluator(tiny_encrypted_mle)
        attack = LocalityAttack(u=1, v=15, w=50_000)
        count = backend_count(tmp_path / "work")
        first = evaluator.run(attack, -2, -1, count=count)
        # The second run loads the persisted stats: a recount would fail.
        monkeypatch.setattr(persistent, "persist_chunk_stats", None)
        assert evaluator.run(attack, -2, -1, count=count) == first

    def test_sides_are_told_apart_by_argument(self, tmp_path, tiny_encrypted_mle):
        AttackEvaluator(tiny_encrypted_mle).run(
            LocalityAttack(), -2, -1, count=backend_count(tmp_path / "work")
        )
        target, auxiliary = (
            tiny_encrypted_mle[-1].label,
            tiny_encrypted_mle.plaintext[-2].label,
        )
        assert (tmp_path / "work" / "ciphertext" / target.replace(" ", "_")).is_dir()
        assert (tmp_path / "work" / "auxiliary" / auxiliary.replace(" ", "_")).is_dir()

    def test_state_of_another_stream_is_recounted(
        self, tmp_path, tiny_encrypted_mle, tiny_fsl_series
    ):
        # Same labels, another ciphertext stream (here: another scheme):
        # the persisted tables must not be scored as if they were its own.
        from repro.defenses.pipeline import DefensePipeline

        other = DefensePipeline("minhash").encrypt_series(tiny_fsl_series)
        assert other[-1].label == tiny_encrypted_mle[-1].label
        attack = LocalityAttack(u=1, v=15, w=50_000)
        count = backend_count(tmp_path / "work")
        AttackEvaluator(tiny_encrypted_mle).run(attack, -2, -1, count=count)
        assert AttackEvaluator(other).run(
            attack, -2, -1, count=count
        ) == AttackEvaluator(other).run(attack, -2, -1)

    def test_basic_attack_ignores_count(self, tmp_path, tiny_encrypted_mle):
        from repro.attacks import BasicAttack

        evaluator = AttackEvaluator(tiny_encrypted_mle)
        assert evaluator.run(
            BasicAttack(), -2, -1, count=backend_count(tmp_path / "work")
        ) == evaluator.run(BasicAttack(), -2, -1)
        assert not (tmp_path / "work").exists()

    def test_repersist_into_completed_directory_rejected(self, tmp_path):
        stream = backup(["a", "b", "a"])
        persist_chunk_stats(stream, tmp_path / "s")
        with pytest.raises(ConfigurationError):
            persist_chunk_stats(stream, tmp_path / "s")

    def test_interrupted_run_is_wiped_and_recounted(self, tmp_path):
        from repro.attacks.frequency import count_with_neighbors
        from repro.attacks.streaming import CountStores, StreamingCount

        stream = backup(["a", "b", "a", "c", "b", "a"])
        # Simulate an interrupted COUNT: half the stream lands in the
        # stores, no completion marker is written.
        partial = StreamingCount(CountStores.open(tmp_path / "s", "sqlite"))
        partial.ingest(stream.fingerprints[:3], stream.sizes[:3])
        partial.finalize()
        partial.stores.close()

        # Loading must refuse the partial state...
        with pytest.raises(ConfigurationError):
            load_chunk_stats(tmp_path / "s")
        # ...and re-persisting (even on a different backend) must wipe it
        # rather than merge into it.
        stats = persist_chunk_stats(stream, tmp_path / "s", backend="kvstore")
        assert stats.frequencies == count_with_neighbors(stream).frequencies
        reloaded = load_chunk_stats(tmp_path / "s")
        assert reloaded.frequencies == stats.frequencies
