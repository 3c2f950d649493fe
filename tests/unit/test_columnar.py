"""Columnar trace format + sharded parallel COUNT differential tests.

The trace-scale stack must be *byte-identical* to the in-RAM reference at
every seam:

* the columnar round trip (write → mmap → decode) reproduces the original
  backups exactly, vocabulary spilled to disk or not;
* :func:`~repro.attacks.sharded.sharded_count` at any ``jobs`` value
  equals :func:`~repro.attacks.frequency.count_with_neighbors` and
  :func:`~repro.attacks.interning.interned_count` — tables *and*
  iteration order — under both accel modes;
* :func:`~repro.attacks.sharded.columnar_attack_report` equals the full
  in-RAM :class:`~repro.attacks.evaluation.AttackEvaluator` pipeline;
* generation resumes safely after an interrupt (the manifest as the only
  commit point).
"""

import pytest

from repro.attacks import sharded
from repro.attacks.evaluation import AttackEvaluator
from repro.attacks.frequency import count_with_neighbors
from repro.attacks.interning import (
    MAX_VOCABULARY,
    PAIR_SHIFT,
    check_vocabulary_capacity,
    interned_count,
)
from repro.attacks.sharded import (
    columnar_attack_report,
    encrypt_vocabulary,
    sharded_count,
)
from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.datasets.columnar import (
    ColumnarTrace,
    ColumnarTraceWriter,
    StreamConfig,
    ensure_columnar,
    ensure_stream_columnar,
    synthesize_columnar,
    write_series,
)
from repro.datasets.model import Backup, BackupSeries
from repro.defenses.pipeline import (
    MLE_PREFIX,
    DefensePipeline,
    DefenseScheme,
    cipher_fingerprint,
    cipher_fingerprints,
)


def small_series() -> BackupSeries:
    import random

    rng = random.Random(13)
    pool = [rng.randbytes(16) for _ in range(400)]
    backups = []
    for index in range(3):
        fingerprints = [
            rng.choice(pool) if rng.random() < 0.8 else rng.randbytes(16)
            for _ in range(2_500)
        ]
        backups.append(
            Backup(
                label=f"b{index}",
                fingerprints=fingerprints,
                sizes=[rng.randrange(512, 8192) for _ in fingerprints],
            )
        )
    return BackupSeries(name="unit-columnar", backups=backups)


def assert_stats_identical(fast, reference):
    """Full four-table equality, including iteration order."""
    assert dict(fast.frequencies.items()) == dict(reference.frequencies.items())
    assert list(fast.frequencies) == list(reference.frequencies)
    assert dict(fast.sizes.items()) == dict(reference.sizes.items())
    assert list(fast.sizes) == list(reference.sizes)
    for side in ("left", "right"):
        ours = getattr(fast, side)
        oracle = getattr(reference, side)
        decoded = {key: dict(table.items()) for key, table in ours.items()}
        expected = {key: dict(table.items()) for key, table in oracle.items()}
        assert decoded == expected
        assert list(decoded) == list(expected)
        for key in expected:
            assert list(decoded[key]) == list(expected[key])


class TestColumnarRoundTrip:
    def test_write_open_decode(self, tmp_path):
        series = small_series()
        trace = write_series(series, tmp_path / "trace")
        try:
            assert trace.labels() == [b.label for b in series.backups]
            assert trace.num_chunks == sum(len(b) for b in series.backups)
            for view, original in zip(trace.views(), series.backups):
                decoded = view.to_backup()
                assert decoded.fingerprints == original.fingerprints
                assert decoded.sizes == original.sizes
        finally:
            trace.close()

    def test_spilled_vocabulary_writes_identical_trace(self, tmp_path):
        series = small_series()
        in_ram = write_series(series, tmp_path / "ram")
        spilled = write_series(
            series, tmp_path / "spill", spill_threshold=64
        )
        try:
            for name in ("vocab.fp", "ids.u32", "sizes.u32"):
                assert (tmp_path / "ram" / name).read_bytes() == (
                    tmp_path / "spill" / name
                ).read_bytes()
            assert in_ram.num_unique == spilled.num_unique
        finally:
            in_ram.close()
            spilled.close()

    def test_stream_synthesis_is_deterministic(self, tmp_path):
        config = StreamConfig(chunks=4_000, backups=2)
        synthesize_columnar(tmp_path / "one", config, seed=3)
        synthesize_columnar(tmp_path / "two", config, seed=3)
        for name in ("vocab.fp", "ids.u32", "sizes.u32"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


class TestGenerationResume:
    def test_open_refuses_manifestless_directory(self, tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "ids.u32").write_bytes(b"\x01\x00\x00\x00")
        with pytest.raises(ConfigurationError, match="manifest"):
            ColumnarTrace.open(partial)

    def test_open_refuses_truncated_data(self, tmp_path):
        trace = write_series(small_series(), tmp_path / "trace")
        trace.close()
        ids = tmp_path / "trace" / "ids.u32"
        ids.write_bytes(ids.read_bytes()[:-4])
        with pytest.raises(ConfigurationError, match="truncated"):
            ColumnarTrace.open(tmp_path / "trace")

    def test_ensure_regenerates_partial_and_reuses_complete(self, tmp_path):
        directory = tmp_path / "trace"
        directory.mkdir()
        (directory / "ids.u32").write_bytes(b"junk")  # interrupted run
        calls = []

        def builder(path):
            calls.append(path)
            return write_series(small_series(), path, params={"p": 1})

        trace = ensure_columnar(directory, builder, params={"p": 1})
        trace.close()
        assert len(calls) == 1
        # Matching params: reopened, not regenerated.
        trace = ensure_columnar(directory, builder, params={"p": 1})
        trace.close()
        assert len(calls) == 1
        # Changed params: cleared and rebuilt.
        trace = ensure_columnar(directory, builder, params={"p": 2})
        trace.close()
        assert len(calls) == 2

    def test_interrupted_writer_leaves_no_manifest(self, tmp_path):
        writer = ColumnarTraceWriter(
            tmp_path / "trace", name="t", fingerprint_bytes=4
        )
        with pytest.raises(RuntimeError):
            with writer:
                writer.add_backup(
                    Backup(label="a", fingerprints=[b"abcd"], sizes=[7])
                )
                raise RuntimeError("simulated crash")
        assert not (tmp_path / "trace" / "manifest.json").exists()
        with pytest.raises(ConfigurationError):
            ColumnarTrace.open(tmp_path / "trace")


class TestShardedCountIdentity:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_identical_to_references_per_view(
        self, tmp_path, count_mode, jobs
    ):
        config = StreamConfig(chunks=6_000, backups=3)
        trace = ensure_stream_columnar(tmp_path / "trace", config, seed=5)
        try:
            for view in trace.views():
                backup = view.to_backup()
                stats = sharded_count(view, jobs=jobs)
                assert stats.unique_chunks == len(set(backup.fingerprints))
                assert_stats_identical(stats, count_with_neighbors(backup))
                assert_stats_identical(stats, interned_count(backup))
        finally:
            trace.close()

    @pytest.mark.parametrize(
        "fingerprints",
        [
            pytest.param([], id="empty"),
            pytest.param([b"solo-fp-"], id="single-chunk"),
            pytest.param(
                [bytes([i] * 8) for i in range(40)], id="all-unique"
            ),
            pytest.param([b"dup-fp-!"] * 40, id="all-duplicate"),
        ],
    )
    def test_edge_streams(self, tmp_path, count_mode, fingerprints):
        backup = Backup(
            label="edge",
            fingerprints=list(fingerprints),
            sizes=[100 + i for i in range(len(fingerprints))],
        )
        with ColumnarTraceWriter(
            tmp_path / "trace", name="edge", fingerprint_bytes=8
        ) as writer:
            writer.add_backup(backup)
        trace = ColumnarTrace.open(tmp_path / "trace")
        try:
            view = trace.view(0)
            assert view.to_backup().fingerprints == backup.fingerprints
            for jobs in (1, 4):
                stats = sharded_count(view, jobs=jobs)
                assert_stats_identical(stats, count_with_neighbors(backup))
        finally:
            trace.close()

    @pytest.mark.skipif(accel.numpy is None, reason="array stats need numpy")
    def test_dropped_stats_are_freed_without_the_cyclic_collector(self, tmp_path):
        """Array code allocates too few objects to trigger the collector,
        so a stats <-> lazy-view cycle would keep every dropped COUNT's
        arrays resident (it did: +11 MiB per COUNT on columnar_scale)."""
        import gc
        import weakref

        trace = write_series(small_series(), tmp_path / "trace")
        gc.disable()
        try:
            stats = sharded_count(trace.view(0), jobs=1)
            assert len(stats.frequencies) == len(stats.sizes) == stats.unique_chunks
            stats.left, stats.right, stats.top_ranked(3)
            alive = weakref.ref(stats)
            del stats
            assert alive() is None
        finally:
            gc.enable()
            trace.close()

    def test_jobs_must_be_positive(self, tmp_path):
        trace = write_series(small_series(), tmp_path / "trace")
        try:
            with pytest.raises(ConfigurationError):
                sharded_count(trace.view(0), jobs=0)
        finally:
            trace.close()


class TestVocabularyCapacityGuard:
    def test_limit_is_the_pair_packing_width(self):
        assert MAX_VOCABULARY == 1 << PAIR_SHIFT

    def test_oversized_vocabulary_rejected_with_pointer_to_docs(self):
        # 2**PAIR_SHIFT unique ids (0 .. 2**PAIR_SHIFT - 1) still pack.
        check_vocabulary_capacity(MAX_VOCABULARY, "test vocabulary")
        with pytest.raises(ConfigurationError, match="adjacency"):
            check_vocabulary_capacity(MAX_VOCABULARY + 1, "test vocabulary")
        with pytest.raises(ConfigurationError, match="test vocabulary"):
            check_vocabulary_capacity(MAX_VOCABULARY + 7, "test vocabulary")


class TestColumnarAttackEquivalence:
    def test_report_equals_in_ram_evaluator(self, tmp_path, count_mode):
        config = StreamConfig(chunks=6_000, backups=2)
        trace = ensure_stream_columnar(tmp_path / "trace", config, seed=9)
        try:
            series = BackupSeries(
                name="stream-synthetic",
                backups=[view.to_backup() for view in trace.views()],
            )
            encrypted = DefensePipeline(DefenseScheme.MLE).encrypt_series(
                series
            )
            evaluator = AttackEvaluator(encrypted)
            for attack, rate in (
                ("locality", 0.0),
                ("advanced", 0.0),
                ("advanced", 0.01),
            ):
                expected = evaluator.run(
                    _build(attack), auxiliary=-2, target=-1,
                    leakage_rate=rate, seed=0,
                )
                for jobs in (1, 4):
                    report = columnar_attack_report(
                        trace, attack, leakage_rate=rate, jobs=jobs
                    )
                    assert report == expected
        finally:
            trace.close()

    def test_every_pair_of_a_longer_series_equals_in_ram_evaluator(
        self, tmp_path, count_mode, monkeypatch
    ):
        # Vocabulary >> target: four backups, every ordered (auxiliary,
        # target) pair — target not last, auxiliary after target. Seed 5:
        # both ciphertext-only attacks land on all twelve pairs.
        config = StreamConfig(chunks=4_000, backups=4)
        trace = ensure_stream_columnar(tmp_path / "trace", config, seed=5)
        observed = []
        evaluate = sharded.evaluate

        def recording(built, source, *args):
            observed.append(source.observed)
            return evaluate(built, source, *args)

        monkeypatch.setattr(sharded, "evaluate", recording)
        try:
            series = BackupSeries(
                name="stream-synthetic",
                backups=[view.to_backup() for view in trace.views()],
            )
            encrypted = DefensePipeline(DefenseScheme.MLE).encrypt_series(
                series
            )
            evaluator = AttackEvaluator(encrypted)
            adversary_counts = [
                interned_count(backup.ciphertext) for backup in encrypted.backups
            ]
            assert (
                2 * max(count.unique_chunks for count in adversary_counts)
                < trace.num_unique
            )
            for auxiliary in range(4):
                for target in range(4):
                    if auxiliary == target:
                        continue
                    for attack in ("locality", "advanced"):
                        for rate in (0.0, 0.01):
                            expected = evaluator.run(
                                _build(attack), auxiliary, target,
                                leakage_rate=rate, seed=0,
                            )
                            for jobs in (1, 2):
                                report = columnar_attack_report(
                                    trace, attack, auxiliary=auxiliary,
                                    target=target, leakage_rate=rate, jobs=jobs,
                                )
                                assert report == expected
                    if count_mode == "accelerated":
                        # The compact stats *are* the COUNT of an adversary
                        # interning the target's ciphertext stream.
                        compact, reference = observed[-1], adversary_counts[target]
                        assert list(compact.vocabulary._fingerprints) == (
                            reference.vocabulary._fingerprints
                        )
                        for name in (
                            "ordered_ids", "ordered_counts", "first_sizes",
                            "ordered_pairs", "ordered_pair_counts",
                        ):
                            assert (
                                getattr(compact, name).tolist()
                                == getattr(reference, name).tolist()
                            ), name
        finally:
            trace.close()

    @staticmethod
    def _colliding_bytes():
        """One-byte chunks ``a``, ``b`` whose one-byte MLE fingerprints
        collide, and three more with ciphertext bytes of their own."""
        by_cipher: dict[bytes, list[bytes]] = {}
        for value in range(256):
            plain = bytes([value])
            by_cipher.setdefault(
                cipher_fingerprint(MLE_PREFIX, plain, 1), []
            ).append(plain)
        groups = sorted(by_cipher.values())
        a, b = next(group for group in groups if len(group) > 1)[:2]
        return a, b, [group[0] for group in groups if a not in group][:3]

    def test_collision_across_backups_is_scored_like_in_ram(
        self, tmp_path, count_mode
    ):
        # docs/defenses.md: "chunks that never share a backup are not an
        # error". ``a`` is only in the auxiliary, ``b`` only in the target.
        a, b, (x, y, z) = self._colliding_bytes()
        series = BackupSeries(
            name="collide",
            backups=[
                Backup(label="aux", fingerprints=[x, y, a, z, x, y, x], sizes=[4096] * 7),
                Backup(label="target", fingerprints=[x, y, b, z, x, y, x], sizes=[4096] * 7),
            ],
        )
        evaluator = AttackEvaluator(
            DefensePipeline(DefenseScheme.MLE).encrypt_series(series)
        )
        with write_series(series, tmp_path / "trace") as trace:
            for attack in ("locality", "advanced"):
                expected = evaluator.run(_build(attack), -2, -1)
                assert columnar_attack_report(trace, attack) == expected
                assert str(expected).endswith("rate=75.00% (3/4, precision 75.00%)")

    def test_collision_inside_the_target_is_rejected_like_the_pipeline(
        self, tmp_path, count_mode
    ):
        a, b, (x, y, _) = self._colliding_bytes()
        series = BackupSeries(
            name="collide",
            backups=[
                Backup(label="aux", fingerprints=[x, y, x], sizes=[4096] * 3),
                Backup(label="target", fingerprints=[x, a, y, b], sizes=[4096] * 4),
            ],
        )
        message = "ciphertext fingerprint collision; increase fingerprint_bytes"
        with pytest.raises(ConfigurationError, match=message):
            DefensePipeline(DefenseScheme.MLE).encrypt_series(series)
        with write_series(series, tmp_path / "trace") as trace:
            with pytest.raises(ConfigurationError, match=message):
                columnar_attack_report(trace, "locality")
            # The colliding pair is the target's alone: as an auxiliary
            # it is plaintext, and nothing of it is encrypted.
            columnar_attack_report(trace, "locality", auxiliary=1, target=0)

    def test_encrypted_vocabulary_is_the_pipelines_mle_fingerprints(
        self, tmp_path, count_mode
    ):
        # The identity the compact ciphertext side rests on: id i of the
        # encrypted vocabulary is the MLE pipeline's ciphertext fingerprint
        # of the target's i-th distinct chunk — and nothing the target
        # does not hold is in it. Pinned, so neither side can drift alone.
        plain = [b"chunk-fingerprint-01", bytes(range(20)), b"\x00" * 20]
        backup = Backup(
            label="kat",
            fingerprints=[plain[i] for i in (0, 1, 0, 0, 2, 0)],
            sizes=[100, 4096, 100, 100, 15, 100],
        )
        earlier = Backup(
            label="earlier", fingerprints=[b"\xff" * 20, plain[2]], sizes=[1, 15]
        )
        trace = write_series(
            BackupSeries(name="kat", backups=[earlier, backup]), tmp_path / "trace"
        )
        try:
            encrypted = list(
                encrypt_vocabulary(trace, sharded_count(trace.view(1)))._fingerprints
            )
        finally:
            trace.close()
        assert [fingerprint.hex() for fingerprint in encrypted] == [
            "9d4e2295ef08e3b94b9b0a75dad1a005d745ec00",
            "e42e6d146e9ec908dabed3b5467885f24910061a",
            "1115b0b41bb20f2619645e669b78dd7a241b0a8e",
        ]
        pipeline = DefensePipeline(DefenseScheme.MLE).encrypt_backup(backup)
        assert pipeline.ciphertext.fingerprints == [
            encrypted[i] for i in (0, 1, 0, 0, 2, 0)
        ]
        assert pipeline.truth == dict(zip(encrypted, plain))

    def test_batch_hash_is_the_single_hash_per_element(self):
        plain = [b"chunk-fingerprint-01", bytes(range(20)), b"", b"\x00" * 40]
        assert cipher_fingerprints(MLE_PREFIX, plain[:1], 8) == [
            bytes.fromhex("9d4e2295ef08e3b9")
        ]
        for width in (1, 8, 20, 32):
            assert cipher_fingerprints(MLE_PREFIX, iter(plain), width) == [
                cipher_fingerprint(MLE_PREFIX, fingerprint, width)
                for fingerprint in plain
            ]
        with pytest.raises(ConfigurationError, match="33 bytes"):
            cipher_fingerprint(MLE_PREFIX, plain[0], 33)
        # The batch refuses the width before it hashes anything.
        with pytest.raises(ConfigurationError, match="33 bytes"):
            cipher_fingerprints(MLE_PREFIX, iter([None]), 33)

    def test_vocabulary_wider_than_the_digest_is_rejected(
        self, tmp_path, count_mode
    ):
        # A 40-byte vocabulary cannot keep its width under a truncated
        # SHA-256: refused, not packed as 32-byte records read 40 apart.
        backup = Backup(label="wide", fingerprints=[b"\x01" * 40], sizes=[1])
        trace = write_series(
            BackupSeries(name="wide", backups=[backup]), tmp_path / "trace"
        )
        try:
            with pytest.raises(ConfigurationError, match="40 bytes"):
                encrypt_vocabulary(trace, sharded_count(trace.view(0)))
        finally:
            trace.close()

    def test_rejects_unknown_attack_and_bad_index(self, tmp_path):
        trace = write_series(small_series(), tmp_path / "trace")
        trace.close()
        with pytest.raises(ConfigurationError, match="columnar attack"):
            columnar_attack_report(tmp_path / "trace", "basic")
        with pytest.raises(ConfigurationError, match="out of range"):
            columnar_attack_report(tmp_path / "trace", target=17)


def _build(name):
    from repro.attacks.advanced import AdvancedLocalityAttack
    from repro.attacks.locality import LocalityAttack

    if name == "locality":
        return LocalityAttack()
    return AdvancedLocalityAttack()

