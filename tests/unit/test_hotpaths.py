"""Fastpath ≡ reference property tests for the hot-path layer.

Every optimized loop must be byte-identical to its reference oracle:

* chunker ``cut_points`` (vectorized and pure-Python skip-ahead) vs
  ``cut_points_reference`` — random / all-zero / repeated data, forced
  ``max_size`` cuts, inputs shorter than ``min_size``, and for gear every
  mask width 1-20 on both sides of the vectorized scan's ``min_size`` gate;
* the two COUNT sources (in-RAM ``interned_count``, ``sharded_count``
  over a columnar trace) vs ``count_with_neighbors`` on the same streams,
  including table iteration order (the tie-break-sensitive part) and the
  array stats' partial rankings;
* the engine's batched unique-ingest vs the per-chunk S1–S4 path, a
  seeded search over the entry points of the one DDFS chunk path, and
  each batch kernel of the service's upload path (Bloom ``add_many``,
  ``FingerprintCache.lookup_many``, ``ContainerStore.extend``, and S4's
  ``LRUCache.put_many``) against a loop of the per-item call.
"""

import functools
import hashlib
import random
import tempfile
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.frequency import (
    FINGERPRINT,
    INSERTION,
    ChunkStats,
    classify_by_blocks,
    count_frequencies,
    count_with_neighbors,
    freq_analysis,
    rank_by_frequency,
    sized_freq_analysis,
)
from repro.attacks.interning import (
    ChunkVocabulary,
    interned_count,
    seed_pairs,
)
from repro.attacks.locality import LocalityAttack
from repro.attacks.sharded import sharded_count
from repro.chunking import ChunkerSpec, GearChunker, RabinChunker
from repro.chunking import fastscan
from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.datasets.columnar import ColumnarTrace, ColumnarTraceWriter
from repro.datasets.model import Backup
from repro.defenses.pipeline import padded_size

SPEC = ChunkerSpec(min_size=64, avg_size=256, max_size=1024)


def chunker_pairs():
    return [RabinChunker(SPEC), GearChunker(SPEC)]


def gear_sweep_min_sizes(bits):
    """Both sides of the vectorized scan's gate (``min_size >= bits``) and
    a realistic prefix. Past the dtype boundary only the gate's edge runs:
    the reference loop costs ~0.25 s/MiB and the buffers grow with avg."""
    avg_size = 1 << bits
    sizes = {bits - 1, bits, bits + 1, avg_size // 4} if bits <= 17 else {bits}
    return sorted(size for size in sizes if 1 <= size <= avg_size)


def gear_sweep_case(bits, min_size):
    """A non-default-table chunker and a buffer of four ``max_size``s:
    random, all-zero and short-period stretches, each long enough to force
    a ``max_size`` cut."""
    spec = ChunkerSpec(min_size, 1 << bits, 1 << bits)
    stretch = max(spec.max_size, 1024)
    data = (
        random.Random(bits).randbytes(2 * stretch)
        + bytes(stretch)
        + b"\xff\x00\x17" * (stretch // 3 + 1)
    )
    return GearChunker(spec, table_seed=0x5EED + bits), data


@functools.lru_cache(maxsize=None)
def gear_sweep_reference(bits, min_size):
    """The oracle's cuts, computed once for both scan modes."""
    chunker, data = gear_sweep_case(bits, min_size)
    return chunker.cut_points_reference(data)


@pytest.fixture(params=["accelerated", "fallback"])
def scan_mode(request, monkeypatch):
    """Run chunker equivalence under both scan implementations."""
    if request.param == "fallback":
        monkeypatch.setattr(fastscan, "numpy", None)
    elif fastscan.numpy is None:
        pytest.skip("numpy unavailable; accelerated path cannot run")
    return request.param


class TestChunkerFastpathEquivalence:
    @given(st.binary(min_size=0, max_size=30_000))
    @settings(max_examples=30, deadline=None)
    def test_random_data(self, data):
        for chunker in chunker_pairs():
            assert chunker.cut_points(data) == chunker.cut_points_reference(data)

    def test_scan_modes_agree(self, scan_mode):
        data = random.Random(0).randbytes(50_000)
        for chunker in chunker_pairs():
            assert chunker.cut_points(data) == chunker.cut_points_reference(data)

    def test_all_zero_data_forces_max_size_cuts(self, scan_mode):
        data = b"\x00" * 20_000
        for chunker in chunker_pairs():
            cuts = chunker.cut_points(data)
            assert cuts == chunker.cut_points_reference(data)
            # Zero data has no content boundaries under either algorithm's
            # magic convention: every full chunk is a forced max_size cut.
            assert cuts[0] == SPEC.max_size

    def test_repeated_pattern_data(self, scan_mode):
        for pattern in (b"ab", b"\xff\x00\x17", b"x" * 7):
            data = pattern * (30_000 // len(pattern))
            for chunker in chunker_pairs():
                assert (
                    chunker.cut_points(data)
                    == chunker.cut_points_reference(data)
                )

    def test_inputs_shorter_than_min_size(self, scan_mode):
        rng = random.Random(1)
        for length in (0, 1, SPEC.min_size - 1, SPEC.min_size, SPEC.min_size + 1):
            data = rng.randbytes(length)
            for chunker in chunker_pairs():
                got = chunker.cut_points(data)
                assert got == chunker.cut_points_reference(data)
                if length:
                    assert got[-1] == length
                else:
                    assert got == []

    def test_degenerate_specs_fall_back_correctly(self, scan_mode):
        rng = random.Random(2)
        data = rng.randbytes(5_000)
        for spec in (
            ChunkerSpec(16, 16, 16),
            ChunkerSpec(1, 256, 300),
            ChunkerSpec(48, 64, 100),
        ):
            for chunker in (RabinChunker(spec), GearChunker(spec)):
                assert (
                    chunker.cut_points(data)
                    == chunker.cut_points_reference(data)
                )

    def test_nondefault_rabin_window_and_magic(self, scan_mode):
        rng = random.Random(3)
        data = rng.randbytes(40_000)
        for window in (17, 48):
            chunker = RabinChunker(SPEC, window=window, magic=0x55)
            assert chunker.cut_points(data) == chunker.cut_points_reference(data)

    # avg_size 2 .. 1 MiB; the scan's uint16 ends at 16 bits.
    @pytest.mark.parametrize("bits", range(1, 21))
    def test_gear_scan_at_every_mask_width(self, bits, scan_mode, monkeypatch):
        ran = []
        for name in ("_cut_points_vectorized", "_cut_points_skip_ahead"):

            def recording(self, data, _name=name, _scan=getattr(GearChunker, name)):
                ran.append(_name)
                return _scan(self, data)

            monkeypatch.setattr(GearChunker, name, recording)
        for min_size in gear_sweep_min_sizes(bits):
            chunker, data = gear_sweep_case(bits, min_size)
            assert len(data) >= 4 * chunker.spec.max_size
            cuts = chunker.cut_points(data)
            assert cuts == gear_sweep_reference(bits, min_size), min_size
            # min_size == bits is the narrowest prefix the whole-buffer
            # scan is exact for; one byte less must take the loop.
            vectorized = scan_mode == "accelerated" and min_size >= bits
            assert ran.pop() == (
                "_cut_points_vectorized" if vectorized else "_cut_points_skip_ahead"
            ), min_size
            assert not ran

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_gear_random_width_prefix_and_data(self, data):
        bits = data.draw(st.integers(min_value=1, max_value=20), label="bits")
        avg_size = 1 << bits
        min_size = data.draw(
            st.integers(min_value=1, max_value=min(avg_size, bits + 2)),
            label="min_size",
        )
        chunker = GearChunker(ChunkerSpec(min_size, avg_size, 4 * avg_size))
        buffer = data.draw(st.binary(min_size=0, max_size=8_192), label="data")
        assert chunker.cut_points(buffer) == chunker.cut_points_reference(buffer)

    def test_reference_tail_never_duplicates_final_cut(self):
        # The cleaned-up tail handling: the final cut is len(data) exactly
        # once, whether or not a content/forced cut landed there.
        chunker = RabinChunker(SPEC)
        data = random.Random(4).randbytes(SPEC.max_size)
        cuts = chunker.cut_points_reference(data)
        assert cuts[-1] == len(data)
        assert sorted(set(cuts)) == cuts


def token_streams():
    tokens = [bytes([value]) * 8 for value in range(12)]
    return st.lists(st.sampled_from(tokens), min_size=0, max_size=300)


class TestCountEquivalence:
    @given(token_streams())
    @settings(max_examples=40, deadline=None)
    def test_interned_equals_reference(self, fingerprints):
        sizes = [100 + (index % 7) for index in range(len(fingerprints))]
        backup = Backup(label="p", fingerprints=fingerprints, sizes=sizes)
        reference = count_with_neighbors(backup)
        fast = interned_count(backup)
        assert fast.frequencies == reference.frequencies
        assert list(fast.frequencies) == list(reference.frequencies)
        assert fast.sizes == reference.sizes
        assert list(fast.sizes) == list(reference.sizes)
        for view, oracle in (
            (fast.left, reference.left),
            (fast.right, reference.right),
        ):
            decoded = dict(view.items())
            assert decoded == oracle
            assert list(decoded) == list(oracle)
            for key, table in decoded.items():
                assert list(table) == list(oracle[key])
                assert view.get(key) == table
                assert key in view
            assert len(view) == len(oracle)
            assert view.get(b"absent" * 3, None) is None

    def test_both_count_modes_agree(self, count_mode):
        rng = random.Random(5)
        tokens = [rng.randbytes(20) for _ in range(80)]
        fingerprints = [rng.choice(tokens) for _ in range(5_000)]
        sizes = [rng.randrange(1, 9_000) for _ in fingerprints]
        backup = Backup(label="m", fingerprints=fingerprints, sizes=sizes)
        reference = count_with_neighbors(backup)
        fast = interned_count(backup)
        assert fast.frequencies == reference.frequencies
        assert dict(fast.left.items()) == reference.left
        assert dict(fast.right.items()) == reference.right

    def test_count_frequencies_counter_semantics(self):
        backup = Backup(
            label="cf",
            fingerprints=[b"b", b"a", b"b", b"c", b"b"],
            sizes=[1] * 5,
        )
        frequencies = count_frequencies(backup)
        assert frequencies == {b"b": 3, b"a": 1, b"c": 1}
        # First-occurrence order is what the insertion tie-break relies on.
        assert list(frequencies) == [b"b", b"a", b"c"]


def assert_equals_oracle(stats, oracle):
    """All four tables and their iteration order."""
    assert dict(stats.frequencies.items()) == oracle.frequencies
    assert list(stats.frequencies) == list(oracle.frequencies)
    assert dict(stats.sizes.items()) == oracle.sizes
    assert list(stats.sizes) == list(oracle.sizes)
    assert stats.unique_chunks == oracle.unique_chunks
    for side in ("left", "right"):
        ours, theirs = getattr(stats, side), getattr(oracle, side)
        assert list(ours) == list(theirs)
        assert len(ours) == len(theirs)
        for fingerprint in oracle.frequencies:
            expected = theirs.get(fingerprint, {})
            assert list((ours.get(fingerprint) or {}).items()) == list(
                expected.items()
            )
            assert (fingerprint in ours) == (fingerprint in theirs)


def assert_rankings_equal_oracle(stats, oracle, limit, block_size):
    """``top_ranked``/``class_tops`` (and the id seed pairings built on
    them, decoded) against the dict rankings, for both tie-breaks."""
    fingerprints = stats.vocabulary._fingerprints

    def decoded(id_pairs):
        return [(fingerprints[c], fingerprints[m]) for c, m in id_pairs]

    for tie_break in (INSERTION, FINGERPRINT):
        ranked = rank_by_frequency(oracle.frequencies, tie_break)
        assert stats.top_ranked(limit, tie_break) == ranked[:limit]
        assert stats.top_ranked(None, tie_break) == ranked
        assert decoded(
            seed_pairs(stats, stats, limit, tie_break)
        ) == freq_analysis(
            oracle.frequencies, oracle.frequencies, limit, tie_break
        )
        for is_plaintext in (False, True):
            classes = classify_by_blocks(
                oracle.frequencies, oracle.sizes, block_size, is_plaintext
            )
            tops = stats.class_tops(limit, block_size, is_plaintext, tie_break)
            assert {
                blocks: [fingerprints[chunk_id] for chunk_id in ids]
                for blocks, ids in tops.items()
            } == {
                blocks: rank_by_frequency(bucket, tie_break)[:limit]
                for blocks, bucket in classes.items()
            }
        assert decoded(
            seed_pairs(stats, stats, limit, tie_break, block_size)
        ) == sized_freq_analysis(
            oracle.frequencies,
            oracle.frequencies,
            oracle.sizes,
            oracle.sizes,
            limit,
            block_size,
            tie_break,
        )


TOKENS = [bytes([value]) * 8 for value in range(12)]


def edited_streams(seed):
    """A plaintext auxiliary backup and an MLE-encrypted target derived
    from it by random edits (file inserts, run deletes, fresh chunks), so
    the streams share runs and the BFS has somewhere to spread; returns
    ``(target ciphertext, auxiliary, truth)``."""
    rng = random.Random(seed)
    tokens = [rng.randbytes(8) for _ in range(rng.randrange(1, 50))]
    size_of = {token: rng.choice((30, 100, 1000, 4096, 5000)) for token in tokens}
    files = [
        [rng.choice(tokens) for _ in range(rng.randrange(1, 12))]
        for _ in range(rng.randrange(1, 8))
    ]
    auxiliary = [
        token for _ in range(rng.randrange(0, 12)) for token in rng.choice(files)
    ]
    target = list(auxiliary)
    for _ in range(rng.randrange(0, 8)):
        at = rng.randrange(len(target) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            target[at:at] = rng.choice(files)
        elif edit == 1:
            del target[at : at + rng.randrange(1, 6)]
        else:
            fresh = rng.randbytes(8)
            size_of[fresh] = rng.choice((30, 4096))
            target[at : at + 1] = [fresh]
    return encrypted_pair(target, auxiliary, size_of)


def encrypted_pair(target, auxiliary, size_of):
    cipher_of = {
        token: hashlib.sha256(b"mle|" + token).digest()[:8] for token in target
    }
    return (
        Backup(
            label="target",
            fingerprints=[cipher_of[token] for token in target],
            sizes=[padded_size(size_of[token]) for token in target],
        ),
        Backup(
            label="auxiliary",
            fingerprints=list(auxiliary),
            sizes=[size_of[token] for token in auxiliary],
        ),
        {cipher: token for token, cipher in cipher_of.items()},
    )


@contextmanager
def counted_every_way(ciphertext, auxiliary, jobs=2):
    """Yields ``(oracle, others)``, each a ``(ciphertext stats, auxiliary
    stats)`` pair — the dict COUNT, ``interned_count``, and
    ``sharded_count`` over one written columnar trace (one mapped
    vocabulary under both views; open while the block runs)."""
    backups = (ciphertext, auxiliary)
    oracle = tuple(map(count_with_neighbors, backups))
    others = {"interned": tuple(map(interned_count, backups))}
    with tempfile.TemporaryDirectory() as directory:
        with ColumnarTraceWriter(directory, name="a", fingerprint_bytes=8) as writer:
            for backup in backups:
                writer.add_backup(backup)
        with ColumnarTrace.open(directory) as trace:
            others["sharded"] = tuple(
                sharded_count(trace.view(index), jobs=jobs) for index in (0, 1)
            )
            yield oracle, others


def attack_grid(**params):
    """locality and advanced x both tie-breaks x both seed tie-breaks."""
    block_size = params.pop("block_size", 16)
    for tie_break in (INSERTION, FINGERPRINT):
        for seed_tie_break in (INSERTION, FINGERPRINT):
            locality = LocalityAttack(
                tie_break=tie_break, seed_tie_break=seed_tie_break, **params
            )
            advanced = AdvancedLocalityAttack(
                tie_break=tie_break, block_size=block_size, **params
            )
            advanced.seed_tie_break = seed_tie_break
            yield locality
            yield advanced


def assert_attacks_equal_dict_loop(oracle, others, leaked, **params):
    """Every attack of the grid, ciphertext-only and with ``leaked``:
    the same pairs in the same insertion order and the same iteration
    count from every counted source as from the dict loop."""
    assert all(isinstance(stats, ChunkStats) for stats in oracle)
    compared = 0
    for attack in attack_grid(**params):
        for leaked_pairs in (None, leaked):
            expected = attack.run_counted(*oracle, leaked_pairs)
            for source, stats in others.items():
                got = attack.run_counted(*stats, leaked_pairs)
                context = (source, attack, leaked_pairs)
                assert list(got.pairs.items()) == list(
                    expected.pairs.items()
                ), context
                assert got.iterations == expected.iterations, context
                assert got.attack_name == expected.attack_name
            compared += expected.iterations
    return compared


def sample_leaked(truth, auxiliary, seed):
    """A few true pairs (some of whose plaintexts the edits removed from
    the auxiliary backup) plus one pair whose ciphertext the target never
    held and one whose plaintext nobody counted."""
    rng = random.Random(seed)
    ciphers = sorted(truth)
    leaked = {
        cipher: truth[cipher]
        for cipher in rng.sample(ciphers, min(len(ciphers), rng.randrange(1, 5)))
    }
    leaked[b"NOTARGET"] = (auxiliary.fingerprints or [b"nowhere!"])[0]
    if ciphers:
        leaked.setdefault(ciphers[0], b"NOAUXILI")
    return leaked



class TestThreeSourceDifferential:
    """One stream counted three ways — the dict oracle, in RAM, over a
    columnar trace."""

    @seed(15)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(st.sampled_from(TOKENS), st.integers(1, 200)),
            max_size=120,
        ),
        st.sampled_from([1, 2, 3, 7]),
        st.integers(1, 5),
    )
    @example([], 3, 2)  # empty backup
    @example([(TOKENS[0], 7)], 7, 1)  # one chunk
    @example([(TOKENS[3], 33)] * 9, 2, 3)  # one repeated chunk
    # A shard boundary on every position.
    @example([(TOKENS[i % 5], 16 * i + 1) for i in range(7)], 7, 2)
    def test_sources_equal_oracle(self, count_mode, records, jobs, limit):
        backup = Backup(
            label="d",
            fingerprints=[fingerprint for fingerprint, _ in records],
            sizes=[size for _, size in records],
        )
        oracle = count_with_neighbors(backup)
        counted = [interned_count(backup)]
        with tempfile.TemporaryDirectory() as directory:
            with ColumnarTraceWriter(
                directory, name="d", fingerprint_bytes=8
            ) as writer:
                writer.add_backup(backup)
            trace = ColumnarTrace.open(directory)
            try:
                counted.append(sharded_count(trace.view(0), jobs=jobs))
                for stats in counted:
                    assert_equals_oracle(stats, oracle)
                    if count_mode == "accelerated":
                        assert_rankings_equal_oracle(stats, oracle, limit, 16)
            finally:
                trace.close()

    @seed(16)
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.integers(0, 2**32),
        st.sampled_from([1, 2, 5]),
        st.sampled_from([1, 2, 15]),
        st.sampled_from([1, 3, 200_000]),
        st.sampled_from([16, 64, 4096]),
    )
    def test_attack_outputs_equal_dict_loop(
        self, count_mode, stream_seed, u, v, w, block_size
    ):
        ciphertext, auxiliary, truth = edited_streams(stream_seed)
        leaked = sample_leaked(truth, auxiliary, stream_seed)
        with counted_every_way(
            ciphertext, auxiliary, jobs=1 + stream_seed % 3
        ) as (oracle, others):
            assert_attacks_equal_dict_loop(
                oracle, others, leaked, u=u, v=v, w=w, block_size=block_size
            )

    def test_attack_outputs_spread_and_hit_the_queue_bound(self, count_mode):
        """The explicit corners, on streams long enough that every grid
        runs the BFS for hundreds of iterations: ``w`` in {1, 3} drops
        pending pairs, ``v = 1``, ``u`` above every class population."""
        rng = random.Random(21)
        tokens = [rng.randbytes(8) for _ in range(300)]
        size_of = {token: rng.choice((100, 1000, 4096)) for token in tokens}
        auxiliary = tokens[:5] * 4 + tokens
        target = tokens[:5] * 5 + tokens[:150] + tokens[160:]
        ciphertext, auxiliary, truth = encrypted_pair(target, auxiliary, size_of)
        leaked = sample_leaked(truth, auxiliary, 3)
        # Five seeds pending: under w = 1 what the first pops discover is
        # inferred but dropped from the queue, so the walk ends earlier.
        seeds = {
            cipher: plain
            for cipher, plain in truth.items()
            if plain in tokens[20:300:60]
        }
        with counted_every_way(ciphertext, auxiliary, jobs=3) as (oracle, others):
            for params in (
                {"u": 1, "v": 15, "w": 200_000},
                {"u": 1, "v": 15, "w": 1},
                {"u": 2, "v": 2, "w": 3},
                {"u": 1, "v": 1, "w": 200_000},
                {"u": 1_000, "v": 3, "w": 200_000},
            ):
                iterations = assert_attacks_equal_dict_loop(
                    oracle, others, leaked, **params
                )
                assert iterations > 500, params
            bounded, free = (
                LocalityAttack(u=1, v=15, w=w).run_counted(
                    *others["interned"], seeds
                )
                for w in (1, 200_000)
            )
        assert len(seeds) < bounded.iterations < free.iterations

    @pytest.mark.parametrize(
        "target, auxiliary",
        [
            ([], []),  # empty backups
            ([], ["a", "b"]),
            (["a", "b"], []),
            (["a"], ["a"]),  # a single chunk
            (["a"] * 4, ["b"] * 3),
            (["a", "b", "a", "c"], ["a", "b", "a", "c"]),
        ],
    )
    def test_attack_outputs_on_degenerate_streams(
        self, count_mode, target, auxiliary
    ):
        size_of = {"a": 100, "b": 100, "c": 5000}
        ciphertext, plaintext, truth = encrypted_pair(
            [token.encode() * 8 for token in target],
            [token.encode() * 8 for token in auxiliary],
            {token.encode() * 8: size for token, size in size_of.items()},
        )
        leaked = sample_leaked(truth, plaintext, 0)
        with counted_every_way(ciphertext, plaintext) as (oracle, others):
            assert_attacks_equal_dict_loop(oracle, others, leaked, u=2, v=2, w=5)

    def test_leaked_pairs_outside_either_backup_are_recorded_not_propagated(
        self, count_mode
    ):
        tokens = [bytes([value]) * 8 for value in range(1, 9)]
        size_of = dict.fromkeys(tokens, 100)
        ciphertext, auxiliary, truth = encrypted_pair(tokens, tokens[:6], size_of)
        cipher_of = {plain: cipher for cipher, plain in truth.items()}
        leaked = {
            cipher_of[tokens[7]]: tokens[7],  # plaintext not in the auxiliary
            b"NOTARGET": tokens[2],  # ciphertext not in the target
            cipher_of[tokens[1]]: tokens[1],  # the one that propagates
        }
        with counted_every_way(ciphertext, auxiliary) as (oracle, others):
            assert_attacks_equal_dict_loop(oracle, others, leaked, u=1, v=1, w=10)
            result = LocalityAttack(u=1, v=1, w=10).run_counted(
                *others["interned"], leaked
            )
        assert list(result.pairs.items())[:3] == list(leaked.items())
        # tokens[6] neighbors only the pair that cannot propagate; the
        # chunk that cannot propagate is still never re-inferred.
        assert cipher_of[tokens[6]] not in result.pairs
        assert result.pairs[cipher_of[tokens[0]]] == tokens[0]
        assert result.pairs[cipher_of[tokens[5]]] == tokens[5]

    def test_attack_outputs_without_a_shared_size_class(self, count_mode):
        tokens = [bytes([value]) * 8 for value in range(1, 30)]
        stream = tokens[:3] * 3 + tokens
        # Unpadded 4096-byte "ciphertext" against 100-byte plaintext: at
        # block 16 no block-count class holds a chunk of both sides
        # (256 vs 7), at block 4000 one class holds them all (1 vs 0 + 1).
        ciphertext = Backup(
            "target", [token[:7] + b"c" for token in stream], [4096] * len(stream)
        )
        auxiliary = Backup("auxiliary", list(stream), [100] * len(stream))
        leaked = {ciphertext.fingerprints[4]: stream[4]}
        with counted_every_way(ciphertext, auxiliary) as (oracle, others):
            for block_size in (16, 4000):
                assert_attacks_equal_dict_loop(
                    oracle, others, leaked, u=1, v=2, w=50, block_size=block_size
                )
            for stats in others.values():
                assert not AdvancedLocalityAttack().run_counted(*stats).pairs
                spread = AdvancedLocalityAttack(block_size=4000).run_counted(*stats)
                assert len(spread.pairs) > 3

    @pytest.mark.skipif(accel.numpy is None, reason="interning needs numpy")
    def test_id_steps_refuse_a_v_their_keys_cannot_hold(self):
        ciphertext, auxiliary, _ = edited_streams(5)
        stats = tuple(map(interned_count, (ciphertext, auxiliary)))
        dicts = tuple(map(count_with_neighbors, (ciphertext, auxiliary)))
        widest = LocalityAttack(v=(1 << 22) - 1)
        assert list(widest.run_counted(*stats).pairs.items()) == list(
            widest.run_counted(*dicts).pairs.items()
        )
        with pytest.raises(ConfigurationError, match="too large"):
            LocalityAttack(v=1 << 22).run_counted(*stats)
        LocalityAttack(v=1 << 22).run_counted(*dicts)

    @pytest.mark.skipif(accel.numpy is None, reason="interning needs numpy")
    def test_attack_over_one_vocabulary_that_grew_between_the_counts(self):
        ciphertext, auxiliary, truth = edited_streams(5)
        oracle = tuple(map(count_with_neighbors, (ciphertext, auxiliary)))
        leaked = sample_leaked(truth, auxiliary, 5)
        for first, second in ((0, 1), (1, 0)):
            vocabulary = ChunkVocabulary()
            stats = [None, None]
            backups = (ciphertext, auxiliary)
            stats[first] = interned_count(backups[first], vocabulary)
            stats[first].left  # grouped before the vocabulary grows
            stats[second] = interned_count(backups[second], vocabulary)
            assert len(vocabulary) > stats[first]._vocab_size
            assert_attacks_equal_dict_loop(
                oracle, {"shared": tuple(stats)}, leaked, u=2, v=3, w=100
            )

    @pytest.mark.skipif(accel.numpy is None, reason="interning needs numpy")
    def test_vocabulary_growing_after_a_count(self):
        vocabulary = ChunkVocabulary()
        first_backup = Backup(
            label="1", fingerprints=[b"a", b"b", b"a"], sizes=[5, 6, 5]
        )
        first = interned_count(first_backup, vocabulary)
        first.left  # grouped (offsets sized) before the vocabulary grows
        second = interned_count(
            Backup(label="2", fingerprints=[b"c", b"a", b"d"], sizes=[1, 5, 2]),
            vocabulary,
        )
        assert len(vocabulary) == 4
        # Fingerprints interned by the later count are unknown to the
        # first: default, not an index past its rank/offset arrays.
        for late in (b"c", b"d"):
            assert first.left.get(late) is None
            assert first.right.get(late, {}) == {}
            assert late not in first.left
            assert late not in first.frequencies
            assert first.sizes.get(late) is None
        assert_equals_oracle(first, count_with_neighbors(first_backup))
        assert_rankings_equal_oracle(
            first, count_with_neighbors(first_backup), 2, 4
        )
        assert second.frequencies == {b"c": 1, b"a": 1, b"d": 1}
        assert second.left.get(b"a") == {b"c": 1}


class TestPartialRanking:
    """``top_ranked_ids`` takes a short prefix by partition instead of
    sorting the table: every prefix must be the full ranking's."""

    def test_every_prefix_of_heavily_tied_tables(self):
        if accel.numpy is None:
            pytest.skip("array stats need numpy")
        rng = random.Random(2024)
        for case in range(60):
            distinct = rng.choice(
                (0, 1, 2, rng.randrange(3, 30), rng.randrange(30, 90))
            )
            if case % 20 == 0:
                distinct = rng.randrange(200, 400)
            most = rng.choice((1, 2, 3, 9))  # few count values: heavy ties
            stream = [
                fingerprint
                for fingerprint in (rng.randbytes(5) for _ in range(distinct))
                for _ in range(rng.randint(1, most))
            ]
            rng.shuffle(stream)
            backup = Backup(
                label="ties",
                fingerprints=stream,
                sizes=[rng.choice((100, 4096, 5000)) for _ in stream],
            )
            oracle = count_with_neighbors(backup)
            assert oracle.unique_chunks == distinct
            for tie_break in (INSERTION, FINGERPRINT):
                ranked = rank_by_frequency(oracle.frequencies, tie_break)
                for cached_first in (False, True):
                    stats = interned_count(backup)
                    if cached_first:
                        stats._tie_order(tie_break)
                    for limit in range(1, distinct):
                        assert stats.top_ranked(limit, tie_break) == ranked[:limit]
                    # A proper prefix never sorted the whole table.
                    assert (tie_break in stats._tie_orders) == cached_first
                    for limit in (None, 0, distinct, distinct + 1):
                        assert stats.top_ranked(limit, tie_break) == ranked[:limit]
            # class_tops (the full order's one user) after partial calls.
            stats = interned_count(backup)
            stats.top_ranked_ids(1, INSERTION)
            assert_rankings_equal_oracle(stats, oracle, limit=2, block_size=16)


class TestChunkVocabulary:
    def test_intern_is_stable_and_dense(self):
        vocabulary = ChunkVocabulary()
        assert vocabulary.intern(b"a") == 0
        assert vocabulary.intern(b"b") == 1
        assert vocabulary.intern(b"a") == 0
        assert len(vocabulary) == 2
        assert vocabulary.fingerprint(1) == b"b"
        assert vocabulary.id_of(b"c") is None
        assert b"a" in vocabulary and b"c" not in vocabulary

    def test_shared_vocabulary_across_counters(self):
        vocabulary = ChunkVocabulary()
        interned_count(
            Backup(label="1", fingerprints=[b"x", b"y"], sizes=[1, 2]),
            vocabulary,
        )
        second = interned_count(
            Backup(label="2", fingerprints=[b"y", b"z"], sizes=[3, 4]),
            vocabulary,
        )
        if accel.numpy is not None:  # the reference COUNT interns nothing
            assert len(vocabulary) == 3
        assert second.frequencies == {b"y": 1, b"z": 1}
        assert second.sizes == {b"y": 3, b"z": 4}


class TestBatchedUniqueIngest:
    def _engine(self):
        from repro.storage.ddfs import DDFSEngine

        return DDFSEngine(
            cache_budget_bytes=4096,
            bloom_capacity=10_000,
            container_size=4096,
        )

    def test_batch_matches_per_chunk_path(self):
        rng = random.Random(8)
        fingerprints = [rng.randbytes(20) for _ in range(500)]
        sizes = [rng.randrange(100, 900) for _ in fingerprints]

        reference = self._engine()
        for fingerprint, size in zip(fingerprints, sizes):
            assert reference.process_chunk(fingerprint, size) is True
        batched = self._engine()
        batched.ingest_unique_batch(fingerprints, sizes)

        assert (
            reference.containers.num_containers
            == batched.containers.num_containers
        )
        assert reference.containers.open_chunks == batched.containers.open_chunks
        assert len(reference.index) == len(batched.index)
        for fingerprint in fingerprints:
            assert reference.index.container_of(
                fingerprint
            ) == batched.index.container_of(fingerprint)
        # Metered bytes agree: updates always, index probes whenever the
        # bloom filters (same state, same order) produced false positives.
        assert (
            reference.index.stats.update_bytes
            == batched.index.stats.update_bytes
        )
        assert (
            reference.index.stats.index_bytes == batched.index.stats.index_bytes
        )

    def test_batch_report_mirrors_per_chunk_report(self):
        from repro.storage.metrics import BackupWriteReport

        rng = random.Random(9)
        fingerprints = [rng.randbytes(20) for _ in range(200)]
        sizes = [256] * len(fingerprints)
        reference = self._engine()
        reference_report = BackupWriteReport(label="r")
        for fingerprint, size in zip(fingerprints, sizes):
            reference.process_chunk(fingerprint, size, report=reference_report)
        batched = self._engine()
        batched_report = BackupWriteReport(label="b")
        batched.ingest_unique_batch(fingerprints, sizes, report=batched_report)
        assert batched_report.total_chunks == reference_report.total_chunks
        assert batched_report.unique_chunks == reference_report.unique_chunks
        assert batched_report.stored_bytes == reference_report.stored_bytes
        assert (
            batched_report.containers_written
            == reference_report.containers_written
        )
        assert (
            batched_report.bloom_false_positives
            == reference_report.bloom_false_positives
        )


class TestOneChunkPath:
    """``process_backup`` and a ``process_chunk``-per-chunk replay are
    shells over one body, and (for all-unique batches) the batch kernels
    of ``ingest_unique_batch`` must reach the same state: a seeded search
    over the regimes where they could part — a saturated Bloom filter
    (false positives), a cache smaller than one container (a prefetch
    evicts itself), containers of a few chunks, back-to-back duplicates,
    re-writes after ``collect_garbage`` — compares every report field and
    the whole engine state, and pins a digest of it all computed on the
    commit before the paths were fused."""

    SEEDS = range(60)
    # SHA-256 over every seed's reports + final state, from the parent
    # commit (per-chunk ``in`` + ``add``, five-deep method chain).
    PINNED = "c484cc651cdeae281d0ab5d6d16a321b0c275ff1e934768cee92f4a407e91900"

    @staticmethod
    def _engine(rng):
        from repro.storage.ddfs import DDFSEngine

        return DDFSEngine(
            cache_budget_bytes=32 * rng.randrange(1, 4),
            bloom_capacity=rng.randrange(4, 40),
            bloom_fpr=0.2,
            container_size=rng.randrange(200, 600),
        )

    @staticmethod
    def _series(rng):
        pool = [rng.randbytes(6) for _ in range(60)]
        series = []
        for generation in range(4):
            fingerprints = []
            for _ in range(rng.randrange(20, 60)):
                fresh = rng.random() < 0.4
                fingerprint = rng.randbytes(6) if fresh else rng.choice(pool)
                fingerprints.append(fingerprint)
                if rng.random() < 0.2:
                    fingerprints.append(fingerprint)
            series.append(
                Backup(
                    label=f"g{generation}",
                    fingerprints=fingerprints,
                    sizes=[50 + fp[0] % 100 for fp in fingerprints],
                )
            )
        return series

    @staticmethod
    def _state(engine):
        import dataclasses

        return (
            dataclasses.astuple(engine.index.stats),
            engine.bloom_false_positives,
            bytes(engine.bloom._bits),
            engine.bloom.inserted,
            list(engine.cache._lru),
            (engine.cache.hits, engine.cache.misses),
            [
                (cid, [(e.fingerprint, e.size, e.offset) for e in container.entries])
                for cid, container in engine.containers.containers.items()
            ],
            (engine.containers.open_chunks, engine.containers.stored_bytes()),
            list(engine.index._store._data.items()),
        )

    @staticmethod
    def _replay(engine, backup):
        from repro.storage.metrics import BackupWriteReport

        report = BackupWriteReport(label=backup.label)
        for fingerprint, size in zip(backup.fingerprints, backup.sizes):
            engine.process_chunk(fingerprint, size, report=report)
        engine.finish_backup(report)
        report.metadata = engine.index.take_stats()
        return report

    def _run(self, seed, write):
        from repro.storage.gc import ReferenceTracker, collect_garbage

        rng = random.Random(seed)
        engine = self._engine(rng)
        series = self._series(rng)
        threshold = rng.choice((0.5, 0.9, 1.0))
        tracker = ReferenceTracker()
        reports = []
        for backup in series[:3]:
            reports.append(write(engine, backup))
            tracker.register_backup(backup)
        tracker.delete_backup("g0")
        tracker.delete_backup("g1")
        collected = collect_garbage(engine, tracker, threshold)
        after_gc = self._state(engine)
        reports.append(write(engine, series[3]))
        return reports, collected, after_gc, self._state(engine)

    def test_backup_and_per_chunk_replay_agree_and_match_parent(self):
        digest = hashlib.sha256()
        false_positives = prefetches = reclaimed = 0
        for seed in self.SEEDS:
            whole = self._run(seed, lambda engine, backup: engine.process_backup(backup))
            assert whole == self._run(seed, self._replay), f"seed {seed}"
            digest.update(repr(whole).encode())
            reports, collected, _, _ = whole
            false_positives += sum(r.bloom_false_positives for r in reports)
            prefetches += sum(r.metadata.loading_bytes > 0 for r in reports)
            reclaimed += collected.containers_reclaimed
        # The search reached the regimes it is for.
        assert false_positives > 100 and prefetches > 100 and reclaimed > 100
        assert digest.hexdigest() == self.PINNED

    def test_unique_batch_agrees_with_both(self):
        from repro.storage.metrics import BackupWriteReport

        false_positives = 0
        for seed in self.SEEDS:
            rng = random.Random(1000 + seed)
            fingerprints = list(
                dict.fromkeys(rng.randbytes(6) for _ in range(rng.randrange(30, 90)))
            )
            backup = Backup(
                label="unique",
                fingerprints=fingerprints,
                sizes=[50 + fp[0] % 100 for fp in fingerprints],
            )
            engines = [self._engine(random.Random(seed)) for _ in range(3)]
            whole = engines[0].process_backup(backup)
            replayed = self._replay(engines[1], backup)
            batched = BackupWriteReport(label="unique")
            engines[2].ingest_unique_batch(
                backup.fingerprints, backup.sizes, report=batched
            )
            engines[2].finish_backup(batched)
            batched.metadata = engines[2].index.take_stats()

            assert whole == replayed, f"seed {seed}"
            assert self._state(engines[0]) == self._state(engines[1])
            # The batch path skips S1, so only the cache-miss counters
            # (engine and report) stay where they were.
            assert batched.cache_misses == engines[2].cache.misses == 0
            batched.cache_misses = whole.cache_misses
            engines[2].cache.misses = engines[0].cache.misses
            assert batched == whole, f"seed {seed}"
            assert self._state(engines[2]) == self._state(engines[0])
            false_positives += whole.bloom_false_positives
        assert false_positives > 100

    def test_unique_batch_above_crossover(self, count_mode):
        """The cases above run batches of 30-90 chunks; these are past
        ``NUMPY_MIN_BATCH``, so the accelerated half runs the vector
        Bloom kernel against the per-chunk path's scalar ``add``."""
        from repro.index.bloom import NUMPY_MIN_BATCH
        from repro.storage.metrics import BackupWriteReport

        false_positives = 0
        for seed in range(20):
            rng = random.Random(2000 + seed)
            count = rng.randrange(NUMPY_MIN_BATCH, 3 * NUMPY_MIN_BATCH)
            fingerprints = list(dict.fromkeys(rng.randbytes(6) for _ in range(count)))
            backup = Backup(
                label="unique",
                fingerprints=fingerprints,
                sizes=[50 + fp[0] % 100 for fp in fingerprints],
            )
            engines = [self._engine(random.Random(seed)) for _ in range(2)]
            whole = engines[0].process_backup(backup)
            batched = BackupWriteReport(label="unique")
            engines[1].ingest_unique_batch(
                backup.fingerprints, backup.sizes, report=batched
            )
            engines[1].finish_backup(batched)
            batched.metadata = engines[1].index.take_stats()
            batched.cache_misses = whole.cache_misses
            engines[1].cache.misses = engines[0].cache.misses
            assert batched == whole, f"seed {seed}"
            assert self._state(engines[1]) == self._state(engines[0])
            false_positives += whole.bloom_false_positives
        assert false_positives > 100


class TestBatchKernels:
    """Each batch kernel of the service's upload path against a loop of
    the per-item call, under both accel modes and with batches on both
    sides of the Bloom kernel's ``NUMPY_MIN_BATCH``."""

    @staticmethod
    def _batch_sizes():
        from repro.index.bloom import NUMPY_MIN_BATCH

        return (0, 1, NUMPY_MIN_BATCH - 1, NUMPY_MIN_BATCH, 3 * NUMPY_MIN_BATCH)

    @pytest.mark.parametrize("num_bits", [8, 13, 64, 4099])
    def test_bloom_add_many_matches_add_loop(self, count_mode, num_bits):
        from repro.index.bloom import NUMPY_MIN_BATCH, BloomFilter

        def tiny():
            # Seven probes into as few as 8 bits: collisions between keys
            # and among one key's own probes on every batch.
            bloom = BloomFilter(capacity=1, false_positive_rate=0.5)
            bloom.num_bits, bloom.num_hashes = num_bits, 7
            bloom._bits = bytearray((num_bits + 7) // 8)
            return bloom

        rng = random.Random(num_bits)
        loop, batched = tiny(), tiny()
        scalar_calls = []

        def counted_add(key):
            scalar_calls.append(key)
            return BloomFilter.add(batched, key)

        batched.add = counted_add
        for size in self._batch_sizes() * 3:
            keys = [rng.randbytes(rng.randrange(1, 8)) for _ in range(size - size // 8)]
            keys += keys[: size // 8]  # repeats inside one batch
            scalar_calls.clear()
            expected = sum(map(loop.add, keys))
            assert batched.add_many(keys) == expected
            assert batched._bits == loop._bits
            assert batched.inserted == loop.inserted
            vector = count_mode == "accelerated" and len(keys) >= NUMPY_MIN_BATCH
            assert scalar_calls == ([] if vector else keys)

    def test_bloom_add_many_at_service_size(self, count_mode):
        from repro.index.bloom import BloomFilter

        rng = random.Random(5)
        loop, batched = BloomFilter(1000, 0.01), BloomFilter(1000, 0.01)
        for size in self._batch_sizes() * 4:
            keys = [rng.randbytes(20) for _ in range(size)]
            assert batched.add_many(keys) == sum(map(loop.add, keys))
        assert batched._bits == loop._bits
        assert batched.inserted == loop.inserted == sum(self._batch_sizes()) * 4

    def test_put_many_matches_put_loop(self, count_mode):
        from repro.index.cache import LRUCache

        rng = random.Random(6)
        pool = [rng.randbytes(4) for _ in range(40)]
        loop, batched = LRUCache(12), LRUCache(12)
        for step, size in enumerate(self._batch_sizes()[:3] + (5, 12, 13, 30)):
            # Distinct keys, some already cached, some batches longer than
            # the capacity.
            keys = rng.sample(pool, min(size, len(pool)))
            for key in keys:
                loop.put(key, step)
            batched.put_many(keys, step)
            assert list(batched._entries.items()) == list(loop._entries.items())

    def test_lookup_many_matches_lookup_loop(self, count_mode):
        from repro.index.cache import FingerprintCache

        rng = random.Random(7)
        pool = [rng.randbytes(4) for _ in range(60)]
        loop, batched = FingerprintCache(32 * 20), FingerprintCache(32 * 20)
        for cache in (loop, batched):
            cache.insert_many(pool[:20], 1)
        for size in self._batch_sizes() + (45,):
            stream = [rng.choice(pool) for _ in range(min(size, 45))]
            misses = [fp for fp in stream if loop.lookup(fp) is None]
            assert batched.lookup_many(stream) == misses
            assert (batched.hits, batched.misses) == (loop.hits, loop.misses)
            assert list(batched._lru) == list(loop._lru)
            new = rng.sample(pool, 5)
            loop.insert_many(new, size)
            batched.insert_many(new, size)

    def test_extend_matches_append_loop(self, count_mode):
        from repro.common.errors import StorageError
        from repro.storage.container import ContainerStore

        keys = []

        def state(store):
            # Public views only: the sealed containers' columns and the
            # entries built from them, then the open buffer as its readers
            # see it.
            return (
                [
                    (cid, c.fingerprints(), c.entries, c.data_bytes, c.payload)
                    for cid, c in store.containers.items()
                ],
                store.open_chunks,
                store.stored_bytes(),
                [store.in_open_buffer(key) for key in keys],
            )

        rng = random.Random(8)
        batches = [
            [],  # empty batch
            [30, 30, 40],  # a seal landing exactly on container_size
            [20, 150, 10],  # one chunk >= container_size
            [100],
            [],
        ] + [[rng.randrange(1, 60) for _ in range(n)] for n in self._batch_sizes()]
        loop, batched = ContainerStore(100), ContainerStore(100)
        for sizes in batches:
            fingerprints = [rng.randbytes(6) for _ in sizes]
            keys += fingerprints
            sealed = [
                cid
                for cid in map(loop.append, fingerprints, sizes)
                if cid is not None
            ]
            assert batched.extend(fingerprints, sizes) == sealed
            assert state(batched) == state(loop)
        # Seal the last open buffer so its columns are compared entry by
        # entry through the sealed container's views.
        assert loop.open_chunks > 0
        assert batched.flush() == loop.flush()
        assert state(batched) == state(loop)
        assert loop.num_containers > 10
        with pytest.raises(StorageError):
            ContainerStore(100, keep_payload=True).extend([b"x"], [1])
