"""Tests for the basic, locality-based, and advanced attacks.

Includes the paper's Figure 3 worked example, verified pair by pair.
"""

import pytest

from repro.attacks.advanced import AdvancedLocalityAttack
from repro.attacks.basic import BasicAttack
from repro.attacks.locality import LocalityAttack
from repro.common.errors import ConfigurationError
from repro.datasets.model import Backup


def backup(tokens, sizes=None, label="b"):
    tokens = [t.encode() for t in tokens]
    if sizes is None:
        sizes = [4096] * len(tokens)
    return Backup(label=label, fingerprints=tokens, sizes=sizes)


class TestBasicAttack:
    def test_identical_streams_with_distinct_frequencies(self):
        # Frequencies 3, 2, 1 are unambiguous, so ranks align exactly.
        plain = backup(["a", "a", "a", "b", "b", "c"])
        cipher = backup(["A", "A", "A", "B", "B", "C"])
        result = BasicAttack().run(cipher, plain)
        assert result.pairs == {b"A": b"a", b"B": b"b", b"C": b"c"}

    def test_rank_shift_after_update_misleads(self):
        # 'b' overtook 'a' in the target: rank pairing now crosses.
        plain = backup(["a", "a", "a", "b", "b", "c"])
        cipher = backup(["B", "B", "B", "A", "A", "C"])
        result = BasicAttack().run(cipher, plain)
        assert result.pairs[b"B"] == b"a"  # wrong, as expected

    def test_leaked_pairs_override(self):
        plain = backup(["a", "b"])
        cipher = backup(["A", "B"])
        result = BasicAttack().run(
            cipher, plain, leaked_pairs={b"A": b"truth"}
        )
        assert result.pairs[b"A"] == b"truth"


class TestFigure3Example:
    """The paper's worked example (§4.2, Figure 3), exactly."""

    M = ["M1", "M2", "M1", "M2", "M3", "M4", "M2", "M3", "M4"]
    C = ["C1", "C2", "C5", "C2", "C1", "C2", "C3", "C4", "C2", "C3", "C4", "C4"]

    def run_attack(self):
        attack = LocalityAttack(u=1, v=1, w=10**9)
        return attack.run(backup(self.C), backup(self.M))

    def test_seed_is_most_frequent_pair(self):
        # C2 (freq 5) pairs with M2 (freq 3).
        result = self.run_attack()
        assert result.pairs[b"C2"] == b"M2"

    def test_all_four_pairs_inferred(self):
        result = self.run_attack()
        for index in (1, 2, 3, 4):
            assert result.pairs[f"C{index}".encode()] == f"M{index}".encode()

    def test_c5_cannot_be_inferred(self):
        # C5's plaintext does not appear in M; the paper notes the attack
        # cannot infer it.
        result = self.run_attack()
        assert b"C5" not in result.pairs or result.pairs[b"C5"] not in {
            b"M1",
            b"M2",
            b"M3",
            b"M4",
        }
        # With v=1 it is in fact never paired at all:
        assert b"C5" not in result.pairs

    def test_exactly_the_paper_inference_set(self):
        result = self.run_attack()
        assert result.pairs == {
            b"C1": b"M1",
            b"C2": b"M2",
            b"C3": b"M3",
            b"C4": b"M4",
        }


class TestLocalityAttack:
    def test_parameter_validation(self):
        for bad in ({"u": 0}, {"v": 0}, {"w": 0}):
            with pytest.raises(ConfigurationError):
                LocalityAttack(**bad)

    def test_unknown_tie_break_rejected_at_construction(self):
        # Not from the first non-empty ranking, after both COUNT passes
        # (and never at all when the tables are empty).
        for build in (
            lambda: LocalityAttack(tie_break="random"),
            lambda: LocalityAttack(seed_tie_break="size"),
            lambda: AdvancedLocalityAttack(tie_break="random"),
            lambda: BasicAttack(tie_break=""),
        ):
            with pytest.raises(ConfigurationError, match="unknown tie_break"):
                build()
        for tie_break in ("insertion", "fingerprint"):
            BasicAttack(tie_break=tie_break)
            LocalityAttack(tie_break=tie_break, seed_tie_break=tie_break)

    def test_repr_tells_configurations_apart(self):
        assert repr(LocalityAttack(u=2, v=3, w=4)) == (
            "LocalityAttack(u=2, v=3, w=4, tie_break='insertion', "
            "seed_tie_break='fingerprint')"
        )
        assert repr(LocalityAttack()) != repr(
            LocalityAttack(tie_break="fingerprint")
        )
        assert repr(LocalityAttack()) != repr(
            LocalityAttack(seed_tie_break="insertion")
        )
        assert repr(AdvancedLocalityAttack(block_size=32)) == (
            "AdvancedLocalityAttack(u=1, v=15, w=200000, block_size=32, "
            "tie_break='insertion', seed_tie_break='fingerprint')"
        )
        assert repr(AdvancedLocalityAttack()) != repr(
            AdvancedLocalityAttack(block_size=32)
        )

    def test_chain_propagation_through_unique_run(self):
        # One shared frequent chunk seeds the walk; the rest is a run of
        # unique chunks in identical order. v=2 lets the expansion move
        # past the frequent chunk's self-co-occurrence.
        plain = ["p"] * 3 + ["a", "b", "c", "d", "e"]
        cipher = ["P"] * 3 + ["A", "B", "C", "D", "E"]
        result = LocalityAttack(u=1, v=2, w=1000).run(
            backup(cipher), backup(plain)
        )
        assert result.pairs[b"A"] == b"a"
        assert result.pairs[b"E"] == b"e"

    def test_chain_stops_at_divergence(self):
        plain = ["p"] * 3 + ["a", "b", "x1", "x2", "x3"]
        cipher = ["P"] * 3 + ["A", "B"]  # target truncated after B
        result = LocalityAttack(u=1, v=2, w=1000).run(
            backup(cipher), backup(plain)
        )
        assert result.pairs[b"B"] == b"b"
        assert len(result.pairs) == 3  # P, A, B and nothing else

    def test_known_plaintext_seeds_counted_and_propagated(self):
        plain = ["a", "b", "c", "d"]
        cipher = ["A", "B", "C", "D"]
        leaked = {b"B": b"b", b"Z": b"z"}  # Z is not in the target stream
        result = LocalityAttack(u=1, v=1, w=1000).run(
            backup(cipher), backup(plain), leaked_pairs=leaked
        )
        # All leaked pairs appear in T (they count toward the rate)...
        assert result.pairs[b"Z"] == b"z"
        # ...and in-stream seeds propagate to neighbors.
        assert result.pairs[b"A"] == b"a"
        assert result.pairs[b"C"] == b"c"
        assert result.pairs[b"D"] == b"d"

    def test_w_bounds_queue_not_result(self):
        # With w=1 the queue holds one pending pair, yet chains still
        # propagate one hop at a time.
        plain = ["p"] * 3 + list("abcdefgh")
        cipher = ["P"] * 3 + list("ABCDEFGH")
        result = LocalityAttack(u=1, v=2, w=1).run(
            backup(cipher), backup(plain)
        )
        assert result.pairs[b"A"] == b"a"

    def test_iterations_counted(self):
        plain = ["p", "p", "a"]
        cipher = ["P", "P", "A"]
        result = LocalityAttack(u=1, v=1, w=10).run(
            backup(cipher), backup(plain)
        )
        assert result.iterations >= 1


class TestAdvancedLocalityAttack:
    def test_equals_locality_on_fixed_size_chunks(self, tiny_vm_series):
        from repro.defenses.pipeline import DefensePipeline, DefenseScheme

        encrypted = DefensePipeline(DefenseScheme.MLE).encrypt_series(
            tiny_vm_series
        )
        cipher = encrypted.backups[-1].ciphertext
        plain = tiny_vm_series.backups[-2]
        locality = LocalityAttack(u=1, v=5, w=10_000).run(cipher, plain)
        advanced = AdvancedLocalityAttack(u=1, v=5, w=10_000).run(cipher, plain)
        assert locality.pairs == advanced.pairs

    def test_size_channel_disambiguates_frequency_ties(self):
        # Two tied chunk pairs, distinguishable only by size. Sizes are
        # chosen so plaintext n -> ciphertext (n//16+1)*16 matching works.
        plain = backup(
            ["p", "p", "small", "p", "p", "big"],
            sizes=[4096, 4096, 1000, 4096, 4096, 9000],
        )
        cipher = backup(
            ["P", "P", "BIG", "P", "P", "SMALL"],
            sizes=[4112, 4112, 9008, 4112, 4112, 1008],
        )
        result = AdvancedLocalityAttack(u=1, v=2, w=100).run(cipher, plain)
        assert result.pairs.get(b"SMALL") == b"small"
        assert result.pairs.get(b"BIG") == b"big"

    def test_seed_analysis_is_size_classified(self):
        # Top-frequency chunks of *different* sizes must not pair.
        plain = backup(["m"] * 5 + ["x"], sizes=[1000] * 5 + [2000])
        cipher = backup(["C"] * 5 + ["Y"], sizes=[9008] * 5 + [2016])
        result = AdvancedLocalityAttack(u=1, v=1, w=100).run(cipher, plain)
        assert result.pairs.get(b"C") != b"m"
