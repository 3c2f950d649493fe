"""Tests for repro.crypto: primitives, cipher, key manager, MLE schemes.

The keystream is SHAKE-256 over a length-framed key and the nonce; its
external anchor is FIPS 202's empty-message vector. ``_oracle_prf_stream``
spells the definition a second way (incremental absorbs, hex output) and
``_oracle_xor`` is the per-byte XOR; the format-dependent vectors in
:class:`TestKnownAnswers` were computed from those two, not from the
kernel they pin.
"""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import (
    ConfigurationError,
    IntegrityError,
    RateLimitExceeded,
)
from repro.crypto.cipher import (
    BLOCK_SIZE,
    BlockCipher,
    ciphertext_blocks,
    pad,
    unpad,
)
from repro.crypto.keymanager import KeyManager, RateLimiter
from repro.crypto.mle import (
    CiphertextChunk,
    ConvergentEncryption,
    KeyRecipe,
    ServerAidedMLE,
)
from repro.crypto.primitives import hkdf_expand, hmac_digest, prf_stream, xor_bytes
from repro.crypto.secretsharing import Share, combine_shares, split_secret
from repro.datasets.model import Backup
from repro.defenses.obfuscate import FrequencyObfuscator
from repro.defenses.pipeline import DefensePipeline
from repro.storage.recipes import FileRecipe

KEY = b"k" * 32
KAT_KEY = bytes(range(32))
KAT_NONCE = b"kat-nonce"
CIPHER_NONCE = b"freqdedup-cipher"


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def kat_pattern(size: int) -> bytes:
    return bytes((i * 7 + 3) % 256 for i in range(size))


def _oracle_prf_stream(key: bytes, nonce: bytes, length: int) -> bytes:
    """SHAKE-256(len(key) as 8 big-endian bytes || key || nonce), absorbed
    piecewise and read out as hex — an independent spelling of the kernel."""
    xof = hashlib.shake_256()
    xof.update(len(key).to_bytes(8, "big"))
    xof.update(key)
    xof.update(nonce)
    return bytes.fromhex(xof.hexdigest(length))


def _oracle_xor(a: bytes, b: bytes) -> bytes:
    """One Python-level XOR per byte."""
    return bytes(x ^ y for x, y in zip(a, b))


def _oracle_encrypt(key: bytes, plaintext: bytes) -> bytes:
    padded = pad(plaintext)
    return _oracle_xor(padded, _oracle_prf_stream(key, CIPHER_NONCE, len(padded)))


class TestPrimitives:
    def test_prf_stream_deterministic(self):
        assert prf_stream(KEY, b"n", 100) == prf_stream(KEY, b"n", 100)

    def test_prf_stream_key_separation(self):
        assert prf_stream(KEY, b"n", 64) != prf_stream(b"j" * 32, b"n", 64)

    def test_prf_stream_nonce_separation(self):
        assert prf_stream(KEY, b"a", 64) != prf_stream(KEY, b"b", 64)

    @pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 1000])
    def test_prf_stream_lengths(self, length):
        assert len(prf_stream(KEY, b"n", length)) == length

    def test_prf_stream_prefix_stable(self):
        # Requesting a longer stream must extend, not change, the prefix.
        assert prf_stream(KEY, b"n", 200)[:50] == prf_stream(KEY, b"n", 50)

    def test_prf_stream_negative_length(self):
        with pytest.raises(ValueError):
            prf_stream(KEY, b"n", -1)

    def test_prf_stream_framing_is_injective(self):
        # Bare ``key + nonce`` would absorb b"kn1" both times.
        assert prf_stream(b"k", b"n1", 64) != prf_stream(b"kn", b"1", 64)

    @pytest.mark.parametrize("key_size", [1, 16, 32, 64, 100, 300])
    def test_prf_stream_key_sizes(self, key_size):
        # No clamp: every key length is absorbed whole, so keys differing
        # only in their last byte — or only in length — separate.
        key = kat_pattern(key_size)
        stream = prf_stream(key, b"n", 64)
        assert stream == _oracle_prf_stream(key, b"n", 64)
        assert stream != prf_stream(key[:-1] + b"\xff", b"n", 64)
        assert stream != prf_stream(key + b"\x00", b"n", 64)
        assert prf_stream(key, b"n", 0) == b""

    def test_hkdf_expand_lengths_and_separation(self):
        a = hkdf_expand(KEY, b"purpose-a")
        b = hkdf_expand(KEY, b"purpose-b")
        assert len(a) == 32
        assert a != b
        assert hkdf_expand(KEY, b"purpose-a", 64)[:32] == a

    def test_hkdf_expand_length_limit(self):
        # RFC 5869 allows exactly 255 blocks of HashLen bytes.
        longest = hkdf_expand(KEY, b"limit", 255 * 32)
        assert len(longest) == 255 * 32
        assert longest[: 254 * 32] == hkdf_expand(KEY, b"limit", 254 * 32)
        assert longest[:32] == hkdf_expand(KEY, b"limit")
        with pytest.raises(ValueError):
            hkdf_expand(KEY, b"limit", 255 * 32 + 1)
        assert hkdf_expand(KEY, b"limit", 0) == b""

    def test_hmac_digest_deterministic(self):
        assert hmac_digest(KEY, b"m") == hmac_digest(KEY, b"m")

    def test_xor_bytes(self):
        assert xor_bytes(b"", b"") == b""
        assert xor_bytes(b"\x00\xff\x0f", b"\x00\xff\xf0") == b"\x00\x00\xff"
        # Leading zero bytes survive the trip through an integer.
        assert xor_bytes(b"\x00" * 8, b"\x00" * 8) == b"\x00" * 8
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")


class TestPadding:
    @given(st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_pad_unpad_roundtrip(self, data):
        padded = pad(data)
        assert len(padded) % BLOCK_SIZE == 0
        assert len(padded) > len(data)
        assert unpad(padded) == data

    def test_unpad_rejects_bad_length(self):
        with pytest.raises(IntegrityError):
            unpad(b"short")

    def test_unpad_rejects_corrupt_padding(self):
        padded = bytearray(pad(b"hello"))
        padded[-1] = 200  # invalid pad length byte
        with pytest.raises(IntegrityError):
            unpad(bytes(padded))

    @pytest.mark.parametrize("block_size", [0, -1, 256, 4096])
    def test_block_size_outside_one_pad_byte_rejected(self, block_size):
        # The pad length is stored in one byte, so 255 is the widest block.
        with pytest.raises(ConfigurationError):
            BlockCipher(block_size)
        with pytest.raises(ConfigurationError):
            pad(b"data", block_size)
        with pytest.raises(ConfigurationError):
            unpad(b"data", block_size)

    @pytest.mark.parametrize("block_size", [1, 8, 255])
    def test_block_size_limits_roundtrip(self, block_size):
        cipher = BlockCipher(block_size)
        for size in (0, 1, block_size - 1, block_size, block_size + 1, 600):
            plaintext = kat_pattern(size)
            ciphertext = cipher.encrypt(KEY, plaintext)
            assert len(ciphertext) == (size // block_size + 1) * block_size
            assert cipher.decrypt(KEY, ciphertext) == plaintext

    def test_ciphertext_blocks(self):
        assert ciphertext_blocks(0) == 1
        assert ciphertext_blocks(15) == 1
        assert ciphertext_blocks(16) == 2
        assert ciphertext_blocks(4096) == 257

    def test_ciphertext_blocks_matches_actual_encryption(self):
        cipher = BlockCipher()
        for size in (0, 1, 15, 16, 17, 100, 4096):
            ciphertext = cipher.encrypt(KEY, b"x" * size)
            assert len(ciphertext) // BLOCK_SIZE == ciphertext_blocks(size)


class TestBlockCipher:
    @given(st.binary(max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, data):
        cipher = BlockCipher()
        assert cipher.decrypt(KEY, cipher.encrypt(KEY, data)) == data

    def test_deterministic(self):
        cipher = BlockCipher()
        assert cipher.encrypt(KEY, b"data") == cipher.encrypt(KEY, b"data")

    def test_key_separation(self):
        cipher = BlockCipher()
        assert cipher.encrypt(KEY, b"data") != cipher.encrypt(b"x" * 32, b"data")

    def test_wrong_key_fails_or_garbles(self):
        cipher = BlockCipher()
        ciphertext = cipher.encrypt(KEY, b"some plaintext bytes")
        try:
            wrong = cipher.decrypt(b"w" * 32, ciphertext)
            assert wrong != b"some plaintext bytes"
        except IntegrityError:
            pass  # padding check caught it — also fine

    def test_wrong_key_decrypt_differs(self):
        # pyikev2 pattern: the same ciphertext under two keys must not
        # decrypt to the same bytes. Compared below the padding check,
        # which a wrong key usually (not always) trips first.
        cipher = BlockCipher()
        plaintext = kat_pattern(4096)
        ciphertext = cipher.encrypt(KAT_KEY, plaintext)
        assert cipher.decrypt(KAT_KEY, ciphertext) == plaintext
        wrong = _oracle_xor(ciphertext, prf_stream(KEY, CIPHER_NONCE, len(ciphertext)))
        assert wrong[: len(plaintext)] != plaintext

    def test_empty_key_rejected(self):
        cipher = BlockCipher()
        with pytest.raises(ConfigurationError):
            cipher.encrypt(b"", b"data")
        with pytest.raises(ConfigurationError):
            cipher.decrypt(b"", b"\x00" * 16)


class TestRateLimiter:
    def test_burst_then_block(self):
        limiter = RateLimiter(rate=1.0, burst=3.0)
        assert all(limiter.try_acquire() for _ in range(3))
        assert not limiter.try_acquire()

    def test_refill_with_logical_clock(self):
        limiter = RateLimiter(rate=2.0, burst=2.0)
        limiter.try_acquire()
        limiter.try_acquire()
        assert not limiter.try_acquire()
        limiter.advance(1.0)  # refills 2 tokens
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()

    def test_bucket_does_not_exceed_burst(self):
        limiter = RateLimiter(rate=100.0, burst=2.0)
        limiter.advance(100.0)
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            RateLimiter(rate=0, burst=1)
        with pytest.raises(ConfigurationError):
            RateLimiter(rate=1, burst=0)

    def test_cannot_rewind_clock(self):
        limiter = RateLimiter(rate=1, burst=1)
        with pytest.raises(ConfigurationError):
            limiter.advance(-1)


class TestKeyManager:
    def test_deterministic_keys(self):
        manager = KeyManager(b"s" * 32)
        assert manager.derive_key(b"fp1") == manager.derive_key(b"fp1")

    def test_distinct_fingerprints_distinct_keys(self):
        manager = KeyManager(b"s" * 32)
        assert manager.derive_key(b"fp1") != manager.derive_key(b"fp2")

    def test_distinct_secrets_distinct_keys(self):
        a = KeyManager(b"a" * 32)
        b = KeyManager(b"b" * 32)
        assert a.derive_key(b"fp") != b.derive_key(b"fp")

    def test_verify_key(self):
        manager = KeyManager(b"s" * 32)
        key = manager.derive_key(b"fp")
        assert manager.verify_key(b"fp", key)
        assert not manager.verify_key(b"fp", b"\x00" * 32)

    def test_rate_limited_brute_force(self):
        limiter = RateLimiter(rate=1.0, burst=5.0)
        manager = KeyManager(b"s" * 32, rate_limiter=limiter)
        served = 0
        rejected = 0
        for candidate in range(20):  # online brute-force attempt
            try:
                manager.derive_key(str(candidate).encode())
                served += 1
            except RateLimitExceeded:
                rejected += 1
        assert served == 5
        assert rejected == 15
        assert manager.queries_served == 5
        assert manager.queries_rejected == 15

    def test_short_secret_rejected(self):
        with pytest.raises(ConfigurationError):
            KeyManager(b"short")


class TestMLESchemes:
    @pytest.mark.parametrize("scheme_name", ["convergent", "server-aided"])
    def test_determinism_enables_dedup(self, scheme_name):
        scheme = self._scheme(scheme_name)
        chunk_a, key_a = scheme.encrypt_chunk(b"same content")
        chunk_b, key_b = scheme.encrypt_chunk(b"same content")
        assert chunk_a.data == chunk_b.data
        assert chunk_a.tag == chunk_b.tag
        assert key_a == key_b

    @pytest.mark.parametrize("scheme_name", ["convergent", "server-aided"])
    def test_roundtrip(self, scheme_name):
        scheme = self._scheme(scheme_name)
        chunk, key = scheme.encrypt_chunk(b"secret payload")
        assert scheme.decrypt_chunk(chunk, key) == b"secret payload"

    def test_different_content_different_ciphertext(self):
        scheme = ConvergentEncryption()
        a, _ = scheme.encrypt_chunk(b"content-a")
        b, _ = scheme.encrypt_chunk(b"content-b")
        assert a.tag != b.tag

    def test_tamper_detection(self):
        scheme = ConvergentEncryption()
        chunk, key = scheme.encrypt_chunk(b"payload")
        tampered = CiphertextChunk(
            data=chunk.data[:-1] + bytes([chunk.data[-1] ^ 1]), tag=chunk.tag
        )
        with pytest.raises(IntegrityError):
            scheme.decrypt_chunk(tampered, key)

    def test_convergent_vs_server_aided_differ(self):
        convergent = ConvergentEncryption()
        aided = self._scheme("server-aided")
        a, _ = convergent.encrypt_chunk(b"content")
        b, _ = aided.encrypt_chunk(b"content")
        assert a.data != b.data

    def test_ciphertext_is_block_padded(self):
        scheme = ConvergentEncryption()
        chunk, _ = scheme.encrypt_chunk(b"x" * 100)
        assert chunk.size % BLOCK_SIZE == 0
        assert chunk.size == 112  # 100 -> 7 blocks

    @staticmethod
    def _scheme(name):
        if name == "convergent":
            return ConvergentEncryption()
        return ServerAidedMLE(KeyManager(b"s" * 32))


class TestKeyRecipe:
    def test_seal_unseal_roundtrip(self):
        recipe = KeyRecipe()
        recipe.add(b"\x01" * 32)
        recipe.add(b"\x02" * 32)
        sealed = recipe.seal(b"user-secret")
        restored = KeyRecipe.unseal(sealed, b"user-secret")
        assert restored.keys == recipe.keys

    def test_wrong_user_secret_rejected(self):
        recipe = KeyRecipe(keys=[b"\x01" * 32])
        sealed = recipe.seal(b"alice")
        with pytest.raises(IntegrityError):
            KeyRecipe.unseal(sealed, b"mallory")

    def test_len(self):
        recipe = KeyRecipe()
        assert len(recipe) == 0
        recipe.add(b"k")
        assert len(recipe) == 1


class TestKnownAnswers:
    """Byte-exact vectors: the keystream-dependent ones computed once from
    ``_oracle_prf_stream``/``_oracle_xor``, the rest (HKDF, MLE keys) from
    their RFC or the first commit.

    Chunk tags, dedup decisions and every sealed recipe depend on these
    bytes; a kernel change must reproduce them untouched. Long outputs are
    pinned by their SHA-256.
    """

    PRF_STREAM = {
        0: "",
        1: "a4",
        63: (
            "a4dc9da3ececef60c41c84a36cb3daf4787e6592ab352af41abbb29b7e9fe5eb"
            "f62ba32a6e9d56a29f4c587586076a2807c869fdb59e6092e2dd4e9da14bfa"
        ),
        64: (
            "a4dc9da3ececef60c41c84a36cb3daf4787e6592ab352af41abbb29b7e9fe5eb"
            "f62ba32a6e9d56a29f4c587586076a2807c869fdb59e6092e2dd4e9da14bfa30"
        ),
        65: (
            "a4dc9da3ececef60c41c84a36cb3daf4787e6592ab352af41abbb29b7e9fe5eb"
            "f62ba32a6e9d56a29f4c587586076a2807c869fdb59e6092e2dd4e9da14bfa30"
            "e8"
        ),
    }
    CIPHERTEXT = {
        0: "d3bd2e7e8863200d8a7a48aba816302b",
        15: "c0a72f7687551d29a12811ebef58453a",
        16: "c0a72f7687551d29a12811ebef5845573aff92b08f88ab57592c1a292cb78923",
        17: "c0a72f7687551d29a12811ebef58455759e08daf9097b4484633053633a8963c",
    }

    def test_shake_256_fips_202_empty_message(self):
        # The external anchor: FIPS 202's SHAKE-256 of the empty message.
        # Everything below is this function over a framed (key, nonce).
        assert hashlib.shake_256(b"").hexdigest(32) == (
            "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
        )

    @pytest.mark.parametrize("length", sorted(PRF_STREAM))
    def test_prf_stream(self, length):
        assert prf_stream(KAT_KEY, KAT_NONCE, length).hex() == self.PRF_STREAM[length]

    def test_prf_stream_chunk_sized(self):
        # 8208 = an 8 KiB chunk plus its padding block: 60.4 SHAKE-256 rate
        # blocks (136 bytes each), squeezed in one call.
        assert sha256_hex(prf_stream(KAT_KEY, KAT_NONCE, 8208)) == (
            "0853dc7c12b52908507320c857d3ba8db652e1bf81a4b118285756bfa36fccae"
        )

    def test_hkdf_expand_rfc5869_case_1(self):
        # RFC 5869 A.1, expand step only (PRK -> OKM).
        prk = bytes.fromhex(
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, bytes.fromhex("f0f1f2f3f4f5f6f7f8f9"), 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_hkdf_expand(self):
        assert hkdf_expand(KAT_KEY, b"purpose-a").hex() == (
            "f17b39e42700e8daa99c1d9cf9d4f5e2f3ed40855cc6e1c7fdb6e570903c100c"
        )
        assert hkdf_expand(KAT_KEY, b"chunk-cipher", 80).hex() == (
            "8be5e1e836e6c079f1d58ab21a3a4bf65e027aa5cc0f50fbf418aec59e74fdd0"
            "8d4051a349cc48f3dd2dd05c53b2a599fbe33cf2d309b13849900e915ad92a1c"
            "a298719bd15d32346ec07cca13ea5821"
        )
        assert hkdf_expand(KAT_KEY, b"", 1).hex() == "9b"
        assert sha256_hex(hkdf_expand(KAT_KEY, b"kat", 254 * 32)) == (
            "dc19ddbf744269cb580ae8825590a32c9e4b49704267e515b3f28d36bfb781ac"
        )

    @pytest.mark.parametrize("size", sorted(CIPHERTEXT))
    def test_block_cipher(self, size):
        cipher = BlockCipher()
        ciphertext = cipher.encrypt(KAT_KEY, kat_pattern(size))
        assert ciphertext.hex() == self.CIPHERTEXT[size]
        assert cipher.decrypt(KAT_KEY, ciphertext) == kat_pattern(size)

    def test_block_cipher_chunk_sized(self):
        cipher = BlockCipher()
        ciphertext = cipher.encrypt(KAT_KEY, kat_pattern(8192))
        assert len(ciphertext) == 8208
        assert sha256_hex(ciphertext) == (
            "dcdf6b589786e84170a04c1ef696dc379eaadac83ea4b1e1559cfc4a609a876c"
        )
        assert cipher.decrypt(KAT_KEY, ciphertext) == kat_pattern(8192)

    def test_block_cipher_short_key_and_narrow_block(self):
        assert BlockCipher().encrypt(b"k", b"short key").hex() == (
            "c718b51c5491760a6a35528ec4f054da"
        )
        assert BlockCipher(8).encrypt(KAT_KEY, kat_pattern(11)).hex() == (
            "c0a72f7687551d29a12811bebd03253e"
        )

    def test_convergent_encryption(self):
        scheme = ConvergentEncryption()
        chunk, key = scheme.encrypt_chunk(kat_pattern(8192))
        assert key.hex() == (
            "fc0e7582fcdfd29c4df1df8f11da2a9aa22bf4fca7a2b99247be5d355ca64ab8"
        )
        assert chunk.size == 8208
        # The default fingerprinter tags a chunk with SHA-256 of its ciphertext.
        assert chunk.tag.hex() == sha256_hex(chunk.data) == (
            "86cdf7e923643e76b5f59fa90b8dbe4f88a7c042e34bf01a3a8a6933ddf15f62"
        )
        assert scheme.decrypt_chunk(chunk, key) == kat_pattern(8192)

    def test_convergent_encryption_empty_chunk(self):
        chunk, key = ConvergentEncryption().encrypt_chunk(b"")
        assert key.hex() == (
            "c2d88a5a1a652c05e5701abb618d42110909c4a23fe85b12530ed84903ba0a16"
        )
        assert chunk.data.hex() == "3e5e401d63aa6c813ea734d8fba7a4d6"
        assert chunk.tag.hex() == (
            "81e86208fd2eee451761794d8eb3197f0ca9a7b7d1a60283de537a4e4151f67c"
        )

    def test_server_aided_mle(self):
        scheme = ServerAidedMLE(KeyManager(b"kat-system-secret-0123456789abcdef"))
        chunk, key = scheme.encrypt_chunk(kat_pattern(8192))
        assert key.hex() == (
            "d66c1a1989e001a6b11d93859e19578cd6aef883ffc1ff3ed6d5c160b8f41b1f"
        )
        assert chunk.size == 8208
        # The default fingerprinter tags a chunk with SHA-256 of its ciphertext.
        assert chunk.tag.hex() == sha256_hex(chunk.data) == (
            "d2734a133ec435096b8947b045938de2a5bb41059ec2c0d37ff48a44ea2ef237"
        )
        assert scheme.decrypt_chunk(chunk, key) == kat_pattern(8192)

    def test_sealed_key_recipe(self):
        recipe = KeyRecipe(keys=[bytes([i]) * 32 for i in range(5)])
        sealed = recipe.seal(b"kat-user-secret")
        assert len(sealed) == 352
        assert sha256_hex(sealed) == (
            "a691eb1d59a2db5340c554f4aaef573ea9d1555ad99982ce046675d5431e9ae0"
        )
        assert KeyRecipe.unseal(sealed, b"kat-user-secret").keys == recipe.keys

    def test_sealed_file_recipe(self):
        recipe = FileRecipe(filename="kat/file.bin")
        for i in range(5):
            recipe.add(bytes([0xA0 + i]) * 32, 4096 + i)
        sealed = recipe.seal(b"kat-user-secret")
        assert len(sealed) == 432
        assert sha256_hex(sealed) == (
            "8dc92fa975cb5526bcc1274feaaa7c96711208931ec67e99297678c860f464a2"
        )
        assert FileRecipe.unseal(sealed, b"kat-user-secret").chunks == recipe.chunks


DIFFERENTIAL_LENGTHS = [
    *range(0, 131),
    *range(4095, 4098),
    *range(65535, 65554),
    1 << 20,
]


class TestSecretSharingKnownAnswers:
    """3-of-5 Shamir shares of ``bytes(range(16))`` under a seeded
    ``random.Random`` — the polynomial draw order and the GF(256)
    arithmetic are what a stored share depends on."""

    SECRET = bytes(range(16))
    SHARES = {
        1: "860a4bd3b67aa7322cf3fae043b87358",
        2: "6be25c24fdf142c6cfcf43fd07bc6efd",
        3: "ede915f44f8ee3f3eb35b316480913aa",
        4: "3d25a30bc3defa04973a66107859909b",
        5: "bb2eeadb71a15b31b3c096fb37ecedcc",
    }

    def shares(self):
        return [
            Share(index, bytes.fromhex(data))
            for index, data in self.SHARES.items()
        ]

    def test_split_secret(self):
        shares = split_secret(self.SECRET, 3, 5, random.Random(2017))
        assert {share.index: share.data.hex() for share in shares} == self.SHARES

    def test_any_three_pinned_shares_combine(self):
        for subset in itertools.combinations(self.shares(), 3):
            assert combine_shares(list(subset)) == self.SECRET
        assert combine_shares(self.shares()) == self.SECRET

    def test_wrong_or_missing_share_changes_the_secret(self):
        first, second, third = self.shares()[:3]
        flipped = Share(2, bytes([second.data[0] ^ 1]) + second.data[1:])
        assert combine_shares([first, flipped, third]).hex() == (
            "010102030405060708090a0b0c0d0e0f"
        )
        # Below the threshold the interpolation yields unrelated bytes.
        assert combine_shares([first, second]).hex() == (
            "dd5246778f030d9784e764eb7f4d783b"
        )


class TestObfuscationKnownAnswers:
    """The ``obfuscate:t`` balance function and variant fingerprints at
    ``t`` = 1, 3, 8 (balance key ``seed=7``): which ciphertext variant an
    occurrence maps to decides every dedup decision downstream."""

    FINGERPRINTS = (bytes(range(20)), b"chunk-fingerprint-01", b"\x00" * 20)
    OFFSETS = {1: [0, 0, 0], 3: [0, 2, 0], 8: [4, 2, 3]}
    VARIANT_FINGERPRINTS = {
        (0, 8): "ac6040c099671a07",
        (2, 8): "6ec27c542d699f66",
        (7, 8): "ae45aa65e06d7bff",
        (7, 20): "ae45aa65e06d7bff1bc1788f407958c8e3a509ac",
    }
    # Six occurrences: chunk 1 four times, chunks 0 and 2 once each.
    STREAM = (1, 0, 1, 1, 2, 1)
    CIPHERTEXT = {
        "obfuscate:1": (
            "ac6040c099671a07 a49a9f1721e97e40 ac6040c099671a07 "
            "ac6040c099671a07 ea30fd2388a5aebc ac6040c099671a07"
        ),
        "obfuscate:3": (
            "6ec27c542d699f66 a49a9f1721e97e40 ac6040c099671a07 "
            "319427c7c8df85a4 ea30fd2388a5aebc 6ec27c542d699f66"
        ),
        "obfuscate:8": (
            "6ec27c542d699f66 4996b17072d5c47c 15b73267839feb0c "
            "84240c10f4270fed a58093bc5a9fbdef 489b50da393fb480"
        ),
    }

    @pytest.mark.parametrize("variants", sorted(OFFSETS))
    def test_offset_and_assign(self, variants):
        obfuscator = FrequencyObfuscator(variants, seed=7)
        offsets = [obfuscator.offset(fp) for fp in self.FINGERPRINTS]
        assert offsets == self.OFFSETS[variants]
        for fingerprint, offset in zip(self.FINGERPRINTS, offsets):
            assert [obfuscator.assign(fingerprint, k) for k in range(10)] == [
                (offset + k) % variants for k in range(10)
            ]

    @pytest.mark.parametrize("variant,length", sorted(VARIANT_FINGERPRINTS))
    def test_variant_fingerprint(self, variant, length):
        assert (
            FrequencyObfuscator.variant_fingerprint(
                self.FINGERPRINTS[1], variant, length
            ).hex()
            == self.VARIANT_FINGERPRINTS[variant, length]
        )

    @pytest.mark.parametrize("scheme", sorted(CIPHERTEXT))
    def test_pipeline_ciphertext_stream(self, scheme):
        backup = Backup(
            label="kat",
            fingerprints=[self.FINGERPRINTS[index] for index in self.STREAM],
            sizes=[100, 4096, 100, 100, 15, 100],
        )
        encrypted = DefensePipeline(scheme, seed=7).encrypt_backup(backup)
        assert [
            fingerprint.hex()[:16]
            for fingerprint in encrypted.ciphertext.fingerprints
        ] == self.CIPHERTEXT[scheme].split()
        assert encrypted.ciphertext.sizes == [112, 4112, 112, 112, 16, 112]


class TestKernelAgainstOracle:
    """The one-call kernels equal their piecewise/per-byte spellings."""

    def test_prf_stream_matches_oracle(self):
        rng = random.Random(12)
        for length in DIFFERENTIAL_LENGTHS:
            key = rng.randbytes(rng.choice((1, 16, 32, 64, 100, 300)))
            nonce = rng.randbytes(rng.randrange(0, 40))
            assert prf_stream(key, nonce, length) == _oracle_prf_stream(
                key, nonce, length
            ), length

    def test_xor_bytes_matches_oracle(self):
        rng = random.Random(13)
        for length in DIFFERENTIAL_LENGTHS:
            a, b = rng.randbytes(length), rng.randbytes(length)
            assert xor_bytes(a, b) == _oracle_xor(a, b), length

    def test_block_cipher_matches_oracle(self):
        rng = random.Random(14)
        cipher = BlockCipher()
        for length in DIFFERENTIAL_LENGTHS:
            key = rng.randbytes(32)
            plaintext = rng.randbytes(length)
            ciphertext = cipher.encrypt(key, plaintext)
            assert ciphertext == _oracle_encrypt(key, plaintext), length
            assert cipher.decrypt(key, ciphertext) == plaintext, length
            # Any pad byte with the top bit set is out of range for a
            # 16-byte block, whatever the original padding length was.
            corrupt = ciphertext[:-1] + bytes([ciphertext[-1] ^ 0x80])
            with pytest.raises(IntegrityError):
                cipher.decrypt(key, corrupt)
            with pytest.raises(IntegrityError):
                cipher.decrypt(key, ciphertext[:-1])
