"""Cryptographic substrate for encrypted deduplication (§2.2).

* :mod:`repro.crypto.primitives` — hashing, HMAC, and a SHAKE-256 XOF
  keystream.
* :mod:`repro.crypto.cipher` — a deterministic symmetric cipher with 16-byte
  block semantics, standing in for AES (see DESIGN.md §2 substitution 4).
* :mod:`repro.crypto.keymanager` — DupLESS-style key manager with rate
  limiting for server-aided MLE.
* :mod:`repro.crypto.mle` — message-locked encryption schemes: convergent
  encryption and server-aided MLE, plus key recipes.
"""

from repro.crypto.cipher import BLOCK_SIZE, BlockCipher, ciphertext_blocks
from repro.crypto.keymanager import KeyManager, RateLimiter
from repro.crypto.mle import (
    CiphertextChunk,
    ConvergentEncryption,
    KeyRecipe,
    MLEScheme,
    ServerAidedMLE,
)
from repro.crypto.primitives import hkdf_expand, hmac_digest, prf_stream, sha256
from repro.crypto.quorum import KeyManagerReplica, QuorumKeyManager
from repro.crypto.secretsharing import Share, combine_shares, split_secret

__all__ = [
    "BLOCK_SIZE",
    "BlockCipher",
    "ciphertext_blocks",
    "KeyManager",
    "RateLimiter",
    "CiphertextChunk",
    "ConvergentEncryption",
    "KeyRecipe",
    "MLEScheme",
    "ServerAidedMLE",
    "hkdf_expand",
    "hmac_digest",
    "prf_stream",
    "sha256",
    "KeyManagerReplica",
    "QuorumKeyManager",
    "Share",
    "combine_shares",
    "split_secret",
]
