"""End-to-end encrypted deduplication system (Figure 2's architecture).

Combines every substrate into the full client/server path the paper
assumes:

* client side — content-defined chunking, MLE (convergent or server-aided)
  or MinHash encryption, optional scrambling, recipe management;
* server side — the DDFS-like engine deduplicating ciphertext chunks into
  containers.

This is the content-level system used by the examples and integration
tests (store a file, evolve it, restore it byte-identically under every
defense scheme); the trace-driven evaluation uses the fingerprint-level
pipelines instead (§7.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chunking.base import Chunker
from repro.chunking.gear import GearChunker
from repro.common.errors import ConfigurationError, StorageError
from repro.common.rng import rng_from
from repro.common.units import MiB
from repro.crypto.mle import CiphertextChunk, KeyRecipe, MLEScheme
from repro.defenses.minhash import MinHashEncryptor
from repro.defenses.scramble import DEQUE, scramble_indices
from repro.defenses.segmentation import Segment, SegmentationSpec, segment_stream
from repro.storage.ddfs import DDFSEngine
from repro.storage.recipes import FileRecipe


@dataclass
class StoredFile:
    """Client-side handle for a stored file (recipes sealed in practice)."""

    recipe: FileRecipe
    keys: KeyRecipe


class EncryptedDedupSystem:
    """A single-node encrypted deduplication system.

    Args:
        scheme: the MLE scheme handling chunk encryption plumbing.
        chunker: content-defined chunker (defaults to gear CDC, 8 KB avg).
        use_minhash: derive keys per segment (MinHash encryption, §6.1)
            instead of per chunk (deterministic MLE).
        use_scramble: scramble the upload order within segments (§6.2).
            Scramble-only (without ``use_minhash``) is supported for
            ablations: it still segments, but keeps per-chunk keys.
        segmentation: segment bounds for the defenses.
        scramble_seed: determinises scrambling.
        cache_budget_bytes / bloom_capacity / container_size: DDFS engine
            configuration.
        index_backend: backend for the server's fingerprint index — a
            :class:`~repro.index.backends.KVBackend` instance, a spec
            string (``"memory"``, ``"sqlite"``, ``"sharded[:N]"``, …), or
            ``None`` for the default in-process store. Lets the same
            system spill its index to disk or shard it without touching
            the dedup logic.
        index_path: where a spec-string ``index_backend`` persists (a
            spec string without a path stays in process memory).
    """

    def __init__(
        self,
        scheme: MLEScheme,
        chunker: Chunker | None = None,
        use_minhash: bool = False,
        use_scramble: bool = False,
        segmentation: SegmentationSpec | None = None,
        scramble_seed: int = 0,
        cache_budget_bytes: int = 4 * MiB,
        bloom_capacity: int = 1_000_000,
        container_size: int = 4 * MiB,
        index_backend=None,
        index_path=None,
    ):
        self.scheme = scheme
        self.chunker = chunker or GearChunker()
        self.use_minhash = use_minhash
        self.use_scramble = use_scramble
        self.segmentation = segmentation or SegmentationSpec.scaled()
        self.scramble_seed = scramble_seed
        self.engine = DDFSEngine(
            cache_budget_bytes=cache_budget_bytes,
            bloom_capacity=bloom_capacity,
            container_size=container_size,
            keep_payload=True,
            index_backend=index_backend,
            index_path=index_path,
        )
        # When the MLE scheme is server-aided, MinHash segment keys come
        # from the same key manager (one query per segment, §6.1).
        self._minhash = MinHashEncryptor(
            scheme=scheme,
            key_manager=getattr(scheme, "key_manager", None),
            spec=self.segmentation,
        )
        self._file_counter = 0

    # -- store path -----------------------------------------------------------

    def put_file(self, filename: str, data: bytes) -> StoredFile:
        """Chunk, encrypt, (optionally) scramble, and deduplicate a file.

        Args:
            filename: client-side name recorded in the file recipe.
            data: the file contents (empty files are stored as one empty
                chunk so they restore byte-identically).

        Returns:
            A :class:`StoredFile` holding the chunk recipe and the key
            recipe — everything :meth:`get_file` needs to restore the
            file. The server never sees either.
        """
        plaintext_chunks = [chunk.data for chunk in self.chunker.split(data)]
        if not plaintext_chunks:  # an empty file is stored as one empty chunk
            plaintext_chunks = [b""]

        ciphertexts, keys, segments = self._encrypt(plaintext_chunks)

        recipe = FileRecipe(filename=filename)
        for chunk in ciphertexts:
            recipe.add(chunk.tag, chunk.size)

        for chunk in self._upload_order(ciphertexts, plaintext_chunks, segments):
            self.engine.process_chunk(chunk.tag, chunk.size, chunk.data)
        self._file_counter += 1
        return StoredFile(recipe=recipe, keys=keys)

    def _encrypt(
        self, plaintext_chunks: list[bytes]
    ) -> tuple[list[CiphertextChunk], KeyRecipe, list[Segment] | None]:
        """Ciphertexts and keys in logical order, plus the segments MinHash
        encryption keyed them by (``None`` under per-chunk keys)."""
        if self.use_minhash:
            results, keys = self._minhash.encrypt_stream(plaintext_chunks)
            ciphertexts = [
                chunk for result in results for chunk in result.ciphertexts
            ]
            return ciphertexts, keys, [result.segment for result in results]
        keys = KeyRecipe()
        ciphertexts = []
        for plaintext in plaintext_chunks:
            chunk, key = self.scheme.encrypt_chunk(plaintext)
            ciphertexts.append(chunk)
            keys.add(key)
        return ciphertexts, keys, None

    def _upload_order(
        self,
        ciphertexts: list[CiphertextChunk],
        plaintext_chunks: list[bytes],
        segments: list[Segment] | None,
    ) -> list[CiphertextChunk]:
        if not self.use_scramble:
            return ciphertexts
        if segments is None:
            # Scramble-only: no MinHash pass has segmented the file yet
            # (MinHash segments with this fingerprinter and this spec).
            fingerprints = [
                self.scheme.fingerprinter(chunk) for chunk in plaintext_chunks
            ]
            sizes = [len(chunk) for chunk in plaintext_chunks]
            segments = segment_stream(fingerprints, sizes, self.segmentation)
        rng = rng_from(self.scramble_seed, "system-scramble", self._file_counter)
        ordered: list[CiphertextChunk] = []
        for segment in segments:
            order = scramble_indices(len(segment), rng, DEQUE)
            ordered.extend(
                ciphertexts[segment.start + offset] for offset in order
            )
        return ordered

    # -- restore path ----------------------------------------------------------

    def get_file(self, stored: StoredFile) -> bytes:
        """Restore a file from its recipes, verifying chunk integrity.

        Args:
            stored: the handle returned by :meth:`put_file`. Call
                :meth:`flush` first if the file was stored since the last
                container seal, otherwise trailing chunks are still in the
                open container buffer.

        Returns:
            The original plaintext bytes.

        Raises:
            ConfigurationError: if the chunk and key recipes disagree.
            StorageError: if a referenced chunk is missing from the
                fingerprint index.
            IntegrityError: if a restored chunk fails tag verification.
        """
        if len(stored.recipe) != len(stored.keys):
            raise ConfigurationError("recipe/key length mismatch")
        pieces: list[bytes] = []
        for ref, key in zip(stored.recipe.chunks, stored.keys.keys):
            container_id = self.engine.index.container_of(ref.tag)
            if container_id is None:
                raise StorageError(
                    f"chunk {ref.tag.hex()} missing from the fingerprint index"
                )
            container = self.engine.containers.get(container_id)
            data = container.read_chunk(ref.tag)
            chunk = CiphertextChunk(data=data, tag=ref.tag)
            pieces.append(self.scheme.decrypt_chunk(chunk, key))
        return b"".join(pieces)

    # -- bookkeeping -----------------------------------------------------------

    def flush(self) -> None:
        """Seal the open container so every stored chunk is restorable."""
        self.engine.finish_backup()

    @property
    def stored_bytes(self) -> int:
        """Physical bytes in sealed containers (post-deduplication)."""
        return self.engine.containers.stored_bytes()
