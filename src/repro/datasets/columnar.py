"""Columnar on-disk chunk traces: generate once, ``mmap`` forever.

The in-RAM :class:`~repro.datasets.model.Backup` holds one Python bytes
object per chunk occurrence, which caps the attacks two orders of
magnitude short of the FSL traces the paper evaluates on. This module
stores a backup series the way the COUNT pipeline consumes it — column
by column:

``manifest.json``
    Series metadata plus the ``[start, stop)`` span of every backup in
    the shared streams. Written atomically (temp file + ``os.replace``)
    **after** all data files, so its presence is the completion marker:
    an interrupted writer leaves no manifest and the trace re-generates.
``vocab.fp``
    The append-only fingerprint vocabulary: fixed-width fingerprint
    bytes packed back to back, where a fingerprint's record index is its
    dense chunk id — ids are assigned in global first-occurrence order,
    exactly like :class:`~repro.attacks.interning.ChunkVocabulary`.
``ids.u32`` / ``sizes.u32``
    The whole logical chunk stream as little-endian ``uint32`` columns:
    one vocabulary id and one chunk size per occurrence.

Readers memory-map the columns: opening a 10⁸-chunk trace is O(1), a
COUNT over it touches pages sequentially, and the only per-object cost
is for fingerprints actually decoded at the rank/report boundary.
:class:`MappedVocabulary` serves the ``_fingerprints[id]`` /
``_ids.get(fp)`` protocol the interned COUNT machinery reads, so the
lazy neighbor views in :mod:`repro.attacks.interning` work unchanged on
top of an mmap. Writing interns through :class:`SpillableVocabulary`,
whose dict spills to SQLite past a threshold so trace generation is not
RAM-bound either.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from repro.common import accel
from repro.common.errors import ConfigurationError
from repro.common.rng import rng_from
from repro.datasets.model import Backup, BackupSeries, resolve_index

__all__ = [
    "ColumnarBackupView",
    "ColumnarTrace",
    "ColumnarTraceWriter",
    "MappedVocabulary",
    "PackedVocabulary",
    "SpillableVocabulary",
    "StreamConfig",
    "ensure_columnar",
    "synthesize_columnar",
    "write_series",
]

FORMAT_NAME = "repro-columnar-trace"
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
VOCAB_FILE = "vocab.fp"
IDS_FILE = "ids.u32"
SIZES_FILE = "sizes.u32"
SPILL_FILE = "vocab.spill.sqlite"
_DATA_FILES = (VOCAB_FILE, IDS_FILE, SIZES_FILE)

_U32_MAX = (1 << 32) - 1
#: The id stream is uint32, so a trace holds at most 2**32 unique
#: fingerprints — the same bound as the packed-adjacency encoding
#: (:data:`repro.attacks.interning.MAX_VOCABULARY`).
MAX_TRACE_VOCABULARY = 1 << 32

#: In-RAM fingerprints held by the writer's interner before spilling.
DEFAULT_SPILL_THRESHOLD = 4_000_000
_FLUSH_ENTRIES = 1 << 20

U32_TYPECODE = "I" if array("I").itemsize == 4 else "L"
if array(U32_TYPECODE).itemsize != 4:  # pragma: no cover - exotic ABI
    raise ImportError("no 4-byte array typecode on this platform")


def u32_array(raw: bytes) -> array:
    values = array(U32_TYPECODE)
    values.frombytes(raw)
    if sys.byteorder == "big":  # pragma: no cover - big-endian host
        values.byteswap()
    return values


def u32_bytes(values: array) -> bytes:
    if sys.byteorder == "big":  # pragma: no cover - big-endian host
        values = array(U32_TYPECODE, values)
        values.byteswap()
    return values.tobytes()


# ---------------------------------------------------------------------------
# Read side: packed fingerprints over any buffer (mmap, bytes, ...)


class _PackedFingerprints:
    """Sequence view over fixed-width fingerprints packed in one buffer.

    Duck-types the ``vocabulary._fingerprints`` list the interned COUNT
    views index into: ``[id]`` slices ``width`` bytes out of the buffer
    instead of holding one bytes object per fingerprint.
    """

    __slots__ = ("_buffer", "_width", "_length")

    def __init__(self, buffer, width: int, length: int):
        self._buffer = buffer
        self._width = width
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> bytes:
        if index < 0 or index >= self._length:
            raise IndexError(index)
        width = self._width
        start = index * width
        return bytes(self._buffer[start : start + width])

    def __iter__(self) -> Iterator[bytes]:
        buffer, width = self._buffer, self._width
        for start in range(0, self._length * width, width):
            yield bytes(buffer[start : start + width])


class _FingerprintIndex:
    """Reverse ``fingerprint -> id`` probe over packed fingerprints.

    With numpy the packed buffer is viewed as zero-padded big-endian
    ``uint64`` word columns (for equal-length byte strings that view
    compares exactly like the bytes; numpy's ``S`` dtype would strip
    trailing NULs) and lexsorted **once**; a probe is two C-level
    ``searchsorted`` calls on the leading word plus a short scan — no
    per-fingerprint Python objects are ever built. The pure-Python
    fallback materializes a dict lazily on first probe (correct, but
    RAM-bound — trace scale assumes the accelerated path).
    """

    __slots__ = ("_fingerprints", "_order", "_columns", "_dict", "_ranks")

    def __init__(self, fingerprints: _PackedFingerprints):
        self._fingerprints = fingerprints
        self._order = None
        self._columns: tuple | None = None
        self._dict: dict[bytes, int] | None = None
        self._ranks = None

    def _word_matrix(self):
        numpy = accel.numpy
        packed = self._fingerprints
        width, count = packed._width, packed._length
        words = max(1, (width + 7) // 8)
        data = numpy.frombuffer(
            packed._buffer, dtype=numpy.uint8, count=count * width
        ).reshape(count, width)
        if width % 8:
            padded = numpy.zeros((count, words * 8), dtype=numpy.uint8)
            padded[:, :width] = data
            data = padded
        return data.reshape(count, words * 8).view(">u8"), words

    def _ensure_sorted(self) -> None:
        if self._columns is not None:
            return
        numpy = accel.numpy
        if not len(self._fingerprints):
            self._order = numpy.empty(0, dtype=numpy.intp)
            self._columns = (numpy.empty(0, dtype=numpy.uint64),)
            return
        matrix, words = self._word_matrix()
        order = numpy.lexsort(
            tuple(matrix[:, word] for word in range(words - 1, -1, -1))
        )
        self._order = order
        # Native-endian copies so every probe's searchsorted runs at C speed.
        self._columns = tuple(
            matrix[order, word].astype(numpy.uint64) for word in range(words)
        )

    def sort_ranks(self):
        """Each chunk id's rank in fingerprint-bytes sort order (cached).

        The inverse permutation of the lexsort order: comparing two ids'
        ranks compares their fingerprint bytes without decoding either —
        what the trace-scale attacks use for ``fingerprint`` tie-breaking
        and leakage sampling. Accelerated path only.
        """
        if self._ranks is None:
            self._ensure_sorted()
            numpy = accel.numpy
            assert self._order is not None
            count = len(self._fingerprints)
            ranks = numpy.empty(count, dtype=numpy.intp)
            ranks[self._order] = numpy.arange(count, dtype=numpy.intp)
            self._ranks = ranks
        return self._ranks

    def has_duplicates(self) -> bool:
        """Whether any two ids share the same fingerprint bytes."""
        count = len(self._fingerprints)
        if count < 2:
            return False
        if accel.numpy is None:
            self._ensure_dict()
            assert self._dict is not None
            return len(self._dict) < count
        numpy = accel.numpy
        self._ensure_sorted()
        assert self._columns is not None
        equal = numpy.ones(count - 1, dtype=bool)
        for column in self._columns:
            equal &= column[1:] == column[:-1]
        return bool(equal.any())

    def _ensure_dict(self) -> None:
        if self._dict is None:
            self._dict = {
                fingerprint: index
                for index, fingerprint in enumerate(self._fingerprints)
            }

    def get(self, fingerprint: bytes, default: int | None = None) -> int | None:
        packed = self._fingerprints
        if len(fingerprint) != packed._width or not packed._length:
            return default
        if accel.numpy is None:
            self._ensure_dict()
            assert self._dict is not None
            return self._dict.get(fingerprint, default)
        self._ensure_sorted()
        assert self._columns is not None and self._order is not None
        columns = self._columns
        numpy = accel.numpy
        padded = fingerprint + b"\x00" * (-len(fingerprint) % 8)
        # uint64 scalars, not Python ints: searchsorted's int->uint64
        # scalar conversion costs ~60x the binary search itself.
        target = tuple(
            numpy.uint64(int.from_bytes(padded[start : start + 8], "big"))
            for start in range(0, len(padded), 8)
        )
        leading = columns[0]
        low = int(leading.searchsorted(target[0], side="left"))
        high = int(leading.searchsorted(target[0], side="right"))
        rest = target[1:]
        for position in range(low, high):
            if all(
                int(column[position]) == word
                for column, word in zip(columns[1:], rest)
            ):
                return int(self._order[position])
        return default

    def __contains__(self, fingerprint: bytes) -> bool:
        return self.get(fingerprint) is not None


class PackedVocabulary:
    """Read-only vocabulary over packed fingerprint bytes.

    Duck-types :class:`~repro.attacks.interning.ChunkVocabulary`'s read
    surface (``_fingerprints`` / ``_ids`` / ``id_of`` / ``fingerprint``),
    which is all the interned COUNT stats and neighbor views touch.
    """

    __slots__ = ("_fingerprints", "_ids", "fingerprint_bytes")

    def __init__(self, buffer, fingerprint_bytes: int, length: int):
        self._fingerprints = _PackedFingerprints(
            buffer, fingerprint_bytes, length
        )
        self._ids = _FingerprintIndex(self._fingerprints)
        self.fingerprint_bytes = fingerprint_bytes

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, fingerprint: bytes) -> bool:
        return fingerprint in self._ids

    def id_of(self, fingerprint: bytes) -> int | None:
        return self._ids.get(fingerprint)

    def fingerprint(self, chunk_id: int) -> bytes:
        return self._fingerprints[chunk_id]


class MappedVocabulary(PackedVocabulary):
    """The on-disk vocabulary of a columnar trace, served from ``mmap``."""


# ---------------------------------------------------------------------------
# Write side


class SpillableVocabulary:
    """Append-only fingerprint interner whose dict spills to SQLite.

    The writer-side counterpart of
    :class:`~repro.attacks.interning.ChunkVocabulary`: ids are assigned
    densely in first-occurrence order, but only the hottest ``threshold``
    fingerprints live in the in-RAM dict — older entries drain to an
    on-disk SQLite table (:class:`repro.index.backends.SQLiteBackend`),
    so writing a 10⁸-chunk trace never holds the whole vocabulary in
    memory. ``on_new`` fires once per fresh fingerprint, which is how the
    trace writer appends vocabulary records exactly once.
    """

    def __init__(
        self,
        spill_path: str | os.PathLike,
        threshold: int = DEFAULT_SPILL_THRESHOLD,
    ):
        if threshold < 1:
            raise ConfigurationError("spill threshold must be >= 1")
        self._hot: dict[bytes, int] = {}
        self._spill = None
        self._spill_path = Path(spill_path)
        self._threshold = threshold
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def id_of(self, fingerprint: bytes) -> int | None:
        found = self._hot.get(fingerprint)
        if found is not None:
            return found
        if self._spill is not None:
            raw = self._spill.get(fingerprint)
            if raw is not None:
                return int.from_bytes(raw, "little")
        return None

    def intern(
        self, fingerprint: bytes, on_new: Callable[[bytes], object]
    ) -> int:
        existing = self.id_of(fingerprint)
        if existing is not None:
            return existing
        chunk_id = self._count
        if chunk_id >= MAX_TRACE_VOCABULARY:
            raise ConfigurationError(
                "columnar trace vocabulary exhausted: the uint32 id stream "
                "(and the packed pair encoding, see docs/attacks.md) caps a "
                "trace at 2**32 unique fingerprints"
            )
        self._hot[fingerprint] = chunk_id
        self._count += 1
        on_new(fingerprint)
        if len(self._hot) >= self._threshold:
            self._spill_hot()
        return chunk_id

    def _spill_hot(self) -> None:
        if self._spill is None:
            from repro.index.backends import SQLiteBackend

            self._spill = SQLiteBackend(self._spill_path)
        self._spill.put_batch(
            (fingerprint, chunk_id.to_bytes(8, "little"))
            for fingerprint, chunk_id in self._hot.items()
        )
        self._spill.flush()
        self._hot.clear()

    def close(self) -> None:
        if self._spill is not None:
            self._spill.close()
            self._spill = None
        self._spill_path.unlink(missing_ok=True)
        self._hot.clear()


class ColumnarTraceWriter:
    """Streams a backup series into the columnar layout.

    Feed chunks through :meth:`begin_backup` / :meth:`append` /
    :meth:`end_backup` (or :meth:`add_backup`); :meth:`finalize` writes
    the manifest — the completion marker — last and atomically. Used as a
    context manager, a clean exit finalizes and an exception leaves the
    directory manifest-less (i.e. visibly incomplete).
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        name: str,
        fingerprint_bytes: int,
        chunking: str = "variable",
        spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
        params: dict | None = None,
    ):
        if fingerprint_bytes < 1:
            raise ConfigurationError("fingerprint_bytes must be >= 1")
        if chunking not in ("variable", "fixed"):
            raise ConfigurationError("chunking must be 'variable' or 'fixed'")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # A fresh write invalidates whatever lived here before.
        (self.directory / MANIFEST_NAME).unlink(missing_ok=True)
        self.name = name
        self.chunking = chunking
        self.fingerprint_bytes = fingerprint_bytes
        self._params = dict(params or {})
        self._vocabulary = SpillableVocabulary(
            self.directory / SPILL_FILE, spill_threshold
        )
        self._vocab_file = open(self.directory / VOCAB_FILE, "wb")
        self._ids_file = open(self.directory / IDS_FILE, "wb")
        self._sizes_file = open(self.directory / SIZES_FILE, "wb")
        self._vocab_buffer = bytearray()
        self._ids = array(U32_TYPECODE)
        self._sizes = array(U32_TYPECODE)
        self._backups: list[dict] = []
        self._current: dict | None = None
        self._total = 0
        self._finalized = False
        self._closed = False

    @property
    def total_chunks(self) -> int:
        return self._total

    def __len__(self) -> int:
        return len(self._vocabulary)

    def begin_backup(self, label: str) -> None:
        if self._current is not None:
            raise ConfigurationError("previous backup still open")
        self._current = {"label": str(label), "start": self._total}

    def append(
        self, fingerprints: Sequence[bytes], chunk_sizes: Sequence[int]
    ) -> None:
        if self._current is None:
            raise ConfigurationError("append outside begin_backup/end_backup")
        width = self.fingerprint_bytes

        def on_new(fingerprint: bytes) -> None:
            if len(fingerprint) != width:
                raise ConfigurationError(
                    f"fingerprint width {len(fingerprint)} != {width}"
                )
            self._vocab_buffer += fingerprint

        intern = self._vocabulary.intern
        ids, sizes = self._ids, self._sizes
        before = len(ids)
        try:
            for fingerprint, size in zip(fingerprints, chunk_sizes, strict=True):
                ids.append(intern(fingerprint, on_new))
                sizes.append(size)
        except OverflowError:
            raise ConfigurationError(
                "chunk size does not fit in the uint32 size column"
            ) from None
        self._total += len(ids) - before
        if len(ids) >= _FLUSH_ENTRIES:
            self._flush()

    def end_backup(self) -> None:
        if self._current is None:
            raise ConfigurationError("no backup open")
        self._current["stop"] = self._total
        self._backups.append(self._current)
        self._current = None

    def add_backup(self, backup: Backup) -> None:
        self.begin_backup(backup.label)
        self.append(backup.fingerprints, backup.sizes)
        self.end_backup()

    def _flush(self) -> None:
        if self._vocab_buffer:
            self._vocab_file.write(self._vocab_buffer)
            self._vocab_buffer.clear()
        if self._ids:
            self._ids_file.write(u32_bytes(self._ids))
            self._sizes_file.write(u32_bytes(self._sizes))
            del self._ids[:]
            del self._sizes[:]

    def finalize(self) -> Path:
        if self._finalized:
            return self.directory
        if self._current is not None:
            raise ConfigurationError("cannot finalize with a backup open")
        self._flush()
        num_unique = len(self._vocabulary)
        self.close()
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "name": self.name,
            "chunking": self.chunking,
            "fingerprint_bytes": self.fingerprint_bytes,
            "num_chunks": self._total,
            "num_unique": num_unique,
            "backups": self._backups,
            "params": self._params,
        }
        temp = self.directory / (MANIFEST_NAME + ".tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.directory / MANIFEST_NAME)
        self._finalized = True
        return self.directory

    def close(self) -> None:
        """Release resources *without* writing the manifest (abort path)."""
        if self._closed:
            return
        self._flush()
        for handle in (self._vocab_file, self._ids_file, self._sizes_file):
            handle.flush()
            os.fsync(handle.fileno())
            handle.close()
        self._vocabulary.close()
        self._closed = True

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.close()


# ---------------------------------------------------------------------------
# Reader


@dataclass(frozen=True)
class BackupSpan:
    """One backup's ``[start, stop)`` slice of the shared columns."""

    label: str
    start: int
    stop: int

    @property
    def num_chunks(self) -> int:
        return self.stop - self.start


class ColumnarBackupView:
    """One backup of a columnar trace, read zero-copy from the mmaps."""

    __slots__ = ("trace", "span")

    def __init__(self, trace: "ColumnarTrace", span: BackupSpan):
        self.trace = trace
        self.span = span

    @property
    def label(self) -> str:
        return self.span.label

    @property
    def start(self) -> int:
        return self.span.start

    @property
    def stop(self) -> int:
        return self.span.stop

    @property
    def num_chunks(self) -> int:
        return self.span.num_chunks

    def __len__(self) -> int:
        return self.span.num_chunks

    def sizes_array(self):
        """The backup's size column as a zero-copy ``uint32`` numpy array."""
        numpy = accel.numpy
        return numpy.frombuffer(
            self.trace._sizes_map,
            dtype="<u4",
            count=self.num_chunks,
            offset=self.start * 4,
        )

    def ids(self) -> array:
        """The id column as an ``array('I')`` (pure-Python consumers)."""
        return u32_array(
            self.trace._ids_map[self.start * 4 : self.stop * 4]
        )

    def sizes(self) -> array:
        return u32_array(
            self.trace._sizes_map[self.start * 4 : self.stop * 4]
        )

    def to_backup(self) -> Backup:
        """Materialize the view as an in-RAM Backup (small scales only —
        this rebuilds one bytes object per occurrence)."""
        fingerprints = self.trace.vocabulary._fingerprints
        return Backup(
            label=self.label,
            fingerprints=list(map(fingerprints.__getitem__, self.ids())),
            sizes=self.sizes().tolist(),
        )


class ColumnarTrace:
    """A completed on-disk columnar trace, memory-mapped read-only."""

    def __init__(
        self, directory: Path, manifest: dict, maps: tuple, handles: tuple
    ):
        self.directory = directory
        self.name = manifest["name"]
        self.chunking = manifest["chunking"]
        self.fingerprint_bytes = manifest["fingerprint_bytes"]
        self.num_chunks = manifest["num_chunks"]
        self.num_unique = manifest["num_unique"]
        self.params = manifest.get("params", {})
        self.backups = tuple(
            BackupSpan(entry["label"], entry["start"], entry["stop"])
            for entry in manifest["backups"]
        )
        self._vocab_map, self._ids_map, self._sizes_map = maps
        self._handles = handles
        self._vocabulary: MappedVocabulary | None = None

    @classmethod
    def open(cls, directory: str | os.PathLike) -> "ColumnarTrace":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ConfigurationError(
                f"no completed columnar trace under {directory}: manifest.json "
                "is absent (the writer publishes it only after all data files "
                "are durable, so an interrupted generation run leaves none — "
                "regenerate the trace)"
            )
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        if (
            manifest.get("format") != FORMAT_NAME
            or manifest.get("version") != FORMAT_VERSION
        ):
            raise ConfigurationError(
                f"{manifest_path} is not a v{FORMAT_VERSION} {FORMAT_NAME}"
            )
        expected = {
            VOCAB_FILE: manifest["num_unique"] * manifest["fingerprint_bytes"],
            IDS_FILE: manifest["num_chunks"] * 4,
            SIZES_FILE: manifest["num_chunks"] * 4,
        }
        maps = []
        handles = []
        try:
            for name in _DATA_FILES:
                path = directory / name
                actual = path.stat().st_size if path.exists() else -1
                if actual < expected[name]:
                    raise ConfigurationError(
                        f"columnar trace {directory} is truncated: {name} has "
                        f"{max(actual, 0)} bytes, manifest expects "
                        f"{expected[name]}"
                    )
                if expected[name] == 0:
                    maps.append(b"")
                    continue
                handle = open(path, "rb")
                handles.append(handle)
                maps.append(
                    mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                )
        except Exception:
            for mapped in maps:
                if isinstance(mapped, mmap.mmap):
                    mapped.close()
            for handle in handles:
                handle.close()
            raise
        return cls(directory, manifest, tuple(maps), tuple(handles))

    @property
    def vocabulary(self) -> MappedVocabulary:
        if self._vocabulary is None:
            self._vocabulary = MappedVocabulary(
                self._vocab_map, self.fingerprint_bytes, self.num_unique
            )
        return self._vocabulary

    def views(self) -> list[ColumnarBackupView]:
        return [ColumnarBackupView(self, span) for span in self.backups]

    def view(self, index: int) -> ColumnarBackupView:
        """One backup view by series position (negative indices count
        from the end; out of range is a ``ConfigurationError``)."""
        span = self.backups[resolve_index(index, len(self.backups))]
        return ColumnarBackupView(self, span)

    def labels(self) -> list[str]:
        return [span.label for span in self.backups]

    def close(self) -> None:
        self._vocabulary = None
        for mapped in (self._vocab_map, self._ids_map, self._sizes_map):
            if isinstance(mapped, mmap.mmap):
                mapped.close()
        for handle in self._handles:
            handle.close()
        self._handles = ()

    def __enter__(self) -> "ColumnarTrace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Generation: series writers and the trace-scale stream synthesizer


def write_series(
    series: BackupSeries,
    directory: str | os.PathLike,
    *,
    spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
    params: dict | None = None,
) -> ColumnarTrace:
    """Materialize an in-RAM series into the columnar layout and open it."""
    width = None
    for backup in series.backups:
        if backup.fingerprints:
            width = len(backup.fingerprints[0])
            break
    if width is None:
        raise ConfigurationError(
            "cannot infer fingerprint width from an all-empty series"
        )
    writer = ColumnarTraceWriter(
        directory,
        name=series.name,
        fingerprint_bytes=width,
        chunking=series.chunking,
        spill_threshold=spill_threshold,
        params=params if params is not None else {"source": "series"},
    )
    with writer:
        for backup in series.backups:
            writer.add_backup(backup)
    return ColumnarTrace.open(directory)


def ensure_columnar(
    directory: str | os.PathLike,
    builder: Callable[[Path], object],
    *,
    params: dict | None = None,
) -> ColumnarTrace:
    """Generate once, mmap thereafter.

    Opens the trace at ``directory`` if a completed one with matching
    ``params`` exists; otherwise clears any partial remnants, invokes
    ``builder(directory)`` to (re)generate, and opens the result. This is
    the resume-after-interrupt seam: the manifest is the completion
    marker, so a killed generation run is regenerated, never trusted.
    """
    directory = Path(directory)
    wanted = json.loads(json.dumps(params)) if params is not None else None
    try:
        trace = ColumnarTrace.open(directory)
    except ConfigurationError:
        trace = None
    if trace is not None:
        if wanted is None or trace.params == wanted:
            return trace
        trace.close()
    for name in (MANIFEST_NAME, MANIFEST_NAME + ".tmp", SPILL_FILE, *_DATA_FILES):
        (directory / name).unlink(missing_ok=True)
    builder(directory)
    return ColumnarTrace.open(directory)


@dataclass
class StreamConfig:
    """Knobs for the trace-scale stream synthesizer.

    The shape follows the FSL-style generator where it matters to the
    attacks — Zipf-popular chunk *runs* (locality: popular content recurs
    with its context), churn introducing fresh never-reused chunks, and a
    run pool shared across backups (temporal redundancy) — but generates
    batch-wise straight into the writer, so 10⁷–10⁸ chunk traces need
    O(pool) RAM, not O(trace).

    Fingerprints default to 16 bytes: at 10⁷⁺ unique chunks, 6-byte
    fingerprints would give the MLE layer's truncated-hash ciphertext
    fingerprints a material birthday-collision probability.
    """

    chunks: int = 10_000_000
    backups: int = 2
    fingerprint_bytes: int = 16
    run_length: int = 16
    pool_runs: int | None = None
    churn: float = 0.35
    skew: float = 3.0
    min_size: int = 2048
    size_span: int = 14336
    size_quantum: int = 512

    def __post_init__(self) -> None:
        if self.chunks < 0 or self.backups < 1:
            raise ConfigurationError("chunks must be >= 0 and backups >= 1")
        if self.fingerprint_bytes < 4:
            raise ConfigurationError("fingerprint_bytes must be >= 4")
        if not 0.0 <= self.churn <= 1.0:
            raise ConfigurationError("churn must be in [0, 1]")
        if self.run_length < 1:
            raise ConfigurationError("run_length must be >= 1")

    @property
    def effective_pool_runs(self) -> int:
        if self.pool_runs is not None:
            return max(1, self.pool_runs)
        return max(16, min(60_000, self.chunks // 128))


def _run_sizes(fingerprints: Iterable[bytes], config: StreamConfig) -> list[int]:
    # Size is a pure function of the fingerprint, so every occurrence of a
    # chunk reports the same size (as content-defined chunking guarantees).
    quantum = config.size_quantum
    return [
        config.min_size
        + (int.from_bytes(fp[:4], "big") % config.size_span) // quantum * quantum
        for fp in fingerprints
    ]


def synthesize_columnar(
    directory: str | os.PathLike,
    config: StreamConfig | None = None,
    *,
    seed: int = 7,
    name: str = "stream-synthetic",
    spill_threshold: int = DEFAULT_SPILL_THRESHOLD,
) -> Path:
    """Stream a trace-scale synthetic workload into the columnar layout."""
    config = config or StreamConfig()
    width = config.fingerprint_bytes
    pool_rng = rng_from(seed, "columnar", "pool")
    pool = [
        tuple(pool_rng.randbytes(width) for _ in range(config.run_length))
        for _ in range(config.effective_pool_runs)
    ]
    pool_sizes = [_run_sizes(run, config) for run in pool]
    writer = ColumnarTraceWriter(
        directory,
        name=name,
        fingerprint_bytes=width,
        chunking="variable",
        spill_threshold=spill_threshold,
        params={
            "source": "stream",
            "seed": seed,
            "chunks": config.chunks,
            "backups": config.backups,
            "fingerprint_bytes": width,
        },
    )
    per_backup = config.chunks // config.backups
    remainder = config.chunks - per_backup * config.backups
    pool_count = len(pool)
    with writer:
        for index in range(config.backups):
            rng = rng_from(seed, "columnar", "backup", index)
            target = per_backup + (remainder if index == config.backups - 1 else 0)
            writer.begin_backup(f"stream {index}")
            written = 0
            batch_fps: list[bytes] = []
            batch_sizes: list[int] = []
            while written < target:
                if rng.random() < config.churn:
                    run = [rng.randbytes(width) for _ in range(config.run_length)]
                    run_sizes = _run_sizes(run, config)
                else:
                    # Power-law pick: low indices are drawn far more often,
                    # giving the skewed frequency profile of Fig. 1.
                    pick = int(pool_count * rng.random() ** config.skew)
                    run = pool[min(pick, pool_count - 1)]
                    run_sizes = pool_sizes[min(pick, pool_count - 1)]
                take = min(len(run), target - written)
                batch_fps.extend(run[:take])
                batch_sizes.extend(run_sizes[:take])
                written += take
                if len(batch_fps) >= 64 * 1024:
                    writer.append(batch_fps, batch_sizes)
                    batch_fps.clear()
                    batch_sizes.clear()
            if batch_fps:
                writer.append(batch_fps, batch_sizes)
            writer.end_backup()
    return Path(directory)


def ensure_stream_columnar(
    directory: str | os.PathLike,
    config: StreamConfig | None = None,
    *,
    seed: int = 7,
    name: str = "stream-synthetic",
) -> ColumnarTrace:
    """Open (or generate once) the synthetic stream trace at ``directory``."""
    config = config or StreamConfig()
    params = {
        "source": "stream",
        "seed": seed,
        "chunks": config.chunks,
        "backups": config.backups,
        "fingerprint_bytes": config.fingerprint_bytes,
    }
    return ensure_columnar(
        directory,
        lambda path: synthesize_columnar(path, config, seed=seed, name=name),
        params=params,
    )


def ensure_series_columnar(
    directory: str | os.PathLike,
    series_builder: Callable[[], BackupSeries],
    *,
    params: dict,
) -> ColumnarTrace:
    """Open (or materialize once) a canonical series in columnar form."""
    return ensure_columnar(
        directory,
        lambda path: write_series(series_builder(), path, params=params),
        params=params,
    )
