"""Embedded ordered key-value store (LevelDB stand-in, §5.2).

The store keeps a dict memtable for O(1) point access and supports ordered
iteration and range scans (sorting lazily, only when an ordered view is
requested). An optional append-only write-ahead log provides durability:
every mutation is logged, and :meth:`KVStore.open` replays the log to
rebuild state. :meth:`compact` rewrites the log to drop superseded records.

This mirrors the subset of LevelDB behaviour a fingerprint index relies
on: a byte-keyed associative array, larger than what one would want to
rebuild from scratch per run.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator

from repro.common.errors import IntegrityError, StorageError

_TOMBSTONE = b"\x00"
_VALUE = b"\x01"
_HEADER = struct.Struct(">cII")  # record type, key length, value length


class KVStore:
    """Ordered byte-keyed store with optional WAL persistence.

    Use as a context manager or call :meth:`close` to flush the log.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self._data: dict[bytes, bytes] = {}
        self._path = Path(path) if path is not None else None
        self._log = None
        if self._path is not None:
            self._replay()
            self._log = open(self._path, "ab")

    @classmethod
    def open(cls, path: str | os.PathLike) -> "KVStore":
        """Open (or create) a persistent store at ``path``."""
        return cls(path)

    # -- basic operations ---------------------------------------------------

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        return self._data.get(key, default)

    def put(self, key: bytes, value: bytes) -> None:
        self.put_batch(((key, value),))

    def put_batch(self, items) -> None:
        """Insert many pairs in order, as one bound loop over the memtable
        and the buffered log file.

        Part of the :class:`~repro.index.backends.KVBackend` protocol.
        """
        data, logged = self._data, self._log is not None
        for key, value in items:
            if not isinstance(key, bytes) or not isinstance(value, bytes):
                raise StorageError("KVStore keys and values must be bytes")
            data[key] = value
            if logged:
                self._append_record(_VALUE, key, value)

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        existed = key in self._data
        if existed:
            del self._data[key]
            self._append_record(_TOMBSTONE, key, b"")
        return existed

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    # -- ordered views ------------------------------------------------------

    def keys(self) -> Iterator[bytes]:
        """Keys in ascending byte order."""
        return iter(sorted(self._data))

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """(key, value) pairs in ascending key order."""
        for key in sorted(self._data):
            yield key, self._data[key]

    def range(self, start: bytes, end: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Pairs with ``start <= key < end`` in ascending key order."""
        for key in sorted(self._data):
            if key < start:
                continue
            if key >= end:
                break
            yield key, self._data[key]

    # -- persistence --------------------------------------------------------

    def _append_record(self, kind: bytes, key: bytes, value: bytes) -> None:
        if self._log is None:
            return
        self._log.write(_HEADER.pack(kind, len(key), len(value)))
        self._log.write(key)
        self._log.write(value)

    def _replay(self) -> None:
        assert self._path is not None
        if not self._path.exists():
            return
        with open(self._path, "rb") as log:
            while True:
                header = log.read(_HEADER.size)
                if not header:
                    break
                if len(header) < _HEADER.size:
                    raise IntegrityError("truncated KVStore log header")
                kind, key_len, value_len = _HEADER.unpack(header)
                key = log.read(key_len)
                value = log.read(value_len)
                if len(key) < key_len or len(value) < value_len:
                    raise IntegrityError("truncated KVStore log record")
                if kind == _VALUE:
                    self._data[key] = value
                elif kind == _TOMBSTONE:
                    self._data.pop(key, None)
                else:
                    raise IntegrityError(f"unknown KVStore record type {kind!r}")

    def flush(self) -> None:
        if self._log is not None:
            self._log.flush()

    def compact(self) -> None:
        """Rewrite the log with only live records (drops tombstones)."""
        if self._path is None or self._log is None:
            return
        self._log.close()
        tmp_path = self._path.with_suffix(self._path.suffix + ".compact")
        with open(tmp_path, "wb") as out:
            for key, value in self.items():
                out.write(_HEADER.pack(_VALUE, len(key), len(value)))
                out.write(key)
                out.write(value)
        os.replace(tmp_path, self._path)
        self._log = open(self._path, "ab")

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
