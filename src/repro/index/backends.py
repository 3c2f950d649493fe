"""Pluggable key-value backends for the fingerprint-keyed tables (§5.2).

The paper's implementation keeps its fingerprint-keyed tables in LevelDB.
This module provides the same seam for the reproduction: every
fingerprint-keyed table on the storage side — the DDFS on-disk fingerprint
index, the service's and the cluster's shared index, the columnar trace
writer's vocabulary spill — talks to a :class:`KVBackend`, and the backend
decides whether the data lives in a dict, a SQLite file, or a set of
hash-partitioned shards. (The attacks' out-of-core COUNT is the columnar
trace, :mod:`repro.datasets.columnar`, which keeps its tables in flat
arrays instead.)

Backends:

* :class:`~repro.index.kvstore.KVStore` — a dict memtable, ordered views
  sorted on request, and a write-ahead log when given a path. Without a
  path it is the in-memory backend: the default everywhere (``"memory"``),
  allocation-light and bit-identical.
* :class:`SQLiteBackend` — a single-table SQLite store (WAL journal when
  file-backed) that buffers writes and flushes them with ``executemany``.
  Spills tables larger than RAM to disk, like the paper's LevelDB.
* :class:`ShardedBackend` — hash-partitions keys across N sub-backends
  (CRC32 of the key, deterministic across processes). The seam for
  multi-process or remote sharding in later work.

Use :func:`open_backend` to build a backend from a spec string
(``"memory"``, ``"kvstore"``, ``"sqlite"``, ``"sharded"`` or
``"sharded:N"``); this is what the CLI and the storage constructors accept.
"""

from __future__ import annotations

import heapq
import os
import sqlite3
import time
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro import obs
from repro.common.errors import ConfigurationError, StorageError

__all__ = [
    "BACKEND_SPECS",
    "DEFAULT_SHARDS",
    "KVBackend",
    "SQLiteBackend",
    "ShardedBackend",
    "open_backend",
]


@runtime_checkable
class KVBackend(Protocol):
    """Byte-keyed associative store.

    Contract (shared by every implementation, and what the conformance
    tests in ``tests/unit/test_backends.py`` assert):

    * keys and values are ``bytes``;
    * :meth:`put` of an existing key overwrites the value;
    * :meth:`keys` / :meth:`items` iterate in ascending byte order;
    * :meth:`put_batch` is equivalent to sequential :meth:`put` calls but
      lets the backend amortize write overhead;
    * :meth:`flush` makes all buffered writes visible/durable;
    * :meth:`close` flushes and releases resources (idempotent).
    """

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None: ...

    def put(self, key: bytes, value: bytes) -> None: ...

    def put_batch(self, items: Iterable[tuple[bytes, bytes]]) -> None: ...

    def delete(self, key: bytes) -> bool: ...

    def __contains__(self, key: bytes) -> bool: ...

    def __len__(self) -> int: ...

    def keys(self) -> Iterator[bytes]: ...

    def items(self) -> Iterator[tuple[bytes, bytes]]: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


def _check_pair(key: bytes, value: bytes) -> None:
    if not isinstance(key, bytes) or not isinstance(value, bytes):
        raise StorageError("backend keys and values must be bytes")


# Bounded retry for "database is locked" write failures: attempts past
# the connection's own busy timeout, with exponential backoff between.
_LOCKED_RETRIES = 5
_LOCKED_BACKOFF_S = 0.01


class SQLiteBackend:
    """Single-table SQLite backend with WAL journaling and batched writes.

    Writes are buffered in a dict and drained with one ``executemany`` per
    ``batch_size`` puts (or on :meth:`flush` / any whole-store read), so
    the per-put overhead stays close to a dict assignment while the data
    can spill to disk.

    A file-backed store can be opened by several processes (the cluster
    nodes of one host, a concurrent bench); SQLite then serializes
    writers and throws ``OperationalError: database is locked`` past
    the busy timeout.  Writes here sit behind both defences: the
    connection-level busy timeout (``busy_timeout_s``, also applied as
    ``PRAGMA busy_timeout``), and a bounded exponential-backoff retry
    (``_LOCKED_RETRIES``) that converts persistent lock-out into a
    clean :class:`~repro.common.errors.StorageError` instead of an
    sqlite3 internal leaking upward.

    Args:
        path: database file; ``None`` keeps the store in ``:memory:``.
        batch_size: buffered puts per ``executemany`` drain.
        busy_timeout_s: how long SQLite itself blocks on a locked
            database before raising (per attempt).
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        batch_size: int = 4096,
        busy_timeout_s: float = 5.0,
    ):
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if busy_timeout_s < 0:
            raise ConfigurationError("busy_timeout_s must be >= 0")
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
        self._path = str(path) if path is not None else ":memory:"
        self._conn: sqlite3.Connection | None = sqlite3.connect(
            self._path, timeout=busy_timeout_s
        )
        self._conn.execute(
            f"PRAGMA busy_timeout = {int(busy_timeout_s * 1000)}"
        )
        if path is not None:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS kv ("
            " key BLOB PRIMARY KEY NOT NULL,"
            " value BLOB NOT NULL)"
        )
        self._conn.commit()
        self._pending: dict[bytes, bytes] = {}
        self._batch_size = batch_size

    # -- write path ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        _check_pair(key, value)
        self._pending[key] = value
        if len(self._pending) >= self._batch_size:
            self._drain()

    def put_batch(self, items: Iterable[tuple[bytes, bytes]]) -> None:
        pending = self._pending
        for key, value in items:
            _check_pair(key, value)
            pending[key] = value
            if len(pending) >= self._batch_size:
                self._drain()

    def _drain(self) -> None:
        if not self._pending:
            return
        assert self._conn is not None

        def drain() -> None:
            self._conn.executemany(
                "INSERT INTO kv (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = excluded.value",
                list(self._pending.items()),
            )
            self._conn.commit()

        self._write_retry(drain)
        self._pending.clear()

    def _write_retry(self, operation):
        """Run a write transaction, retrying lock contention.

        Lock-out past the busy timeout is transient by definition
        (another writer holds the database), so each retry backs off
        exponentially; a database still locked after every attempt
        surfaces as a :class:`StorageError`.  Any other
        ``OperationalError`` propagates untouched.
        """
        for attempt in range(_LOCKED_RETRIES + 1):
            try:
                return operation()
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) and "busy" not in str(error):
                    raise
                if attempt == _LOCKED_RETRIES:
                    raise StorageError(
                        f"sqlite database stayed locked through "
                        f"{attempt + 1} attempts: {error}"
                    ) from error
                obs.counter("faults.retries", site="sqlite.locked")
                time.sleep(_LOCKED_BACKOFF_S * (2**attempt))

    def delete(self, key: bytes) -> bool:
        self._drain()
        assert self._conn is not None

        def remove() -> bool:
            cursor = self._conn.execute(
                "DELETE FROM kv WHERE key = ?", (key,)
            )
            self._conn.commit()
            return cursor.rowcount > 0

        return self._write_retry(remove)

    # -- read path ----------------------------------------------------------

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        value = self._pending.get(key)
        if value is not None:
            return value
        assert self._conn is not None
        row = self._conn.execute(
            "SELECT value FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None else default

    def __contains__(self, key: bytes) -> bool:
        if key in self._pending:
            return True
        assert self._conn is not None
        row = self._conn.execute(
            "SELECT 1 FROM kv WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        self._drain()
        assert self._conn is not None
        return self._conn.execute("SELECT COUNT(*) FROM kv").fetchone()[0]

    def keys(self) -> Iterator[bytes]:
        self._drain()
        assert self._conn is not None
        for (key,) in self._conn.execute("SELECT key FROM kv ORDER BY key"):
            yield key

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._drain()
        assert self._conn is not None
        yield from self._conn.execute("SELECT key, value FROM kv ORDER BY key")

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        self._drain()

    def close(self) -> None:
        if self._conn is None:
            return
        self._drain()
        self._conn.close()
        self._conn = None

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ShardedBackend:
    """Hash-partitions keys across N sub-backends.

    Routing uses ``crc32(key) % shards`` — deterministic across processes,
    so a persisted sharded store reopens onto the same layout.

    Args:
        shards: the sub-backends (any :class:`KVBackend` mix).
    """

    def __init__(self, shards: Sequence[KVBackend]):
        if not shards:
            raise ConfigurationError("ShardedBackend needs at least one shard")
        self._shards = list(shards)

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def _shard_for(self, key: bytes) -> KVBackend:
        return self._shards[zlib.crc32(key) % len(self._shards)]

    # -- write path ---------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        _check_pair(key, value)
        self._shard_for(key).put(key, value)

    def put_batch(self, items: Iterable[tuple[bytes, bytes]]) -> None:
        # Group per shard so each sub-backend sees one batched write.
        buffers: list[dict[bytes, bytes]] = [{} for _ in self._shards]
        shard_count = len(self._shards)
        for key, value in items:
            _check_pair(key, value)
            buffers[zlib.crc32(key) % shard_count][key] = value
        for shard, buffer in zip(self._shards, buffers):
            if buffer:
                shard.put_batch(buffer.items())

    def delete(self, key: bytes) -> bool:
        return self._shard_for(key).delete(key)

    # -- read path ----------------------------------------------------------

    def get(self, key: bytes, default: bytes | None = None) -> bytes | None:
        return self._shard_for(key).get(key, default)

    def __contains__(self, key: bytes) -> bool:
        return key in self._shard_for(key)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def keys(self) -> Iterator[bytes]:
        yield from heapq.merge(*(shard.keys() for shard in self._shards))

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        yield from heapq.merge(
            *(shard.items() for shard in self._shards),
            key=lambda pair: pair[0],
        )

    # -- lifecycle ----------------------------------------------------------

    def flush(self) -> None:
        for shard in self._shards:
            shard.flush()

    def close(self) -> None:
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


BACKEND_SPECS = ("memory", "kvstore", "sqlite", "sharded")
DEFAULT_SHARDS = 4


def open_backend(
    spec: str,
    path: str | os.PathLike | None = None,
    shards: int | None = None,
) -> KVBackend:
    """Build a backend from a spec string.

    Specs:

    * ``"memory"`` — :class:`~repro.index.kvstore.KVStore` without a log
      (``path`` must be ``None``).
    * ``"kvstore"`` — :class:`~repro.index.kvstore.KVStore`, WAL-persistent
      when ``path`` is given.
    * ``"sqlite"`` — :class:`SQLiteBackend`, file-backed when ``path`` is
      given.
    * ``"sharded"`` or ``"sharded:N"`` — :class:`ShardedBackend` over N
      sub-backends (default 4): SQLite files ``shard-00.db`` … under the
      ``path`` directory, or in-memory shards when ``path`` is ``None``.

    Args:
        spec: backend spec string.
        path: file (kvstore/sqlite) or directory (sharded) to persist to.
        shards: shard count override; equivalent to ``"sharded:N"``.
    """
    from repro.index.kvstore import KVStore

    name, _, option = spec.partition(":")
    if name == "memory":
        if path is not None:
            raise ConfigurationError("the memory backend does not persist")
        return KVStore()
    if name == "kvstore":
        return KVStore(path)
    if name == "sqlite":
        return SQLiteBackend(path)
    if name == "sharded":
        if option:
            try:
                shards = int(option)
            except ValueError:
                raise ConfigurationError(
                    f"bad shard count in backend spec {spec!r}"
                ) from None
        count = shards if shards is not None else DEFAULT_SHARDS
        if count < 1:
            raise ConfigurationError("shard count must be >= 1")
        if path is None:
            return ShardedBackend([KVStore() for _ in range(count)])
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        return ShardedBackend(
            [SQLiteBackend(directory / f"shard-{i:02d}.db") for i in range(count)]
        )
    raise ConfigurationError(
        f"unknown backend spec {spec!r}; use one of {BACKEND_SPECS}"
    )
