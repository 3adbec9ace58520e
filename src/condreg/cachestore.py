"""The entries of the cache of parsed CSV inputs (:mod:`condreg.cache`).

:mod:`condreg.cache` sends a regular file above its threshold here and
parses every other input itself, so that the command of a small input
never imports this module.

**Key.**  BLAKE2b-256 over a format tag, the bytes of ``dataset.py`` (a
changed parser never reads an old entry), numpy's version and the
delimiter, each prefixed by its length, and then the input's bytes from
where the stream stands to its end.  A lookup hashes the whole input.
A miss hashes the bytes the parser reads, as it reads them, and starts
over when the parser seeks back for its row-by-row pass, so the entry's
key is that of the bytes its columns were parsed from, even when the
file changed after the lookup.

**Entry.**  The line ``MAGIC``, a line with the hex CRC-32 of everything
after it, a JSON header line (names, n and the dropped count), then the
k x n values as little-endian float64, column after column.  A hit
checks the magic, the header, the entry's exact size and the CRC, so a
damaged entry is a miss, and the miss's store replaces it.  The values
are read by one ``readinto`` into one (k, n) array, whose rows become
the Dataset's columns.  The CRC guards against damage, not against
another writer: the directory is this user's own (:func:`_directory`).

**Writing.**  An entry is written to a temporary file in the directory
and renamed into place.  After each store, files are removed oldest
modification time first until the directory holds at most
``defaults.PARSE_CACHE_BYTES``; a hit refreshes its entry's time.
"""

from __future__ import annotations

import io
import json
import os
import stat
import zlib
from typing import IO

import numpy as np

from . import dataset
from .dataset import Dataset, _BLOCK_BYTES
from .defaults import PARSE_CACHE_BYTES

MAGIC = b"condreg-parsed/2\n"


def load_csv(source: IO[bytes], delimiter: str) -> tuple[Dataset, int]:
    """``dataset.load_csv(source, delimiter=delimiter)`` for an open
    regular file: read from the cache when its bytes were parsed before,
    and stored there after a parse."""
    start = source.tell()
    try:
        directory = _directory()
        prefix = _prefix(delimiter) if directory is not None else None
    except OSError:
        directory = None
    if directory is None:
        return dataset.load_csv(source, delimiter=delimiter)
    try:
        loaded = _read_entry(os.path.join(directory, _input_key(prefix, source)))
    except OSError:
        loaded = None
    if loaded is not None:
        return loaded
    source.seek(start)
    reader = _HashingReader(source, prefix)
    data, dropped = dataset.load_csv(reader, delimiter=delimiter)
    try:
        _store(directory, reader.hexdigest(), data, dropped)
    except OSError:
        pass
    return data, dropped


def _directory() -> str | None:
    """The cache directory, made if absent; None where it may not be used
    and OSError where it cannot be made."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "condreg")
    os.makedirs(path, mode=0o700, exist_ok=True)
    info = os.stat(path)
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != os.geteuid() or info.st_mode & 0o022:
        return None
    return path


def _blake2b():
    """A fresh BLAKE2b-256 hash.  The built-in ``_blake2`` module first:
    ``hashlib`` loads OpenSSL's libcrypto, several MB of resident memory."""
    try:
        from _blake2 import blake2b
    except ImportError:
        from hashlib import blake2b
    return blake2b(digest_size=32)


def _prefix(delimiter: str):
    """The hash of everything in the key before the input's bytes."""
    with open(dataset.__file__, "rb") as handle:
        parser = handle.read()
    h = _blake2b()
    for part in (MAGIC, parser, np.__version__.encode("ascii"), delimiter.encode("utf-8", "surrogatepass")):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h


def _input_key(prefix, source: IO[bytes]) -> str:
    """The key of the input's bytes from where it stands to its end."""
    h = prefix.copy()
    buffer = bytearray(_BLOCK_BYTES)
    view = memoryview(buffer)
    while count := source.readinto(buffer):
        h.update(view[:count])
    return h.hexdigest()


class _HashingReader(io.BufferedIOBase):
    """A binary stream over ``source`` that hashes each byte it returns.

    A seek starts the hash over from ``prefix``: ``dataset.load_csv``
    seeks only back to where it began, to read the whole input again.
    """

    def __init__(self, source: IO[bytes], prefix):
        super().__init__()
        self._source, self._prefix = source, prefix
        self._hash = prefix.copy()

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def read(self, size: int | None = -1) -> bytes:
        data = self._source.read(size)
        self._hash.update(data)
        return data

    def readline(self, size: int | None = -1) -> bytes:
        data = self._source.readline(size)
        self._hash.update(data)
        return data

    def tell(self) -> int:
        return self._source.tell()

    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._hash = self._prefix.copy()
        return self._source.seek(offset, whence)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _read_entry(path: str) -> tuple[Dataset, int] | None:
    """The entry at ``path`` as load_csv's result, or None when there is
    none or it fails a check.  A hit refreshes the entry's time."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    with handle:
        if handle.readline() != MAGIC:
            return None
        digest, header = handle.readline(), handle.readline()
        try:
            fields = json.loads(header)
            names, n, dropped = fields["names"], fields["n"], fields["dropped"]
            size = len(MAGIC) + len(digest) + len(header) + 8 * len(names) * n
        except (ValueError, TypeError, KeyError):
            return None
        if type(n) is not int or n < 1 or os.fstat(handle.fileno()).st_size != size:
            return None
        columns = np.empty((len(names), n), dtype="<f8")
        handle.readinto(memoryview(columns).cast("B"))
    if digest != _crc(header, columns):
        return None
    os.utime(path)
    return Dataset._adopt(names, list(columns)), dropped


def _crc(*pieces) -> bytes:
    """The digest line of an entry whose bytes after it are ``pieces``."""
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    return b"%08x\n" % crc


def _store(directory: str, key: str, data: Dataset, dropped: int) -> None:
    """Write the entry for ``key`` through a temporary file, then evict."""
    header = json.dumps({"names": data.names, "n": data.n, "dropped": dropped}).encode("utf-8") + b"\n"
    columns = [np.ascontiguousarray(data.column(name), dtype="<f8") for name in data.names]
    digest = _crc(header, *columns)
    if len(MAGIC) + len(digest) + len(header) + 8 * data.n * len(columns) > PARSE_CACHE_BYTES:
        return
    path = os.path.join(directory, key)
    temporary = os.path.join(directory, f".{key}.{os.getpid()}.tmp")
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        with open(descriptor, "wb") as handle:
            for piece in (MAGIC, digest, header, *columns):
                handle.write(piece)
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise
    _evict(directory, path)


def _evict(directory: str, kept: str) -> None:
    """Remove files, oldest modification first, until the directory holds
    at most ``PARSE_CACHE_BYTES``; ``kept``, the entry just stored, stays."""
    files, total = [], 0
    with os.scandir(directory) as entries:
        for entry in entries:
            if entry.is_file(follow_symlinks=False):
                info = entry.stat(follow_symlinks=False)
                total += info.st_size
                if entry.path != kept:
                    files.append((info.st_mtime_ns, entry.path, info.st_size))
    for _, path, size in sorted(files):
        if total <= PARSE_CACHE_BYTES:
            break
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        total -= size
