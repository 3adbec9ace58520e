"""A per-user cache of parsed CSV inputs, addressed by their bytes.

:func:`load_csv` is what the CLI calls to read ``--data``: the call and
the result of :func:`condreg.dataset.load_csv`, errors included, with
the parse skipped when the same bytes were parsed before.  Only a
regular file of more than ``THRESHOLD_BLOCKS`` of the parser's
``_BLOCK_BYTES`` goes through the cache, and only then is
:mod:`condreg.cachestore` (keys, entries, eviction) imported.  A FIFO or
a smaller file is parsed as ``dataset.load_csv`` parses it, which itself
writes nothing to disk.

The key is a BLAKE2b-256 hash of the input's bytes, taken with the
parser's source, numpy's version and the delimiter.  Entries live in
``$XDG_CACHE_HOME/condreg`` (``~/.cache/condreg`` when that is unset), a
directory of mode 0700 that is not used if another user owns it or
others may write to it.  It holds at most ``defaults.PARSE_CACHE_BYTES``,
the least recently used entries going first; ``rm -r ~/.cache/condreg``
clears it.  Any ``OSError`` of the cache falls back silently to a
parse; a parse error is raised as the parser raises it, and nothing is
stored.

A miss costs more than a parse: it hashes the input twice (to look it
up, then as the parser reads it) and writes the entry.  A hit costs one
hash of the input and one read of the entry.  So the cache pays for an
input only when the same bytes are read again.
"""

from __future__ import annotations

import io
import os
import stat
from typing import IO

from . import dataset
from .dataset import Dataset, _BLOCK_BYTES

# Inputs of this many parser blocks or fewer are parsed, never looked up.
# In a fresh process on a 2-vCPU Xeon, without bytecode caching, a miss
# and then a hit cost no more than two parses from 3 blocks (786,432
# bytes) up, and more below: there an input read twice is cheaper parsed
# twice, and an input read once always is.
THRESHOLD_BLOCKS = 3


def load_csv(source: bytes | IO[bytes] | IO[str], delimiter: str = ",") -> tuple[Dataset, int]:
    """``dataset.load_csv(source, delimiter=delimiter)``, read from the
    cache when ``source`` is an open regular file of more than
    ``THRESHOLD_BLOCKS`` blocks, and stored there after a parse."""
    if _cached(source, delimiter):
        from . import cachestore

        return cachestore.load_csv(source, delimiter)
    return dataset.load_csv(source, delimiter=delimiter)


def _cached(source, delimiter) -> bool:
    """Whether ``source`` is a regular file with more than the threshold
    left to read, and the delimiter one the parser accepts."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        return False  # the parser's own error, before anything is read
    if not isinstance(source, io.BufferedReader):
        return False
    try:
        info = os.fstat(source.fileno())
        start = source.tell()
    except OSError:
        return False
    return stat.S_ISREG(info.st_mode) and info.st_size - start > THRESHOLD_BLOCKS * _BLOCK_BYTES
