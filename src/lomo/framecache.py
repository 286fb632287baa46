"""The frame cache: each sequence file's frames, keyed by the SHA-256 of its bytes.

data.parse_manifest keeps one cache per manifest, in `.<manifest name>.frames`
beside it. A file whose bytes have an entry is not parsed; its frames are
read from the cache. The key is the file's content, not its path or mtime,
so the cache cannot go stale, and whatever the cache holds, a parse gives
the same result.

The file: HEAD (MAGIC, entry count), one ENTRY per distinct file content
(digest, rows, columns, byte offset of the frames, CRC-32 of the frame
bytes), then each entry's frames, little-endian float64 in C order, at its
offset.

The cache is read only when it is a regular file owned by this process's
user and writable by no one else: a cache another user could write could
put frames of their choosing in place of the files' own.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct
import zlib

import numpy as np

from .core import LomoError
from .inference import FrameSequence

MAGIC = b"LOMOFRM1"
HEAD = struct.Struct("<8sQ")
ENTRY = struct.Struct("<32sQQQQ")
DTYPE = np.dtype("<f8")


def _cache_path(manifest_path) -> str:
    """The manifest's cache: `.<manifest name>.frames` in its directory."""
    base, name = os.path.split(os.path.abspath(str(manifest_path)))
    return os.path.join(base, f".{name}.frames")


def _trusted(fd: int) -> bool:
    """Whether the open file is a regular file of this user that no other
    user may write."""
    st = os.fstat(fd)
    return (stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _index(fd: int) -> dict[bytes, tuple[int, int, int, int]]:
    """digest -> (rows, columns, offset, crc) of the cache file open as
    `fd`; empty unless the file holds a whole table of in-bounds entries."""
    size = os.fstat(fd).st_size
    magic, count = HEAD.unpack(os.pread(fd, HEAD.size, 0))
    end = HEAD.size + count * ENTRY.size
    if magic != MAGIC or end > size:
        return {}
    index = {}
    for digest, rows, cols, offset, crc in ENTRY.iter_unpack(
            os.pread(fd, end - HEAD.size, HEAD.size)):
        if rows < 1 or cols < 1 or offset < end or offset + rows * cols * DTYPE.itemsize > size:
            return {}
        index[digest] = (rows, cols, offset, crc)
    return index


class FrameCache:
    """The manifest's cache, open for reading while in a `with` block.

    A cache that is missing, foreign, truncated, unreadable or not trusted
    (see the module docstring) holds nothing. `digest in cache` asks for an
    entry, and forked workers may ask it; the frames are read at the
    entry's offset (os.preadv), one array per record.
    """

    def __init__(self, manifest_path):
        self._path = _cache_path(manifest_path)
        self._fd = -1
        self._index: dict[bytes, tuple[int, int, int, int]] = {}

    def __enter__(self) -> FrameCache:
        with contextlib.suppress(OSError, struct.error):
            # non-blocking: opening a FIFO planted at the path would wait for a writer
            self._fd = os.open(self._path, os.O_RDONLY | os.O_NONBLOCK)
            if _trusted(self._fd):
                self._index = _index(self._fd)
        return self

    def __exit__(self, *exc) -> None:
        if self._fd >= 0:
            os.close(self._fd)
        self._fd = -1
        self._index = {}

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._index

    def sequence(self, digest: bytes, seq_id: str) -> FrameSequence | None:
        """The frames of the entry for `digest` as a sequence called
        `seq_id`, read at the entry's offset; None when they do not read
        back whole, with their CRC-32 and finite."""
        rows, cols, offset, crc = self._index[digest]
        frames = np.empty((rows, cols), DTYPE)
        try:
            if os.preadv(self._fd, [frames], offset) != frames.nbytes:
                return None
        except OSError:
            return None
        if zlib.crc32(frames) != crc:
            return None
        try:
            return FrameSequence(frames, id=seq_id)
        except LomoError:  # non-finite frames: not an entry write_cache wrote
            return None


def write_cache(manifest_path, entries: dict[bytes, np.ndarray]) -> None:
    """Replace the manifest's cache with `entries` (digest -> frames).

    The file is written beside it under a temporary name, writable by its
    owner only, and renamed over it, so a reader opens the old cache or the
    new one, whole. An OSError, such as an unwritable directory, leaves the
    cache as it was and is not raised: the cache only saves time.
    """
    blocks = [frames.astype(DTYPE, order="C", copy=False) for frames in entries.values()]
    offset = HEAD.size + len(blocks) * ENTRY.size
    table = []
    for digest, block in zip(entries, blocks):
        table.append(ENTRY.pack(digest, *block.shape, offset, zlib.crc32(block)))
        offset += block.nbytes
    path = _cache_path(manifest_path)
    tmp = f"{path}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
    try:
        with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644), "wb") as fh:
            fh.write(HEAD.pack(MAGIC, len(blocks)))
            fh.write(b"".join(table))
            for block in blocks:
                fh.write(block)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
