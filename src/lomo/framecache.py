"""The frame cache: each sequence file's frames, keyed by the SHA-256 of its
bytes, and one stat row per manifest record that finds the key without
reading the file.

data.parse_manifest keeps one cache per manifest, in `.<manifest name>.frames`
beside it. A record whose file's stat (device, inode, size, mtime and ctime
in ns, from the load's stat pass) equals its row takes its frames from the
cache under the row's digest, and the file is not opened. Any other file is
read and hashed: one whose digest has an entry is not parsed, the rest are.
Whatever the cache holds, a load gives what a parse of the files gives.

When a row is written trusted (the rule of git's index, "racy git"):
- A row records the stat that the stat pass saw, before the load read any
  file. It is written trusted only when the file's mtime and ctime are
  both strictly older than the change time of the temporary cache file,
  which the load creates after the stat pass and before it reads a file.
  A file edited after it was read gets times no older than that, so its
  stat differs from the row, unless its previous write fell in the same
  timestamp tick: then the row is written racy, matching no file. The
  next load reads and hashes that file again and rewrites the cache, so a
  `touch` costs one re-hash, not one on every later load.
- The cache file's final mtime would not do: a load reads for up to a
  second before it writes, and an edit in that time that keeps the size
  and lands in the same tick as the file's previous write would match a
  stale row.
- An edit changes the ctime, which no unprivileged program can set back,
  so an edit followed by os.utime to the old times misses. A renamed or
  copied file has another inode or path.
- What is left: a sequence file on a file system whose timestamps are
  coarser than those of the cache's directory (ext3 and FAT keep seconds
  or two) can be edited within one of its timestamp steps, keeping its
  size, and go unseen. Deleting the cache is always safe.

The file: HEAD (MAGIC, entry count), one ENTRY per distinct file content
(digest, rows, columns, byte offset of the frames, CRC-32 of the frame
bytes), ROWS (row count, bytes of the paths), one ROW per manifest record
in record order (digest, KEY: st_dev, st_ino, st_size, st_mtime_ns and
st_ctime_ns, length of the path; all zero when racy), the rows' paths
(os.fsencode) back to back, then each entry's frames, little-endian
float64 in C order, at its offset.

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

MAGIC = b"LOMOFRM2"
HEAD = struct.Struct("<8sQ")
ENTRY = struct.Struct("<32sQQQQ")
ROWS = struct.Struct("<QQ")  # row count, bytes of the paths
KEY = struct.Struct("<QQQqq")  # st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns
ROW = struct.Struct("<32s40sQ")  # digest, KEY, length of the path
RACY = bytes(ROW.size)  # the row of a racy record: no path matches it
DTYPE = np.dtype("<f8")


def _cache_path(manifest_path) -> str:
    """The manifest's cache: `.<manifest name>.frames` in its directory."""
    base, name = os.path.split(os.path.abspath(str(manifest_path)))
    return os.path.join(base, f".{name}.frames")


def file_stat(path) -> os.stat_result | None:
    """os.stat of the regular file at `path` (symlinks followed), or None
    when there is none, as os.path.isfile has it."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return None
    return st if stat.S_ISREG(st.st_mode) else None


def _trusted(fd: int) -> bool:
    """Whether the open file is a regular file of this user that no other
    user may write."""
    st = os.fstat(fd)
    return (stat.S_ISREG(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


def _tables(fd: int) -> tuple[dict, bytes, bytes]:
    """(digest -> (digest, rows, columns, offset, crc), the row table, the
    rows' paths) of the cache file open as `fd`; all empty unless the file
    holds whole tables and in-bounds entries."""
    size = os.fstat(fd).st_size
    magic, count = HEAD.unpack(os.pread(fd, HEAD.size, 0))
    end = HEAD.size + count * ENTRY.size + ROWS.size
    if magic != MAGIC or end > size:
        return {}, b"", b""
    raw = os.pread(fd, end - HEAD.size, HEAD.size)
    row_count, names_size = ROWS.unpack_from(raw, len(raw) - ROWS.size)
    if end + row_count * ROW.size + names_size > size:
        return {}, b"", b""
    rows = os.pread(fd, row_count * ROW.size, end)
    names = os.pread(fd, names_size, end + len(rows))
    end += len(rows) + names_size
    index = {}
    for digest, n, cols, offset, crc in ENTRY.iter_unpack(raw[:-ROWS.size]):
        if n < 1 or cols < 1 or offset < end or offset + n * cols * DTYPE.itemsize > size:
            return {}, b"", b""
        index[digest] = (digest, n, cols, offset, crc)
    return index, rows, names


class FrameCache:
    """The manifest's cache while in a `with` block.

    A cache that is missing, foreign, truncated, unreadable or not trusted
    (see the module docstring) holds nothing. The stat pass gives each
    record's file to `add`, in record order, and row k is record k's:
    `hits[k]` is its entry when the file's stat and path equal the row's,
    else None. `misses()` ends the stat pass. `digest in cache` asks for an
    entry, and forked workers may ask it. `take` gives each record's
    sequence and keeps it for the new cache, and `write` replaces the cache
    with them after a miss or an entry that did not read back. Per record
    only its stat key, path and digest are held, not its os.stat_result.
    """

    def __init__(self, manifest_path):
        self._path = _cache_path(manifest_path)
        self._fd = -1
        self._index: dict[bytes, tuple] = {}
        self._rows = self._names = b""  # the cache's row table, read until the stat pass ends
        self._name_at = 0
        self._paths: list[str] = []
        self._keys = bytearray()  # KEY of each record's stat
        self.hits: list[tuple | None] = []
        self._digests: list[bytes] = []
        self._tmp = None  # (path, fd) of the temporary cache file
        self._stamp = None  # its ctime in ns, when created at the end of the stat pass
        self._entries: dict[bytes, np.ndarray] = {}
        self._changed = False

    def __enter__(self) -> FrameCache:
        with contextlib.suppress(OSError, struct.error):
            # non-blocking: opening a FIFO planted at the path would wait for a writer
            self._fd = os.open(self._path, os.O_RDONLY | os.O_NONBLOCK)
            if _trusted(self._fd):
                self._index, self._rows, self._names = _tables(self._fd)
        return self

    def __exit__(self, *exc) -> None:
        if self._fd >= 0:
            os.close(self._fd)
        if self._tmp is not None:
            tmp, fd = self._tmp
            os.close(fd)
            with contextlib.suppress(OSError):
                os.remove(tmp)
        self._fd = -1
        self._tmp = None
        self._index = {}

    def add(self, path: str, st: os.stat_result) -> None:
        """The next record's file: `path`, whose os.stat is `st`."""
        k = len(self._paths)
        key = KEY.pack(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        hit = None
        if (k + 1) * ROW.size <= len(self._rows):
            digest, row_key, length = ROW.unpack_from(self._rows, k * ROW.size)
            name = self._names[self._name_at:self._name_at + length]
            self._name_at += length
            if row_key == key and name == os.fsencode(path):
                hit = self._index.get(digest)
        self._paths.append(path)
        self._keys += key
        self.hits.append(hit)

    def misses(self) -> list[int]:
        """The records that hit no row, in order. This ends the stat pass:
        when there is a miss, the temporary cache file is created now,
        before any file is read, and its ctime is the load's timestamp."""
        self._rows = self._names = b""
        misses = [k for k, hit in enumerate(self.hits) if hit is None]
        if misses:
            self._changed = True
            self._create()
            if self._tmp is not None:
                self._stamp = os.stat(self._tmp[0]).st_ctime_ns
        return misses

    def _create(self) -> None:
        """The temporary cache file, writable by its owner only; none when
        the directory takes no file."""
        tmp = f"{self._path}.tmp-{os.getpid()}-{os.urandom(4).hex()}"
        with contextlib.suppress(OSError):
            self._tmp = (tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644))

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._index

    def sequence(self, digest: bytes, seq_id: str) -> FrameSequence | None:
        """The frames of the entry for `digest` as a sequence called
        `seq_id`, read at the entry's offset; None when they do not read
        back whole, with their CRC-32 and finite."""
        seq = None
        _, rows, cols, offset, crc = self._index[digest]
        frames = np.empty((rows, cols), DTYPE)
        with contextlib.suppress(OSError, LomoError):  # LomoError: non-finite frames
            if os.preadv(self._fd, [frames], offset) == frames.nbytes and zlib.crc32(frames) == crc:
                seq = FrameSequence(frames, id=seq_id)
        self._changed |= seq is None
        return seq

    def take(self, k: int, seq_id: str, loads, parse) -> FrameSequence:
        """Record k's sequence, called `seq_id`, kept for the new cache.

        For a miss, the next of `loads` is what data._load gave for its
        file: (sequence, digest), or (None, digest) for an entry. An
        entry's frames, and a hit's, are read here; when they do not read
        back whole, parse() gives (sequence, digest).
        """
        hit = self.hits[k]
        seq, digest = next(loads) if hit is None else (None, hit[0])
        if seq is None:
            seq = self.sequence(digest, seq_id)
            if seq is None:
                seq, digest = parse()
        self._entries[digest] = seq.frames
        self._digests.append(digest)
        return seq

    def _name(self, k: int) -> bytes:
        """Record k's path for the new cache's row, or b"" when the row is
        racy: unless the record was a hit or its file's mtime and ctime are
        older than the load's timestamp."""
        hit, stamp = self.hits[k], self._stamp
        if hit is None or hit[0] != self._digests[k]:
            *_, mtime, ctime = KEY.unpack_from(self._keys, k * KEY.size)
            if stamp is None or mtime >= stamp or ctime >= stamp:
                return b""
        return os.fsencode(self._paths[k])

    def write(self) -> None:
        """Replace the cache with the kept rows and entries, when a record
        missed or an entry did not read back.

        The temporary file is renamed over the cache, so a reader opens the
        old cache or the new one, whole. An OSError, such as an unwritable
        directory, leaves the cache as it was and is not raised: the cache
        only saves time. The rows are written as they are packed, so only
        the paths are held in one buffer.
        """
        if not self._changed:
            return
        if self._tmp is None:
            self._create()
        if self._tmp is None:
            return
        tmp, fd = self._tmp
        self._tmp = None
        count = len(self._digests)
        names, sizes = bytearray(), []
        for k in range(count):
            name = self._name(k)
            names += name
            sizes.append(len(name))
        blocks = [frames.astype(DTYPE, order="C", copy=False) for frames in self._entries.values()]
        offset = HEAD.size + len(blocks) * ENTRY.size + ROWS.size + count * ROW.size + len(names)
        try:
            with open(fd, "wb") as fh:
                fh.write(HEAD.pack(MAGIC, len(blocks)))
                for digest, block in zip(self._entries, blocks):
                    fh.write(ENTRY.pack(digest, *block.shape, offset, zlib.crc32(block)))
                    offset += block.nbytes
                fh.write(ROWS.pack(count, len(names)))
                for k, size in enumerate(sizes):
                    key = self._keys[k * KEY.size:(k + 1) * KEY.size]
                    fh.write(ROW.pack(self._digests[k], key, size) if size else RACY)
                fh.write(names)
                for block in blocks:
                    fh.write(block)
            os.replace(tmp, self._path)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
