"""The frame cache: one row per manifest record, holding the stat of its
sequence file and the frames that file parsed to.

data.parse_manifest keeps one cache per manifest, in `.<manifest name>.frames`
beside it. A record whose file's stat (device, inode, size, mtime and ctime
in ns, from the load's stat pass) and path equal its row takes its frames
from the row, and the file is not opened. Any other file is parsed.
Whatever the cache holds, a load gives what a parse of the files gives.

When a row is written trusted (the rule of git's index, "racy git"):
- A row records the stat that the stat pass saw, before the load read any
  file. A parsed file's row is written trusted only when the file's mtime
  and ctime are both strictly older than the change time of the temporary
  cache file, which the load creates after the stat pass and before it
  reads a file. A file edited after it was read gets times no older than
  that, so its stat differs from the row, unless its previous write fell
  in the same timestamp tick: then the row is written racy, matching no
  file and holding no frames. The next load parses that file again and
  rewrites the cache, so a `touch` costs one re-parse, not one on every
  later load.
- The cache file's final mtime would not do: a load reads for up to a
  second before it writes, and an edit in that time that keeps the size
  and lands in the same tick as the file's previous write would match a
  stale row.
- A hit's row was written trusted, so its file's mtime and ctime are older
  than the timestamp of the load that wrote it, and any later change moves
  the ctime off the row. So a hit whose frames do not read back is parsed
  again and keeps its row: a file changed since the stat pass already
  differs from it.
- An edit changes the ctime, which no unprivileged program can set back,
  so an edit followed by os.utime to the old times misses. A renamed,
  swapped or copied file has another inode or path and is parsed again.
- What is left: a sequence file on a file system whose timestamps are
  coarser than those of the cache's directory (ext3 and FAT keep seconds
  or two) can be edited within one of its timestamp steps, keeping its
  size, and go unseen. Deleting the cache is always safe.

The file: HEAD (MAGIC, row count, bytes of the paths), one ROW per manifest
record in record order (KEY: st_dev, st_ino, st_size, st_mtime_ns and
st_ctime_ns; length of the path; rows, columns, byte offset and CRC-32 of
the frames; all zero when racy), the rows' paths (os.fsencode) back to
back, then each trusted row's frames, little-endian float64 in C order, at
its offset.

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

MAGIC = b"LOMOFRM3"
HEAD = struct.Struct("<8sQQ")  # MAGIC, row count, bytes of the paths
KEY = struct.Struct("<QQQqq")  # st_dev, st_ino, st_size, st_mtime_ns, st_ctime_ns
ROW = struct.Struct("<40sQQQQQ")  # KEY, length of the path, rows, columns, offset, CRC-32
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


def _tables(fd: int) -> tuple[bytes, bytes]:
    """(the row table, the rows' paths) of the cache file open as `fd`; both
    empty unless the file holds whole tables and every row that has a path
    has its frames in bounds."""
    size = os.fstat(fd).st_size
    magic, count, names_size = HEAD.unpack(os.pread(fd, HEAD.size, 0))
    end = HEAD.size + count * ROW.size + names_size
    if magic != MAGIC or end > size:
        return b"", b""
    rows = os.pread(fd, count * ROW.size, HEAD.size)
    for _, length, n, cols, offset, _ in ROW.iter_unpack(rows):
        if length and (n < 1 or cols < 1 or offset < end
                       or offset + n * cols * DTYPE.itemsize > size):
            return b"", b""
    return rows, os.pread(fd, names_size, HEAD.size + len(rows))


class FrameCache:
    """The manifest's cache while in a `with` block.

    A cache that is missing, foreign, truncated, unreadable or not trusted
    (see the module docstring) holds nothing. The stat pass gives each
    record's file to `add`, in record order, and row k is record k's:
    `hits[k]` is the row's (rows, columns, offset, CRC-32) of the frames
    when the file's stat and path equal the row's, else None. `misses()`
    ends the stat pass. `take` gives each record's sequence and keeps its
    frames for the new cache, and `write` replaces the cache with them
    after a miss or a hit whose frames did not read back. Per record only
    its stat key, path and frames are held, not its os.stat_result.
    """

    def __init__(self, manifest_path):
        self._path = _cache_path(manifest_path)
        self._fd = -1
        self._rows = self._names = b""  # the cache's row table, read until the stat pass ends
        self._name_at = 0
        self._paths: list[str] = []
        self._keys = bytearray()  # KEY of each record's stat
        self.hits: list[tuple | None] = []
        self._frames: list[np.ndarray] = []  # each taken record's frames
        self._tmp = None  # (path, fd) of the temporary cache file
        self._stamp = None  # its ctime in ns, when created at the end of the stat pass
        self._changed = False

    def __enter__(self) -> FrameCache:
        with contextlib.suppress(OSError, struct.error):
            # non-blocking: opening a FIFO planted at the path would wait for a writer
            self._fd = os.open(self._path, os.O_RDONLY | os.O_NONBLOCK)
            if _trusted(self._fd):
                self._rows, self._names = _tables(self._fd)
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

    def add(self, path: str, st: os.stat_result) -> None:
        """The next record's file: `path`, whose os.stat is `st`."""
        k = len(self._paths)
        key = KEY.pack(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        hit = None
        if (k + 1) * ROW.size <= len(self._rows):
            row_key, length, *frames = ROW.unpack_from(self._rows, k * ROW.size)
            name = self._names[self._name_at:self._name_at + length]
            self._name_at += length
            if row_key == key and name == os.fsencode(path):
                hit = tuple(frames)
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

    def _read(self, k: int, seq_id: str) -> FrameSequence | None:
        """Hit k's frames as a sequence called `seq_id`, read at its row's
        offset; None when they do not read back whole, with their CRC-32
        and finite."""
        seq = None
        rows, cols, offset, crc = self.hits[k]
        frames = np.empty((rows, cols), DTYPE)
        with contextlib.suppress(OSError, LomoError):  # LomoError: non-finite frames
            if os.preadv(self._fd, [frames], offset) == frames.nbytes and zlib.crc32(frames) == crc:
                seq = FrameSequence(frames, id=seq_id)
        self._changed |= seq is None
        return seq

    def take(self, k: int, seq_id: str, loads, parse) -> FrameSequence:
        """Record k's sequence, called `seq_id`, kept for the new cache.

        A miss's is the next of `loads`, the parses of the misses in order.
        A hit's frames are read here; when they do not read back whole,
        parse() gives the sequence.
        """
        if self.hits[k] is None:
            seq = next(loads)
        else:
            seq = self._read(k, seq_id)
            if seq is None:
                seq = parse()
        self._frames.append(seq.frames)
        return seq

    def _name(self, k: int) -> bytes:
        """Record k's path for the new cache's row, or b"" when the row is
        racy: unless the record was a hit or its file's mtime and ctime are
        older than the load's timestamp."""
        if self.hits[k] is None:
            *_, mtime, ctime = KEY.unpack_from(self._keys, k * KEY.size)
            stamp = self._stamp
            if stamp is None or mtime >= stamp or ctime >= stamp:
                return b""
        return os.fsencode(self._paths[k])

    def write(self) -> None:
        """Replace the cache with the kept rows and frames, when a record
        missed or a hit's frames did not read back.

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
        names = [self._name(k) for k in range(len(self._frames))]
        blocks = [frames.astype(DTYPE, order="C", copy=False)
                  for frames, name in zip(self._frames, names) if name]
        names_size = sum(map(len, names))
        offset = HEAD.size + len(names) * ROW.size + names_size
        try:
            with open(fd, "wb") as fh:
                fh.write(HEAD.pack(MAGIC, len(names), names_size))
                trusted = iter(blocks)
                for k, name in enumerate(names):
                    if not name:
                        fh.write(RACY)
                        continue
                    block = next(trusted)
                    key = self._keys[k * KEY.size:(k + 1) * KEY.size]
                    fh.write(ROW.pack(key, len(name), *block.shape, offset, zlib.crc32(block)))
                    offset += block.nbytes
                fh.write(b"".join(names))
                for block in blocks:
                    fh.write(block)
            os.replace(tmp, self._path)
        except OSError:
            with contextlib.suppress(OSError):
                os.remove(tmp)
