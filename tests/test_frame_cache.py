"""The frame cache that parse_manifest keeps beside each manifest.

`.<manifest name>.frames` holds the frames of each sequence file, keyed by
the SHA-256 of the file's bytes. Whatever the cache holds, parse_manifest
must give what a parse of the files gives, with the same errors; the cache
only saves the parse. The forked loads on a cold and a warm cache are
tested in test_forked.py, and the golden digests on both in
test_golden.py.
"""

from __future__ import annotations

import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import lomo
import lomo.data
from lomo.cli import main
from lomo.core import LomoError
from lomo.data import parse_manifest, read_sequence, write_sequence
from lomo.framecache import ENTRY, HEAD, MAGIC
from lomo.inference import FrameSequence

IDS = ["r0", "r1", "r2", "r3"]


def _dataset(tmp_path):
    rng = np.random.default_rng(11)
    rows = ["id,label,group,path"]
    for k, rec_id in enumerate(IDS):
        write_sequence(FrameSequence(rng.normal(size=(6, 3))), tmp_path / f"{rec_id}.csv")
        rows.append(f"{rec_id},{'pos' if k % 2 else 'neg'},g{k % 2},{rec_id}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _bits(manifest):
    return [(r, manifest.sequences[r.id].frames.tobytes()) for r in manifest.records]


@pytest.fixture
def parsed(monkeypatch):
    """The ids whose files parse_manifest parses (its cache misses), in order."""
    ids = []
    original = lomo.data._parse
    monkeypatch.setattr(lomo.data, "_parse",
                        lambda p, lines, i: ids.append(i) or original(p, lines, i))
    return ids


def test_a_parse_fills_the_cache_and_a_later_parse_reads_it(tmp_path, parsed):
    path = _dataset(tmp_path)
    cache = tmp_path / ".manifest.csv.frames"
    cold = parse_manifest(path)
    assert parsed == IDS
    written = cache.stat()
    parsed.clear()
    warm = parse_manifest(path)
    assert parsed == []
    assert _bits(warm) == _bits(cold)
    assert warm.dim == cold.dim == 3
    # a parse without a miss leaves the cache file as it was
    assert cache.stat().st_ino == written.st_ino
    assert sorted(os.listdir(tmp_path)) == sorted([".manifest.csv.frames", "manifest.csv",
                                                   *(f"{i}.csv" for i in IDS)])


def test_a_file_rewritten_with_the_same_size_and_mtime_is_parsed_again(tmp_path, parsed):
    path = _dataset(tmp_path)
    parse_manifest(path)
    seq = tmp_path / "r2.csv"
    before = seq.stat()
    old = read_sequence(seq).frames
    text = seq.read_bytes()
    k = next(i for i, c in enumerate(text) if c in b"12345678")  # one digit up
    seq.write_bytes(text[:k] + bytes([text[k] + 1]) + text[k + 1:])
    os.utime(seq, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (seq.stat().st_size, seq.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    parsed.clear()
    manifest = parse_manifest(path)
    assert parsed == ["r2"]
    frames = manifest.sequences["r2"].frames
    assert frames.tobytes() == read_sequence(seq).frames.tobytes() != old.tobytes()
    parsed.clear()
    assert _bits(parse_manifest(path)) == _bits(manifest)
    assert parsed == []


def _flip_last_frame_byte(good: bytes) -> bytes:
    return good[:-1] + bytes([good[-1] ^ 1])


def _nan_frames_with_their_crc(good: bytes) -> bytes:
    """The last entry's frames made NaN, its CRC-32 made to match."""
    last = HEAD.size + (len(IDS) - 1) * ENTRY.size
    digest, rows, cols, offset, _ = ENTRY.unpack_from(good, last)
    nan = np.full((rows, cols), np.nan).astype("<f8").tobytes()
    entry = ENTRY.pack(digest, rows, cols, offset, zlib.crc32(nan))
    out = bytearray(good)
    out[last:last + ENTRY.size] = entry
    out[offset:offset + len(nan)] = nan
    return bytes(out)


DAMAGE = {
    "empty": (lambda good: b"", IDS),
    "header-only": (lambda good: good[:HEAD.size], IDS),
    "truncated": (lambda good: good[:-1], IDS),
    "garbage": (lambda good: bytes(range(256)) * 8, IDS),
    "table-past-the-end": (lambda good: HEAD.pack(MAGIC, 2**60) + good[16:], IDS),
    "frame-byte-flipped": (_flip_last_frame_byte, ["r3"]),
    "nan-frames-with-their-crc": (_nan_frames_with_their_crc, ["r3"]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_a_damaged_cache_gives_the_parse_and_is_replaced(tmp_path, parsed, damage):
    path = _dataset(tmp_path)
    cache = tmp_path / ".manifest.csv.frames"
    want = _bits(parse_manifest(path))
    good = cache.read_bytes()
    corrupt, misses = DAMAGE[damage]
    cache.write_bytes(corrupt(good))
    parsed.clear()
    assert _bits(parse_manifest(path)) == want
    assert parsed == misses
    assert cache.read_bytes() == good


def test_a_cache_that_is_a_directory_is_skipped(tmp_path, parsed):
    path = _dataset(tmp_path)
    want = _bits(parse_manifest(path))
    (tmp_path / ".manifest.csv.frames").unlink()
    (tmp_path / ".manifest.csv.frames").mkdir()
    for _ in range(2):
        parsed.clear()
        assert _bits(parse_manifest(path)) == want
        assert parsed == IDS
    assert sorted(os.listdir(tmp_path / ".manifest.csv.frames")) == []
    assert not [n for n in os.listdir(tmp_path) if ".tmp-" in n]


def test_a_cache_that_is_a_fifo_is_skipped_without_waiting(tmp_path, parsed):
    # The parse runs in a child with a time limit: opening a FIFO for reading
    # blocks until a writer opens it, so a blocking open would never return.
    path = _dataset(tmp_path)
    want = _bits(parse_manifest(path))
    cache = tmp_path / ".manifest.csv.frames"
    cache.unlink()
    os.mkfifo(cache)
    paths = [str(Path(lomo.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = "import sys; from lomo.data import parse_manifest; parse_manifest(sys.argv[1])"
    subprocess.run([sys.executable, "-c", script, str(path)], env=env, timeout=60, check=True)
    # the child parsed every file and wrote a cache over the FIFO
    parsed.clear()
    assert _bits(parse_manifest(path)) == want
    assert parsed == []


def _stat_as(uid=None, mode_bits=0):
    """os.fstat, with st_uid replaced by `uid` and `mode_bits` added."""
    real = os.fstat

    def fstat(fd):
        st = real(fd)
        fields = list(st[:10])
        fields[0] |= mode_bits
        fields[4] = st.st_uid if uid is None else uid
        return os.stat_result(fields)

    return fstat


@pytest.mark.parametrize("owner", ["other-user", "group-writable", "world-writable"])
def test_a_cache_another_user_could_write_is_ignored_and_replaced(tmp_path, parsed,
                                                                  monkeypatch, owner):
    path = _dataset(tmp_path)
    want = _bits(parse_manifest(path))
    cache = tmp_path / ".manifest.csv.frames"
    good = cache.read_bytes()
    fstat = {"other-user": _stat_as(uid=os.getuid() + 1),
             "group-writable": _stat_as(mode_bits=0o020),
             "world-writable": _stat_as(mode_bits=0o002)}[owner]
    with monkeypatch.context() as patch:
        patch.setattr(os, "fstat", fstat)
        parsed.clear()
        assert _bits(parse_manifest(path)) == want
        assert parsed == IDS
    assert cache.read_bytes() == good
    parsed.clear()
    parse_manifest(path)
    assert parsed == []


def test_the_cache_is_written_writable_by_its_owner_only(tmp_path):
    path = _dataset(tmp_path)
    umask = os.umask(0)
    try:
        parse_manifest(path)
    finally:
        os.umask(umask)
    st = (tmp_path / ".manifest.csv.frames").stat()
    assert (st.st_uid, st.st_mode & 0o777) == (os.getuid(), 0o644)


def test_a_failed_parse_writes_no_cache(tmp_path):
    path = _dataset(tmp_path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("r9,pos,g0,missing.csv\n")
    with pytest.raises(LomoError, match="missing sequence file 'missing.csv'"):
        parse_manifest(path)
    (tmp_path / "r1.csv").write_text("x\n", encoding="utf-8")
    with pytest.raises(LomoError, match="r1.csv: row 1, column 1: 'x' is not numeric"):
        parse_manifest(path)
    assert not (tmp_path / ".manifest.csv.frames").exists()


def test_cache_hits_keep_the_first_error_in_row_order(tmp_path):
    """r0 and r2 are hits; the errors of the misses r1 and r3 come in row
    order, with the messages of a parse on no cache."""
    path = _dataset(tmp_path)
    parse_manifest(path)
    cache = tmp_path / ".manifest.csv.frames"
    good = cache.read_bytes()
    r1 = (tmp_path / "r1.csv").read_bytes()
    (tmp_path / "r1.csv").write_bytes(b"\xff\n")
    (tmp_path / "r3.csv").write_text("1.0,2.0\n", encoding="utf-8")  # d=2 among d=3
    for fix_r1, message in ((False, r"r1\.csv: not valid UTF-8 text"),
                            (True, r"record 'r3': dimension 2 differs from 3$")):
        if fix_r1:
            (tmp_path / "r1.csv").write_bytes(r1)
        errors = []
        for cached in (True, False):
            if cached:
                cache.write_bytes(good)
            else:
                cache.unlink()
            with pytest.raises(LomoError, match=message) as info:
                parse_manifest(path)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


def _cli(argv, capsys):
    rc = main([str(a) for a in argv])
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_a_cache_that_cannot_be_written_changes_no_output(tmp_path, monkeypatch, capsys):
    """A failing os.replace stands in for a read-only directory: as root,
    chmod cannot make a directory unwritable."""
    path = _dataset(tmp_path)
    cache = tmp_path / ".manifest.csv.frames"
    model = tmp_path / "m.lomo"
    train = ["train", "--manifest", path, "--out", model, "--positive-label", "pos",
             "--templates", "1", "--exclusion-t", "0", "--max-iter", "50"]
    predict = ["predict", "--manifest", path, "--model", model, "--exclusion-t", "0"]
    bad = ["predict", "--manifest", path, "--model", tmp_path / "none.lomo"]
    runs = []
    for replace_fails in (False, True):
        cache.unlink(missing_ok=True)
        with monkeypatch.context() as patch:
            if replace_fails:
                def replace(src, dst):
                    raise PermissionError(13, "Permission denied", str(dst))

                patch.setattr(os, "replace", replace)
            runs.append([_cli(train, capsys), model.read_bytes(), _cli(predict, capsys),
                         _cli(bad, capsys)])
        assert cache.exists() is not replace_fails
        assert not [n for n in os.listdir(tmp_path) if ".tmp-" in n]
    assert runs[0] == runs[1]
    assert runs[0][0][0] == runs[0][2][0] == 0 and runs[0][3][0] == 1
