"""The frame cache that parse_manifest keeps beside each manifest.

`.<manifest name>.frames` holds one row per record: the stat of its
sequence file and the frames that file parsed to, so a file whose stat
equals its row is not read. Whatever the cache holds, parse_manifest must
give what a parse of the files gives, with the same errors; the cache only
saves the reads and the parse. The forked loads on a cold and a warm
cache are tested in test_forked.py, and the golden digests on both in
test_golden.py.

A load trusts no row of a file changed in the timestamp tick of its own
timestamp, so the datasets here are settled (see `settle`) before a load
whose reads are counted.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import struct
import subprocess
import sys
import time
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lomo
import lomo.core
import lomo.data
from lomo.cli import main
from lomo.core import LomoError
from lomo.data import parse_manifest, read_sequence, write_sequence
from lomo.framecache import HEAD, KEY, MAGIC, ROW
from lomo.inference import FrameSequence

IDS = ["r0", "r1", "r2", "r3"]


def settle(paths) -> None:
    """Return once a new file beside the first of `paths` gets a change
    time later than that of every one of them: a load after that trusts
    their rows."""
    paths = [Path(p) for p in paths]
    newest = max(p.stat().st_ctime_ns for p in paths)
    probe = paths[0].parent / ".settle-probe"
    while True:
        probe.write_bytes(b"")
        changed = probe.stat().st_ctime_ns
        probe.unlink()
        if changed > newest:
            return
        time.sleep(0.001)


def _dataset(tmp_path, frames=None):
    rng = np.random.default_rng(11)
    frames = frames or [rng.normal(size=(6, 3)) for _ in IDS]
    rows = ["id,label,group,path"]
    for k, rec_id in enumerate(IDS):
        write_sequence(FrameSequence(frames[k]), tmp_path / f"{rec_id}.csv")
        rows.append(f"{rec_id},{'pos' if k % 2 else 'neg'},g{k % 2},{rec_id}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    settle(tmp_path / f"{rec_id}.csv" for rec_id in IDS)
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


@pytest.fixture
def read(monkeypatch):
    """The names of the sequence files parse_manifest reads, in order."""
    names = []
    original = lomo.data.read_bytes
    monkeypatch.setattr(lomo.data, "read_bytes",
                        lambda p: names.append(Path(p).stem) or original(p))
    return names


def _edit(seq: Path) -> None:
    """One digit of the file one up: other frames, the same size."""
    text = seq.read_bytes()
    k = next(i for i, c in enumerate(text) if c in b"12345678")
    seq.write_bytes(text[:k] + bytes([text[k] + 1]) + text[k + 1:])


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
    settle([seq])  # else the reload writes r2's row racy, and the next load parses it again
    parsed.clear()
    manifest = parse_manifest(path)
    assert parsed == ["r2"]
    frames = manifest.sequences["r2"].frames
    assert frames.tobytes() == read_sequence(seq).frames.tobytes() != old.tobytes()
    parsed.clear()
    assert _bits(parse_manifest(path)) == _bits(manifest)
    assert parsed == []


def test_a_warm_load_reads_no_file_until_one_changes(tmp_path, parsed, read):
    path = _dataset(tmp_path)
    want = _bits(parse_manifest(path))
    assert read == IDS
    read.clear()
    assert _bits(parse_manifest(path)) == want
    assert read == []
    seq = tmp_path / "r2.csv"
    before = seq.stat()
    _edit(seq)
    os.utime(seq, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert (seq.stat().st_size, seq.stat().st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    settle([seq])
    parsed.clear()
    manifest = parse_manifest(path)
    assert read == parsed == ["r2"]  # the ctime moved: no row matches
    assert manifest.sequences["r2"].frames.tobytes() == read_sequence(seq).frames.tobytes()
    read.clear()
    parsed.clear()
    assert _bits(parse_manifest(path)) == _bits(manifest)
    assert read == parsed == []


@pytest.mark.parametrize("field", ["st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns"])
def test_a_stat_that_differs_from_the_row_in_one_field_reads_the_file(tmp_path, read,
                                                                      monkeypatch, field):
    path = _dataset(tmp_path)
    parse_manifest(path)
    seq = tmp_path / "r1.csv"
    stat = os.stat

    def moved(p, *args, **kwargs):
        st = stat(p, *args, **kwargs)
        if Path(p) != seq:
            return st
        fields = ("st_mode", "st_dev", "st_ino", "st_size", "st_mtime_ns", "st_ctime_ns")
        return SimpleNamespace(**{**{f: getattr(st, f) for f in fields},
                                  field: getattr(st, field) + 1})

    monkeypatch.setattr(os, "stat", moved)
    read.clear()
    parse_manifest(path)
    assert read == ["r1"]


def test_two_files_of_one_size_swapped_by_rename_are_read_again(tmp_path, parsed, read):
    """Each swapped file is parsed once, and the next load reads no file."""
    frames = np.random.default_rng(12).normal(size=(6, 3))
    path = _dataset(tmp_path, [frames, frames[::-1], frames[:, ::-1], -frames])
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert r1.stat().st_size == r2.stat().st_size
    parse_manifest(path)
    os.rename(r1, tmp_path / "swap")
    os.rename(r2, r1)
    os.rename(tmp_path / "swap", r2)
    settle([r1, r2])
    for reads in (["r1", "r2"], []):
        read.clear()
        parsed.clear()
        manifest = parse_manifest(path)
        assert read == parsed == reads
        assert manifest.sequences["r1"].frames.tobytes() == frames[:, ::-1].tobytes()
        assert manifest.sequences["r2"].frames.tobytes() == frames[::-1].tobytes()


def test_a_cache_copied_with_its_dataset_reads_each_copied_file_once(tmp_path, parsed, read):
    """Each copied file is parsed once, and the next load of either set reads no file."""
    (tmp_path / "a").mkdir()
    path = _dataset(tmp_path / "a")
    want = [bits for _, bits in _bits(parse_manifest(path))]
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    assert (tmp_path / "b" / ".manifest.csv.frames").exists()
    settle((tmp_path / "b").glob("r*.csv"))
    for directory, reads in (("b", IDS), ("b", []), ("a", [])):
        read.clear()
        parsed.clear()
        manifest = parse_manifest(tmp_path / directory / "manifest.csv")
        assert read == parsed == reads
        assert [bits for _, bits in _bits(manifest)] == want


@pytest.mark.parametrize("field", ["mtime", "ctime"])
def test_a_file_edited_after_its_read_in_the_tick_of_the_load_is_read_again(
        tmp_path, parsed, monkeypatch, field):
    """r2's `field` lies in the tick of the load's timestamp (the temporary
    cache file's ctime, patched to it), the other time is older, and r2 is
    edited after the load read it, in the same tick and with the same size,
    so its stat does not move (the second load's os.stat patched to the
    first's). Its row must be racy: the second load reads r2 again and gets
    its new frames."""
    path = _dataset(tmp_path)
    parse_manifest(path)
    seq = tmp_path / "r2.csv"
    before = seq.stat()
    _edit(seq)
    if field == "ctime":  # the mtime set back, as `cp -p` or `touch -r` would
        os.utime(seq, ns=(before.st_atime_ns, before.st_mtime_ns))
    else:  # the mtime set ahead of the ctime
        os.utime(seq, ns=(before.st_atime_ns, seq.stat().st_ctime_ns + 10**9))
    seen = seq.stat()
    stamp = getattr(seen, f"st_{field}_ns")
    assert min(seen.st_mtime_ns, seen.st_ctime_ns) < stamp
    stat, read_bytes = os.stat, lomo.data.read_bytes

    def stat_in_the_tick(p, *args, **kwargs):
        if ".frames.tmp-" in str(p):
            return SimpleNamespace(st_ctime_ns=stamp)
        return stat(p, *args, **kwargs)

    def edit_after_read(p):
        # the load took its timestamp before it read a file
        assert [n for n in os.listdir(tmp_path) if ".frames.tmp-" in n]
        raw = read_bytes(p)
        if Path(p) == seq:
            _edit(seq)
        return raw

    with monkeypatch.context() as patch:
        patch.setattr(os, "stat", stat_in_the_tick)
        patch.setattr(lomo.data, "read_bytes", edit_after_read)
        parsed.clear()
        first = parse_manifest(path)
    assert parsed == ["r2"]
    assert first.sequences["r2"].frames.tobytes() != read_sequence(seq).frames.tobytes()
    with monkeypatch.context() as patch:
        patch.setattr(os, "stat", lambda p, *a, **k: seen if Path(p) == seq else stat(p, *a, **k))
        parsed.clear()
        second = parse_manifest(path)
    assert parsed == ["r2"]
    assert second.sequences["r2"].frames.tobytes() == read_sequence(seq).frames.tobytes()


def test_a_touched_file_is_parsed_once_then_trusted(tmp_path, parsed, read):
    path = _dataset(tmp_path)
    want = _bits(parse_manifest(path))
    os.utime(tmp_path / "r1.csv")
    settle([tmp_path / "r1.csv"])
    for reads in (["r1"], []):
        read.clear()
        parsed.clear()
        assert _bits(parse_manifest(path)) == want
        assert read == parsed == reads


def _lomofrm2(manifest) -> bytes:
    """The cache the previous format (MAGIC LOMOFRM2) held for `manifest`,
    every row trusted: HEAD (MAGIC, entry count), one ENTRY per file (the
    SHA-256 of its bytes; rows, columns, offset and CRC-32 of its frames),
    the row count and bytes of the paths, one row per record (digest, KEY,
    length of the path), the paths, the frames."""
    head, entry, rows, row = map(struct.Struct, ("<8sQ", "<32sQQQQ", "<QQ", "<32s40sQ"))
    records = manifest.records
    frames = [manifest.sequences[r.id].frames for r in records]
    digests = [hashlib.sha256(Path(r.path).read_bytes()).digest() for r in records]
    names = [os.fsencode(r.path) for r in records]
    names_size = sum(map(len, names))
    offset = head.size + len(records) * (entry.size + row.size) + rows.size + names_size
    out = [head.pack(b"LOMOFRM2", len(records))]
    for digest, f in zip(digests, frames):
        out.append(entry.pack(digest, *f.shape, offset, zlib.crc32(f.astype("<f8"))))
        offset += f.nbytes
    out.append(rows.pack(len(records), names_size))
    for digest, rec, name in zip(digests, records, names):
        st = os.stat(rec.path)
        key = KEY.pack(st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
        out.append(row.pack(digest, key, len(name)))
    return b"".join(out + names + [f.astype("<f8").tobytes() for f in frames])


def test_a_cache_of_the_previous_format_reads_as_empty_and_is_replaced(tmp_path, parsed):
    path = _dataset(tmp_path)
    cache = tmp_path / ".manifest.csv.frames"
    want = _bits(parse_manifest(path))
    good = cache.read_bytes()
    assert MAGIC != b"LOMOFRM2"
    cache.write_bytes(_lomofrm2(parse_manifest(path)))
    parsed.clear()
    assert _bits(parse_manifest(path)) == want
    assert parsed == IDS
    assert cache.read_bytes() == good


def test_a_warm_load_of_64_files_reads_none_and_forks_none(tmp_path, monkeypatch, read):
    monkeypatch.setattr(lomo.core, "cpu_count", lambda: 2)
    rng = np.random.default_rng(13)
    rows = ["id,label,group,path"]
    for k in range(64):
        write_sequence(FrameSequence(rng.normal(size=(5, 4))), tmp_path / f"s{k}.csv")
        rows.append(f"s{k},{'pos' if k % 2 else 'neg'},g{k % 4},s{k}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    settle(tmp_path.glob("s*.csv"))
    items = []
    forked_map = lomo.data.forked_map

    def counting(fn, todo, *args, **kwargs):
        todo = list(todo)
        items.append(len(todo))
        return forked_map(fn, todo, *args, **kwargs)

    monkeypatch.setattr(lomo.data, "forked_map", counting)
    cold = parse_manifest(path)
    # two workers of 32 files; the forked worker's reads are its own
    assert items == [64] and read == [f"s{k}" for k in range(0, 64, 2)]
    written = (tmp_path / ".manifest.csv.frames").stat()
    items.clear()
    read.clear()
    assert _bits(parse_manifest(path)) == _bits(cold)
    assert read == [] and not any(items)
    assert (tmp_path / ".manifest.csv.frames").stat().st_ino == written.st_ino


def _flip_last_frame_byte(good: bytes) -> bytes:
    return good[:-1] + bytes([good[-1] ^ 1])


def _nan_frames_with_their_crc(good: bytes) -> bytes:
    """The last row's frames made NaN, its CRC-32 made to match."""
    last = HEAD.size + (len(IDS) - 1) * ROW.size
    key, length, rows, cols, offset, _ = ROW.unpack_from(good, last)
    nan = np.full((rows, cols), np.nan).astype("<f8").tobytes()
    row = ROW.pack(key, length, rows, cols, offset, zlib.crc32(nan))
    out = bytearray(good)
    out[last:last + ROW.size] = row
    out[offset:offset + len(nan)] = nan
    return bytes(out)


DAMAGE = {
    "empty": (lambda good: b"", IDS),
    "header-only": (lambda good: good[:HEAD.size], IDS),
    "truncated": (lambda good: good[:-1], IDS),
    "garbage": (lambda good: bytes(range(256)) * 8, IDS),
    "table-past-the-end": (lambda good: HEAD.pack(MAGIC, 2**60, 0) + good[HEAD.size:], IDS),
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


def test_a_hit_whose_frames_fail_their_crc_is_parsed_again_and_keeps_its_row(
        tmp_path, parsed, read, monkeypatch):
    """r3's frames fail their CRC-32: r3 is parsed again. Where no temporary
    file can be made the cache stays as it was; else its row is written
    trusted, and the next load opens no file."""
    path = _dataset(tmp_path)
    cache = tmp_path / ".manifest.csv.frames"
    want = _bits(parse_manifest(path))
    good = cache.read_bytes()
    flipped = _flip_last_frame_byte(good)
    cache.write_bytes(flipped)
    real_open = os.open

    def no_temporary_file(p, *args, **kwargs):
        if ".frames.tmp-" in str(p):
            raise PermissionError(13, "Permission denied", str(p))
        return real_open(p, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", no_temporary_file)
        parsed.clear()
        assert _bits(parse_manifest(path)) == want
        assert parsed == ["r3"]
    assert cache.read_bytes() == flipped
    for reads in (["r3"], []):
        read.clear()
        parsed.clear()
        assert _bits(parse_manifest(path)) == want
        assert read == parsed == reads
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


def test_load_timings_times_a_cold_a_stale_and_a_warm_load(capsys):
    script = Path(__file__).parents[1] / "tools" / "load_timings.py"
    spec = importlib.util.spec_from_file_location("load_timings", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--set", "3:4", "--frames", "20", "--runs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d=3 files=4 frames=20 runs=2"
    figures = json.loads(lines[-1])["d3x4"]
    assert sorted(figures) == ["cold", "copied", "stale", "warm"]
    for cache in figures.values():
        assert cache["median_ms"] > 0 and cache["iqr_ms"] >= 0
