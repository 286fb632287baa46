"""core.forked_map and its three users: parse_manifest, run_cv and
gen_synthetic (`lomo synth`).

The forked path must give the serial results bit for bit, raise the first
error in item order with the serial message (bytes for the files synth
writes), and leave no child process behind. `core.cpu_count`, which
forked_map alone reads, is patched to 2 and `FORK_MIN_FILES` lowered, so
the forked path runs on a one-CPU machine too.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

import numpy as np
import pytest

import lomo.core
import lomo.data
from lomo.cli import main
from lomo.core import LomoError, forked_map
from lomo.data import (
    Fold,
    PreprocessConfig,
    SynthSpec,
    gen_synthetic,
    make_folds,
    parse_manifest,
    synth_records,
    write_sequence,
)
from lomo.evaluation import run_cv
from lomo.inference import FrameSequence
from lomo.training import TrainConfig
from test_frame_cache import settle


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count forked_map sees; files per worker >= 2."""
    monkeypatch.setattr(lomo.data, "FORK_MIN_FILES", 2)

    def set_count(n):
        monkeypatch.setattr(lomo.core, "cpu_count", lambda: n)

    return set_count


# ---------------------------------------------------------------------------
# forked_map


def _square_and_pid(k):
    return k * k, os.getpid()


def test_forked_map_deals_items_round_robin_and_keeps_order(cpus):
    cpus(3)
    results = list(forked_map(_square_and_pid, range(11)))
    assert [value for value, _ in results] == [k * k for k in range(11)]
    pids = [pid for _, pid in results]
    assert all(pid == os.getpid() for pid in pids[0::3])
    children = {pid for pid in pids if pid != os.getpid()}
    assert len(children) == 2
    for w in (1, 2):
        assert len(set(pids[w::3])) == 1
    assert_no_children()


def test_forked_map_starts_each_worker_with_the_items_it_runs(cpus):
    shares = []

    def share_and_pid(k):
        return shares[-1], os.getpid()

    for count in (1, 3):
        cpus(count)
        results = list(forked_map(share_and_pid, range(7), start=shares.append))
        for k, (share, _) in enumerate(results):
            assert share == list(range(7))[k % count::count]
        assert_no_children()


def test_forked_map_runs_serially_below_two_workers_or_without_fork(cpus, monkeypatch):
    for count, items in ((1, range(5)), (4, range(1)), (3, range(0))):
        cpus(count)
        results = list(forked_map(_square_and_pid, items))
        assert results == [(k * k, os.getpid()) for k in items]
    cpus(2)
    monkeypatch.delattr(os, "fork")
    assert list(forked_map(_square_and_pid, range(5))) == [
        (k * k, os.getpid()) for k in range(5)
    ]


@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("min_share", [1, 4])
def test_forked_map_forks_one_worker_per_cpu_with_min_share_items_each(cpus, count, min_share):
    cpus(count)
    for n in range(13):
        pids = {pid for _, pid in forked_map(_square_and_pid, range(n), min_share)}
        workers = min(count, n // min_share)
        assert len(pids) == (max(workers, 1) if n else 0)
        assert_no_children()


def test_forked_map_runs_serially_while_another_thread_is_alive(cpus):
    cpus(2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        results = list(forked_map(_square_and_pid, range(6)))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert results == [(k * k, os.getpid()) for k in range(6)]
    assert_no_children()
    assert len({pid for _, pid in forked_map(_square_and_pid, range(6))}) == 2


def _fail_at(bad):
    def fn(k):
        if k in bad:
            raise LomoError(f"item {k} failed")
        return k

    return fn


@pytest.mark.parametrize("bad, first", [
    ({3, 4}, 3),  # the child's error comes before the parent's
    ({4, 5}, 4),  # the parent's error comes before the child's
    ({5, 7}, 5),  # a child stops after its first failure
])
def test_forked_map_raises_the_first_error_in_item_order(cpus, bad, first):
    cpus(2)
    seen = []
    with pytest.raises(LomoError, match=f"^item {first} failed$"):
        for value in forked_map(_fail_at(bad), range(10)):
            seen.append(value)
    assert seen == list(range(first))
    assert_no_children()


def test_a_child_runs_nothing_after_its_first_failure(tmp_path, cpus):
    cpus(2)

    def fn(k):
        (tmp_path / f"ran{k}").touch()
        if k == 0:
            time.sleep(0.5)  # time for the child to run item 3 if it went on
        if k == 1:
            raise LomoError("item 1 failed")
        return k

    with pytest.raises(LomoError, match="item 1 failed"):
        list(forked_map(fn, range(4)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ran0", "ran1"]
    assert_no_children()


def test_forked_map_keeps_the_worker_traceback_of_an_unexpected_error(cpus):
    cpus(2)

    def fn(k):
        return {0: 0}[k]

    with pytest.raises(KeyError) as info:
        list(forked_map(fn, [1, 2]))
    assert info.value.args == (1,)
    assert not hasattr(info.value, "__notes__")  # item 1 failed in this process
    with pytest.raises(KeyError) as info:
        list(forked_map(fn, [0, 2]))
    assert info.value.args == (2,)
    (note,) = info.value.__notes__
    assert note.startswith("in forked worker:\nTraceback") and "return {0: 0}[k]" in note
    assert_no_children()


def test_forked_map_names_the_item_of_a_child_that_dies(cpus):
    cpus(2)

    def fn(k):
        if k == 3:
            os._exit(7)
        return k

    with pytest.raises(LomoError, match="exited without a result for item 3: 3"):
        list(forked_map(fn, range(6)))
    assert_no_children()


def test_forked_map_reports_a_result_that_does_not_pickle_as_a_dead_child(cpus):
    cpus(2)
    with pytest.raises(LomoError, match="exited without a result for item 1: 1"):
        list(forked_map(lambda k: (lambda: k), range(2)))
    assert_no_children()


def test_closing_forked_map_early_kills_and_reaps_busy_children(cpus):
    cpus(2)

    def fn(k):
        if k % 2:
            time.sleep(60)
        return k

    results = forked_map(fn, range(4))
    assert next(results) == 0
    start = time.perf_counter()
    results.close()
    assert time.perf_counter() - start < 10
    assert_no_children()


# ---------------------------------------------------------------------------
# parse_manifest


def _write_manifest(tmp_path, frames, extra_rows=()):
    rows = ["id,label,group,path"]
    for k, f in enumerate(frames):
        if f is not None:
            write_sequence(FrameSequence(f), tmp_path / f"r{k}.csv")
        rows.append(f"r{k},{'pos' if k % 2 else 'neg'},g{k % 3},r{k}.csv")
    rows += list(extra_rows)
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _bits(manifest):
    return [(r, manifest.sequences[r.id].frames.tobytes()) for r in manifest.records]


def test_forked_parse_manifest_equals_serial_bit_for_bit(tmp_path, cpus, monkeypatch):
    """On a cold cache, a warm one, and one that misses four of nine files."""
    rng = np.random.default_rng(4)
    frames = [rng.normal(size=(int(rng.integers(1, 9)), 3)) * 10.0 ** int(rng.integers(-5, 5))
              for _ in range(9)]
    path = _write_manifest(tmp_path, frames)
    cache = tmp_path / ".manifest.csv.frames"
    cpus(1)
    serial = parse_manifest(path)
    parent_reads = []
    original = lomo.data._parse

    def counting(seq_path, lines, seq_id):
        parent_reads.append(seq_id)
        return original(seq_path, lines, seq_id)

    monkeypatch.setattr(lomo.data, "_parse", counting)
    cache.unlink()
    cpus(2)
    forked = parse_manifest(path)
    assert parent_reads == ["r0", "r2", "r4", "r6", "r8"]  # a child's reads are its own
    assert forked.dim == serial.dim == 3
    assert _bits(forked) == _bits(serial)
    for n in (1, 2):
        cpus(n)
        parent_reads.clear()
        assert _bits(parse_manifest(path)) == _bits(serial)
        assert parent_reads == []
    stale = cache.read_bytes()
    for k in (1, 2, 5, 6):
        frames[k] = -frames[k]
        write_sequence(FrameSequence(frames[k]), tmp_path / f"r{k}.csv")
    cpus(1)
    parent_reads.clear()
    serial = parse_manifest(path)
    assert parent_reads == ["r1", "r2", "r5", "r6"]
    assert [bits for _, bits in _bits(serial)] == [f.tobytes() for f in frames]
    cache.write_bytes(stale)
    cpus(2)
    parent_reads.clear()
    assert _bits(parse_manifest(path)) == _bits(serial)
    assert parent_reads == ["r1", "r5"]  # the misses are dealt round-robin among themselves
    assert_no_children()


def test_forked_parse_manifest_splits_its_misses_evenly(tmp_path, monkeypatch):
    """64 misses on even rows, two CPUs and the default FORK_MIN_FILES: each
    process parses 32, as each records the pid of every parse in a file."""
    monkeypatch.setattr(lomo.core, "cpu_count", lambda: 2)
    rng = np.random.default_rng(7)
    frames = [rng.normal(size=(5, 4)) for _ in range(128)]
    path = _write_manifest(tmp_path, frames)
    settle(tmp_path.glob("r*.csv"))  # else an odd row may be written racy and miss too
    parse_manifest(path)
    for k in range(0, 128, 2):
        write_sequence(FrameSequence(-frames[k]), tmp_path / f"r{k}.csv")
    pids = tmp_path / "pids"
    original = lomo.data._parse

    def recording(seq_path, lines, seq_id):
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(seq_path, lines, seq_id)

    monkeypatch.setattr(lomo.data, "_parse", recording)
    manifest = parse_manifest(path)
    assert [manifest.sequences[f"r{k}"].frames.tobytes() for k in range(0, 128, 2)] == [
        (-frames[k]).tobytes() for k in range(0, 128, 2)]
    counts = Counter(int(pid) for pid in pids.read_text(encoding="utf-8").split())
    assert os.getpid() in counts and sorted(counts.values()) == [32, 32]
    assert_no_children()


def _errors(path, cpus):
    messages = []
    for n in (1, 2):
        cpus(n)
        with pytest.raises(LomoError) as info:
            parse_manifest(path)
        messages.append(str(info.value))
        assert_no_children()
    return messages


def test_forked_parse_manifest_raises_the_serial_error(tmp_path, cpus):
    rng = np.random.default_rng(5)
    frames = [rng.normal(size=(4, 2)) for _ in range(8)]
    path = _write_manifest(tmp_path, frames, extra_rows=["r9,pos,g0,missing.csv"])
    # a bad file in the child's share, then a bad file in the parent's,
    # then a row error: the first in row order wins
    (tmp_path / "r3.csv").write_text("1.0,x\n", encoding="utf-8")
    (tmp_path / "r4.csv").write_bytes(b"\xff\n")
    serial, forked = _errors(path, cpus)
    assert forked == serial
    assert serial.endswith("r3.csv: row 1, column 2: 'x' is not numeric")


def test_forked_parse_manifest_checks_dimensions_and_rows_in_order(tmp_path, cpus):
    rng = np.random.default_rng(6)
    frames = [rng.normal(size=(4, 2)) for _ in range(8)]
    frames[5] = rng.normal(size=(4, 3))  # in the child's share
    path = _write_manifest(tmp_path, frames, extra_rows=["r9,pos,g0,missing.csv"])
    (tmp_path / "r6.csv").write_text("oops\n", encoding="utf-8")
    serial, forked = _errors(path, cpus)
    assert forked == serial
    assert "record 'r5': dimension 3 differs from 2" in serial
    # without the bad rows before it, the row error after the files is raised
    for k in (5, 6):
        write_sequence(FrameSequence(frames[0]), tmp_path / f"r{k}.csv")
    serial, forked = _errors(path, cpus)
    assert forked == serial
    assert "record 'r9': missing sequence file 'missing.csv'" in serial


def test_forked_parse_manifest_does_not_read_past_a_bad_row(tmp_path, cpus, monkeypatch):
    rng = np.random.default_rng(7)
    path = _write_manifest(tmp_path, [rng.normal(size=(3, 2)) for _ in range(6)],
                           extra_rows=["r6,pos,g0", "r7,pos,g0,r0.csv"])
    read = []
    original = lomo.data._parse
    monkeypatch.setattr(lomo.data, "_parse",
                        lambda p, lines, i: read.append(i) or original(p, lines, i))
    for n, parent_share in ((1, 1), (2, 2)):
        cpus(n)
        read.clear()
        with pytest.raises(LomoError, match="row 8 has 3 columns, expected 4"):
            parse_manifest(path)
        assert read == [f"r{k}" for k in range(0, 6, parent_share)]
        assert_no_children()


# ---------------------------------------------------------------------------
# run_cv


def _cv_manifest(tmp_path):
    rng = np.random.default_rng(8)
    frames = []
    for k in range(24):
        f = rng.normal(scale=0.5, size=(6, 3))
        if k % 2:
            f[2] += 2.0
        frames.append(f)
    return parse_manifest(_write_manifest(tmp_path, frames))


CV_CFG = TrainConfig(num_templates=2, exclusion_t=1, max_iter=300, seed=3)


@pytest.mark.parametrize("metric", ["acc", "auc", "eer"])
def test_forked_run_cv_equals_serial_bit_for_bit(tmp_path, cpus, metric):
    manifest = _cv_manifest(tmp_path)
    folds = make_folds(manifest, "logo", seed=0)
    values = []
    for n in (1, 2):
        cpus(n)
        result = run_cv(manifest, folds, CV_CFG, metric, positive_label="pos")
        values.append(np.asarray(result.fold_values).tobytes())
        assert_no_children()
    assert values[0] == values[1]


def test_forked_run_cv_with_pca_equals_serial_bit_for_bit(tmp_path, cpus):
    # each worker sums the split moments its folds need; the fold values
    # must not depend on which worker summed them
    manifest = _cv_manifest(tmp_path)
    ids = [r.id for r in manifest.records]
    hand_built = [Fold(train_ids=tuple(ids[k:k + 14] + ids[k:k + 2]), test_ids=tuple(ids[:4]))
                  for k in range(0, 10, 2)]
    preprocess = PreprocessConfig(l2=True, pca_dim=2)
    for folds in (make_folds(manifest, "kfold", seed=0, k=3), hand_built):
        values = []
        for n in (1, 2, 3):
            cpus(n)
            result = run_cv(manifest, folds, CV_CFG, "auc", positive_label="pos",
                            preprocess=preprocess)
            values.append(np.asarray(result.fold_values).tobytes())
            assert_no_children()
        assert values[1] == values[0] and values[2] == values[0]


def test_forked_run_cv_raises_the_first_fold_error(tmp_path, cpus):
    manifest = _cv_manifest(tmp_path)
    ids = tuple(r.id for r in manifest.records)
    good = make_folds(manifest, "logo", seed=0)[0]
    empty = Fold(train_ids=ids, test_ids=())
    neg_only = tuple(r.id for r in manifest.records if r.label == "neg")
    one_class = Fold(train_ids=neg_only, test_ids=ids[:2])
    for folds, message in (
        ([good, empty, good, one_class], "fold 1: empty train or test split"),
        ([good, good, one_class, empty],
         r"fold 2: positive label 'pos' not among classes \['neg'\]"),
    ):
        for n in (1, 2):
            cpus(n)
            with pytest.raises(LomoError, match=f"^{message}$"):
                run_cv(manifest, folds, CV_CFG, "acc", positive_label="pos")
            assert_no_children()


def _cv_error_line(argv, cpus, capsys) -> str:
    """The one error line of a cv run that must exit 1 without a warning,
    the same with folds forked on two CPUs and run serially on one."""
    lines = []
    for n in (1, 2):
        cpus(n)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and "Warning" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        lines.append(line)
        assert_no_children()
    assert lines[1] == lines[0]
    return lines[0]


def test_cv_pca_overflow_exits_one_forked_and_serial(tmp_path, cpus, capsys):
    rng = np.random.default_rng(9)
    path = _write_manifest(tmp_path, [rng.normal(size=(5, 3)) * 1e200 for _ in range(12)])
    argv = ["cv", "--manifest", str(path), "--scheme", "kfold", "--folds", "2",
            "--variant", "svm-max", "--pca-dim", "2", "--positive-label", "pos"]
    assert _cv_error_line(argv, cpus, capsys) == (
        "error: fold 0: PCA fit: overflow encountered in matmul; try --l2 to normalise the frames"
    )


def test_cv_l2_overflow_exits_one_forked_and_serial(tmp_path, cpus, capsys):
    rng = np.random.default_rng(10)
    # group g0 (r0, r3, r6, r9) holds frames whose squared norms overflow
    path = _write_manifest(tmp_path, [rng.normal(size=(5, 3)) * (1e200 if k % 3 == 0 else 1.0)
                                      for k in range(12)])
    argv = ["cv", "--manifest", str(path), "--scheme", "logo", "--variant", "svm-max", "--l2",
            "--positive-label", "pos"]
    assert _cv_error_line(argv, cpus, capsys) == (
        "error: fold 0: sequence r0: overflow encountered in matmul while preprocessing"
    )


# ---------------------------------------------------------------------------
# gen_synthetic (lomo synth)

SYNTH_SPEC = SynthSpec(dim=3, num_frames=8, num_events=2, min_gap=1, num_pos=5, num_neg=4,
                       seed=12)
SYNTH_ARGV = ["--d", "3", "--n", "8", "--m-true", "2", "--min-gap", "1",
              "--pos", "5", "--neg", "4", "--seed", "12"]


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture
def parent_writes(monkeypatch):
    """Ids of the sequences write_sequence writes in this process."""
    ids = []
    original = lomo.data.write_sequence
    monkeypatch.setattr(lomo.data, "write_sequence",
                        lambda seq, path: ids.append(seq.id) or original(seq, path))
    return ids


@pytest.mark.parametrize("n", [2, 3])
def test_forked_gen_synthetic_equals_serial_byte_for_byte(tmp_path, cpus, parent_writes, n):
    cpus(1)
    serial = gen_synthetic(SYNTH_SPEC, tmp_path / "serial")
    parent_writes.clear()
    cpus(n)
    forked = gen_synthetic(SYNTH_SPEC, tmp_path / "forked")
    ids = [r.id for r in serial.records]
    assert parent_writes == ids[::n]  # a child's writes are its own
    assert len(_dir_bytes(tmp_path / "forked")) == len(ids) + 2
    assert _dir_bytes(tmp_path / "forked") == _dir_bytes(tmp_path / "serial")
    assert [r.id for r in forked.records] == ids
    assert [forked.sequences[i].frames.tobytes() for i in ids] == [
        serial.sequences[i].frames.tobytes() for i in ids
    ]
    assert_no_children()


def test_gen_synthetic_forks_only_with_fork_min_files_per_worker(
    tmp_path, cpus, parent_writes, monkeypatch
):
    monkeypatch.setattr(lomo.data, "FORK_MIN_FILES", 4)
    cpus(2)
    for num_neg, share in ((3, 1), (4, 2)):  # 7 // 4 = 1 worker, 8 // 4 = 2 workers
        parent_writes.clear()
        spec = SynthSpec(dim=2, num_frames=8, num_events=2, min_gap=1, num_pos=4,
                         num_neg=num_neg, seed=13)
        manifest = gen_synthetic(spec, tmp_path / f"n{num_neg}")
        assert parent_writes == [r.id for r in manifest.records][::share]
        assert_no_children()


@pytest.mark.parametrize("bad, first", [
    ((3, 6), 3),  # a child's failed write comes before the parent's
    ((2, 5), 2),  # the parent's failed write comes before the child's
])
def test_forked_synth_reports_the_first_write_error_and_writes_no_manifest(
    tmp_path, cpus, capsys, bad, first
):
    out = tmp_path / "data"
    out.mkdir()
    ids = [r.id for r in synth_records(SYNTH_SPEC)[0]]
    for k in bad:  # a directory where a sequence file should go
        (out / f"seq_{ids[k]}.csv").mkdir()
    messages = []
    for n in (1, 2):
        cpus(n)
        assert main(["synth", "--out", str(out), *SYNTH_ARGV]) == 1
        messages.append(capsys.readouterr().err.splitlines()[-1])
        assert not (out / "manifest.csv").exists()
        assert not (out / "spec.txt").exists()
        assert_no_children()
    assert messages[1] == messages[0]
    assert messages[0] == f"error: [Errno 21] Is a directory: '{out / f'seq_{ids[first]}.csv'}'"
