"""Time `lomo cv` in process on a synthetic set: serial CPU time and forked wall time.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/cv_timings.py
        [--dim D] [--files FILES] [--frames N] [--pca-dim K] [--runs R] [--seed S]

It writes FILES sequence files of N frames at dimension D, half `pos` and
half `neg` with planted events absent from the negatives, with
lomo.gen_synthetic into a temporary directory. The defaults, 600 files of
40 frames at d=100, are the benchmark's cv-preprocess set. On it, it runs
the benchmark's cv command through lomo.cli.main: grouped 5-fold, `eer`,
`svm-max`, `--l2`, `--pca-dim K` (default 40) and `--max-iter 4000`. One
untimed run fills the frame cache; then each of R rounds times two runs:

- serial: lomo.core.cpu_count patched to 1, so every fold runs in this
  process; the figure is this process's CPU time (time.process_time);
- forked: the folds on one worker per CPU; the figure is wall time.

Serial CPU time is the steadier figure on a small shared machine: on two
vCPUs, two processes got 1.0 to 1.7 times the throughput of one, varying
from run to run, which moves the forked wall time. Run it on one BLAS
thread, as the benchmark does, or the CPU time counts the BLAS threads.

It prints the median and interquartile range of each figure in
milliseconds, then one JSON line with the same figures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

import lomo
import lomo.cli
import lomo.core

FIGURES = ("serial_cpu", "forked_wall")


def cv_argv(manifest: Path, out: Path, pca_dim: int) -> list[str]:
    """The benchmark's cv-preprocess command on `manifest`, writing `out`."""
    return ["cv", "--manifest", str(manifest), "--scheme", "kfold", "--folds", "5",
            "--metric", "eer", "--positive-label", "pos", "--variant", "svm-max", "--l2",
            "--pca-dim", str(pca_dim), "--max-iter", "4000", "--out", str(out)]


def run_cli(argv: list[str], clock) -> float:
    """Seconds of `clock` that one `lomo` command takes; its stderr is dropped."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        start = clock()
        code = lomo.cli.main(argv)
        took = clock() - start
    if code != 0:
        raise SystemExit(f"lomo {argv[0]} exited {code}: {err.getvalue().strip()}")
    return took


def write_set(work: Path, dim: int, files: int, frames: int, neg_mode: str, seed: int) -> Path:
    """The manifest of a synthetic set written under `work`, half `pos` and half `neg`."""
    spec = lomo.SynthSpec(dim=dim, num_frames=frames, num_pos=files - files // 2,
                          num_neg=files // 2, neg_mode=neg_mode, seed=seed)
    lomo.gen_synthetic(spec, work / "data")
    return work / "data" / "manifest.csv"


def time_cv(work: Path, dim: int, files: int, frames: int, pca_dim: int, runs: int,
            seed: int) -> dict:
    """{figure: [seconds per run]} for one synthetic set written under `work`."""
    argv = cv_argv(write_set(work, dim, files, frames, "absent", seed), work / "cv.csv", pca_dim)
    run_cli(argv, time.perf_counter)  # fills the frame cache; first-use costs fall outside
    times: dict[str, list[float]] = {figure: [] for figure in FIGURES}
    for _ in range(runs):
        with mock.patch.object(lomo.core, "cpu_count", lambda: 1):
            times["serial_cpu"].append(run_cli(argv, time.process_time))
        times["forked_wall"].append(run_cli(argv, time.perf_counter))
    return times


def summary(times: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
    return {"median_ms": round(float(median), 2), "iqr_ms": round(float(q3 - q1), 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=100, help="feature dimension")
    parser.add_argument("--files", type=int, default=600, help="sequence files in the set")
    parser.add_argument("--frames", type=int, default=40, help="frames per sequence file")
    parser.add_argument("--pca-dim", type=int, default=40, help="PCA dimension of the cv")
    parser.add_argument("--runs", type=int, default=9, help="timed rounds")
    parser.add_argument("--seed", type=int, default=1, help="lomo synth seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cv-timings-") as tmp:
        times = time_cv(Path(tmp), args.dim, args.files, args.frames, args.pca_dim, args.runs,
                        args.seed)
    results = {figure: summary(times[figure]) for figure in FIGURES}
    print(f"d={args.dim} files={args.files} frames={args.frames} pca_dim={args.pca_dim} "
          f"runs={args.runs}")
    for figure in FIGURES:
        got = results[figure]
        print(f"  {figure:11}  median {got['median_ms']:8.2f} ms  IQR {got['iqr_ms']:7.2f} ms")
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
