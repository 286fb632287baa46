"""Time `lomo train` in process on a synthetic set: CPU time per training run.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/train_timings.py
        [--dim D] [--files FILES] [--frames N] [--templates M] [--exclusion-t T]
        [--runs R] [--seed S]

It writes FILES sequence files of N frames at dimension D, half `pos` and
half `neg` with the planted events shuffled in the negatives, with
lomo.gen_synthetic into a temporary directory. The defaults, 800 files of
40 frames at d=20, are the benchmark's train-order set. On it, it runs the
benchmark's train command through lomo.cli.main: `--variant lomo
--templates M --exclusion-t T` (defaults 3 and 5), 100 SGD steps per
sequence. One untimed run fills the frame cache; then each of R runs is
timed as this process's CPU time (time.process_time), which a small shared
machine moves less than wall time. Run it on one BLAS thread, as the
benchmark does, or the CPU time counts the BLAS threads.

It prints the median and interquartile range in milliseconds, then one JSON
line with the same figures. The set, the timed runner and the summary are
tools/cv_timings.py's.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from cv_timings import run_cli, summary, write_set


def train_argv(manifest: Path, out: Path, templates: int, exclusion_t: int) -> list[str]:
    """The benchmark's train-order train command on `manifest`, writing `out`."""
    return ["train", "--manifest", str(manifest), "--out", str(out), "--positive-label", "pos",
            "--variant", "lomo", "--templates", str(templates), "--exclusion-t", str(exclusion_t)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=20, help="feature dimension")
    parser.add_argument("--files", type=int, default=800, help="sequence files in the set")
    parser.add_argument("--frames", type=int, default=40, help="frames per sequence file")
    parser.add_argument("--templates", type=int, default=3, help="templates M of the model")
    parser.add_argument("--exclusion-t", type=int, default=5, help="exclusion window t")
    parser.add_argument("--runs", type=int, default=9, help="timed runs")
    parser.add_argument("--seed", type=int, default=1, help="lomo synth seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="train-timings-") as tmp:
        work = Path(tmp)
        manifest = write_set(work, args.dim, args.files, args.frames, "shuffled", args.seed)
        cmd = train_argv(manifest, work / "model.lomo", args.templates, args.exclusion_t)
        run_cli(cmd, time.process_time)  # fills the frame cache; first-use costs fall outside
        got = summary([run_cli(cmd, time.process_time) for _ in range(args.runs)])
    print(f"d={args.dim} files={args.files} frames={args.frames} templates={args.templates} "
          f"exclusion_t={args.exclusion_t} runs={args.runs}")
    print(f"  train_cpu  median {got['median_ms']:8.2f} ms  IQR {got['iqr_ms']:7.2f} ms")
    print(json.dumps({"train_cpu": got}, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
