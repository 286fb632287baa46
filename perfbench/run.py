"""Benchmark of the lomo CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; it imports lomo from ./src.  One
caller drives the CLI in process through ``lomo.cli.main(argv)`` and runs
the workload's commands back to back (a closed loop).  The workload seed
makes the synthetic inputs; the program sees only the generated files.

``--trace 0`` sets up SETUP_REPEATS times, then repeats the timed commands
for about S seconds and reports the end-to-end metrics as medians; times are
in reference seconds, scaled by a calibration loop (see CALIBRATION_REF_S).
``--trace 1`` sets up once with tracing, then alternates untraced and
traced repetitions and reports per-layer metrics from the traced ones,
plus ``trace.overhead_ratio``.  Outputs are checked against a plain-Python
reference (check.py) and their SHA-256 digests against earlier runs of the
same code and seed.  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
Run records (environment, digests, metrics) are appended to
.perfbench-runs/runs.jsonl and traced spans written to
.perfbench-runs/spans-<workload>.csv.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench-runs"

SETUP_REPEATS = 3
# The CPU speed of a shared host drifts by up to 2x within minutes: on a
# 2-vCPU Xeon VM the unscaled ten-seed spread (interquartile range over
# median) of wall_s reached 0.28, against 0.13 scaled.  Each set-up and
# each untraced repetition is therefore timed between two runs of a fixed
# pure-Python calibration loop, and end-to-end times are reported in
# reference seconds: measured seconds x CALIBRATION_REF_S / (mean
# calibration time around them).  Raw seconds are printed and stored in
# the run record.
CALIBRATION_REF_S = 0.02
EXCLUSION_T = 5
# One BLAS thread keeps timings steady on a shared machine; it must not
# exceed the CPU count, which the run record stores next to it.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Input sizes per workload.  synth: flags of `lomo synth`; cv: flags of the
# timed cv.  train-order stresses SGD, latent assignment and parsing;
# cv-preprocess the l2/PCA preprocessing and cross-validation path
# (rationale.json gives the reasons and the layer each metric covers).
WORKLOADS = {
    "train-order": {
        "synth": {"pos": 400, "neg": 400, "d": 20, "n": 40, "neg_mode": "shuffled"},
    },
    "cv-preprocess": {
        "synth": {"pos": 300, "neg": 300, "d": 100, "n": 40, "neg_mode": "absent"},
        "cv": {"folds": 5, "pca_dim": 40, "max_iter": 4000},
    },
}
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Figures printed and stored with each run besides the reported metrics.
INFO_UNITS = {"wall_s_raw": "s", "setup_s_raw": "s", "train_steps_per_s": "steps/s",
              "predict_seqs_per_s": "seqs/s", "failed_ratio": "ratio", "repeats": "count",
              "setup_repeats": "count", "traced_repeats": "count"}


def _untraced(name):
    return contextlib.nullcontext()


def calibrate() -> float:
    """Median time of seven runs of a fixed pure-Python loop."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median(values):
    return statistics.median(values) if values else 0.0


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def code_digest() -> str:
    """SHA-256 over the lomo sources and this benchmark: the 'same commit' key."""
    h = hashlib.sha256()
    for base in (SRC / "lomo", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


class Run:
    """One benchmark run of one workload; counts every attempt and failure."""

    def __init__(self, lomo, name: str, sizes: dict, seed: int, work: Path):
        self.lomo = lomo
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def cli(self, argv) -> float | None:
        """Run one CLI command in process; its wall time, or None on failure."""
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.lomo.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            rc = exc.code
        except Exception:  # a crash is a failed command, not a crashed benchmark
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if self.expect(rc == 0, f"lomo {argv[0]} exited {rc}: {err.getvalue().strip()[-500:]}"):
            return elapsed
        return None

    # -- set-up --------------------------------------------------------------

    def setup(self, data: Path, trace=_untraced) -> float | None:
        """Write the inputs with `lomo synth`; its wall time or None."""
        synth = self.sizes["synth"]
        with trace("cli.synth"):
            return self.cli([
                "synth", "--out", str(data), "--d", str(synth["d"]), "--n", str(synth["n"]),
                "--m-true", "3", "--noise-sigma", "0.3", "--min-gap", "5",
                "--pos", str(synth["pos"]), "--neg", str(synth["neg"]),
                "--neg-mode", synth["neg_mode"], "--seed", str(self.seed),
            ])

    # -- timed commands --------------------------------------------------------

    def commands(self, data: Path, out: Path) -> list[tuple[str, list[str], Path]]:
        """(command, argv, output file) in run order."""
        manifest = str(data / "manifest.csv")
        if self.name == "train-order":
            model = out / "model.lomo"
            return [
                ("train", ["train", "--manifest", manifest, "--out", str(model),
                           "--positive-label", "pos", "--variant", "lomo", "--templates", "3",
                           "--exclusion-t", str(EXCLUSION_T)], model),
                ("predict", ["predict", "--manifest", manifest, "--model", str(model),
                             "--exclusion-t", str(EXCLUSION_T), "--out", str(out / "predict.csv")],
                 out / "predict.csv"),
            ]
        cv = self.sizes["cv"]
        return [("cv", [
            "cv", "--manifest", manifest, "--scheme", "kfold", "--folds", str(cv["folds"]),
            "--metric", "eer", "--positive-label", "pos", "--variant", "svm-max", "--l2",
            "--pca-dim", str(cv["pca_dim"]), "--max-iter", str(cv["max_iter"]),
            "--out", str(out / "cv.csv"),
        ], out / "cv.csv")]

    def iteration(self, data: Path, out: Path, trace=_untraced) -> tuple[dict, dict] | None:
        """Run the timed commands once: ({command: seconds}, {command: digest})."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        times, digests = {}, {}
        for command, argv, output in self.commands(data, out):
            with trace(f"cli.{command}"):
                elapsed = self.cli(argv)
            if elapsed is None:
                return None
            times[command] = elapsed
            digests[command] = _sha256(output)
        return times, digests

    # -- output checks ---------------------------------------------------------

    def check_outputs(self, data: Path, out: Path) -> None:
        try:
            if self.name == "cv-preprocess":
                attempted, failures = check.check_cv(out / "cv.csv", self.sizes["cv"]["folds"], "eer")
            else:
                model = self.lomo.load_model(out / "model.lomo")
                attempted, failures = check.check_predict(
                    out / "predict.csv", data / "manifest.csv",
                    [(model.templates.tolist(), model.costs.tolist())], EXCLUSION_T)
        except (OSError, ValueError) as exc:
            attempted, failures = 1, [f"output check raised {exc!r}"]
        self.attempted += attempted
        self.failures += failures


def _compare_digests(run: Run, reference: dict | None, digests: dict, what: str) -> dict:
    if reference is None:
        return digests
    run.expect(digests == reference, f"{what}: digests {digests} differ from {reference}")
    return reference


def _set_up(run: Run, tracer=None) -> tuple[list, list]:
    """Set up into work/data0, data1, ... and keep only data0; once when traced.

    Returns the set-up wall times (None for a failed one) and the speed
    scale of each.
    """
    times, scales = [], []
    trace = tracer.recording if tracer is not None else _untraced
    before = calibrate()
    for i in range(1 if tracer is not None else SETUP_REPEATS):
        data = run.work / f"data{i}"
        times.append(run.setup(data, trace))
        if times[-1] is None:
            break
        after = calibrate()
        scales.append(2 * CALIBRATION_REF_S / (before + after))
        before = after
        if i:
            shutil.rmtree(data)
    return times, scales


def _measure(run: Run, data: Path, seconds: float, tracer=None):
    """Repeat the timed commands for about `seconds`; with a tracer, in
    untraced/traced pairs.  Returns the untraced times, their speed scales,
    the traced (times, span range) pairs and the output digests."""
    untraced, scales, traced = [], [], []
    reference = None
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        before = calibrate()
        result = run.iteration(data, run.work / "out")
        if result is None:
            break
        untraced.append(result[0])
        scales.append(2 * CALIBRATION_REF_S / (before + calibrate()))
        reference = _compare_digests(run, reference, result[1], "repeat")
        if tracer is not None:
            first = len(tracer)
            result = run.iteration(data, run.work / "out", tracer.recording)
            if result is None:
                break
            traced.append((result[0], (first, len(tracer))))
            reference = _compare_digests(run, reference, result[1], "traced repeat")
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break
    return untraced, scales, traced, reference or {}


def _load_records(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_workload(lomo, name: str, seed: int, seconds: float, trace: bool, *,
                 runs_dir: Path = RUNS_DIR, sizes: dict | None = None,
                 import_s: float = 0.0) -> dict:
    """Run one workload and return its run record (see the module docstring)."""
    sizes = sizes or WORKLOADS[name]
    runs_dir.mkdir(parents=True, exist_ok=True)
    work = runs_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(lomo, name, sizes, seed, work)
    tracer = tracing.Tracer() if trace else None
    info: dict = {}
    samples: dict = {}
    metrics: dict = {}
    digests: dict = {}
    try:
        data = work / "data0"
        setup_times, setup_scales = _set_up(run, tracer)
        setup_spans = (0, len(tracer) if tracer is not None else 0)
        if None not in setup_times:
            untraced, scales, traced, digests = _measure(run, data, seconds, tracer)
            info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            walls = [sum(t.values()) for t in untraced]
            samples = {"setup_s": setup_times, "setup_scale": setup_scales,
                       "wall_s": walls, "wall_scale": scales}
            info["repeats"] = len(untraced)
            info["wall_s_raw"] = _median(walls)
            info["wall_s"] = _median([w * k for w, k in zip(walls, scales)])
            for command in (untraced[0] if untraced else {}):
                info[f"{command}_s"] = _median([t[command] * k for t, k in zip(untraced, scales)])
            if "train_s" in info:
                steps = 100 * (sizes["synth"]["pos"] + sizes["synth"]["neg"])
                info["train_steps_per_s"] = steps / info["train_s"]
            if "predict_s" in info:
                seqs = sizes["synth"]["pos"] + sizes["synth"]["neg"]
                info["predict_seqs_per_s"] = seqs / info["predict_s"]
            if untraced and (tracer is None or traced):
                run.check_outputs(data, work / "out")
            if tracer is None:
                info["setup_s_raw"] = import_s + _median(setup_times)
                info["setup_s"] = (import_s * setup_scales[0]
                                   + _median([t * k for t, k in zip(setup_times, setup_scales)]))
                info["setup_repeats"] = len(setup_times)
                metrics = {k: info[k] for k in END_TO_END if k in info}
            elif traced:
                per_iter = [tracer.summarize([setup_spans, rng]) for _, rng in traced]
                metrics = {k: _median([s[k] for s in per_iter]) for k in per_iter[0]}
                traced_wall = _median([sum(t.values()) for t, _ in traced])
                metrics[tracing.OVERHEAD_METRIC] = traced_wall / info["wall_s_raw"]
                info["traced_repeats"] = len(traced)
                tracer.write_csv(runs_dir / f"spans-{name}.csv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    key = {"code_sha256": code_digest(), "workload": name, "seed": seed, "sizes": sizes}
    for earlier in _load_records(runs_dir / "runs.jsonl"):
        if {k: earlier.get(k) for k in key} == key and earlier.get("digests") and digests:
            run.expect(earlier["digests"] == digests,
                       f"digests {digests} differ from an earlier run {earlier['digests']}")
            break
    expected = list(tracing.layer_metric_names() if trace else END_TO_END)
    run.expect(sorted(metrics) == sorted(expected), f"metrics {sorted(metrics)} incomplete")
    info["failed_ratio"] = len(run.failures) / run.attempted
    record = {
        **key,
        "trace": bool(trace),
        "seconds": seconds,
        "commit": git_commit(),
        "env": environment(),
        "digests": digests,
        "info": info,
        "samples": samples,
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "metrics": metrics,
    }
    with open(runs_dir / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def result_line(record: dict) -> str:
    units = {**END_TO_END, **{n: tracing.metric_unit(n) for n in tracing.layer_metric_names()}}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def report(record: dict) -> str:
    env = record["env"]
    lines = [
        f"perfbench workload={record['workload']} seed={record['seed']} "
        f"trace={int(record['trace'])} commit={record['commit']} "
        f"code_sha256={record['code_sha256'][:16]}",
        f"env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} blas_threads={env['blas_threads']}",
        f"inputs {json.dumps(record['sizes'], sort_keys=True)}",
    ]
    for key, value in record["info"].items():
        lines.append(f"  {key:<22} {value:.6g} {INFO_UNITS.get(key, END_TO_END.get(key, 's'))}")
    if record["trace"]:
        for key, value in record["metrics"].items():
            lines.append(f"  {key:<40} {value:.6g} {tracing.metric_unit(key)}")
    for key, digest in record["digests"].items():
        lines.append(f"  sha256 {key:<15} {digest}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "lomo" / "__init__.py").is_file():
        print(f"perfbench: no lomo sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lomo
    import lomo.cli

    import_s = time.perf_counter() - t0
    if Path(lomo.__file__).resolve().parent != SRC / "lomo":
        print(f"perfbench: imported lomo from {lomo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = run_workload(lomo, args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s)
    print(report(record))
    print(result_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
