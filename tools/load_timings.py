"""Time parse_manifest on a synthetic set with a cold, a stale, a warm and a copied frame cache.

    PYTHONPATH=src python3 tools/load_timings.py [--set D:FILES ...] [--frames N]
                                                  [--runs R] [--seed S]

For each set (default 20:800 and 100:600, the sizes of the benchmark's
train-order and cv-preprocess workloads) it writes FILES sequence files of
N frames at dimension D with lomo.gen_synthetic into a temporary directory,
loads the manifest once untimed, and then runs R rounds of four timed
loads, each one call of lomo.parse_manifest in this process:

- cold: no frame cache beside the manifest;
- stale: every sequence file rewritten with other frames (each value
  negated) since the cache was written, so no file matches its row;
- warm: on the cache the stale load wrote, every file unchanged since;
- copied: the first load of a copy of the set and its cache, made with
  shutil.copytree: every copied file has another inode and path, so none
  matches its row.

Before the stale load it waits until the file system clock has passed the
rewritten files' change times: a file changed in the same clock tick as a
load is parsed again by the next load, and the warm load would then time
that parse. The waits and the copies are not timed.

It prints, per set and cache, the median and interquartile range of the
load times in milliseconds, then one JSON line with the same figures. The
benchmark (perfbench/) times warm loads only; this script shows what a
cold, stale or copied load costs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

import lomo
from lomo.framecache import _cache_path

CACHES = ("cold", "stale", "warm", "copied")


def _settle(directory: Path, paths) -> None:
    """Return once a new file in `directory` gets a change time later than
    that of every file in `paths`."""
    newest = max(os.stat(p).st_ctime_ns for p in paths)
    probe = directory / ".load-timings-probe"
    while True:
        probe.write_bytes(b"")
        changed = probe.stat().st_ctime_ns
        probe.unlink()
        if changed > newest:
            return
        time.sleep(0.001)


def _timed_load(manifest: Path) -> float:
    start = time.perf_counter()
    lomo.parse_manifest(manifest)
    return time.perf_counter() - start


def time_set(work: Path, dim: int, files: int, frames: int, runs: int, seed: int) -> dict:
    """{cache: [seconds per run]} for one synthetic set written under `work`."""
    spec = lomo.SynthSpec(dim=dim, num_frames=frames, num_pos=files - files // 2,
                          num_neg=files // 2, seed=seed)
    data, copy = work / "data", work / "copy"
    written = lomo.gen_synthetic(spec, data)
    manifest = data / "manifest.csv"
    paths = [rec.path for rec in written.records]
    versions = [[written.sequences[rec.id] for rec in written.records]]
    versions.append([lomo.FrameSequence(-seq.frames, id=seq.id) for seq in versions[0]])
    current = 0
    _settle(data, paths)
    lomo.parse_manifest(manifest)  # imports and first-use costs fall outside the timings
    times: dict[str, list[float]] = {cache: [] for cache in CACHES}
    for _ in range(runs):
        Path(_cache_path(manifest)).unlink(missing_ok=True)
        times["cold"].append(_timed_load(manifest))
        current = 1 - current
        for seq, path in zip(versions[current], paths):
            lomo.write_sequence(seq, path)
        _settle(data, paths)
        times["stale"].append(_timed_load(manifest))
        times["warm"].append(_timed_load(manifest))
        shutil.copytree(data, copy)
        times["copied"].append(_timed_load(copy / "manifest.csv"))
        shutil.rmtree(copy)
    return times


def summary(times: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
    return {"median_ms": round(float(median), 2), "iqr_ms": round(float(q3 - q1), 2)}


def _size(text: str) -> tuple[int, int]:
    dim, _, files = text.partition(":")
    return int(dim), int(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="sets", action="append", type=_size, metavar="D:FILES",
                        help="dimension and file count of one set (repeatable; "
                             "default 20:800 and 100:600)")
    parser.add_argument("--frames", type=int, default=40, help="frames per sequence file")
    parser.add_argument("--runs", type=int, default=9, help="timed rounds per set")
    parser.add_argument("--seed", type=int, default=1, help="lomo synth seed")
    args = parser.parse_args(argv)
    results = {}
    for dim, files in args.sets or [(20, 800), (100, 600)]:
        with tempfile.TemporaryDirectory(prefix="load-timings-") as tmp:
            times = time_set(Path(tmp), dim, files, args.frames, args.runs, args.seed)
        name = f"d{dim}x{files}"
        results[name] = {cache: summary(times[cache]) for cache in CACHES}
        print(f"d={dim} files={files} frames={args.frames} runs={args.runs}")
        for cache in CACHES:
            got = results[name][cache]
            print(f"  {cache:6}  median {got['median_ms']:8.2f} ms  IQR {got['iqr_ms']:7.2f} ms")
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
