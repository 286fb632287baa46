"""Independent checks of lomo's CLI outputs, written in plain Python.

The reference scorer re-derives every predict score from the model
parameters and the sequence files without numpy or any lomo code: greedy
per-template first-occurrence argmax with a closed ±t exclusion window,
the rank pattern of the chosen frames, its Lehmer index into the cost
table, and the mean over templates plus the ordering cost; late fusion is
the mean over models.  Each check function returns (attempted, failures).
"""

from __future__ import annotations

import math
import os
from operator import mul

SCORE_TOLERANCE = 1e-9
MEAN_TOLERANCE = 1e-12


def read_manifest(path) -> list[tuple[str, str, str, str]]:
    """(id, label, group, absolute sequence path) per manifest row."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    rows = []
    for line in lines:
        if line:
            rec_id, label, group, rel = line.split(",")
            rows.append((rec_id, label, group, os.path.join(base, rel)))
    return rows


def read_frames(path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        return [[float(x) for x in line.split(",")] for line in fh.read().splitlines() if line]


def lehmer_index(ranks) -> int:
    """0-based lexicographic rank of a permutation of 1..M."""
    m = len(ranks)
    return sum(
        sum(1 for w in ranks[i + 1:] if w < v) * math.factorial(m - 1 - i)
        for i, v in enumerate(ranks)
    )


def reference_score(templates, costs, frames, exclusion_t: int) -> float:
    """Score of one sequence under one model (templates/costs as lists)."""
    n = len(frames)
    alive = [True] * n
    chosen, scores = [], []
    for w in templates:
        row = [sum(map(mul, frame, w)) for frame in frames]
        candidates = [f for f in range(n) if alive[f]]
        if not candidates:
            raise ValueError(f"{n} frames cannot supply {len(templates)} picks")
        best = max(candidates, key=row.__getitem__)  # max keeps the first maximum
        chosen.append(best + 1)
        scores.append(row[best])
        for f in range(max(0, best - exclusion_t), min(n, best + exclusion_t + 1)):
            alive[f] = False
    ranks = [1 + sum(1 for other in chosen if other < k) for k in chosen]
    return sum(scores) / len(scores) + costs[lehmer_index(ranks)]


def check_predict(csv_path, manifest_path, models, exclusion_t: int) -> tuple[int, list[str]]:
    """Every row: id in manifest order, fused score within tolerance, decision = sign.

    `models` is a list of (templates, costs) pairs of plain lists.
    """
    rows = read_manifest(manifest_path)
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    failures = []
    if not lines or lines[0] != "id,score,decision":
        failures.append(f"{csv_path}: bad header {lines[:1]}")
    body = lines[1:]
    if len(body) != len(rows):
        failures.append(f"{csv_path}: {len(body)} rows for {len(rows)} sequences")
    for line, (rec_id, _, _, seq_path) in zip(body, rows):
        got_id, score_text, decision_text = line.split(",")
        got = float(score_text)
        frames = read_frames(seq_path)
        want = sum(reference_score(t, c, frames, exclusion_t) for t, c in models) / len(models)
        if got_id != rec_id:
            failures.append(f"row {rec_id}: id {got_id!r}")
        elif abs(got - want) > SCORE_TOLERANCE:
            failures.append(f"row {rec_id}: score {got!r}, reference {want!r}")
        elif int(decision_text) != (1 if got > 0 else -1):
            failures.append(f"row {rec_id}: decision {decision_text} for score {got!r}")
    return 2 + min(len(body), len(rows)), failures


def check_cv(csv_path, folds: int, metric: str) -> tuple[int, list[str]]:
    """One row per fold, values in [0, 1], and a mean row equal to their mean."""
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    failures = []
    if not lines or lines[0] != "fold,metric,value":
        failures.append(f"{csv_path}: bad header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    expected = [str(i) for i in range(folds)] + ["mean"]
    if [r[0] for r in rows] != expected:
        failures.append(f"{csv_path}: fold column {[r[0] for r in rows]}, expected {expected}")
        return 2, failures
    values = []
    for fold, got_metric, text in rows:
        value = float(text)
        values.append(value)
        if got_metric != metric or not 0.0 <= value <= 1.0:
            failures.append(f"fold {fold}: {got_metric}={text}")
    mean = math.fsum(values[:-1]) / folds
    if abs(values[-1] - mean) > MEAN_TOLERANCE:
        failures.append(f"mean row {values[-1]!r}, mean of folds {mean!r}")
    return 3 + len(rows), failures
