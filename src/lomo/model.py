"""Model parameters, permutation indexing, and text serialization.

A model is M template vectors plus a dense table of M! ordering costs.
The cost table is indexed by the 1-based lexicographic rank of the rank
pattern of the chosen frames (Lehmer-code ranking), so (1,..,M) maps to
index 1 and the reverse pattern to index M!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LomoError,
    _shown,
    format_float,
    read_text,
    real_array,
    require_instance,
    require_int,
    require_iterable,
    too_large,
    write_text,
)

MAX_TEMPLATES = 8  # dense cost table; 8! = 40320 entries is the ceiling

MODEL_FORMAT_VERSION = "LOMO v1"


@dataclass(eq=False)
class LomoModel:
    """Parameter set: templates (M, d) and ordering costs (M!,)."""

    templates: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        self.templates = real_array("templates", self.templates)
        self.costs = real_array("costs", self.costs)
        if self.templates.ndim != 2:
            raise LomoError(
                f"templates must be 2-dimensional (M, d), got shape {self.templates.shape}"
            )
        m, d = self.templates.shape
        require_order_size("number of templates", m)
        if d < 1:
            raise LomoError("template dimension must be >= 1")
        if self.costs.shape != (math.factorial(m),):
            raise LomoError(
                f"cost table must have length {math.factorial(m)} for M={m}, "
                f"got {self.costs.shape[0] if self.costs.ndim == 1 else self.costs.shape}"
            )
        if not np.isfinite(self.templates).all() or not np.isfinite(self.costs).all():
            raise LomoError("model parameters must be finite")

    @property
    def num_templates(self) -> int:
        return self.templates.shape[0]

    @property
    def dim(self) -> int:
        return self.templates.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, LomoModel):
            return NotImplemented
        return np.array_equal(self.templates, other.templates) and np.array_equal(
            self.costs, other.costs
        )


def require_order_size(name: str, m) -> int:
    """`m` as an int in 1..MAX_TEMPLATES, the order lengths a cost table
    indexes; anything else raises a LomoError naming `name`. Models, the
    training and synth configs and the permutation helpers bound M here."""
    m = require_int(name, m, minimum=1)
    if m > MAX_TEMPLATES:
        raise LomoError(f"{name} must be at most {MAX_TEMPLATES}")
    return m


def _order_entries(arg: str, values, entry: str) -> list[int]:
    """The entries of the order `arg` as ints, each checked as `entry`.
    Reading stops one entry past MAX_TEMPLATES, so an order too long to
    index costs no more than that."""
    entries = itertools.islice(require_iterable(arg, values), MAX_TEMPLATES + 1)
    return [require_int(entry, v) for v in entries]


def rank_pattern(k) -> tuple[int, ...]:
    """Rank of each chosen frame index among all chosen indices (1-based).

    rank_i = 1 + |{j : k_j < k_i}|; requires 1..MAX_TEMPLATES distinct indices.
    """
    ks = _order_entries("k", k, "frame index")
    if len(ks) == 0:
        raise LomoError("rank_pattern needs at least one index")
    require_order_size("number of frame indices", len(ks))
    if any(v < 1 for v in ks):
        raise LomoError(f"frame indices must be >= 1, got {_shown(ks, str)}")
    if len(set(ks)) != len(ks):
        raise LomoError(f"duplicate frame indices in {_shown(ks, str)}")
    return tuple(1 + sum(other < v for other in ks) for v in ks)


def _check_permutation(p) -> list[int]:
    ps = _order_entries("p", p, "permutation entry")
    require_order_size("number of permutation entries", len(ps))
    if sorted(ps) != list(range(1, len(ps) + 1)):
        raise LomoError(f"{_shown(tuple(ps), str)} is not a permutation of 1..{len(ps)}")
    return ps


def perm_index(p) -> int:
    """1-based lexicographic rank of a permutation of (1..M), M <= MAX_TEMPLATES,
    via Lehmer code."""
    ps = _check_permutation(p)
    m = len(ps)
    index = 0
    for i, v in enumerate(ps):
        smaller_after = sum(1 for w in ps[i + 1 :] if w < v)
        index += smaller_after * math.factorial(m - 1 - i)
    return index + 1


class OrderCodes(dict):
    """perm_index(rank_pattern(k)) - 1, the 0-based cost index of M distinct
    picks k, keyed by their comparison code.

    The code of k_1..k_M starts at 0; for i = 2..M and, within i, for
    j = 1..i-1, it appends one bit, k_i < k_j: code = 2 * code + (k_i < k_j).
    The bits fix the rank pattern of distinct picks, so each of the at most
    M! codes is decoded and ranked once, on first use.
    """

    def __init__(self, m: int):
        super().__init__()
        self.m = m

    def __missing__(self, code: int) -> int:
        m, rest = self.m, code
        ranks = [1] * m
        for i in reversed(range(1, m)):
            for j in reversed(range(i)):
                ranks[j if rest & 1 else i] += 1  # the larger pick's rank counts the smaller
                rest >>= 1
        index = self[code] = perm_index(ranks) - 1
        return index

    def indices(self, picks: np.ndarray) -> np.ndarray:
        """The 0-based cost index of each row of an (n, M) array of distinct
        picks: the rows' codes, built with one `<` per pick pair over the
        whole array, looked up in this table."""
        codes = np.zeros(len(picks), dtype=np.intp)
        for i in range(1, self.m):
            for j in range(i):
                codes = 2 * codes + (picks[:, i] < picks[:, j])
        return np.array([self[code] for code in codes.tolist()], dtype=np.intp)


# The tables that training and scoring look orders up in, one per M: a
# code's index never changes, so every model can share them.
ORDER_CODES = {m: OrderCodes(m) for m in range(1, MAX_TEMPLATES + 1)}


def perm_unrank(index: int, m: int) -> tuple[int, ...]:
    """Inverse of perm_index: the permutation of (1..m) with the given rank."""
    m = require_order_size("m", m)
    index = require_int("permutation index", index)
    total = math.factorial(m)
    if not 1 <= index <= total:
        raise LomoError(f"permutation index {_shown(index, str)} out of range 1..{total} for M={m}")
    remaining = list(range(1, m + 1))
    code = index - 1
    out = []
    for i in range(m):
        f = math.factorial(m - 1 - i)
        pos, code = divmod(code, f)
        out.append(remaining.pop(pos))
    return tuple(out)


def init_model(d: int, m: int, rng: np.random.Generator) -> LomoModel:
    """Fresh model: template entries 0.01*uniform[0,1), costs exactly zero."""
    d = require_int("dimension", d, minimum=1)
    m = require_order_size("number of templates", m)
    require_instance("rng", rng, np.random.Generator)
    with too_large("dimension", d):
        templates = 0.01 * rng.random((m, d))
    costs = np.zeros(math.factorial(m))
    return LomoModel(templates, costs)


def save_model(model: LomoModel, path) -> None:
    """Write the versioned plain-text model file (LF endings, exact decimals)."""
    require_instance("model", model, LomoModel)
    lines = [
        MODEL_FORMAT_VERSION,
        f"M={model.num_templates} d={model.dim}",
        "costs " + " ".join(format_float(c) for c in model.costs),
    ]
    for i in range(model.num_templates):
        lines.append(f"w{i + 1} " + " ".join(format_float(v) for v in model.templates[i]))
    write_text(path, "\n".join(lines) + "\n")


def _parse_floats(tokens: list[str], line_no: int) -> np.ndarray:
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise LomoError(f"line {line_no}: non-numeric token {tok!r}") from None
    out = np.array(values, dtype=np.float64)
    if not np.isfinite(out).all():
        raise LomoError(f"line {line_no}: non-finite value")
    return out


def load_model(path) -> LomoModel:
    """Parse a model file, validating structure with line-numbered errors."""
    lines = read_text(path).splitlines()
    if not lines:
        raise LomoError("line 1: empty model file")
    if lines[0] != MODEL_FORMAT_VERSION:
        if lines[0].startswith("LOMO v"):
            raise LomoError(
                f"line 1: unsupported version {lines[0]!r}, expected {MODEL_FORMAT_VERSION!r}"
            )
        raise LomoError(f"line 1: malformed header {lines[0]!r}")
    if len(lines) < 2:
        raise LomoError("line 2: missing dimensions line")
    parts = lines[1].split()
    if len(parts) != 2 or not parts[0].startswith("M=") or not parts[1].startswith("d="):
        raise LomoError(f"line 2: expected 'M=<int> d=<int>', got {lines[1]!r}")
    try:
        m = int(parts[0][2:])
        d = int(parts[1][2:])
    except ValueError:
        raise LomoError(f"line 2: expected 'M=<int> d=<int>', got {lines[1]!r}") from None
    if m < 1 or m > MAX_TEMPLATES or d < 1:
        raise LomoError(f"line 2: invalid dimensions M={m} d={d}")
    expected_lines = 3 + m
    if len(lines) != expected_lines:
        raise LomoError(
            f"line {min(len(lines), expected_lines) + 1}: expected {expected_lines} lines "
            f"for M={m}, got {len(lines)}"
        )
    costs_parts = lines[2].split(" ")
    if costs_parts[0] != "costs":
        raise LomoError(f"line 3: expected 'costs ...', got {lines[2]!r}")
    costs = _parse_floats(costs_parts[1:], 3)
    if costs.shape[0] != math.factorial(m):
        raise LomoError(
            f"line 3: cost table has {costs.shape[0]} entries, expected {math.factorial(m)}"
        )
    templates = []
    for i in range(m):
        line_no = 4 + i
        row_parts = lines[3 + i].split(" ")
        if row_parts[0] != f"w{i + 1}":
            raise LomoError(f"line {line_no}: expected 'w{i + 1} ...', got {lines[3 + i]!r}")
        row = _parse_floats(row_parts[1:], line_no)
        if row.shape[0] != d:
            raise LomoError(f"line {line_no}: template has {row.shape[0]} values, expected {d}")
        templates.append(row)
    return LomoModel(np.array(templates), costs)
