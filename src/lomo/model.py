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

from .core import LomoError, Rng, format_float, read_text, real_array, require_int, write_text

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
        if m < 1:
            raise LomoError("model needs at least one template")
        if m > MAX_TEMPLATES:
            raise LomoError(f"model supports at most {MAX_TEMPLATES} templates, got {m}")
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


def _require_order_size(name: str, m) -> int:
    """`m` as an int in 1..MAX_TEMPLATES, the order lengths a cost table
    indexes; anything else raises a LomoError naming `name`."""
    m = require_int(name, m, minimum=1)
    if m > MAX_TEMPLATES:
        raise LomoError(f"{name} must be at most {MAX_TEMPLATES}")
    return m


def _order_entries(name: str, values) -> list[int]:
    """The entries of an order as ints. Reading stops one entry past
    MAX_TEMPLATES, so an order too long to index costs no more than that."""
    return [require_int(name, v) for v in itertools.islice(values, MAX_TEMPLATES + 1)]


def rank_pattern(k) -> tuple[int, ...]:
    """Rank of each chosen frame index among all chosen indices (1-based).

    rank_i = 1 + |{j : k_j < k_i}|; requires 1..MAX_TEMPLATES distinct indices.
    """
    ks = _order_entries("frame index", k)
    if len(ks) == 0:
        raise LomoError("rank_pattern needs at least one index")
    _require_order_size("number of frame indices", len(ks))
    if any(v < 1 for v in ks):
        raise LomoError(f"frame indices must be >= 1, got {ks}")
    if len(set(ks)) != len(ks):
        raise LomoError(f"duplicate frame indices in {ks}")
    return tuple(1 + sum(other < v for other in ks) for v in ks)


def _check_permutation(p) -> list[int]:
    ps = _order_entries("permutation entry", p)
    _require_order_size("number of permutation entries", len(ps))
    if sorted(ps) != list(range(1, len(ps) + 1)):
        raise LomoError(f"{tuple(ps)} is not a permutation of 1..{len(ps)}")
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


class PermTable(dict):
    """perm_index(rank_pattern(k)) keyed by the argsort order of picks k.

    The rank pattern of distinct picks depends only on their argsort
    order, so each of the at most M! orders is ranked once, on first use;
    the ranks an order gives are their own rank pattern.
    """

    def __missing__(self, order: tuple[int, ...]) -> int:
        ranks = [0] * len(order)
        for rank, pos in enumerate(order, start=1):
            ranks[pos] = rank
        index = self[order] = perm_index(ranks)
        return index


# The one table that training and scoring look orders up in: an order's
# index never changes, so every model and every M can share it.
ORDER_INDEX = PermTable()


def perm_unrank(index: int, m: int) -> tuple[int, ...]:
    """Inverse of perm_index: the permutation of (1..m) with the given rank."""
    m = _require_order_size("m", m)
    index = require_int("permutation index", index)
    total = math.factorial(m)
    if not 1 <= index <= total:
        raise LomoError(f"permutation index {index} out of range 1..{total} for M={m}")
    remaining = list(range(1, m + 1))
    code = index - 1
    out = []
    for i in range(m):
        f = math.factorial(m - 1 - i)
        pos, code = divmod(code, f)
        out.append(remaining.pop(pos))
    return tuple(out)


def init_model(d: int, m: int, rng: Rng) -> LomoModel:
    """Fresh model: template entries 0.01*uniform[0,1), costs exactly zero."""
    d = require_int("dimension", d, minimum=1)
    m = _require_order_size("number of templates", m)
    templates = 0.01 * rng.uniform(size=(m, d))
    costs = np.zeros(math.factorial(m))
    return LomoModel(templates, costs)


def save_model(model: LomoModel, path) -> None:
    """Write the versioned plain-text model file (LF endings, exact decimals)."""
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
