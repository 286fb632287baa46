"""Scoring: greedy latent assignment with temporal exclusion.

Templates pick frames one at a time in fixed order; each pick removes a
window of neighboring frames from later picks. The ordering cost of the
realized rank pattern is added to the mean template score afterwards, so
the greedy choice itself never sees the cost table.

`assign_batch` is the one checked entry for scoring: it checks the model,
the exclusion window t and the sequences once, then `_assign` assigns
each block of equal-shape sequences (`shape_blocks`) as one (B, N, d)
stack, rows in input order. `score_sequences` and `score` are its totals. The
per-sequence reference that tests hold each row to, bit for bit, is
`latent_assign` in tests/oracle.py.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LomoError,
    _shown,
    finite_floats,
    float_errors,
    real_array,
    require_instance,
    require_int,
    require_items,
)
from .model import ORDER_CODES, LomoModel


@dataclass
class FrameSequence:
    """One sequence: frames is an (N, d) float64 array, plus an id string."""

    frames: np.ndarray
    id: str = ""

    def __post_init__(self):
        # C order: a matvec's rounding depends on the memory layout
        self.frames = real_array(f"sequence {self.name}: frames", self.frames, order="C")
        if self.frames.ndim != 2:
            raise LomoError(
                f"sequence {self.name}: frames must be (N, d), got shape {self.frames.shape}"
            )
        if self.frames.shape[0] < 1:
            raise LomoError(f"sequence {self.name}: needs at least one frame")
        if self.frames.shape[1] < 1:  # write_sequence could not write it
            raise LomoError(f"sequence {self.name}: needs at least one value per frame")
        if not np.isfinite(self.frames).all():
            raise LomoError(f"sequence {self.name}: non-finite frame values")

    @property
    def name(self) -> str:
        """The id, or '<unnamed>' when it is empty: how messages name it."""
        return _shown(self.id, str) if self.id else "<unnamed>"

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def _with_frames(self, frames: np.ndarray) -> FrameSequence:
        """This id with `frames`, unchecked: the caller guarantees a finite,
        C-ordered (N, d) float64 array with N >= 1 (see __post_init__)."""
        seq = object.__new__(FrameSequence)
        seq.frames, seq.id = frames, self.id
        return seq

    def require_dim(self, dim: int) -> None:
        """A LomoError naming this sequence unless its frames have `dim` columns."""
        if self.dim != dim:
            raise LomoError(f"sequence {self.name}: dimension {self.dim} differs from {_shown(dim, str)}")


def require_dimension(owner: str, dim: int, seq: FrameSequence) -> None:
    """A LomoError "dimension mismatch: <owner> d=<dim>, sequence <name> d=<d>"
    unless `seq` has the `dim` columns that its `owner`, a model or a PCA
    basis, was built for."""
    if seq.dim != dim:
        raise LomoError(f"dimension mismatch: {owner} d={dim}, sequence {seq.name} d={seq.dim}")


def _too_short(seq: FrameSequence, m: int, t: int) -> LomoError:
    return LomoError(
        f"sequence too short for M,t: N={seq.num_frames} frames cannot supply "
        f"M={m} picks with exclusion_t={t}"
        + (f" (sequence {seq.name})" if seq.id else "")
    )


@dataclass(frozen=True)
class BatchAssignment:
    """Assignments of B sequences: row b holds what the per-sequence
    reference, latent_assign in tests/oracle.py, returns. Checked when
    built: chosen and perm become integer arrays and the rest finite
    float64 arrays (the arrays assign_batch fills are kept), with the
    shapes below."""

    chosen: np.ndarray  # (B, M) 1-based frame index per template
    template_scores: np.ndarray  # (B, M)
    perm: np.ndarray  # (B,) 1-based lexicographic index of the rank pattern
    ordering_cost: np.ndarray  # (B,)
    total: np.ndarray  # (B,)

    def __post_init__(self):
        for name in ("chosen", "perm"):
            try:
                value = np.asarray(getattr(self, name))
            except ValueError:  # a ragged nest of lists
                value = np.asarray(None)
            if value.dtype.kind not in "iu":
                raise LomoError(f"{name} must be integers, got {_shown(getattr(self, name))}")
            object.__setattr__(self, name, value)
        for name in ("template_scores", "ordering_cost", "total"):
            value = real_array(name, getattr(self, name))
            if not np.isfinite(value).all():
                raise LomoError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        shapes = [getattr(self, f).shape for f in ("chosen", "template_scores", "perm",
                                                   "ordering_cost", "total")]
        if len(shapes[0]) != 2 or shapes[1] != shapes[0] or shapes[2:] != [shapes[0][:1]] * 3:
            raise LomoError("chosen and template_scores must have shape (B, M), and perm, "
                            f"ordering_cost and total shape (B,), got {', '.join(map(str, shapes))}")


def assign_batch(model: LomoModel, seqs, exclusion_t: int) -> BatchAssignment:
    """Greedy assignments of sequences of any lengths, rows in input order,
    each pick removing `exclusion_t` frames on each side: the arguments are
    checked once, then _assign runs on each block of shape_blocks, at most
    BLOCK_VALUES frame values. No sequences, no rows."""
    require_instance("model", model, LomoModel)
    t = require_int("exclusion_t", exclusion_t, minimum=0)
    return _assign_all(model, require_items("seqs", seqs, FrameSequence), t)


def _assign_all(model: LomoModel, seqs: list, t: int) -> BatchAssignment:
    """assign_batch of checked arguments: a LomoModel, a list of
    FrameSequences and an int t >= 0. A cv fold scores its test split,
    checked by run_cv, through this."""
    count, m = len(seqs), model.num_templates
    out = BatchAssignment(np.zeros((count, m), np.intp), np.zeros((count, m)),
                          np.zeros(count, np.intp), np.zeros(count), np.zeros(count))
    for block in shape_blocks(seqs, BLOCK_VALUES):
        _assign(model, [seqs[k] for k in block], t, out, block)
    return out


def _assign(model: LomoModel, seqs, t: int, out: BatchAssignment, rows) -> None:
    """Rows `rows` of `out`: the assignments of `seqs`, sequences of one
    frame shape, stacked as (B, N, d).

    Each pick is one matvec per template over the whole stack and a
    first-occurrence argmax per row, so each row equals the per-sequence
    reference bit for bit. The patterns' indices come from
    model.ORDER_CODES, one comparison code per row.
    A sequence whose d is not the model's is refused first. A numeric
    error's message names the first sequence whose own assignment fails.
    """
    for seq in seqs:
        require_dimension("model", model.dim, seq)
    frames = np.stack([seq.frames for seq in seqs])
    count, n, _ = frames.shape
    m = model.num_templates
    batch = np.arange(count)
    position = np.arange(n)
    alive = np.ones((count, n), dtype=bool)
    picks = np.empty((count, m), dtype=np.intp)
    scores = np.empty((count, m))
    def describe(err) -> str:
        if len(seqs) > 1:  # rows are independent: the culprit fails on its own
            for k, seq in zip(rows, seqs):
                _assign(model, [seq], t, out, [k])
        return f"sequence {seqs[0].name}: {err} while scoring"
    with float_errors(describe):
        for i in range(m):
            starved = ~alive.any(axis=1)
            if starved.any():
                raise _too_short(seqs[int(np.argmax(starved))], m, t)
            row = frames @ model.templates[i]
            f = np.where(alive, row, -np.inf).argmax(axis=1)
            picks[:, i] = f
            scores[:, i] = row[batch, f]
            alive &= np.abs(position - f[:, None]) > t
        index = ORDER_CODES[m].indices(picks)
        cost = model.costs[index]
        out.total[rows] = scores.mean(axis=1) + cost
    out.chosen[rows] = picks + 1
    out.template_scores[rows] = scores
    out.perm[rows] = index + 1
    out.ordering_cost[rows] = cost


# Frame values in one block of shape_blocks (512 KiB of float64), which
# bounds the memory that stacking adds whatever the number and length of
# the sequences: assign_batch scores, and data._pca_moments sums the PCA
# fit's frames, in blocks of this size. data.APPLY_BLOCK_VALUES bounds
# apply_preprocess.
BLOCK_VALUES = 1 << 16


def shape_blocks(seqs, values: int):
    """Positions in `seqs` grouped by frame shape (N, d), each group cut into
    blocks of at most `values` frame values and at least one sequence.

    Groups come in the order of their first sequence and positions within a
    block in input order, so every block stacks into one (B, N, d) array.
    assign_batch, data.apply_preprocess and data._pca_moments run their
    kernels on these.
    """
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, seq in enumerate(seqs):
        by_shape.setdefault(seq.frames.shape, []).append(k)
    for (n, d), members in by_shape.items():
        size = max(1, values // (n * d))
        for lo in range(0, len(members), size):
            yield members[lo : lo + size]


def score_sequences(model: LomoModel, seqs, exclusion_t: int) -> np.ndarray:
    """Scores of sequences of any lengths, in input order: assign_batch's totals."""
    return assign_batch(model, seqs, exclusion_t).total


def score(model: LomoModel, seq: FrameSequence, exclusion_t: int) -> float:
    """Sequence score; the decision boundary is 0."""
    return float(assign_batch(model, [seq], exclusion_t).total[0])


def fuse_scores(scores) -> float:
    """Late fusion: arithmetic mean of per-model scores, each a finite number."""
    values = finite_floats("scores", scores, "fusion needs finite numbers")
    if not values:
        raise LomoError("fuse_scores needs at least one score")
    with float_errors(lambda err: f"{err} while fusing {len(values)} scores"):
        return float(np.mean(values))
