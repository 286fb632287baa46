"""Scoring: greedy latent assignment with temporal exclusion.

Templates pick frames one at a time in fixed order; each pick removes a
window of neighboring frames from later picks. The ordering cost of the
realized rank pattern is added to the mean template score afterwards, so
the greedy choice itself never sees the cost table.

`assign_batch` is the scoring kernel: it assigns a (B, N, d) stack of
equal-length sequences at once, and `score_sequences` feeds it bounded
blocks of any mix of lengths. `latent_assign` is the per-sequence
reference (oracle) that tests hold the kernel to, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LomoError,
    finite_floats,
    float_errors,
    real_array,
    require_instance,
    require_int,
    require_items,
)
from .model import ORDER_INDEX, LomoModel, perm_index, rank_pattern


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
        if not np.isfinite(self.frames).all():
            raise LomoError(f"sequence {self.name}: non-finite frame values")

    @property
    def name(self) -> str:
        """The id, or '<unnamed>' when it is empty: how messages name it."""
        return self.id or "<unnamed>"

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def require_dim(self, dim: int) -> None:
        """A LomoError naming this sequence unless its frames have `dim` columns."""
        if self.dim != dim:
            raise LomoError(f"sequence {self.name}: dimension {self.dim} differs from {dim}")


@dataclass(frozen=True)
class InferenceConfig:
    """exclusion_t: frames removed on each side of a chosen frame."""

    exclusion_t: int = 5

    def __post_init__(self):
        t = require_int("exclusion_t", self.exclusion_t, minimum=0)
        object.__setattr__(self, "exclusion_t", t)


@dataclass(frozen=True)
class LatentAssignment:
    chosen: tuple[int, ...]  # 1-based frame index per template
    template_scores: tuple[float, ...]
    perm: int  # 1-based lexicographic index of the rank pattern
    ordering_cost: float
    total: float


def _batch_args(model, seqs, cfg) -> list[FrameSequence]:
    """`seqs` as a list, once `model`, `cfg` and every sequence are checked
    to be a LomoModel, an InferenceConfig and FrameSequences; a LomoError
    names the first argument or position that is not."""
    require_instance("model", model, LomoModel)
    require_instance("cfg", cfg, InferenceConfig)
    return require_items("seqs", seqs, FrameSequence)


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
        + (f" (sequence {seq.id})" if seq.id else "")
    )


def latent_assign(model: LomoModel, seq: FrameSequence, cfg: InferenceConfig) -> LatentAssignment:
    """Greedy per-template argmax with closed exclusion window [k-t, k+t].

    The reference implementation; scoring runs through `assign_batch`.
    """
    require_dimension("model", model.dim, seq)
    n = seq.num_frames
    m = model.num_templates
    t = cfg.exclusion_t
    alive = np.ones(n, dtype=bool)
    chosen: list[int] = []
    scores: list[float] = []
    for i in range(m):
        if not alive.any():
            raise _too_short(seq, m, t)
        row = seq.frames @ model.templates[i]
        masked = np.where(alive, row, -np.inf)
        f = int(np.argmax(masked))  # first occurrence = lowest frame index
        chosen.append(f + 1)
        scores.append(float(row[f]))
        alive[max(0, f - t) : f + t + 1] = False
    perm = perm_index(rank_pattern(chosen))
    cost = float(model.costs[perm - 1])
    total = float(np.mean(scores)) + cost
    return LatentAssignment(
        chosen=tuple(chosen),
        template_scores=tuple(scores),
        perm=perm,
        ordering_cost=cost,
        total=total,
    )


@dataclass(frozen=True)
class BatchAssignment:
    """Assignments of B sequences: row b holds what latent_assign returns."""

    chosen: np.ndarray  # (B, M) 1-based frame index per template
    template_scores: np.ndarray  # (B, M)
    perm: np.ndarray  # (B,) 1-based lexicographic index of the rank pattern
    ordering_cost: np.ndarray  # (B,)
    total: np.ndarray  # (B,)


def assign_batch(model: LomoModel, seqs, cfg: InferenceConfig) -> BatchAssignment:
    """Greedy assignment of equal-length sequences, stacked as (B, N, d).

    Each pick is one matvec per template over the whole stack and a
    first-occurrence argmax per row, so row b equals latent_assign on
    seqs[b] bit for bit; the pattern's index comes from model.ORDER_INDEX.
    A numeric error's message names the first sequence whose own assignment
    fails.
    """
    seqs = _batch_args(model, seqs, cfg)
    if len({seq.num_frames for seq in seqs}) != 1:
        raise LomoError("assign_batch needs one or more sequences of equal length")
    for seq in seqs:
        require_dimension("model", model.dim, seq)
    frames = np.stack([seq.frames for seq in seqs])
    count, n, _ = frames.shape
    m = model.num_templates
    t = cfg.exclusion_t
    batch = np.arange(count)
    position = np.arange(n)
    alive = np.ones((count, n), dtype=bool)
    picks = np.empty((count, m), dtype=np.intp)
    scores = np.empty((count, m))
    def describe(err) -> str:
        if len(seqs) > 1:  # rows are independent: the culprit fails on its own
            for seq in seqs:
                assign_batch(model, [seq], cfg)
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
        orders = np.argsort(picks, axis=1).tolist()
        perm = np.array([ORDER_INDEX[tuple(order)] for order in orders])
        cost = model.costs[perm - 1]
        total = scores.mean(axis=1) + cost
    return BatchAssignment(
        chosen=picks + 1,
        template_scores=scores,
        perm=perm,
        ordering_cost=cost,
        total=total,
    )


# Values in one stacked block; bounds the memory that batching adds
# (512 KiB of float64) whatever the number and length of the sequences.
BLOCK_VALUES = 1 << 16


def score_sequences(model: LomoModel, seqs, cfg: InferenceConfig) -> np.ndarray:
    """Scores of sequences of any lengths, in input order.

    Sequences are grouped by length and scored through assign_batch in
    blocks of at most BLOCK_VALUES frame values.
    """
    seqs = _batch_args(model, seqs, cfg)
    by_length: dict[int, list[int]] = {}
    for k, seq in enumerate(seqs):
        by_length.setdefault(seq.num_frames, []).append(k)
    out = np.empty(len(seqs))
    for n, members in by_length.items():
        size = max(1, BLOCK_VALUES // (n * model.dim))
        for lo in range(0, len(members), size):
            block = members[lo : lo + size]
            out[block] = assign_batch(model, [seqs[k] for k in block], cfg).total
    return out


def score(model: LomoModel, seq: FrameSequence, cfg: InferenceConfig) -> float:
    """Sequence score; the decision boundary is 0."""
    return float(assign_batch(model, [seq], cfg).total[0])


def fuse_scores(scores) -> float:
    """Late fusion: arithmetic mean of per-model scores, each a finite number."""
    values = finite_floats("scores", scores, "fusion needs finite numbers")
    if not values:
        raise LomoError("fuse_scores needs at least one score")
    with float_errors(lambda err: f"{err} while fusing {len(values)} scores"):
        return float(np.mean(values))
