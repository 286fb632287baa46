"""Reference implementations that the fast paths are held to.

`latent_assign` is the per-sequence scoring reference: each row of
`assign_batch` and each total of `score_sequences` must equal it bit for
bit, and `sgd_step` scores through it. `sgd_step` is the reference SGD
step: `train_binary` runs its own in-place loop, and folding `sgd_step`
over the same sample draws must give the model it returns, bit for bit.
`stacked_pca_moments` is the PCA fit's mean and covariance over one
stacked copy of all training frames; the block-by-block moments of
`fit_preprocess`, and the moments a cv fold merges from its splits', must
agree with it to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lomo.data import _l2_rows
from lomo.inference import FrameSequence, _too_short, require_dimension
from lomo.model import LomoModel, perm_index, rank_pattern
from lomo.training import TrainConfig


@dataclass(frozen=True)
class LatentAssignment:
    chosen: tuple[int, ...]  # 1-based frame index per template
    template_scores: tuple[float, ...]
    perm: int  # 1-based lexicographic index of the rank pattern
    ordering_cost: float
    total: float


def latent_assign(model: LomoModel, seq: FrameSequence, exclusion_t: int) -> LatentAssignment:
    """Greedy per-template argmax with closed exclusion window [k-t, k+t],
    t being `exclusion_t`.

    One matvec and one masked argmax per template, the rank pattern through
    perm_index(rank_pattern(...)), and np.mean of the template scores.
    """
    require_dimension("model", model.dim, seq)
    n = seq.num_frames
    m = model.num_templates
    t = exclusion_t
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


def sgd_step(model: LomoModel, example: tuple[FrameSequence, int], cfg: TrainConfig) -> LomoModel:
    """One subgradient step on `example`, a (sequence, +-1 target) pair;
    returns the input model when the margin holds."""
    seq, y = example
    assign = latent_assign(model, seq, cfg.exclusion_t)
    if y * assign.total >= 1.0:
        return model
    eta = cfg.eta
    m = model.num_templates
    shrink = 1.0 - cfg.reg_lambda * eta
    picked = seq.frames[np.array(assign.chosen) - 1]  # (M, d)
    templates = model.templates * shrink + (eta * y / m) * picked
    costs = model.costs.copy()
    if not cfg.freeze_costs:
        if cfg.cost_update == "gradient":
            costs[assign.perm - 1] += eta * y
        else:
            costs[assign.perm - 1] -= eta
    return LomoModel(templates, costs)


def stacked_pca_moments(train_seqs, l2: bool) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample covariance of all training frames, stacked into one
    array that is l2-normalised (when `l2` is set) and centred in place."""
    frames = np.vstack([seq.frames for seq in train_seqs])
    if l2:
        _l2_rows(frames, out=frames)
    mean = frames.mean(axis=0)
    frames -= mean
    return mean, frames.T @ frames / (frames.shape[0] - 1)
