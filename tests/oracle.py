"""Reference implementations that the fast paths are held to.

`sgd_step` is the reference SGD step: `train` runs its own in-place loop,
and folding `sgd_step` over the same sample draws must give the model it
returns, bit for bit. `stacked_pca_moments` is the PCA fit's mean and
covariance over one stacked copy of all training frames; the block-by-block
moments of `fit_preprocess` must agree with it to rounding.
"""

from __future__ import annotations

import numpy as np

from lomo.data import _l2_rows
from lomo.inference import latent_assign
from lomo.model import LomoModel
from lomo.training import LabeledSequence, TrainConfig


def sgd_step(model: LomoModel, example: LabeledSequence, cfg: TrainConfig) -> LomoModel:
    """One subgradient step; returns the input model when the margin holds."""
    icfg = cfg.inference_config()
    assign = latent_assign(model, example.sequence, icfg)
    y = example.label
    if y * assign.total >= 1.0:
        return model
    eta = cfg.eta
    m = model.num_templates
    shrink = 1.0 - cfg.reg_lambda * eta
    picked = example.sequence.frames[np.array(assign.chosen) - 1]  # (M, d)
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
