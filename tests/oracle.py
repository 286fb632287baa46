"""The reference SGD step, a test oracle for `lomo.training.train`.

`train` runs its own in-place loop; folding `sgd_step` over the same
sample draws must give the model it returns, bit for bit.
"""

from __future__ import annotations

import numpy as np

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
