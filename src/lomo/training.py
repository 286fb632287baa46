"""Stochastic subgradient training of the regularized hinge objective.

One uniformly sampled example per step; on a margin violation every
template shrinks and moves toward its chosen frame, and the cost of the
realized ordering moves by eta (sign per the configured update mode).
The MIL and pooled-SVM baselines are the M=1 restriction with the cost
table frozen at zero.

`train` is the training kernel: one loop over plain arrays updated in
place. Its reference step, `sgd_step` in tests/oracle.py, is a test
oracle: folding it over the same sample draws gives the model `train`
returns, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import LomoError, Rng, child_seed, require_int, require_real
from .inference import FrameSequence, InferenceConfig, score_sequences
from .model import MAX_TEMPLATES, ORDER_INDEX, LomoModel, init_model

VARIANTS = ("lomo", "mil", "svm_pool")
COST_UPDATES = ("gradient", "literal")
_DRAW_CHUNK = 4096  # sample indices drawn per rng call in train


@dataclass
class LabeledSequence:
    sequence: FrameSequence
    label: int  # +1 or -1

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise LomoError(f"label must be +1 or -1, got {self.label!r}")


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    max_iter=None means 100 passes' worth of uniform samples (100 * |data|).
    Variants mil and svm_pool force a single template and keep costs at 0;
    svm_pool trains on sequences already pooled to one frame
    (PreprocessConfig.pool).
    """

    num_templates: int = 3
    eta: float = 0.05
    reg_lambda: float = 1e-5
    exclusion_t: int = 5
    max_iter: int | None = None
    seed: int = 42
    variant: str = "lomo"
    cost_update: str = "gradient"

    def __post_init__(self):
        self.variant = str(self.variant).lower()
        self.cost_update = str(self.cost_update).lower()
        if self.variant not in VARIANTS:
            raise LomoError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.cost_update not in COST_UPDATES:
            raise LomoError(
                f"cost_update must be one of {COST_UPDATES}, got {self.cost_update!r}"
            )
        self.num_templates = require_int("num_templates", self.num_templates)
        self.exclusion_t = require_int("exclusion_t", self.exclusion_t)
        if self.max_iter is not None:
            self.max_iter = require_int("max_iter", self.max_iter)
        self.seed = require_int("seed", self.seed, minimum=0)
        require_real("eta", self.eta)
        require_real("reg_lambda", self.reg_lambda)
        if self.variant != "lomo":
            self.num_templates = 1  # MIL / pooled SVM are the single-template restriction
        if not 1 <= self.num_templates <= MAX_TEMPLATES:
            raise LomoError(
                f"num_templates must be in 1..{MAX_TEMPLATES}, got {self.num_templates}"
            )
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise LomoError(f"eta must be finite and > 0, got {self.eta}")
        if not (math.isfinite(self.reg_lambda) and self.reg_lambda >= 0):
            raise LomoError(f"reg_lambda must be finite and >= 0, got {self.reg_lambda}")
        if self.reg_lambda * self.eta >= 1:  # else an update zeroes or flips the templates
            raise LomoError(f"reg_lambda * eta must be < 1, got {self.reg_lambda} * {self.eta}")
        require_int("exclusion_t", self.exclusion_t, minimum=0)
        if self.max_iter is not None:
            require_int("max_iter", self.max_iter, minimum=1)

    @property
    def freeze_costs(self) -> bool:
        return self.variant != "lomo"

    def inference_config(self) -> InferenceConfig:
        return InferenceConfig(exclusion_t=self.exclusion_t)


def objective(model: LomoModel, data, reg_lambda: float, cfg: TrainConfig) -> float:
    """(lambda/2) * sum ||w_i||^2 + mean hinge [1 - y*s]_+ over the data."""
    if not data:
        raise LomoError("objective needs at least one example")
    scores = score_sequences(model, [ex.sequence for ex in data], cfg.inference_config())
    reg = 0.5 * reg_lambda * float(np.sum(model.templates * model.templates))
    hinge = 0.0
    for ex, s in zip(data, scores.tolist()):
        hinge += max(0.0, 1.0 - ex.label * s)
    return reg + hinge / len(data)


def _min_frames(m: int, t: int) -> int:
    # worst case: every pick is interior and removes a full 2t+1 window
    return (m - 1) * (2 * t + 1) + 1


def _validate_train_data(data, cfg: TrainConfig) -> int:
    if not data:
        raise LomoError("training data is empty")
    labels = {ex.label for ex in data}
    if labels != {-1, 1}:
        only = "+1" if labels == {1} else "-1"
        raise LomoError(f"training data contains only label {only}")
    dim = data[0].sequence.dim
    need = _min_frames(cfg.num_templates, cfg.exclusion_t)
    for ex in data:
        seq = ex.sequence
        seq.require_dim(dim)
        if seq.num_frames < need:
            raise LomoError(
                f"sequence {seq.id or '<unnamed>'}: {seq.num_frames} frames is too short "
                f"for M={cfg.num_templates}, t={cfg.exclusion_t} (needs >= {need})"
            )
        if cfg.variant == "svm_pool" and seq.num_frames != 1:
            raise LomoError(
                f"sequence {seq.id or '<unnamed>'}: svm_pool expects pre-pooled "
                f"single-frame sequences, got {seq.num_frames} frames"
            )
    return dim


def _add_reduce(values) -> float:
    """np.add.reduce of 1..MAX_TEMPLATES floats, bit for bit, in Python floats.

    numpy adds from +0.0: fewer than 8 values left to right, 8 values as a
    pairwise tree. Builtin sum is not a substitute: from Python 3.12 it
    compensates float rounding.
    """
    if len(values) == 8:
        a0, a1, a2, a3, a4, a5, a6, a7 = values
        return 0.0 + (((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)))
    total = 0.0
    for v in values:
        total += v
    return total


def train(data, cfg: TrainConfig) -> LomoModel:
    """Run max_iter uniform-with-replacement subgradient steps from cfg.seed.

    Each step repeats the reference step's arithmetic (tests/oracle.py) on
    arrays owned by the loop, with as few numpy calls as that allows:
    - one matvec per template, then the argmax of the whole score row;
      only when that frame lies within +-t of an earlier pick are the
      exclusion windows written as -inf and the argmax taken again (a
      first-occurrence maximum that is not excluded is also the
      first-occurrence maximum of the frames left; validation guarantees
      a frame always survives);
    - the decision sums the picked scores as Python floats in
      np.add.reduce's order (`_add_reduce`);
    - sample indices are drawn _DRAW_CHUNK at a time, the same stream as
      one draw per step, in memory that does not grow with max_iter;
    - templates and costs are updated in place on a margin violation.

    A step that overflows or makes a NaN raises a LomoError naming it.
    """
    data = list(data)
    dim = _validate_train_data(data, cfg)
    rng = Rng(cfg.seed)
    init = init_model(dim, cfg.num_templates, rng)
    templates = init.templates
    costs = init.costs.tolist()
    iters = cfg.max_iter if cfg.max_iter is not None else 100 * len(data)
    frames = [ex.sequence.frames for ex in data]
    labels = [ex.label for ex in data]
    m = cfg.num_templates
    t = cfg.exclusion_t
    eta = cfg.eta
    shrink = 1.0 - cfg.reg_lambda * eta
    gradient = cfg.cost_update == "gradient"
    freeze = cfg.freeze_costs
    rows = list(templates)  # views: in-place updates reach them
    order = range(m)
    step = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, iters, _DRAW_CHUNK):
                draws = rng.integers(len(data), min(_DRAW_CHUNK, iters - start)).tolist()
                for step, j in enumerate(draws, start + 1):
                    x = frames[j]
                    picks = []
                    scores = []
                    for w in rows:
                        row = x.dot(w)
                        f = int(row.argmax())
                        for p in picks:
                            if -t <= f - p <= t:
                                for q in picks:
                                    row[max(0, q - t) : q + t + 1] = -np.inf
                                f = int(row.argmax())
                                break
                        picks.append(f)
                        scores.append(row.item(f))
                    y = labels[j]
                    perm = ORDER_INDEX[tuple(sorted(order, key=picks.__getitem__))]
                    # _add_reduce / m is latent_assign's np.mean of the scores
                    if y * (_add_reduce(scores) / m + costs[perm - 1]) >= 1.0:
                        continue
                    templates *= shrink
                    templates += (eta * y / m) * x.take(picks, axis=0)
                    if freeze:
                        continue
                    if gradient:
                        costs[perm - 1] += eta * y
                    else:
                        costs[perm - 1] -= eta
    except FloatingPointError as err:
        raise LomoError(
            f"training step {step}: {err} with eta={eta}, reg_lambda={cfg.reg_lambda}"
        ) from None
    return LomoModel(templates, np.array(costs))


def train_ova(data, cfg: TrainConfig, classes=None) -> dict[str, LomoModel]:
    """One binary model per class (sorted order fixes the per-class child seed).

    `data` is a sequence of (FrameSequence, class label) pairs; passing an
    explicit class list makes a missing class an error rather than a silent
    omission (used by cross-validation on sparse folds).
    """
    data = list(data)
    if not data:
        raise LomoError("training data is empty")
    present = sorted({label for _, label in data})
    classes = sorted(classes) if classes is not None else present
    if len(classes) < 2:
        raise LomoError(f"one-vs-all needs >= 2 classes, got {classes}")
    models: dict[str, LomoModel] = {}
    for idx, name in enumerate(classes):
        if name not in present:
            raise LomoError(f"class {name!r} has zero examples in training data")
        relabeled = [
            LabeledSequence(seq, 1 if label == name else -1) for seq, label in data
        ]
        sub_cfg = replace(cfg, seed=child_seed(cfg.seed, idx))
        models[name] = train(relabeled, sub_cfg)
    return models
