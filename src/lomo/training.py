"""Stochastic subgradient training of the regularized hinge objective.

One uniformly sampled example per step; on a margin violation every
template shrinks and moves toward its chosen frame, and the cost of the
realized ordering moves by eta (sign per the configured update mode).
The MIL baseline is the M=1 restriction with the cost table frozen at
zero; on sequences pooled to one frame it is the pooled-SVM baseline.

A training example is a (FrameSequence, class label) pair. `train_binary`,
the one binary trainer, and `train_ova` check their arguments once, then
run the kernel `_train` on sequences and +-1 targets (`binary_targets`):
one loop over plain arrays updated in place, with a shorter step for data
of one frame per sequence. Folding the reference step, `sgd_step` in
tests/oracle.py, over the same sample draws gives its model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    LomoError,
    _shown,
    child_seed,
    float_errors,
    generator,
    require_choice,
    require_instance,
    require_int,
    require_pairs,
    require_real,
    sorted_classes,
)
from .inference import FrameSequence, score_sequences
from .model import ORDER_CODES, LomoModel, init_model, require_order_size

VARIANTS = ("lomo", "mil")
COST_UPDATES = ("gradient", "literal")
_DRAW_CHUNK = 4096  # sample indices drawn per rng call in _train


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    Variant mil forces a single template and keeps costs at 0; on sequences
    pooled to one frame (PreprocessConfig.pool) it is the pooled SVM.
    """

    num_templates: int = 3
    eta: float = 0.05
    reg_lambda: float = 1e-5
    exclusion_t: int = 5  # frames removed on each side of a pick, in training and scoring
    max_iter: int | None = None
    seed: int = 42
    variant: str = "lomo"
    cost_update: str = "gradient"

    def __post_init__(self):
        self.variant = require_choice("variant", self.variant, VARIANTS)
        self.cost_update = require_choice("cost_update", self.cost_update, COST_UPDATES)
        self.num_templates = require_int("num_templates", self.num_templates)
        if self.variant != "lomo":
            self.num_templates = 1  # MIL is the single-template restriction
        self.num_templates = require_order_size("num_templates", self.num_templates)
        self.exclusion_t = require_int("exclusion_t", self.exclusion_t, minimum=0)
        if self.max_iter is not None:
            self.max_iter = require_int("max_iter", self.max_iter, minimum=1)
        self.seed = require_int("seed", self.seed, minimum=0)
        require_real("eta", self.eta, minimum=0, strict=True)
        require_real("reg_lambda", self.reg_lambda, minimum=0)
        if self.reg_lambda * self.eta >= 1:  # else an update zeroes or flips the templates
            raise LomoError(f"reg_lambda * eta must be < 1, got {self.reg_lambda} * {self.eta}")

    def num_steps(self, n: int) -> int:
        """SGD steps for n training sequences: max_iter, else 100 per sequence."""
        n = require_int("n", n, minimum=0)
        return self.max_iter if self.max_iter is not None else 100 * n

    @property
    def freeze_costs(self) -> bool:
        return self.variant != "lomo"


def objective(model: LomoModel, data, positive_label, cfg: TrainConfig) -> float:
    """What train_binary(data, positive_label, cfg) minimizes: (lambda/2) *
    sum ||w_i||^2 + mean hinge [1 - y*s]_+, lambda being cfg.reg_lambda and
    y the binary_targets of the labels of the (FrameSequence, label) pairs."""
    require_instance("cfg", cfg, TrainConfig)
    seqs, labels = _examples(data)
    if not seqs:
        raise LomoError("objective needs at least one example")
    scores = score_sequences(model, seqs, cfg.exclusion_t)
    reg = 0.5 * cfg.reg_lambda * float(np.sum(model.templates * model.templates))
    hinge = 0.0
    for y, s in zip(binary_targets(labels, positive_label), scores.tolist()):
        hinge += max(0.0, 1.0 - y * s)
    return reg + hinge / len(seqs)


def _examples(data) -> tuple[list, list]:
    """The sequences and class labels of `data`, (FrameSequence, label) pairs."""
    data = require_pairs("data", data, "(FrameSequence, label)", FrameSequence)
    return [seq for seq, _ in data], [label for _, label in data]


def _validate_train_data(seqs, targets, cfg: TrainConfig) -> int:
    if not seqs:
        raise LomoError("training data is empty")
    if -1 not in targets:  # every caller checked that +1 is present
        raise LomoError("training data contains only label +1")
    dim = seqs[0].dim
    # worst case: every pick is interior and removes a full 2t+1 window
    need = (cfg.num_templates - 1) * (2 * cfg.exclusion_t + 1) + 1
    for seq in seqs:
        seq.require_dim(dim)
        if seq.num_frames < need:
            raise LomoError(
                f"sequence {seq.name}: {seq.num_frames} frames is too short "
                f"for M={cfg.num_templates}, t={cfg.exclusion_t} (needs >= {need})"
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


def _one_frame_updates(frames, scales) -> list | None:
    """The rows scales[k] * frames[k] of one-frame sequences, each a (1, d)
    view of one stacked (n, d) table; None when a product overflows.

    Each row holds the bits of its own product. A list of views is kept
    because adding a (1, d) row taken from it costs less than indexing the
    table on each step.
    """
    table = np.concatenate(frames)
    try:
        with float_errors(str):
            table *= np.array(scales)[:, None]
    except LomoError:
        return None
    return list(table[:, None])


class _Windows(dict):
    """The exclusion window slice(max(0, q - t), q + t + 1) of each pick q,
    made on first use: one per position picked, not one per frame of the
    longest sequence. A slice clips at the end of a shorter row."""

    def __init__(self, t: int):
        super().__init__()
        self.t = t

    def __missing__(self, q: int) -> slice:
        window = self[q] = slice(max(0, q - self.t), q + self.t + 1)
        return window


def _train(seqs, targets, cfg: TrainConfig) -> LomoModel:
    """Run max_iter uniform-with-replacement subgradient steps from cfg.seed
    on FrameSequences `seqs` with +-1 `targets`; the caller has checked the
    types, and _validate_train_data checks the content.

    Each step repeats the reference step's arithmetic (tests/oracle.py) on
    arrays owned by the loop, with as few numpy calls as that allows:
    - one stacked product scores all M templates into a (M, N, 1) buffer
      kept per sequence length N; it equals one matvec per template bit
      for bit (tests/test_kernels.py checks five OpenBLAS cores);
    - one argmax over that buffer takes every template's first pick; only
      when a pick lies within +-t of an earlier pick (0.82 times per step
      on the benchmark's train-order set) are the exclusion windows,
      _Windows slices, written as -inf into its row and the argmax taken
      again (a first-occurrence maximum that is not excluded is also the
      first-occurrence maximum of the frames left; validation guarantees
      a frame always survives);
    - each pick appends its comparisons with the earlier picks to the
      ordering code that model.ORDER_CODES maps to the cost index, so no
      step sorts its picks;
    - the decision sums the picked scores as Python floats in
      np.add.reduce's order: left to right from 0.0, or for M = 8 the
      pairwise tree of `_add_reduce`;
    - sample indices are drawn _DRAW_CHUNK at a time, the same stream as
      one draw per step, in memory that does not grow with max_iter;
    - templates and costs are updated in place on a margin violation, by
      ufunc calls whose scalar operands (the shrink factor and the step
      sizes eta * y / m of y = +1 and y = -1) are 0-d arrays made once per
      call: on numpy 2.4 a Python float operand adds ~300 ns to each call,
      and the products and sums are the same IEEE operations.

    When every sequence has exactly one frame (the pooled SVM), validation
    has forced M = 1: each pick is frame 0 and each ordering index 1, so
    that step skips the argmax, the exclusion check and the ordering lookup.
    Its float operations are the general step's on that frame, the same
    product, one-value sum and updates, so the model is the same bit for bit.
    Each sequence's update (eta * y / m) * x is computed once per call
    (_one_frame_updates), and a violation adds it.

    A numeric error's message names the step and what overflowed there: a
    template score or an update.
    """
    dim = _validate_train_data(seqs, targets, cfg)
    rng = generator(cfg.seed)
    init = init_model(dim, cfg.num_templates, rng)
    templates = init.templates
    costs = init.costs.tolist()
    iters = cfg.num_steps(len(seqs))
    frames = [seq.frames for seq in seqs]
    m = cfg.num_templates
    t = cfg.exclusion_t
    eta = cfg.eta
    shrink = np.array(1.0 - cfg.reg_lambda * eta)
    size = {y: np.array(eta * y / m) for y in (1, -1)}
    gradient = cfg.cost_update == "gradient"
    freeze = cfg.freeze_costs
    stacked = templates[:, :, None]  # a view: in-place updates reach it
    buffers = {}  # per length N: an (M, N, 1) buffer, its (M, N) view and that view's rows
    for n in {len(x) for x in frames}:
        buf = np.empty((m, n, 1))
        buffers[n] = buf, buf[:, :, 0], list(buf[:, :, 0])
    order = range(m)
    codes = ORDER_CODES[m]
    windows = _Windows(t)
    ninf = -np.inf
    one_frame = buffers.keys() == {1}  # then M = 1: pick 0, ordering 1
    updates = _one_frame_updates(frames, [eta * y / m for y in targets]) if one_frame else None
    step = updating = 0

    def describe(err) -> str:
        kind = str(err).partition(" encountered")[0]
        what = "an update" if updating == step else "a template score"
        return f"training step {step}: {kind} in {what} with eta={eta}, reg_lambda={cfg.reg_lambda}"

    with float_errors(describe):
        for start in range(0, iters, _DRAW_CHUNK):
            draws = rng.integers(len(seqs), size=min(_DRAW_CHUNK, iters - start)).tolist()
            if one_frame:
                w = templates[0]
                for step, j in enumerate(draws, start + 1):
                    x = frames[j]
                    y = targets[j]
                    # 0.0 + s is _add_reduce of the one score
                    if y * ((0.0 + x.dot(w).item(0)) / m + costs[0]) >= 1.0:
                        continue
                    updating = step
                    np.multiply(templates, shrink, templates)
                    # no table: an update overflows, and raises here when taken
                    np.add(templates, (eta * y / m) * x if updates is None else updates[j],
                           templates)
                    if freeze:
                        continue
                    if gradient:
                        costs[0] += eta * y
                    else:
                        costs[0] -= eta
                continue
            for step, j in enumerate(draws, start + 1):
                x = frames[j]
                buf, scores, rows = buffers[len(x)]
                np.matmul(x, stacked, buf)
                picks = []
                total = 0.0
                code = 0
                for i, f in enumerate(scores.argmax(axis=1).tolist()):
                    for p in picks:
                        if -t <= f - p <= t:
                            row = rows[i]
                            for q in picks:
                                row[windows[q]] = ninf
                            f = int(row.argmax())
                            break
                    for p in picks:
                        code = 2 * code + (f < p)
                    picks.append(f)
                    total += scores.item(i, f)
                if m == 8:  # numpy sums 8 values as a pairwise tree
                    total = _add_reduce(scores[order, picks].tolist())
                y = targets[j]
                k = codes[code]
                # total / m is the reference's np.mean of the scores
                if y * (total / m + costs[k]) >= 1.0:
                    continue
                updating = step
                picked = x.take(picks, axis=0)
                np.multiply(picked, size[y], picked)
                np.multiply(templates, shrink, templates)
                np.add(templates, picked, templates)
                if freeze:
                    continue
                if gradient:
                    costs[k] += eta * y
                else:
                    costs[k] -= eta
    return LomoModel(templates, np.array(costs))


def binary_targets(labels, positive_label) -> list[int]:
    """One-vs-rest targets: +1 for `positive_label`, -1 for every other class."""
    return [1 if label == positive_label else -1 for label in labels]


def check_positive_label(positive_label, classes) -> None:
    """A binary task's positive class must be one of the sorted `classes`."""
    if positive_label not in classes:
        raise LomoError(f"positive label {_shown(positive_label)} not among classes {_shown(classes, str)}")


def train_binary(data, positive_label, cfg: TrainConfig) -> LomoModel:
    """One model of `positive_label` against every other class.

    `data` is a sequence of (FrameSequence, class label) pairs, as for
    train_ova; the labels become targets through binary_targets.
    """
    seqs, labels = _examples(data)
    require_instance("cfg", cfg, TrainConfig)
    check_positive_label(positive_label, sorted_classes("class labels", labels))
    return _train(seqs, binary_targets(labels, positive_label), cfg)


def train_ova(data, cfg: TrainConfig, classes=None) -> dict[str, LomoModel]:
    """Per sorted class, the train_binary model of that class with its child
    seed of cfg.seed (sorted order fixes the per-class child seed).

    `data` is a sequence of (FrameSequence, class label) pairs, checked once
    for all classes; passing an explicit class list makes a missing class an
    error rather than a silent omission (used by cross-validation on sparse
    folds).
    """
    require_instance("cfg", cfg, TrainConfig)
    seqs, labels = _examples(data)
    present = sorted_classes("class labels", labels)
    classes = present if classes is None else sorted_classes("classes", classes)
    if len(classes) < 2:
        raise LomoError(f"one-vs-all needs >= 2 classes, got {_shown(classes, str)}")
    models = {}
    for idx, name in enumerate(classes):
        check_positive_label(name, present)
        sub_cfg = replace(cfg, seed=child_seed(cfg.seed, idx))
        models[name] = _train(seqs, binary_targets(labels, name), sub_cfg)
    return models
