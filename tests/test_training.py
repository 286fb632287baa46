"""Unit tests for the subgradient trainer, its config, and the variants."""

from __future__ import annotations

import importlib.util
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lomo.training
from lomo.core import LomoError, child_seed, generator, require_pairs
from lomo.inference import FrameSequence, score, score_sequences
from lomo.model import LomoModel, init_model
from lomo.training import TrainConfig, objective, train_binary, train_ova
from oracle import latent_assign, sgd_step


def _seq(frames, label, seq_id=""):
    """A (sequence, label) pair: train_binary(data, 1, cfg) trains on +-1 labels."""
    return FrameSequence(np.asarray(frames, dtype=float), id=seq_id), label


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.num_templates == 3
    assert cfg.eta == 0.05
    assert cfg.reg_lambda == 1e-5
    assert cfg.exclusion_t == 5
    assert cfg.max_iter is None
    assert cfg.seed == 42
    assert cfg.variant == "lomo"
    assert cfg.cost_update == "gradient"
    assert not cfg.freeze_costs


def test_config_baselines_force_single_template_and_frozen_costs():
    cfg = TrainConfig(variant="mil", num_templates=5)
    assert cfg.num_templates == 1
    assert cfg.freeze_costs


def test_config_validation_errors():
    with pytest.raises(LomoError, match="variant"):
        TrainConfig(variant="boost")
    with pytest.raises(LomoError, match="cost_update"):
        TrainConfig(cost_update="both")
    with pytest.raises(LomoError, match="eta"):
        TrainConfig(eta=0.0)
    with pytest.raises(LomoError, match="eta must be finite"):
        TrainConfig(eta=float("inf"))
    with pytest.raises(LomoError, match="reg_lambda"):
        TrainConfig(reg_lambda=-1.0)
    with pytest.raises(LomoError, match="reg_lambda must be finite"):
        TrainConfig(reg_lambda=float("nan"))
    # ints beyond float64
    with pytest.raises(LomoError, match=f"^eta must be finite and > 0, got {10**400}$"):
        TrainConfig(eta=10**400)
    with pytest.raises(LomoError, match=f"^reg_lambda must be finite and >= 0, got {10**400}$"):
        TrainConfig(reg_lambda=10**400)
    with pytest.raises(LomoError, match="^max_iter must be >= 1, got 0$"):
        TrainConfig(max_iter=0)
    with pytest.raises(LomoError, match="^exclusion_t must be >= 0, got -1$"):
        TrainConfig(exclusion_t=-1)
    with pytest.raises(LomoError, match="num_templates"):
        TrainConfig(num_templates=9)
    # the retired pooled-SVM variant, now mil on pooled frames, quoted as given
    message = r"^variant must be one of \('lomo', 'mil'\), got 'SVM_POOL'$"
    with pytest.raises(LomoError, match=message):
        TrainConfig(variant="SVM_POOL")
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)


# more digits than Python converts to text (sys.get_int_max_str_digits)
HUGE = 10**5000


@pytest.mark.parametrize("field, value, message", [
    ("eta", HUGE, "eta must be finite and > 0, got a 16610-bit integer"),
    ("seed", -HUGE, "seed must be >= 0, got a negative 16610-bit integer"),
    ("variant", HUGE, r"variant must be one of \('lomo', 'mil'\), got a 16610-bit integer"),
    ("num_templates", -HUGE, "num_templates must be >= 1, got a negative 16610-bit integer"),
    ("exclusion_t", -HUGE, "exclusion_t must be >= 0, got a negative 16610-bit integer"),
], ids=["eta", "seed", "variant", "num_templates", "exclusion_t"])
def test_config_names_the_field_of_an_int_too_long_to_print(field, value, message):
    with pytest.raises(LomoError, match=f"^{message}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("num_templates", 2.0), ("exclusion_t", 1.5), ("max_iter", 2.5), ("max_iter", "10"),
    ("exclusion_t", True), ("seed", 1.5), ("seed", True),
])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(LomoError, match=f"{field} must be an integer, got {value!r}"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("eta", "0.05"), ("eta", None), ("eta", True),
    ("reg_lambda", "1e-5"), ("reg_lambda", None), ("reg_lambda", False),
])
def test_config_rejects_non_real_rates(field, value):
    with pytest.raises(LomoError, match=f"^{field} must be a real number, got {value!r}$"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("reg_lambda, eta", [(20, 0.05), (1.0, 1.0), (0.5, 4), (1e300, 1e300)])
def test_config_rejects_a_template_shrink_that_is_not_positive(reg_lambda, eta):
    message = f"reg_lambda * eta must be < 1, got {reg_lambda!r} * {eta!r}"
    with pytest.raises(LomoError, match=f"^{re.escape(message)}$"):
        TrainConfig(reg_lambda=reg_lambda, eta=eta)
    assert TrainConfig(reg_lambda=0.99, eta=1.0).reg_lambda == 0.99


def test_config_keeps_real_rates_as_given():
    cfg = TrainConfig(eta=1, reg_lambda=np.float64(0.5))
    assert type(cfg.eta) is int and cfg.eta == 1
    assert type(cfg.reg_lambda) is np.float64 and cfg.reg_lambda == 0.5


def test_config_accepts_numpy_integers_as_python_ints():
    cfg = TrainConfig(num_templates=np.int64(2), exclusion_t=np.int32(1), max_iter=np.uint16(7),
                      seed=np.int64(5))
    values = (cfg.num_templates, cfg.exclusion_t, cfg.max_iter, cfg.seed)
    assert values == (2, 1, 7, 5)
    assert all(type(v) is int for v in values)


# ---------------------------------------------------------------------------
# sgd_step, the reference step in oracle.py


def test_sgd_step_no_update_when_margin_satisfied():
    model = LomoModel(np.array([[1.0, 0.0]]), np.array([0.5]))
    ex = _seq([[2.0, 0.0], [0.0, 1.0]], 1)  # score = 2.0 + 0.5, margin held
    out = sgd_step(model, ex, TrainConfig(num_templates=1, exclusion_t=0))
    assert out is model  # untouched object, not merely equal


def test_sgd_step_violating_positive_hand_computed():
    eta, lam = 0.05, 1e-5
    model = LomoModel(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([0.0, 0.0]),
    )
    # picks: template 1 -> frame 1 (score 0.2), template 2 -> frame 3 (score 0.1)
    frames = [[0.2, 0.0], [0.0, 0.0], [0.0, 0.1]]
    ex = _seq(frames, 1)
    cfg = TrainConfig(num_templates=2, eta=eta, reg_lambda=lam, exclusion_t=0)
    out = sgd_step(model, ex, cfg)

    shrink = 1.0 - lam * eta
    expected_w1 = np.array([1.0, 0.0]) * shrink + (eta * 1 / 2) * np.array([0.2, 0.0])
    expected_w2 = np.array([0.0, 1.0]) * shrink + (eta * 1 / 2) * np.array([0.0, 0.1])
    np.testing.assert_array_equal(out.templates[0], expected_w1)
    np.testing.assert_array_equal(out.templates[1], expected_w2)
    # realized pattern (1,2) is index 1; gradient mode adds eta * y there
    np.testing.assert_array_equal(out.costs, [eta, 0.0])


def test_sgd_step_violating_negative_pushes_templates_away():
    eta = 0.1
    model = LomoModel(np.array([[1.0]]), np.array([0.0]))
    ex = _seq([[0.5]], -1)  # score 0.5, y*s = -0.5 < 1
    cfg = TrainConfig(num_templates=1, eta=eta, reg_lambda=0.0, exclusion_t=0)
    out = sgd_step(model, ex, cfg)
    assert out.templates[0, 0] == 1.0 - eta * 0.5
    assert out.costs[0] == -eta  # gradient mode: eta * y with y = -1


def test_sgd_step_literal_mode_always_subtracts_eta():
    eta = 0.05
    model = LomoModel(np.array([[0.0]]), np.array([0.0]))
    cfg = TrainConfig(num_templates=1, eta=eta, exclusion_t=0, cost_update="literal")
    for label in (1, -1):
        out = sgd_step(model, _seq([[0.1]], label), cfg)
        assert out.costs[0] == -eta


def test_sgd_step_keeps_costs_frozen_for_baselines():
    model = LomoModel(np.array([[0.0, 0.0]]), np.array([0.0]))
    ex = _seq([[1.0, 2.0]], 1)  # one frame, as pooling leaves it
    out = sgd_step(model, ex, TrainConfig(variant="mil", exclusion_t=0))
    assert out.costs[0] == 0.0
    assert out.templates[0, 1] != 0.0  # template update still happens


def test_sgd_step_uses_the_realized_pattern_index():
    model = LomoModel(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
    # template 1 fires late, template 2 early -> pattern (2,1) -> index 2
    ex = _seq([[0.0, 0.3], [0.0, 0.0], [0.3, 0.0]], 1)
    cfg = TrainConfig(num_templates=2, eta=0.05, exclusion_t=0)
    out = sgd_step(model, ex, cfg)
    np.testing.assert_array_equal(out.costs, [0.0, 0.05])


def test_train_turns_an_overflowing_step_into_a_lomo_error():
    data = [_seq([[1e5, 0.0]], 1), _seq([[0.0, 1e5]], -1)]
    cfg = TrainConfig(num_templates=1, eta=1e300, reg_lambda=0.0, exclusion_t=0, max_iter=50,
                      seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LomoError, match=(
            r"^training step 7: overflow in a template score with eta=1e\+300, reg_lambda=0\.0$"
        )):
            train_binary(data, 1, cfg)
        assert train_binary(data, 1, TrainConfig(num_templates=1, eta=1e300, reg_lambda=0.0,
                                                 exclusion_t=0, max_iter=6, seed=0)).dim == 2


SCORE_OVERFLOW = [[1e5, 0.0], [0.0, 1.0], [2.0, 1e5]], [[0.0, 1e5], [1e5, 3.0], [1.0, 1.0]]
UPDATE_OVERFLOW = [[1e10, 0.0], [0.0, 2.0], [1e10, 0.5]], [[0.0, 1.0], [0.25, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("frames, what, m, step", [
    (SCORE_OVERFLOW, "a template score", 1, 7),
    (SCORE_OVERFLOW, "a template score", 2, 3),
    (SCORE_OVERFLOW, "a template score", 3, 2),
    (UPDATE_OVERFLOW, "an update", 1, 17),
    (UPDATE_OVERFLOW, "an update", 2, 13),
])
def test_train_names_the_overflowing_step_of_multi_frame_data(frames, what, m, step):
    # multi-frame data takes the general step, which scores all M templates
    # with one stacked matmul; the message names the value that overflowed
    data = [_seq(frames[0], 1, "a"), _seq(frames[1], -1, "b")]

    def cfg(max_iter):
        return TrainConfig(num_templates=m, eta=1e300, reg_lambda=0.0, exclusion_t=0,
                           max_iter=max_iter, seed=0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LomoError, match=(
            rf"^training step {step}: overflow in {what} "
            r"with eta=1e\+300, reg_lambda=0\.0$"
        )):
            train_binary(data, 1, cfg(50))
        assert train_binary(data, 1, cfg(step - 1)).num_templates == m


# ---------------------------------------------------------------------------
# objective


def test_objective_hand_computed():
    model = LomoModel(np.array([[1.0, 0.0]]), np.array([0.0]))
    data = [
        _seq([[2.0, 0.0]], 1),   # s = 2, hinge 0
        _seq([[0.5, 0.0]], -1),  # s = 0.5, hinge 1.5
    ]
    lam = 0.2
    cfg = TrainConfig(num_templates=1, exclusion_t=0, reg_lambda=lam)
    expected = 0.5 * lam * 1.0 + (0.0 + 1.5) / 2
    assert objective(model, data, 1, cfg) == pytest.approx(expected, rel=1e-12)
    # class labels become the same targets as train_binary's
    named = [(seq, "pos" if y == 1 else "neg") for seq, y in data]
    assert objective(model, named, "pos", cfg) == objective(model, data, 1, cfg)


@pytest.mark.parametrize("reg_lambda", [float("nan"), float("inf"), -float("inf"), -1.0, 10**400])
def test_objective_rejects_a_reg_lambda_that_config_refuses(reg_lambda):
    # objective reads lambda from its config; another lambda is another config
    model = LomoModel(np.zeros((1, 1)), np.zeros(1))
    data = [_seq([[1.0]], 1), _seq([[2.0]], -1)]
    cfg = TrainConfig(num_templates=1)
    message = f"reg_lambda must be finite and >= 0, got {reg_lambda}"
    with pytest.raises(LomoError, match=f"^{re.escape(message)}$"):
        objective(model, data, 1, replace(cfg, reg_lambda=reg_lambda))
    assert objective(model, data, 1, replace(cfg, reg_lambda=0.0)) == 1.0


def test_objective_rejects_empty_data():
    model = LomoModel(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(LomoError, match="at least one example"):
        objective(model, [], 1, TrainConfig(num_templates=1))


def test_objective_names_an_item_that_is_not_a_pair():
    model = LomoModel(np.zeros((1, 1)), np.zeros(1))
    message = r"^data\[0\] must be a \(FrameSequence, label\) pair, got 1$"
    with pytest.raises(LomoError, match=message):
        objective(model, [1], 1, TrainConfig(num_templates=1))


# ---------------------------------------------------------------------------
# train


def _toy_data(rng, n_per_class=8, n_frames=12, d=3):
    data = []
    for i in range(n_per_class):
        pos = rng.normal(size=(n_frames, d)) * 0.1
        pos[3] = [2.0, 0.0, 0.0]
        data.append(_seq(pos, 1, f"p{i}"))
        neg = rng.normal(size=(n_frames, d)) * 0.1
        data.append(_seq(neg, -1, f"n{i}"))
    return data


def test_train_is_deterministic_in_the_seed():
    rng = np.random.default_rng(8)
    data = _toy_data(rng)
    cfg = TrainConfig(num_templates=2, exclusion_t=1, max_iter=300, seed=5)
    a = train_binary(data, 1, cfg)
    b = train_binary(data, 1, cfg)
    assert a == b
    c = train_binary(data, 1, TrainConfig(num_templates=2, exclusion_t=1, max_iter=300, seed=6))
    assert a != c


def test_train_default_iterations_are_100_per_example():
    rng = np.random.default_rng(9)
    data = _toy_data(rng, n_per_class=3)  # 6 examples -> 600 default iterations
    cfg_default = TrainConfig(num_templates=1, exclusion_t=0, seed=1)
    cfg_explicit = TrainConfig(num_templates=1, exclusion_t=0, seed=1, max_iter=600)
    assert train_binary(data, 1, cfg_default) == train_binary(data, 1, cfg_explicit)


def test_train_learns_the_separable_toy_problem():
    rng = np.random.default_rng(10)
    data = _toy_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, seed=0, max_iter=2000)
    model = train_binary(data, 1, cfg)
    t = cfg.exclusion_t
    correct = sum(1 for seq, y in data if (1 if score(model, seq, t) > 0 else -1) == y)
    assert correct >= int(0.9 * len(data))


def test_train_rejects_single_class_data():
    data = [_seq([[1.0]], 1), _seq([[2.0]], 1)]
    with pytest.raises(LomoError, match=r"only label \+1"):
        train_binary(data, 1, TrainConfig(num_templates=1, exclusion_t=0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data: objective(init_model(1, 1, generator(0)), data, 1, None),
         r"^cfg must be a TrainConfig, got None$"),
        (lambda data: train_binary([(seq, "a") for seq, _ in data], "a", {}),
         r"^cfg must be a TrainConfig, got \{\}$"),
        (lambda data: train_ova([(seq, "a") for seq, _ in data], 3),
         r"^cfg must be a TrainConfig, got 3$"),
    ],
    ids=["objective", "train-binary", "train-ova"],
)
def test_training_names_a_config_of_the_wrong_type(call, message):
    with pytest.raises(LomoError, match=message):
        call([_seq([[1.0]], 1), _seq([[2.0]], -1)])


def test_train_rejects_dimension_mixture():
    data = [_seq([[1.0]], 1, "a"), _seq([[1.0, 2.0]], -1, "b")]
    with pytest.raises(LomoError, match="^sequence b: dimension 2 differs from 1$"):
        train_binary(data, 1, TrainConfig(num_templates=1, exclusion_t=0))


def test_train_rejects_short_sequences_naming_the_offender():
    ok = np.zeros((13, 2))
    data = [_seq(ok, 1, "long"), _seq(np.zeros((5, 2)), -1, "shorty")]
    with pytest.raises(LomoError, match="sequence shorty: 5 frames is too short"):
        train_binary(data, 1, TrainConfig(num_templates=3, exclusion_t=2))


def test_min_frames_bound_is_tight():
    # Worst case: interior picks each erase a full 2t+1 window, so M picks can
    # exhaust (M-1)*(2t+1) frames and training must demand one more than that.
    m, t = 3, 2
    need = (m - 1) * (2 * t + 1) + 1
    model = LomoModel(np.ones((m, 1)), np.zeros(6))
    # peaks at interior positions 3 and 8 (1-based): their windows cover
    # frames 1..10, so with only need-1 = 10 frames the third pick starves
    starved = np.zeros((need - 1, 1))
    starved[2, 0] = 10.0
    starved[7, 0] = 9.0
    with pytest.raises(LomoError, match="sequence too short"):
        latent_assign(model, FrameSequence(starved), t)
    # one extra frame always leaves a survivor, whatever the scores are
    padded = np.vstack([starved, [[0.0]]])
    a = latent_assign(model, FrameSequence(padded), t)
    assert a.chosen == (3, 8, 11)


def test_train_empty_data_error():
    # every public trainer refuses data without its positive label first;
    # the kernel's own guard stands behind them
    with pytest.raises(LomoError, match="training data is empty"):
        lomo.training._train([], [], TrainConfig())


# ---------------------------------------------------------------------------
# MIL reduction


def test_mil_model_scores_like_single_template_with_zero_costs():
    rng = np.random.default_rng(12)
    data = _toy_data(rng)
    mil = train_binary(data, 1, TrainConfig(variant="mil", exclusion_t=0, seed=2, max_iter=400))
    np.testing.assert_array_equal(mil.costs, np.zeros(1))
    reference = LomoModel(mil.templates.copy(), np.zeros(1))
    for seq, _ in data:
        assert score(mil, seq, 0) == score(reference, seq, 0)


# ---------------------------------------------------------------------------
# one-vs-all


def _ova_data(rng):
    data = []
    centers = {"a": [3.0, 0.0], "b": [0.0, 3.0], "c": [-3.0, 0.0]}
    for name, center in centers.items():
        for _ in range(6):
            frames = rng.normal(size=(4, 2)) * 0.2 + np.asarray(center)
            data.append((FrameSequence(frames), name))
    return data


def test_train_ova_returns_sorted_deterministic_models():
    rng = np.random.default_rng(14)
    data = _ova_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, seed=3, max_iter=300)
    models = train_ova(data, cfg)
    assert list(models) == ["a", "b", "c"]
    again = train_ova(data, cfg)
    assert all(models[k] == again[k] for k in models)
    # per-class child seeds: class models must differ from one another
    assert models["a"] != models["b"]


def test_train_ova_checks_its_pairs_once_for_all_classes(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return require_pairs(*args, **kwargs)

    monkeypatch.setattr(lomo.training, "require_pairs", counted)
    models = train_ova(_ova_data(np.random.default_rng(17)),
                       TrainConfig(num_templates=1, exclusion_t=0, max_iter=50))
    assert sorted(models) == ["a", "b", "c"] and calls == ["data"]


def test_train_ova_rejects_missing_class():
    rng = np.random.default_rng(15)
    data = _ova_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, max_iter=100)
    with pytest.raises(LomoError, match=r"^positive label 'd' not among classes \['a', 'b', 'c'\]$"):
        train_ova(data, cfg, classes=["a", "b", "c", "d"])


def test_train_binary_is_train_on_one_vs_rest_targets():
    rng = np.random.default_rng(19)
    data = _ova_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, seed=5, max_iter=300)
    expected = train_binary([(seq, 1 if label == "b" else -1) for seq, label in data], 1, cfg)
    assert train_binary(data, "b", cfg) == expected
    # train_ova is train_binary per sorted class, with the class index's child seed
    models = train_ova(data, cfg)
    for idx, name in enumerate(sorted(models)):
        sub_cfg = TrainConfig(num_templates=1, exclusion_t=0, seed=child_seed(5, idx), max_iter=300)
        assert models[name] == train_binary(data, name, sub_cfg)


_ONE_FRAME = FrameSequence(np.zeros((1, 1)))


@pytest.mark.parametrize(
    "data, message",
    [
        ([1], r"^data\[0\] must be a \(FrameSequence, label\) pair, got 1$"),
        ([(1, "a")], r"^data\[0\] must be a \(FrameSequence, label\) pair, got \(1, 'a'\)$"),
        (["ab"], r"^data\[0\] must be a \(FrameSequence, label\) pair, got 'ab'$"),
        ([], r"^positive label 'a' not among classes \[\]$"),
        ([(_ONE_FRAME, "b"), (_ONE_FRAME, "c")],
         r"^positive label 'a' not among classes \['b', 'c'\]$"),
        ([(_ONE_FRAME, "a"), (_ONE_FRAME, 1)],
         r"^class labels must be hashable and of one sortable kind: '<' not supported "
         r"between instances of 'int' and 'str'$"),
    ],
    ids=["int", "pair-without-sequence", "str", "empty", "unknown-positive-label",
         "mixed-label-types"],
)
def test_train_binary_validation(data, message):
    with pytest.raises(LomoError, match=message):
        train_binary(data, "a", TrainConfig(num_templates=1, exclusion_t=0))


@pytest.mark.parametrize(
    "data, message",
    [
        ([], r"^one-vs-all needs >= 2 classes, got \[\]$"),
        ([(_ONE_FRAME, "a"), None],
         r"^data\[1\] must be a \(FrameSequence, label\) pair, got None$"),
        ([(_ONE_FRAME, "a"), (_ONE_FRAME, 1)],
         r"^class labels must be hashable and of one sortable kind: '<' not supported "
         r"between instances of 'int' and 'str'$"),
        ([(_ONE_FRAME, ["a"]), (_ONE_FRAME, "b")],
         r"^class labels must be hashable and of one sortable kind: unhashable type: 'list'$"),
    ],
    ids=["empty", "not-a-pair", "mixed-label-types", "unhashable-label"],
)
def test_train_ova_validation(data, message):
    with pytest.raises(LomoError, match=message):
        train_ova(data, TrainConfig(num_templates=1, exclusion_t=0))


def test_train_ova_needs_two_classes():
    rng = np.random.default_rng(16)
    seqs = [(FrameSequence(rng.normal(size=(3, 2))), "only") for _ in range(4)]
    with pytest.raises(LomoError, match=">= 2 classes"):
        train_ova(seqs, TrainConfig(num_templates=1, exclusion_t=0))


def test_train_ova_predictions_recover_the_classes():
    rng = np.random.default_rng(18)
    data = _ova_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, seed=4, max_iter=600)
    models = train_ova(data, cfg)
    names = sorted(models)
    scores = np.stack([score_sequences(models[name], [seq for seq, _ in data], cfg.exclusion_t)
                       for name in names])
    preds = [names[k] for k in scores.argmax(axis=0)]
    hits = sum(1 for (_, label), pred in zip(data, preds) if pred == label)
    assert hits >= int(0.9 * len(data))


def test_train_timings_times_a_train(capsys, monkeypatch):
    script = Path(__file__).parents[1] / "tools" / "train_timings.py"
    monkeypatch.syspath_prepend(str(script.parent))  # as `python3 tools/train_timings.py` has it
    spec = importlib.util.spec_from_file_location("train_timings", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = ["--dim", "4", "--files", "20", "--frames", "20", "--exclusion-t", "2", "--runs", "2"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d=4 files=20 frames=20 templates=3 exclusion_t=2 runs=2"
    figures = json.loads(lines[-1])
    assert sorted(figures) == ["train_cpu"]
    assert figures["train_cpu"]["median_ms"] > 0 and figures["train_cpu"]["iqr_ms"] >= 0
