"""Unit tests for the subgradient trainer, its config, and the variants."""

from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from lomo.core import LomoError, Rng
from lomo.inference import FrameSequence, InferenceConfig, latent_assign, score, score_sequences
from lomo.model import LomoModel, init_model
from lomo.training import (
    LabeledSequence,
    TrainConfig,
    objective,
    train,
    train_ova,
)
from oracle import sgd_step


def _seq(frames, label, seq_id=""):
    return LabeledSequence(FrameSequence(np.asarray(frames, dtype=float), id=seq_id), label)


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
    for variant in ("mil", "svm_pool"):
        cfg = TrainConfig(variant=variant, num_templates=5)
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
    with pytest.raises(LomoError, match="^max_iter must be >= 1, got 0$"):
        TrainConfig(max_iter=0)
    with pytest.raises(LomoError, match="^exclusion_t must be >= 0, got -1$"):
        TrainConfig(exclusion_t=-1)
    with pytest.raises(LomoError, match="num_templates"):
        TrainConfig(num_templates=9)
    with pytest.raises(LomoError, match="^seed must be >= 0, got -1$"):
        TrainConfig(seed=-1)


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


def test_labeled_sequence_rejects_other_labels():
    with pytest.raises(LomoError, match=r"label must be \+1 or -1"):
        _seq([[1.0]], 0)


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
    ex = _seq([[1.0, 2.0]], 1)
    for variant in ("mil", "svm_pool"):
        out = sgd_step(model, ex, TrainConfig(variant=variant, exclusion_t=0))
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
            r"^training step 7: overflow encountered in dot with eta=1e\+300, reg_lambda=0\.0$"
        )):
            train(data, cfg)
        assert train(data, TrainConfig(num_templates=1, eta=1e300, reg_lambda=0.0,
                                       exclusion_t=0, max_iter=6, seed=0)).dim == 2


# ---------------------------------------------------------------------------
# objective


def test_objective_hand_computed():
    model = LomoModel(np.array([[1.0, 0.0]]), np.array([0.0]))
    data = [
        _seq([[2.0, 0.0]], 1),   # s = 2, hinge 0
        _seq([[0.5, 0.0]], -1),  # s = 0.5, hinge 1.5
    ]
    cfg = TrainConfig(num_templates=1, exclusion_t=0)
    lam = 0.2
    expected = 0.5 * lam * 1.0 + (0.0 + 1.5) / 2
    assert objective(model, data, lam, cfg) == pytest.approx(expected, rel=1e-12)


def test_objective_rejects_empty_data():
    model = LomoModel(np.zeros((1, 1)), np.zeros(1))
    with pytest.raises(LomoError, match="at least one example"):
        objective(model, [], 0.0, TrainConfig(num_templates=1))


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
    a = train(data, cfg)
    b = train(data, cfg)
    assert a == b
    c = train(data, TrainConfig(num_templates=2, exclusion_t=1, max_iter=300, seed=6))
    assert a != c


def test_train_default_iterations_are_100_per_example():
    rng = np.random.default_rng(9)
    data = _toy_data(rng, n_per_class=3)  # 6 examples -> 600 default iterations
    cfg_default = TrainConfig(num_templates=1, exclusion_t=0, seed=1)
    cfg_explicit = TrainConfig(num_templates=1, exclusion_t=0, seed=1, max_iter=600)
    assert train(data, cfg_default) == train(data, cfg_explicit)


def test_train_learns_the_separable_toy_problem():
    rng = np.random.default_rng(10)
    data = _toy_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, seed=0, max_iter=2000)
    model = train(data, cfg)
    icfg = cfg.inference_config()
    correct = sum(
        1 for ex in data if (1 if score(model, ex.sequence, icfg) > 0 else -1) == ex.label
    )
    assert correct >= int(0.9 * len(data))


def test_train_rejects_single_class_data():
    data = [_seq([[1.0]], 1), _seq([[2.0]], 1)]
    with pytest.raises(LomoError, match=r"only label \+1"):
        train(data, TrainConfig(num_templates=1, exclusion_t=0))


def test_train_rejects_dimension_mixture():
    data = [_seq([[1.0]], 1, "a"), _seq([[1.0, 2.0]], -1, "b")]
    with pytest.raises(LomoError, match="^sequence b: dimension 2 differs from 1$"):
        train(data, TrainConfig(num_templates=1, exclusion_t=0))


def test_train_rejects_short_sequences_naming_the_offender():
    ok = np.zeros((13, 2))
    data = [_seq(ok, 1, "long"), _seq(np.zeros((5, 2)), -1, "shorty")]
    with pytest.raises(LomoError, match="sequence shorty: 5 frames is too short"):
        train(data, TrainConfig(num_templates=3, exclusion_t=2))


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
        latent_assign(model, FrameSequence(starved), InferenceConfig(exclusion_t=t))
    # one extra frame always leaves a survivor, whatever the scores are
    padded = np.vstack([starved, [[0.0]]])
    a = latent_assign(model, FrameSequence(padded), InferenceConfig(exclusion_t=t))
    assert a.chosen == (3, 8, 11)


def test_train_svm_pool_requires_single_frame_sequences():
    data = [_seq([[1.0], [2.0]], 1, "two"), _seq([[0.0]], -1)]
    with pytest.raises(LomoError, match="sequence two: svm_pool expects pre-pooled"):
        train(data, TrainConfig(variant="svm_pool"))


def test_train_empty_data_error():
    with pytest.raises(LomoError, match="training data is empty"):
        train([], TrainConfig())


# ---------------------------------------------------------------------------
# MIL reduction


def test_mil_model_scores_like_single_template_with_zero_costs():
    rng = np.random.default_rng(12)
    data = _toy_data(rng)
    mil = train(data, TrainConfig(variant="mil", exclusion_t=0, seed=2, max_iter=400))
    np.testing.assert_array_equal(mil.costs, np.zeros(1))
    reference = LomoModel(mil.templates.copy(), np.zeros(1))
    icfg = InferenceConfig(exclusion_t=0)
    for ex in data:
        assert score(mil, ex.sequence, icfg) == score(reference, ex.sequence, icfg)


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


def test_train_ova_rejects_missing_class():
    rng = np.random.default_rng(15)
    data = _ova_data(rng)
    cfg = TrainConfig(num_templates=1, exclusion_t=0, max_iter=100)
    with pytest.raises(LomoError, match="class 'd' has zero examples"):
        train_ova(data, cfg, classes=["a", "b", "c", "d"])


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
    icfg = cfg.inference_config()
    names = sorted(models)
    scores = np.stack([score_sequences(models[name], [seq for seq, _ in data], icfg)
                       for name in names])
    preds = [names[k] for k in scores.argmax(axis=0)]
    hits = sum(1 for (_, label), pred in zip(data, preds) if pred == label)
    assert hits >= int(0.9 * len(data))
