"""Unit tests for greedy latent assignment, scoring, and fusion."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lomo.core import LomoError
from lomo.inference import (
    FrameSequence,
    InferenceConfig,
    fuse_scores,
    latent_assign,
    score,
)
from lomo.model import LomoModel, perm_index, rank_pattern


# ---------------------------------------------------------------------------
# oracle: plain-python greedy with explicit loops, no numpy vector tricks


def oracle_greedy(templates, frames, t):
    """Reference greedy pick: per template, best surviving frame (lowest index
    on ties), then drop the closed window [k - t, k + t].  Returns 1-based
    picks and their scores, or None if a template finds no frame."""
    n = len(frames)
    alive = [True] * n
    picks, scores = [], []
    for w in templates:
        best_f, best_s = None, None
        for f in range(n):
            if not alive[f]:
                continue
            s = math.fsum(wi * xi for wi, xi in zip(w, frames[f]))
            if best_s is None or s > best_s:
                best_f, best_s = f, s
        if best_f is None:
            return None
        picks.append(best_f + 1)
        scores.append(best_s)
        for f in range(max(0, best_f - t), min(n, best_f + t + 1)):
            alive[f] = False
    return picks, scores


def random_case(rng):
    d = int(rng.integers(1, 6))
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 32))
    t = int(rng.integers(0, 7))
    model = LomoModel(rng.normal(size=(m, d)), rng.normal(size=math.factorial(m)))
    frames = rng.normal(size=(n, d))
    return model, FrameSequence(frames), InferenceConfig(exclusion_t=t)


# ---------------------------------------------------------------------------
# FrameSequence


def test_frame_sequence_validation():
    with pytest.raises(LomoError, match=r"frames must be \(N, d\)"):
        FrameSequence(np.zeros(3))
    with pytest.raises(LomoError, match="at least one frame"):
        FrameSequence(np.zeros((0, 2)))
    with pytest.raises(LomoError, match="non-finite"):
        FrameSequence(np.array([[np.inf, 0.0]]))


def test_frame_sequence_error_names_the_sequence():
    with pytest.raises(LomoError, match="clip7"):
        FrameSequence(np.array([[np.nan]]), id="clip7")


def test_inference_config_rejects_negative_t():
    with pytest.raises(LomoError, match="^exclusion_t must be >= 0, got -1$"):
        InferenceConfig(exclusion_t=-1)


def test_inference_config_requires_an_integer_t():
    with pytest.raises(LomoError, match=r"exclusion_t must be an integer, got 1\.5"):
        InferenceConfig(exclusion_t=1.5)
    cfg = InferenceConfig(exclusion_t=np.int64(2))
    assert cfg.exclusion_t == 2 and type(cfg.exclusion_t) is int


# ---------------------------------------------------------------------------
# hand-traced greedy cases


def _two_template_model():
    return LomoModel(
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.array([0.5, -0.5]),  # pattern (1,2) -> +0.5, pattern (2,1) -> -0.5
    )


def test_greedy_hand_traced_forward():
    seq = FrameSequence(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
    a = latent_assign(_two_template_model(), seq, InferenceConfig(exclusion_t=0))
    assert a.chosen == (1, 3)
    assert a.template_scores == (1.0, 2.0)
    assert a.perm == 1
    assert a.ordering_cost == 0.5
    assert a.total == (1.0 + 2.0) / 2 + 0.5 == 2.0


def test_greedy_hand_traced_reversed():
    seq = FrameSequence(np.array([[0.0, 2.0], [0.0, 0.0], [1.0, 0.0]]))
    a = latent_assign(_two_template_model(), seq, InferenceConfig(exclusion_t=0))
    assert a.chosen == (3, 1)
    assert a.perm == 2
    assert a.total == 1.5 - 0.5 == 1.0


def test_greedy_single_template_degenerate():
    model = LomoModel(np.array([[2.0, -1.0]]), np.array([0.25]))
    frames = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 1.0]])
    a = latent_assign(model, FrameSequence(frames), InferenceConfig(exclusion_t=50))
    assert a.chosen == (3,)
    assert a.template_scores == (5.0,)
    assert a.total == 5.25


def test_greedy_tie_breaks_to_lowest_frame_index():
    model = LomoModel(np.array([[1.0]]), np.array([0.0]))
    frames = np.array([[2.0], [7.0], [7.0], [1.0]])
    a = latent_assign(model, FrameSequence(frames), InferenceConfig(exclusion_t=0))
    assert a.chosen == (2,)


def test_exclusion_window_is_closed_on_both_sides():
    # identical templates: the second pick must sit outside [k1 - t, k1 + t]
    model = LomoModel(np.array([[1.0], [1.0]]), np.array([0.0, 0.0]))
    frames = np.array([[5.0], [4.9], [4.8], [4.7], [4.6], [0.1]])
    a = latent_assign(model, FrameSequence(frames), InferenceConfig(exclusion_t=2))
    assert a.chosen == (1, 4)


def test_zero_model_scores_zero_everywhere():
    model = LomoModel(np.zeros((2, 3)), np.zeros(2))
    rng = np.random.default_rng(3)
    for _ in range(10):
        seq = FrameSequence(rng.normal(size=(12, 3)))
        assert score(model, seq, InferenceConfig(exclusion_t=1)) == 0.0


def test_score_scales_linearly_with_frames_when_costs_are_zero():
    rng = np.random.default_rng(4)
    model = LomoModel(rng.normal(size=(2, 3)), np.zeros(2))
    frames = rng.normal(size=(15, 3))
    cfg = InferenceConfig(exclusion_t=2)
    base = latent_assign(model, FrameSequence(frames), cfg)
    for alpha in (0.5, 2.0, 10.0):
        scaled = latent_assign(model, FrameSequence(alpha * frames), cfg)
        assert scaled.chosen == base.chosen
        assert scaled.total == pytest.approx(alpha * base.total, rel=1e-12)


# ---------------------------------------------------------------------------
# greedy contract against the oracle


def test_greedy_matches_oracle_on_random_triples():
    rng = np.random.default_rng(17)
    checked_errors = 0
    for _ in range(200):
        model, seq, cfg = random_case(rng)
        expected = oracle_greedy(model.templates, seq.frames, cfg.exclusion_t)
        if expected is None:
            with pytest.raises(LomoError, match="sequence too short"):
                latent_assign(model, seq, cfg)
            checked_errors += 1
            continue
        picks, scores = expected
        a = latent_assign(model, seq, cfg)
        assert list(a.chosen) == picks
        np.testing.assert_allclose(a.template_scores, scores, rtol=1e-12)
        # exclusion invariant and score bookkeeping
        t = cfg.exclusion_t
        for i in range(len(picks)):
            for j in range(i + 1, len(picks)):
                assert abs(picks[i] - picks[j]) >= t + 1
        assert a.perm == perm_index(rank_pattern(a.chosen))
        assert a.ordering_cost == model.costs[a.perm - 1]
        assert a.total == pytest.approx(
            float(np.mean(a.template_scores)) + a.ordering_cost, rel=1e-12
        )
    assert checked_errors > 0  # the random mix must exercise the error path


def test_too_short_error_names_n_m_t():
    model = LomoModel(np.ones((3, 1)), np.zeros(6))
    seq = FrameSequence(np.ones((4, 1)), id="tiny")
    with pytest.raises(LomoError, match=r"N=4.*M=3.*exclusion_t=2.*tiny"):
        latent_assign(model, seq, InferenceConfig(exclusion_t=2))


def test_dimension_mismatch_names_both_sides():
    model = LomoModel(np.ones((1, 3)), np.zeros(1))
    seq = FrameSequence(np.ones((2, 2)), id="s")
    with pytest.raises(LomoError, match="model d=3.*d=2"):
        latent_assign(model, seq, InferenceConfig())


# ---------------------------------------------------------------------------
# fusion


def test_fuse_scores_is_the_mean():
    assert fuse_scores([2.0]) == 2.0
    assert fuse_scores([1.0, -1.0]) == 0.0
    assert fuse_scores([0.3, 0.6, 0.9]) == pytest.approx(0.6)


def test_fuse_scores_rejects_empty():
    with pytest.raises(LomoError, match="at least one score"):
        fuse_scores([])
