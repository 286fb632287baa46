"""The array kernels against their reference oracles.

`train_binary` must equal a fold of `sgd_step` (oracle.py) over the same sample draws,
`assign_batch`/`score_sequences` must equal `latent_assign` row by row,
the l2 row kernel, in place or not, must equal per-row `np.linalg.norm`
division, every sequence of `apply_preprocess`'s stacked blocks must
equal the preprocessing steps written out one by one,
and the C-parsed sequence reader must equal the per-cell `float()` parse,
bit for bit (compared as bytes, so signed zeros count). The one-string sequence
writer must write the bytes of the per-value `format_float` loop. The PCA
fit's block-by-block mean and covariance must agree with one stacked copy of
the training frames (oracle.py) to 1e-12 of their scale, for any block size.
The training loop's stacked score product must equal one matvec per template under each
of five OpenBLAS cores, each forced in a child process, and `train_binary` must
score every step of its general loop with that product.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lomo.data
import lomo.inference
import lomo.training
from lomo.cli import main
from lomo.core import LomoError, format_float, generator
from lomo.data import (
    PreprocessConfig,
    _l2_rows,
    _merge_moments,
    _pca_moments,
    apply_preprocess,
    fit_preprocess,
    read_sequence,
    write_sequence,
)
from lomo.inference import (
    FrameSequence,
    assign_batch,
    score_sequences,
)
from lomo.model import MAX_TEMPLATES, LomoModel, init_model, save_model
from lomo.training import (
    _DRAW_CHUNK,
    COST_UPDATES,
    TrainConfig,
    _add_reduce,
    objective,
    train_binary,
)
from oracle import latent_assign, sgd_step, stacked_pca_moments
from test_frame_cache import settle

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _frames(rng, n, d, ties):
    """Normal frames, or small integers when `ties` so that scores tie often."""
    if ties:
        return rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    return rng.normal(size=(n, d))


def _min_frames(m, t):
    return (m - 1) * (2 * t + 1) + 1


def _sgd_fold(data, cfg, init=init_model):
    """The reference trainer: one sgd_step per single index draw."""
    rng = generator(cfg.seed)
    model = init(data[0][0].dim, cfg.num_templates, rng)
    for _ in range(cfg.num_steps(len(data))):
        model = sgd_step(model, data[int(rng.integers(len(data)))], cfg)
    return model


# ---------------------------------------------------------------------------
# train_binary == fold of sgd_step


@st.composite
def train_cases(draw):
    # pooled: mil on one frame; pooled-lomo: M=1 on one frame with the cost
    # table learned; mixed: M=1 on one-frame and longer sequences, which
    # takes the multi-frame loop
    kind = draw(st.sampled_from(["lomo", "mil", "pooled", "pooled-lomo", "mixed"]))
    variant = "mil" if kind in ("mil", "pooled") else "lomo"
    m = draw(st.integers(1, MAX_TEMPLATES)) if kind == "lomo" else 1
    t = draw(st.integers(0, 2 if m > 4 else 4))
    cfg = TrainConfig(
        num_templates=m,
        eta=draw(st.sampled_from([0.05, 0.3, 1.0, 2.5])),
        reg_lambda=draw(st.sampled_from([0.0, 1e-5, 0.1])),
        exclusion_t=t,
        max_iter=draw(st.integers(1, 150)),
        seed=draw(st.integers(0, 2**31)),
        variant=variant,
        cost_update=draw(st.sampled_from(["gradient", "literal"])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    d = draw(st.integers(1, 4))
    ties = draw(st.booleans())
    count = draw(st.integers(2, 7))
    data = []
    for k in range(count):
        if kind.startswith("pooled") or (kind == "mixed" and k == 0):
            n = 1
        else:
            n = _min_frames(m, t) + int(rng.integers(1 if kind == "mixed" else 0, 6))
        label = 1 if k % 2 == 0 else -1
        data.append((FrameSequence(_frames(rng, n, d, ties), id=f"s{k}"), label))
    return data, cfg


@SETTINGS
@given(train_cases())
def test_train_equals_a_fold_of_sgd_step(case):
    data, cfg = case
    got = train_binary(data, 1, cfg)
    want = _sgd_fold(data, cfg)
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)


def test_one_frame_training_takes_an_overflowing_update_at_its_own_step():
    # the update of "big" overflows, so no update table is built: the step
    # that takes it raises as the reference step's product does, and the
    # steps before it give the reference model bit for bit
    data = [(FrameSequence(np.array([[0.0, 1.0]]), id="a"), -1),
            (FrameSequence(np.array([[1e10, 0.0]]), id="big"), 1),
            (FrameSequence(np.array([[0.5, 0.5]]), id="c"), -1)]

    def cfg(max_iter):
        return TrainConfig(num_templates=1, eta=1e300, reg_lambda=0.0, exclusion_t=0,
                           max_iter=max_iter, seed=0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LomoError, match=(
            r"^training step 7: overflow in an update with eta=1e\+300, "
            r"reg_lambda=0\.0$"
        )):
            train_binary(data, 1, cfg(50))
        got, want = train_binary(data, 1, cfg(6)), _sgd_fold(data, cfg(6))
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)


@pytest.mark.parametrize("m", range(1, MAX_TEMPLATES + 1))
@pytest.mark.parametrize("cost_update", ["gradient", "literal"])
def test_train_equals_sgd_fold_for_every_template_count(m, cost_update):
    rng = np.random.default_rng(m)
    t = 1
    data = [
        (
            FrameSequence(rng.normal(size=(_min_frames(m, t) + 3, 3)), id=f"s{k}"),
            1 if k % 2 else -1,
        )
        for k in range(6)
    ]
    cfg = TrainConfig(num_templates=m, exclusion_t=t, max_iter=400, eta=0.5, seed=m,
                      cost_update=cost_update)
    got, want = train_binary(data, 1, cfg), _sgd_fold(data, cfg)
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)
    assert np.any(got.costs != 0.0)  # the cost table was exercised


def _assert_train_equals_fold(data, cfg):
    got, want = train_binary(data, 1, cfg), _sgd_fold(data, cfg)
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)


@pytest.mark.parametrize("iters", [_DRAW_CHUNK, _DRAW_CHUNK + 1, 2 * _DRAW_CHUNK + 1])
def test_train_equals_sgd_fold_across_draw_chunks(iters):
    # each sequence comes with both labels, so no model meets both margins
    # and 95-98% of the steps update it: a draw lost, added or moved at a
    # chunk boundary changes the model. One-frame sequences (M=1) take the
    # one-frame step.
    rng = np.random.default_rng(iters)
    for m, n in [(2, 7), (1, 1)]:
        seqs = [FrameSequence(rng.normal(size=(n, 2)), id=f"s{k}") for k in range(3)]
        data = [(seq, y) for seq in seqs for y in (1, -1)]
        cfg = TrainConfig(num_templates=m, exclusion_t=1, max_iter=iters, eta=0.05,
                          reg_lambda=0.1, seed=iters)
        _assert_train_equals_fold(data, cfg)


def test_the_one_frame_step_applies_the_literal_cost_update_as_the_fold_does():
    # lomo with M=1 on one-frame sequences takes the one-frame step and
    # learns its one cost; each sequence comes with both labels, so most
    # steps violate the margin and lower the cost by eta
    rng = np.random.default_rng(11)
    seqs = [FrameSequence(rng.normal(size=(1, 3)), id=f"s{k}") for k in range(3)]
    data = [(seq, y) for seq in seqs for y in (1, -1)]
    cfg = TrainConfig(num_templates=1, max_iter=200, eta=0.5, seed=11, cost_update="literal")
    _assert_train_equals_fold(data, cfg)
    assert train_binary(data, 1, cfg).costs[0] < 0.0


@pytest.mark.parametrize("m, t", [(3, 2), (3, 0), (MAX_TEMPLATES, 1)])
def test_train_equals_sgd_fold_when_later_picks_collide(m, t):
    # Every frame of a sequence is the same positive vector, scaled by a
    # slowly rising ramp, and the templates all move by nearly the same
    # frames: every score row rises (or falls) with the frame index, so the
    # unmasked argmax of a template after the first is nearly always the
    # first template's pick (3 299 of the 3 300 later picks in these three
    # cases), and only masking the windows finds the right frame.
    rng = np.random.default_rng(m + t)
    n = _min_frames(m, t) + 2
    ramp = 1.0 + 1e-3 * np.arange(n)[:, None]
    data = [
        (FrameSequence(ramp * (0.5 + np.abs(rng.normal(size=3))), id=f"s{k}"),
                        1 - 2 * (k % 2))
        for k in range(4)
    ]
    cfg = TrainConfig(num_templates=m, exclusion_t=t, max_iter=300, eta=0.5, seed=t)
    _assert_train_equals_fold(data, cfg)


@pytest.mark.parametrize("m", [1, 3, MAX_TEMPLATES])
def test_train_equals_sgd_fold_on_sequences_of_alternating_lengths(m):
    # Consecutive sequences cycle through three lengths, so the steps switch
    # between the training loop's per-length score buffers. The frames are small integers
    # in d=2, so most sequences repeat a frame: a score row then holds tied
    # maxima, and argmax(axis=1) must take each row's first. M=8 runs the
    # pairwise-sum branch.
    rng = np.random.default_rng(40 + m)
    t = 1
    lengths = [_min_frames(m, t) + extra for extra in (0, 3, 8)]
    data = [
        (FrameSequence(_frames(rng, lengths[k % 3], 2, ties=True), id=f"s{k}"),
                        1 - 2 * (k % 2))
        for k in range(9)
    ]
    cfg = TrainConfig(num_templates=m, exclusion_t=t, max_iter=600, eta=0.3, seed=m)
    _assert_train_equals_fold(data, cfg)


def test_train_equals_sgd_fold_on_mixed_one_frame_and_longer_sequences():
    # M=1 on one-frame sequences beside longer ones: not every sequence has
    # one frame, so every step, a one-frame draw too, takes the general step
    rng = np.random.default_rng(5)
    data = [
        (FrameSequence(_frames(rng, n, 3, ties=k % 2 == 0), id=f"s{k}"),
                        1 - 2 * (k % 2))
        for k, n in enumerate([1, 1, 6, 1, 2, 9])
    ]
    for variant in ("lomo", "mil"):
        cfg = TrainConfig(num_templates=1, exclusion_t=2, max_iter=500, eta=0.5,
                          reg_lambda=0.1, seed=3, variant=variant)
        _assert_train_equals_fold(data, cfg)


def test_train_decides_eight_templates_on_the_pairwise_sum(monkeypatch):
    # Eight identity templates each pick their own frame of the positive
    # sequence, with scores B, 8, -B, 8, B, 8, -B, 8 (B = 2**60, whose ulp is
    # 256). Left to right they sum to 8, a margin of exactly 1; numpy's
    # pairwise tree, which latent_assign's mean runs, sums them to 0, a
    # violation that the fold updates on.
    b = 2.0**60
    pos = np.full((8, 8), -(2.0**80))
    np.fill_diagonal(pos, [b, 8, -b, 8, b, 8, -b, 8])
    data = [(FrameSequence(pos, id="pos"), 1),
            (FrameSequence(np.zeros((8, 8)), id="neg"), -1)]

    def identity_init(dim, m, rng):
        init_model(dim, m, rng)  # draws what it always draws
        return LomoModel(np.eye(8), np.zeros(math.factorial(8)))

    monkeypatch.setattr(lomo.training, "init_model", identity_init)
    cfg = TrainConfig(num_templates=8, exclusion_t=0, max_iter=20, eta=0.5, seed=1)
    got, want = train_binary(data, 1, cfg), _sgd_fold(data, cfg, identity_init)
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)


class _CheckedMatmul:
    """numpy, but each matmul must be the general step's stacked score
    product: an (N, d) frame matrix times the (M, d, 1) templates into an
    (M, N, 1) buffer, equal bit for bit to one x.dot(w) per template."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, stacked, out):
        np.matmul(x, stacked, out=out)
        assert x.ndim == 2 and stacked.shape == (len(stacked), x.shape[1], 1)
        assert _bits(out) == _bits([x.dot(w) for w in stacked[:, :, 0]])
        self.calls += 1
        return out


@pytest.mark.parametrize("m", [1, 3, MAX_TEMPLATES])
def test_train_scores_each_general_step_with_the_checked_stacked_product(monkeypatch, m):
    # the product that train runs, not a copy of it: swapped for another
    # (an einsum, a 2-D gemm), it is called no more or fails the check
    rng = np.random.default_rng(60 + m)
    t = 1
    data = [
        (FrameSequence(rng.normal(size=(_min_frames(m, t) + extra, 5)), id=f"s{k}"),
         1 - 2 * (k % 2))
        for k, extra in enumerate([0, 4, 0, 9, 2, 4])
    ]
    checked = _CheckedMatmul()
    monkeypatch.setattr(lomo.training, "np", checked)
    cfg = TrainConfig(num_templates=m, exclusion_t=t, max_iter=300, eta=0.3, seed=m)
    got = train_binary(data, 1, cfg)
    assert checked.calls == 300  # one per step: no sequence here has one frame
    want = _sgd_fold(data, cfg)
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)


@pytest.mark.parametrize("cost_update", COST_UPDATES)
def test_train_scores_each_one_frame_step_with_the_checked_product(cost_update):
    # the one-frame step's x.dot(w), not a copy of it: swapped for another
    # product (np.add.reduce of x[0] * w differs from it in the last bit),
    # it is called no more; each call must score what the reference step
    # scores at that step, bit for bit
    rng = np.random.default_rng(70)
    scores = []

    class CheckedDot(np.ndarray):
        def dot(self, w, out=None):
            got = np.ndarray.dot(self, w, out)
            scores.append(got.item(0))
            return got

    plain = [(FrameSequence(rng.normal(size=(1, 20)), id=f"s{k}"), 1 - 2 * (k % 2))
             for k in range(6)]
    data = []
    for seq, label in plain:
        checked = FrameSequence(seq.frames, id=seq.id)
        object.__setattr__(checked, "frames", seq.frames.view(CheckedDot))
        data.append((checked, label))
    cfg = TrainConfig(num_templates=1, exclusion_t=0, max_iter=300, eta=0.3, seed=9,
                      cost_update=cost_update)
    got = train_binary(data, 1, cfg)
    rng = generator(cfg.seed)
    want = init_model(20, 1, rng)
    want_scores = []
    for _ in range(cfg.max_iter):
        example = plain[int(rng.integers(len(plain)))]
        want_scores.append(latent_assign(want, example[0], 0).template_scores[0])
        want = sgd_step(want, example, cfg)
    assert len(scores) == cfg.max_iter  # one per step
    assert _bits(scores) == _bits(want_scores)
    assert _bits(got.templates) == _bits(want.templates)
    assert _bits(got.costs) == _bits(want.costs)


# ---------------------------------------------------------------------------
# the stacked score product on every OpenBLAS kernel

# OPENBLAS_CORETYPE value -> the core scipy-openblas then reports running
_OPENBLAS_CORES = {"SkylakeX": "SkylakeX", "Haswell": "Haswell", "Prescott": "Katmai",
                   "Sandybridge": "Sandybridge", "Nehalem": "Nehalem"}
_NOT_SCIPY_OPENBLAS = 3  # exit status of a child whose numpy has another BLAS


def _openblas_core():
    """The core numpy's scipy-openblas64 runs, looked up in numpy.libs as the
    CI workflow does; None when numpy's BLAS is another library."""
    found = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if not found:
        return None
    corename = ctypes.CDLL(str(found[0])).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _check_stacked_scores_on_forced_core(core):
    """Runs in a child started with OPENBLAS_CORETYPE=core: that core runs,
    the training loop's stacked product equals one matvec per template, bit
    for bit, and train_binary equals the sgd_step fold."""
    running = _openblas_core()
    if running is None:
        sys.exit(_NOT_SCIPY_OPENBLAS)
    assert running == _OPENBLAS_CORES[core], f"OPENBLAS_CORETYPE={core} runs {running}"
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 4, 5, 7, 8, 13, 40, 57, 100):
        for d in (1, 2, 3, 4, 5, 7, 8, 20, 33, 100, 256):
            for m in (1, 2, 3, 5, 8):
                for _ in range(3):
                    x = rng.normal(size=(n, d))
                    templates = rng.normal(size=(m, d))
                    buf = np.empty((m, n, 1))
                    np.matmul(x, templates[:, :, None], out=buf)
                    # latent_assign's x @ w, and the one-frame step's x.dot(w)
                    want = _bits([x @ w for w in templates])
                    assert _bits(buf) == want == _bits([x.dot(w) for w in templates]), (n, d, m)
    data = [
        (FrameSequence(rng.normal(size=(n, 20)), id=f"s{k}"), 1 - 2 * (k % 2))
        for k, n in enumerate([40, 33, 40, 57, 24, 40])
    ]
    _assert_train_equals_fold(data, TrainConfig(num_templates=3, exclusion_t=5, max_iter=400,
                                                eta=0.3, seed=25))


@pytest.mark.parametrize("core", list(_OPENBLAS_CORES))
def test_stacked_scores_equal_per_template_dots_on_every_openblas_core(core):
    # Picks are argmaxes of BLAS score rows, so a model's bytes hold on a
    # kernel only if its stacked product rounds as its matvec does
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip(f"{core} is an x86-64 OpenBLAS core; this machine is {platform.machine()}")
    here = str(Path(__file__).parent)
    paths = [here, str(Path(lomo.data.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    script = f"import test_kernels; test_kernels._check_stacked_scores_on_forced_core({core!r})"
    child = subprocess.run([sys.executable, "-c", script], env=env, cwd=here,
                           capture_output=True, text=True, timeout=300)
    if child.returncode == -signal.SIGILL:
        pytest.skip(f"{core} kernels use instructions this CPU lacks (SIGILL)")
    if child.returncode == _NOT_SCIPY_OPENBLAS:
        pytest.skip("numpy's BLAS is not scipy-openblas64, so OPENBLAS_CORETYPE forces nothing")
    assert child.returncode == 0, child.stderr[-3000:]


_SUM_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
              1e308, -1e308, 1e16, 3.0, 0.1]


@SETTINGS
@given(st.lists(
    st.one_of(st.sampled_from(_SUM_EDGES), st.floats(allow_nan=False, allow_infinity=False),
              st.floats(-1e3, 1e3)),
    min_size=1, max_size=MAX_TEMPLATES,
))
def test_scalar_decision_sum_equals_add_reduce(values):
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan compare as bytes too
        want = np.add.reduce(np.array(values))
    assert _bits(_add_reduce(values)) == _bits(want)


@pytest.mark.parametrize("m", range(1, MAX_TEMPLATES + 1))
def test_scalar_decision_sum_rounds_like_add_reduce_on_mixed_magnitudes(m):
    rng = np.random.default_rng(m)
    for _ in range(2000):
        values = rng.normal(size=m) * 10.0 ** rng.integers(-20, 20, size=m)
        assert _bits(_add_reduce(values.tolist())) == _bits(np.add.reduce(values))


def test_scalar_decision_sum_of_negative_zeros_is_positive_zero():
    for m in range(1, MAX_TEMPLATES + 1):
        assert _bits(_add_reduce([-0.0] * m)) == _bits(0.0)


# ---------------------------------------------------------------------------
# batched scorer == latent_assign


@st.composite
def scoring_cases(draw):
    m = draw(st.integers(1, MAX_TEMPLATES))
    d = draw(st.integers(1, 4))
    t = draw(st.integers(0, 12))  # includes t >= N
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    ties = draw(st.booleans())
    model = LomoModel(_frames(rng, m, d, ties), rng.normal(size=math.factorial(m)))
    lengths = draw(st.lists(st.integers(1, 30), min_size=1, max_size=12))
    seqs = [FrameSequence(_frames(rng, n, d, ties), id=f"s{k}") for k, n in enumerate(lengths)]
    return model, seqs, t


def _oracle_totals(model, seqs, t):
    """latent_assign totals, or the ids of the sequences it rejects."""
    totals, starved = [], []
    for seq in seqs:
        try:
            totals.append(latent_assign(model, seq, t).total)
        except LomoError:
            starved.append(seq.id)
    return totals, starved


@SETTINGS
@given(scoring_cases(), st.sampled_from([1, 7, 1 << 16]))
def test_score_sequences_equals_latent_assign(case, block_values):
    model, seqs, t = case
    totals, starved = _oracle_totals(model, seqs, t)
    original = lomo.inference.BLOCK_VALUES
    lomo.inference.BLOCK_VALUES = block_values  # small blocks split each length group
    try:
        if starved:
            with pytest.raises(LomoError, match="sequence too short") as err:
                score_sequences(model, seqs, t)
            assert any(f"(sequence {i})" in str(err.value) for i in starved)
        else:
            assert _bits(score_sequences(model, seqs, t)) == _bits(totals)
    finally:
        lomo.inference.BLOCK_VALUES = original


@SETTINGS
@given(scoring_cases())
def test_assign_batch_rows_equal_latent_assign(case):
    model, seqs, t = case
    n = seqs[0].num_frames
    same = [FrameSequence(seq.frames[:n], id=seq.id) for seq in seqs if seq.num_frames >= n]
    refs = []
    for seq in same:
        try:
            refs.append(latent_assign(model, seq, t))
        except LomoError:
            with pytest.raises(LomoError, match="sequence too short"):
                assign_batch(model, same, t)
            return
    got = assign_batch(model, same, t)
    assert got.chosen.tolist() == [list(a.chosen) for a in refs]
    assert _bits(got.template_scores) == _bits([a.template_scores for a in refs])
    assert got.perm.tolist() == [a.perm for a in refs]
    assert _bits(got.ordering_cost) == _bits([a.ordering_cost for a in refs])
    assert _bits(got.total) == _bits([a.total for a in refs])


def test_assign_batch_edge_cases():
    single = LomoModel(np.array([[1.0, -1.0]]), np.array([0.25]))
    one_frame = FrameSequence(np.array([[3.0, 1.0]]), id="n1")
    assert assign_batch(single, [one_frame], 0).total.tolist() == [2.25]
    # t >= N: one pick empties the sequence
    assert assign_batch(single, [FrameSequence(np.ones((4, 2)))], 50).chosen.tolist() == [[1]]
    two = LomoModel(np.ones((2, 2)), np.zeros(2))
    with pytest.raises(LomoError, match=r"N=4 .*M=2.*exclusion_t=50 \(sequence wide\)"):
        assign_batch(two, [FrameSequence(np.ones((4, 2)), id="wide")], 50)
    # first-occurrence ties: equal rows pick the lowest surviving frames
    ties = FrameSequence(np.ones((5, 2)), id="flat")
    assert assign_batch(two, [ties], 0).chosen.tolist() == [[1, 2]]
    assert assign_batch(two, [ties], 1).chosen.tolist() == [[1, 3]]


def test_assign_batch_takes_unequal_lengths_and_empty_input():
    rng = np.random.default_rng(8)
    model = LomoModel(rng.normal(size=(2, 2)), rng.normal(size=2))
    seqs = [FrameSequence(rng.normal(size=(n, 2)), id=f"s{n}") for n in (2, 3, 2, 5)]
    got = assign_batch(model, seqs, 0)
    refs = [latent_assign(model, seq, 0) for seq in seqs]  # rows stay in input order
    assert got.chosen.tolist() == [list(a.chosen) for a in refs]
    assert _bits(got.template_scores) == _bits([a.template_scores for a in refs])
    assert got.perm.tolist() == [a.perm for a in refs]
    assert _bits(got.ordering_cost) == _bits([a.ordering_cost for a in refs])
    assert _bits(got.total) == _bits([a.total for a in refs])
    # no sequences: no rows, as score_sequences gives no scores
    empty = assign_batch(model, [], 0)
    assert empty.chosen.shape == empty.template_scores.shape == (0, 2)
    assert empty.perm.shape == empty.ordering_cost.shape == empty.total.shape == (0,)
    assert score_sequences(model, [], 0).shape == (0,)


def test_objective_matches_latent_assign_hinge():
    rng = np.random.default_rng(4)
    model = LomoModel(rng.normal(size=(2, 3)), rng.normal(size=2))
    data = [
        (FrameSequence(rng.normal(size=(n, 3))), 1 if n % 2 else -1)
        for n in (3, 5, 5, 8, 3)
    ]
    cfg = TrainConfig(num_templates=2, exclusion_t=1, reg_lambda=0.01)
    hinge = 0.0
    for seq, y in data:
        s = latent_assign(model, seq, cfg.exclusion_t).total
        hinge += max(0.0, 1.0 - y * s)
    reg = 0.5 * 0.01 * float(np.sum(model.templates * model.templates))
    assert objective(model, data, 1, cfg) == reg + hinge / len(data)


# ---------------------------------------------------------------------------
# errors name the offending sequence


def test_score_sequences_errors_name_the_offending_sequence():
    model = LomoModel(np.ones((2, 2)), np.zeros(2))
    ok = FrameSequence(np.ones((6, 2)), id="ok")
    short = FrameSequence(np.ones((2, 2)), id="shorty")
    with pytest.raises(LomoError, match=r"N=2 frames .*M=2.*\(sequence shorty\)"):
        score_sequences(model, [ok, short, ok], 1)
    wrong = FrameSequence(np.ones((6, 3)), id="wide")
    with pytest.raises(LomoError, match="model d=2, sequence wide d=3"):
        score_sequences(model, [ok, wrong], 1)


def test_an_overflowing_score_names_its_sequence_without_a_warning():
    model = LomoModel(np.full((2, 2), 1e300), np.zeros(2))
    ok = FrameSequence(np.ones((6, 2)), id="ok")
    huge = FrameSequence(np.full((6, 2), 1e10), id="huge")
    for seqs in ([ok, huge, ok], [huge]):  # one block, and a block of one
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LomoError, match=(
                "^sequence huge: overflow encountered in matmul while scoring$"
            )):
                score_sequences(model, seqs, 1)


def _write_manifest(tmp_path, seqs, header="id,label,group,path\n"):
    lines = []
    for k, frames in enumerate(seqs):
        write_sequence(FrameSequence(frames), tmp_path / f"r{k}.csv")
        lines.append(f"r{k},{'pos' if k % 2 else 'neg'},g{k % 3},r{k}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text(header + "\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _model_file(tmp_path, model):
    path = str(tmp_path / "m.lomo")
    save_model(model, path)
    return path


def test_predict_scores_mixed_lengths_like_latent_assign(tmp_path):
    rng = np.random.default_rng(7)
    lengths = [9, 4, 9, 12, 4, 7, 12, 9]
    frames = [rng.normal(size=(n, 3)) for n in lengths]
    model = LomoModel(rng.normal(size=(2, 3)), np.array([0.5, -0.25]))
    out = str(tmp_path / "p.csv")
    argv = ["predict", "--manifest", _write_manifest(tmp_path, frames),
            "--model", _model_file(tmp_path, model), "--exclusion-t", "1", "--out", out]
    assert main(argv) == 0
    rows = Path(out).read_text(encoding="utf-8").splitlines()[1:]
    for k, line in enumerate(rows):
        rec_id, value, _ = line.split(",")
        expected = latent_assign(model, FrameSequence(frames[k]), 1).total
        assert (rec_id, float(value)) == (f"r{k}", expected)


def test_predict_errors_name_the_offending_record(tmp_path, capsys):
    frames = [np.ones((8, 2)), np.ones((8, 2)), np.ones((2, 2)), np.ones((8, 2))]
    model = LomoModel(np.ones((2, 2)), np.zeros(2))
    argv = ["predict", "--manifest", _write_manifest(tmp_path, frames),
            "--model", _model_file(tmp_path, model), "--exclusion-t", "1"]
    assert main(argv) == 1
    assert "(sequence r2)" in capsys.readouterr().err
    wide = LomoModel(np.ones((1, 3)), np.zeros(1))
    argv[4] = _model_file(tmp_path, wide)
    assert main(argv) == 1
    assert "sequence r0 d=2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# l2 row kernel == per-row np.linalg.norm division


def _l2_reference(v):
    norm = float(np.linalg.norm(v))
    return v.copy() if norm <= 1e-12 else v / norm


@st.composite
def l2_row_blocks(draw):
    d = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["normal", "zero", "tiny", "guard", "subnormal", "mixed"]))
        row = np.zeros(d)
        if kind == "normal":
            row = rng.normal(size=d) * 10.0 ** draw(st.integers(-150, 150))
        elif kind == "tiny":  # norm below the guard
            row = rng.normal(size=d) * 1e-13 / math.sqrt(d)
        elif kind == "guard":  # norm at or next to the guard
            row[draw(st.integers(0, d - 1))] = draw(
                st.sampled_from([1e-12, np.nextafter(1e-12, 0.0), np.nextafter(1e-12, 1.0)])
            )
        elif kind == "subnormal":
            row = rng.integers(-40, 41, size=d) * 5e-324
        elif kind == "mixed":  # normal entries next to subnormal ones
            row = rng.normal(size=d)
            row[rng.random(d) < 0.5] = 5e-324 * 7
        rows.append(row)
    return np.array(rows)


@SETTINGS
@given(l2_row_blocks())
def test_l2_row_kernel_equals_per_row_norm_division(frames):
    want = [_l2_reference(v) for v in frames]
    assert _bits(_l2_rows(frames)) == _bits(want)
    in_place = frames.copy()
    assert _l2_rows(in_place, out=in_place) is in_place
    assert _bits(in_place) == _bits(want)


# ---------------------------------------------------------------------------
# fit_preprocess: block-by-block PCA moments == the stacked fit


def _moment_inputs(data):
    """Drawn sequences of one d, at least two frames in all, with zero rows
    and an offset of up to 10x their scale, and whether to l2-normalise."""
    d = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    lengths = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=8))
    if sum(lengths) < 2:
        lengths.append(1)
    scale = 10.0 ** data.draw(st.integers(-3, 3))
    offset = rng.normal(size=d) * scale * data.draw(st.sampled_from([0.0, 1.0, 10.0]))
    seqs = []
    for n in lengths:
        frames = rng.normal(size=(n, d)) * scale + offset
        frames[rng.random(n) < 0.2] = 0.0  # zero rows hit the l2 guard
        seqs.append(FrameSequence(frames))
    return seqs, data.draw(st.booleans())


def _assert_stacked_moments(moments, seqs, l2):
    """(n, mean, M2) agree with the one-stacked-copy fit of `seqs`."""
    n, mean, m2 = moments
    assert n == sum(seq.num_frames for seq in seqs)
    want_mean, want_cov = stacked_pca_moments(seqs, l2)
    # absolute slack on the frames' scale: a covariance that is 0 in the
    # stacked fit may come out as a rounding error of that scale
    top = 1.0 if l2 else max(float(np.abs(seq.frames).max()) for seq in seqs)
    np.testing.assert_allclose(mean, want_mean, rtol=1e-12, atol=1e-12 * top)
    np.testing.assert_allclose(m2 / (n - 1), want_cov, rtol=1e-12, atol=1e-12 * top * top)


@SETTINGS
@given(st.data())
def test_pca_moments_equal_the_stacked_fit_for_any_block_size(data):
    seqs, l2 = _moment_inputs(data)
    # 1 makes every sequence a block of its own; the largest keeps one block
    block_values = data.draw(st.integers(1, sum(seq.frames.size for seq in seqs) + 1))
    original = lomo.data.BLOCK_VALUES
    lomo.data.BLOCK_VALUES = block_values
    try:
        moments = _pca_moments(seqs, l2)
    finally:
        lomo.data.BLOCK_VALUES = original
    _assert_stacked_moments(moments, seqs, l2)


@SETTINGS
@given(st.data())
def test_merged_moments_of_a_partition_equal_the_stacked_fit_of_its_union(data):
    seqs, l2 = _moment_inputs(data)
    parts = data.draw(st.lists(st.integers(0, 3), min_size=len(seqs), max_size=len(seqs)))
    merged = None
    for label in sorted(set(parts)):
        part = _pca_moments([seq for seq, p in zip(seqs, parts) if p == label], l2)
        merged = part if merged is None else _merge_moments(merged, part)
    _assert_stacked_moments(merged, seqs, l2)


# ---------------------------------------------------------------------------
# apply_preprocess == l2, PCA, stacking and pooling written out step by step


def _apply_reference(fitted, frames):
    cfg = fitted.config
    out = frames
    if cfg.l2:
        out = np.vstack([_l2_reference(v) for v in out])
    if fitted.mean is not None:
        out = (out - fitted.mean) @ fitted.components.T
    n = out.shape[0]
    # frame f stacks frames f .. f + stack - 1, the last frame standing in past the end
    out = np.hstack([out[[min(f + j, n - 1) for f in range(n)]] for j in range(cfg.stack)])
    if cfg.pool == "mean":
        out = (out.sum(axis=0) / n)[None, :]
    elif cfg.pool == "max":
        out = out.max(axis=0)[None, :]
    return out


def _preprocess_case(data):
    """(config, frames): a drawn PreprocessConfig over every step mix, and
    frames(n), a source of (n, d) frames at a drawn scale with some zero rows."""
    d = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))

    def frames(n):
        out = rng.normal(size=(n, d)) * 10.0 ** int(rng.integers(-3, 4))
        out[rng.random(n) < 0.2] = 0.0  # zero rows hit the l2 guard
        return out

    config = PreprocessConfig(
        l2=data.draw(st.booleans()),
        pca_dim=data.draw(st.one_of(st.none(), st.integers(1, d))),
        stack=data.draw(st.integers(1, 4)),
        pool=data.draw(st.sampled_from([None, "mean", "max"])),
    )
    return config, frames


@SETTINGS
@given(st.data())
def test_apply_preprocess_equals_the_steps_written_out(data):
    config, frames = _preprocess_case(data)
    stack = config.stack
    train_seqs = [FrameSequence(frames(int(data.draw(st.integers(1, 8))))) for _ in range(3)]
    fitted = fit_preprocess(train_seqs, config)
    n = data.draw(st.one_of(st.just(1), st.integers(stack + 1, stack + 8)))
    seq = FrameSequence(frames(n), id="s")
    [got] = apply_preprocess(fitted, [seq])
    want = _apply_reference(fitted, seq.frames)
    assert got.id == "s"
    assert got.frames.shape == want.shape
    assert _bits(got.frames) == _bits(want)
    if config == PreprocessConfig():
        assert got is seq


@SETTINGS
@given(st.data(), st.sampled_from([1, 7, lomo.data.APPLY_BLOCK_VALUES]))
def test_prepare_splits_equal_the_steps_written_out_for_any_block_size(data, block_values):
    """apply_preprocess's stacked blocks give each sequence of a split what the steps
    give it on its own; 1 makes every sequence a block of its own, 7 cuts
    the equal-length groups into blocks of one or more."""
    config, frames = _preprocess_case(data)
    train_seqs = [FrameSequence(frames(int(data.draw(st.integers(1, 8))))) for _ in range(3)]
    splits = [
        [FrameSequence(frames(n), id=f"{s}-{k}") for k, n in enumerate(lengths)]
        for s, lengths in enumerate(data.draw(st.lists(
            st.lists(st.integers(1, 6), max_size=12), min_size=1, max_size=3
        )))
    ]
    original = lomo.data.APPLY_BLOCK_VALUES
    lomo.data.APPLY_BLOCK_VALUES = block_values
    fitted = fit_preprocess(train_seqs, config)
    try:
        prepared = [apply_preprocess(fitted, split) for split in splits]
    finally:
        lomo.data.APPLY_BLOCK_VALUES = original
    for split, got in zip(splits, prepared):
        assert len(got) == len(split)
        for seq, out in zip(split, got):
            want = _apply_reference(fitted, seq.frames)
            assert out.id == seq.id
            assert out.frames.shape == want.shape
            assert _bits(out.frames) == _bits(want)
        if config == PreprocessConfig():
            assert all(out is seq for seq, out in zip(split, got))


# ---------------------------------------------------------------------------
# read_sequence == the per-cell float() parse


def _read_sequence_reference(path):
    """The per-cell parser: float() and isfinite on every cell, in order."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    rows = []
    width = None
    for row_no, line in enumerate(lines, start=1):
        cells = line.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise LomoError(
                f"{path}: row {row_no} has {len(cells)} columns, expected {width}"
            )
        values = []
        for col_no, cell in enumerate(cells, start=1):
            try:
                v = float(cell)
            except ValueError:
                raise LomoError(
                    f"{path}: row {row_no}, column {col_no}: {cell.strip()!r} is not numeric"
                ) from None
            if not math.isfinite(v):
                raise LomoError(f"{path}: row {row_no}, column {col_no}: non-finite value")
            values.append(v)
        rows.append(values)
    if not rows:
        raise LomoError(f"{path}: row 1: empty sequence file")
    return np.array(rows, dtype=np.float64)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMERIC_TOKENS = st.one_of(
    FINITE.map(repr),
    FINITE.map(lambda v: f"{v:.25e}"),  # more digits than round-trip needs
    st.integers(-(10**30), 10**30).map(str),
    st.from_regex(r"[+-]?[0-9]{0,22}\.?[0-9]{0,30}([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)
ODD_TOKENS = st.sampled_from(
    ["1_000", "nan", "-inf", "Infinity", "", "x", "1e999", "1e-400", "0x10", ".5", "5.",
     "1 2", "--1", "1e", "\xa01.0", "\u0661", "\ufeff4.0"]
)
LENIENT_TOKENS = st.sampled_from(["1_000", "2_5.0_1", "\u0661", "\u0663.5"])  # float() only
PADDING = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def sequence_texts(draw):
    token = draw(st.sampled_from([
        NUMERIC_TOKENS,
        st.one_of(NUMERIC_TOKENS, LENIENT_TOKENS),
        st.one_of(NUMERIC_TOKENS, LENIENT_TOKENS, ODD_TOKENS),
    ]))
    cell = st.tuples(PADDING, token, PADDING).map("".join)
    width = draw(st.integers(1, 5))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:  # inner blank or whitespace-only line
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        ragged = draw(st.integers(0, 14)) == 0
        count = max(1, width + draw(st.sampled_from([-1, 1]))) if ragged else width
        lines.append(",".join(draw(cell) for _ in range(count)))
    lines += draw(st.lists(st.sampled_from(["", " ", "\t "]), max_size=2))  # trailing blanks
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    end = draw(st.sampled_from(["", newline]))
    return bom + newline.join(lines) + end


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(sequence_texts())
def test_read_sequence_equals_per_cell_parse(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        want = _read_sequence_reference(path)
    except LomoError as err:
        with pytest.raises(LomoError) as got:
            read_sequence(path)
        assert str(got.value) == str(err)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_sequence(path).frames
    assert got.shape == want.shape
    assert _bits(got) == _bits(want)


def test_clean_sequence_files_skip_the_per_cell_parse(tmp_path, monkeypatch):
    def per_cell(path, lines):
        raise AssertionError("per-cell parse used for a clean file")

    monkeypatch.setattr(lomo.data, "_parse_cells", per_cell)
    frames = np.random.default_rng(11).normal(size=(7, 5))
    write_sequence(FrameSequence(frames), tmp_path / "s.csv")
    assert _bits(read_sequence(tmp_path / "s.csv").frames) == _bits(frames)


# ---------------------------------------------------------------------------
# sequence writer


def _write_sequence_reference(seq, path):
    """The per-value writer that write_sequence replaced (the oracle)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for frame in seq.frames:
            fh.write(",".join(format_float(v) for v in frame) + "\n")


# signed zeros, subnormals down to the smallest, the switches between fixed
# and exponent notation, and the largest float
WRITER_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    -1e-310, 1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0, -1e16,
    sys.float_info.max, -sys.float_info.max,
]


@st.composite
def writer_frames(draw):
    shape = (draw(st.integers(1, 50)), draw(st.integers(1, 120)))
    element = st.one_of(
        st.sampled_from(WRITER_EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    return draw(arrays(np.float64, shape, elements=element))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(writer_frames())
def test_write_sequence_equals_per_value_format_float(tmp_path, frames):
    seq = FrameSequence(frames)
    write_sequence(seq, tmp_path / "got.csv")
    _write_sequence_reference(seq, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_write_sequence_writes_every_edge_value_like_format_float(tmp_path):
    frames = np.array([WRITER_EDGE_VALUES, WRITER_EDGE_VALUES[::-1]])
    write_sequence(FrameSequence(frames), tmp_path / "s.csv")
    want = "".join(",".join(format_float(v) for v in row) + "\n" for row in frames)
    assert (tmp_path / "s.csv").read_bytes() == want.encode()
    assert _bits(read_sequence(tmp_path / "s.csv").frames) == _bits(frames)


# ---------------------------------------------------------------------------
# each sequence file is read at most once per command, and parsed only on a
# cache miss


@pytest.fixture
def read_counter(monkeypatch):
    """{"read": [...], "parsed": [...]}: file names as parse_manifest reads
    a sequence file (only one that misses its frame-cache stat row, or whose
    cached frames do not read back) and as it parses one."""
    calls = {"read": [], "parsed": []}
    read_bytes, parse = lomo.data.read_bytes, lomo.data._parse

    def reading(path):
        calls["read"].append(os.path.basename(str(path)))
        return read_bytes(path)

    def parsing(path, lines, seq_id):
        calls["parsed"].append(os.path.basename(str(path)))
        return parse(path, lines, seq_id)

    monkeypatch.setattr(lomo.data, "read_bytes", reading)
    monkeypatch.setattr(lomo.data, "_parse", parsing)
    return calls


def test_train_and_predict_read_each_sequence_file_once(tmp_path, read_counter):
    rng = np.random.default_rng(8)
    frames = [rng.normal(size=(6, 2)) for _ in range(6)]
    manifest = _write_manifest(tmp_path, frames)
    model = str(tmp_path / "m.lomo")
    files = [f"r{k}.csv" for k in range(6)]
    settle(tmp_path / name for name in files)
    train = ["train", "--manifest", manifest, "--out", model, "--positive-label", "pos",
             "--templates", "1", "--exclusion-t", "0", "--max-iter", "20"]
    assert main(train) == 0
    # no cache yet: each file is read once and parsed
    assert sorted(read_counter["read"]) == sorted(read_counter["parsed"]) == files
    read_counter["read"].clear()
    read_counter["parsed"].clear()
    assert main(["predict", "--manifest", manifest, "--model", model,
                 "--exclusion-t", "0", "--out", str(tmp_path / "p.csv")]) == 0
    # train filled the cache, with a stat row per file: no file is read
    assert read_counter["read"] == read_counter["parsed"] == []
    # every file edited, the cache stale: each file is read once and parsed
    for k, f in enumerate(frames):
        write_sequence(FrameSequence(-f), tmp_path / f"r{k}.csv")
    read_counter["read"].clear()
    assert main(train) == 0
    assert sorted(read_counter["read"]) == sorted(read_counter["parsed"]) == files
