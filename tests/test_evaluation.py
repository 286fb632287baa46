"""Unit tests for metrics and the cross-validation runner."""

from __future__ import annotations

import numpy as np
import pytest

import lomo.evaluation
from hypothesis import given, settings
from hypothesis import strategies as st

from lomo.core import LomoError
from lomo.data import (
    Fold,
    PreprocessConfig,
    SynthSpec,
    gen_synthetic,
    make_folds,
    parse_manifest,
    write_sequence,
)
from lomo.evaluation import (
    CvResult,
    avg_class_accuracy,
    format_cv_results,
    roc_auc,
    roc_eer_rate,
    run_cv,
)
from lomo.inference import FrameSequence
from lomo.model import LomoModel
from lomo.training import TrainConfig


# ---------------------------------------------------------------------------
# independent metric oracles (plain-python pair counting / threshold sweep)


def oracle_auc(labels, scores) -> float:
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l != 1]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def oracle_eer_rate(labels, scores) -> float:
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l != 1]
    values = sorted(set(pos) | set(neg))
    candidates = (
        [values[0] - 1.0]
        + values
        + [(a + b) / 2.0 for a, b in zip(values, values[1:])]
        + [values[-1] + 1.0]
    )
    best = None
    for threshold in candidates:
        fpr = sum(1 for s in neg if s >= threshold) / len(neg)
        fnr = sum(1 for s in pos if s < threshold) / len(pos)
        key = (abs(fpr - fnr), fpr, fnr)
        if best is None or key < best:
            best = key
    return 1.0 - (best[1] + best[2]) / 2.0


def random_binary_case(rng):
    """Labels with both classes present; gridded scores so ties are common."""
    n = int(rng.integers(2, 12))
    labels = [1] * int(rng.integers(1, n)) + [-1]
    labels += [int(rng.choice([-1, 1])) for _ in range(n - len(labels))]
    rng.shuffle(labels)
    scores = (rng.integers(0, 7, size=n) / 2.0).tolist()
    return labels, scores


# ---------------------------------------------------------------------------
# avg_class_accuracy


def test_avg_class_accuracy_balances_class_recalls():
    pairs = [(1, 1), (1, -1), (-1, -1), (-1, -1)]
    assert avg_class_accuracy(pairs) == pytest.approx(0.75)
    # 3 correct of 4, but per-class averaging weighs the minority class fully
    pairs = [("a", "a"), ("a", "a"), ("a", "a"), ("b", "a")]
    assert avg_class_accuracy(pairs) == pytest.approx(0.5)


def test_avg_class_accuracy_explicit_class_list():
    pairs = [(1, 1), (-1, 1)]
    assert avg_class_accuracy(pairs, classes=(-1, 1)) == pytest.approx(0.5)
    with pytest.raises(LomoError, match="class 'c' has no examples"):
        avg_class_accuracy([("a", "a"), ("b", "b")], classes=("a", "b", "c"))


def test_avg_class_accuracy_empty_error():
    with pytest.raises(LomoError, match="at least one prediction"):
        avg_class_accuracy([])


def _heavy_ties_case(data):
    """Labels with both classes and scores drawn mostly from a pool of at
    most four floats, plus signed zeros and values up to the float64 maximum."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    pool = data.draw(st.lists(floats, min_size=1, max_size=4))
    score = st.one_of(st.sampled_from(pool), st.sampled_from([0.0, -0.0]), floats)
    labels = data.draw(st.lists(st.sampled_from([1, -1]), min_size=2, max_size=40)
                       .filter(lambda ls: 1 in ls and -1 in ls))
    return labels, data.draw(st.lists(score, min_size=len(labels), max_size=len(labels)))


# ---------------------------------------------------------------------------
# roc_auc


def test_roc_auc_worked_examples():
    assert roc_auc([1, 1, -1, -1], [2.0, 3.0, 0.0, 1.0]) == 1.0
    assert roc_auc([1, 1, -1, -1], [0.9, 0.4, 0.6, 0.1]) == 0.75
    assert roc_auc([1, -1], [0.5, 0.5]) == 0.5  # a tie counts half
    assert roc_auc([1, 1, -1, -1], [0.0, 0.0, 1.0, 1.0]) == 0.0


def test_roc_auc_matches_pair_counting_oracle_exactly():
    rng = np.random.default_rng(52)
    for _ in range(200):
        labels, scores = random_binary_case(rng)
        assert roc_auc(labels, scores) == oracle_auc(labels, scores)


def test_roc_auc_is_order_invariant():
    labels = [1, -1, 1, -1, -1]
    scores = [3.0, 1.0, 2.0, 2.0, 0.0]
    base = roc_auc(labels, scores)
    perm = [4, 2, 0, 3, 1]
    assert roc_auc([labels[i] for i in perm], [scores[i] for i in perm]) == base


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_roc_auc_equals_the_pair_counting_oracle_under_heavy_ties(data):
    labels, scores = _heavy_ties_case(data)
    assert roc_auc(labels, scores) == oracle_auc(labels, scores)


def test_roc_auc_validation():
    with pytest.raises(LomoError, match="both classes"):
        roc_auc([1, 1], [0.1, 0.2])
    with pytest.raises(LomoError, match="2 labels vs 3 scores"):
        roc_auc([1, -1], [0.1, 0.2, 0.3])
    # pair counting says 0.0 here; a sort cannot rank nan, so it is refused
    with pytest.raises(LomoError, match=r"^scores\[0\] is nan; ROC metrics need finite scores$"):
        roc_auc([1, -1], [float("nan"), 0.0])


# ---------------------------------------------------------------------------
# roc_eer_rate


def test_roc_eer_rate_worked_examples():
    # balanced errors at the crossing threshold: fpr = fnr = 0.5
    assert roc_eer_rate([1, 1, -1, -1], [0.9, 0.4, 0.6, 0.1]) == 0.5
    assert roc_eer_rate([1, 1, -1, -1], [2.0, 3.0, 0.0, 1.0]) == 1.0
    # anti-separated scores: every balanced threshold errs on everything
    assert roc_eer_rate([1, 1, -1, -1], [0.0, 1.0, 2.0, 3.0]) == 0.0
    # scores near the float64 maximum: no threshold may overflow
    assert roc_eer_rate([1, -1], [1e308, 1.5e308]) == 0.0


def test_roc_eer_rate_matches_sweep_oracle_exactly():
    rng = np.random.default_rng(53)
    for _ in range(200):
        labels, scores = random_binary_case(rng)
        assert roc_eer_rate(labels, scores) == oracle_eer_rate(labels, scores)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_roc_eer_rate_equals_the_sweep_oracle_under_heavy_ties(data):
    labels, scores = _heavy_ties_case(data)
    with np.errstate(over="ignore"):  # the oracle's midpoints of huge scores overflow
        expected = oracle_eer_rate(labels, scores)
    assert roc_eer_rate(labels, scores) == expected


def test_roc_eer_rate_validation():
    with pytest.raises(LomoError, match="both classes"):
        roc_eer_rate([-1, -1], [0.1, 0.2])
    with pytest.raises(LomoError, match=r"^scores\[1\] is -inf; ROC metrics need finite scores$"):
        roc_eer_rate([1, -1], [1.0, -float("inf")])
    with pytest.raises(LomoError, match=r"^scores\[0\] is inf"):
        roc_eer_rate([1, -1], [float("inf"), -float("inf")])


# ---------------------------------------------------------------------------
# results containers


def test_cv_result_mean():
    assert CvResult("acc", [0.5, 0.75]).mean == pytest.approx(0.625)


def test_format_cv_results_exact_csv():
    text = format_cv_results(CvResult("acc", [0.5, 0.75]))
    assert text == "fold,metric,value\n0,acc,0.5\n1,acc,0.75\nmean,acc,0.625\n"


# ---------------------------------------------------------------------------
# cross-validation runner


def _synthetic_manifest(tmp_path, **overrides):
    spec_args = dict(
        dim=6,
        num_frames=16,
        num_events=2,
        noise_sigma=0.2,
        min_gap=2,
        num_pos=10,
        num_neg=10,
        neg_mode="absent",
        seed=6,
    )
    spec_args.update(overrides)
    gen_synthetic(SynthSpec(**spec_args), tmp_path / "data")
    return parse_manifest(tmp_path / "data" / "manifest.csv")


def _fast_cfg(**overrides):
    args = dict(num_templates=2, exclusion_t=1, max_iter=400, seed=0)
    args.update(overrides)
    return TrainConfig(**args)


def test_run_cv_smoke_all_metrics_and_determinism(tmp_path):
    manifest = _synthetic_manifest(tmp_path)
    folds = make_folds(manifest, "kfold", seed=1, k=2)
    for metric in ("acc", "auc", "eer"):
        result = run_cv(manifest, folds, _fast_cfg(), metric, positive_label="pos")
        assert result.metric == metric
        assert len(result.fold_values) == 2
        assert all(0.0 <= v <= 1.0 for v in result.fold_values)
        again = run_cv(manifest, folds, _fast_cfg(), metric, positive_label="pos")
        assert again.fold_values == result.fold_values


def test_run_cv_logo_uses_every_group_once(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    folds = make_folds(manifest, "logo", seed=0)
    assert len(folds) == len(manifest.groups)
    result = run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")
    assert len(result.fold_values) == len(folds)


def test_run_cv_works_with_preprocessing_and_pooling(tmp_path):
    manifest = _synthetic_manifest(tmp_path)
    folds = make_folds(manifest, "kfold", seed=2, k=2)
    preprocess = PreprocessConfig(l2=True, pca_dim=3, stack=2)
    result = run_cv(
        manifest, folds, _fast_cfg(num_templates=1, exclusion_t=0),
        "acc", positive_label="pos", preprocess=preprocess,
    )
    assert all(0.0 <= v <= 1.0 for v in result.fold_values)
    pooled = run_cv(
        manifest, folds, _fast_cfg(variant="svm_pool"), "acc", positive_label="pos",
        preprocess=PreprocessConfig(pool="mean"),
    )
    assert all(0.0 <= v <= 1.0 for v in pooled.fold_values)


def test_run_cv_argument_validation(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    folds = make_folds(manifest, "kfold", seed=0, k=2)
    with pytest.raises(LomoError, match="needs a positive_label"):
        run_cv(manifest, folds, _fast_cfg(), "acc")
    with pytest.raises(LomoError, match="positive_label 'yes' not among"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="yes")
    with pytest.raises(LomoError, match="metric must be one of"):
        run_cv(manifest, folds, _fast_cfg(), "f1", positive_label="pos")


def test_run_cv_rejects_single_class_training_split(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    by_label = {"pos": [], "neg": []}
    for rec in manifest.records:
        by_label[rec.label].append(rec.id)
    folds = [Fold(train_ids=tuple(by_label["neg"]), test_ids=tuple(by_label["pos"]))]
    with pytest.raises(LomoError, match="fold 0: training split lacks"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


def test_run_cv_rejects_empty_fold(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    ids = tuple(r.id for r in manifest.records)
    folds = [Fold(train_ids=ids, test_ids=())]
    with pytest.raises(LomoError, match="fold 0: empty train or test split"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


def test_run_cv_names_the_fold_of_a_preprocessing_error(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    folds = make_folds(manifest, "kfold", seed=1, k=2)
    with pytest.raises(LomoError, match=r"^fold 0: pca dimension k=7 out of range 1\.\.6$"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos",
               preprocess=PreprocessConfig(pca_dim=7))


def _multiclass_manifest(tmp_path):
    rng = np.random.default_rng(54)
    directions = {"a": (1.0, 0.0), "b": (-1.0, 0.0), "c": (0.0, 1.0)}
    lines = ["id,label,group,path"]
    for label, direction in directions.items():
        for i in range(8):
            frames = rng.normal(scale=0.1, size=(4, 2)) + np.asarray(direction)
            rel = f"{label}{i}.csv"
            write_sequence(FrameSequence(frames), tmp_path / rel)
            lines.append(f"{label}{i},{label},g{i % 4},{rel}")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return parse_manifest(path)


def _fixed_ova(monkeypatch, models):
    """Make every fold's train_ova return `models`."""
    monkeypatch.setattr(lomo.evaluation, "train_ova", lambda data, cfg, classes=None: models)


def test_run_cv_multiclass_predicts_the_class_that_scores_highest(tmp_path, monkeypatch):
    manifest = _multiclass_manifest(tmp_path)
    # each class's model points at its blob, so only the highest score is
    # right: the lowest or the middle one is wrong for every sequence
    directions = {"c": (0.0, 1.0), "a": (1.0, 0.0), "b": (-1.0, 0.0)}
    _fixed_ova(monkeypatch, {
        name: LomoModel(np.array([d]), np.zeros(1)) for name, d in directions.items()
    })
    folds = make_folds(manifest, "kfold", seed=0, k=2)
    assert run_cv(manifest, folds, _fast_cfg(num_templates=1), "acc").fold_values == [1.0, 1.0]


def test_run_cv_multiclass_tie_goes_to_the_smallest_class_name(tmp_path, monkeypatch):
    manifest = _multiclass_manifest(tmp_path)
    zero = LomoModel(np.zeros((1, 2)), np.zeros(1))
    _fixed_ova(monkeypatch, {name: zero for name in ("c", "b", "a")})
    ids = {label: tuple(r.id for r in manifest.records if r.label == label) for label in "abc"}
    folds = [Fold(train_ids=ids["c"], test_ids=ids["a"]),
             Fold(train_ids=ids["c"], test_ids=ids["b"])]
    # every score ties, so every sequence goes to "a": right in fold 0, wrong in fold 1
    assert run_cv(manifest, folds, _fast_cfg(num_templates=1), "acc").fold_values == [1.0, 0.0]


def test_run_cv_multiclass_one_vs_all(tmp_path):
    manifest = _multiclass_manifest(tmp_path)
    folds = make_folds(manifest, "kfold", seed=0, k=2)
    cfg = _fast_cfg(num_templates=1, exclusion_t=0, max_iter=2000)
    result = run_cv(manifest, folds, cfg, "acc")
    assert len(result.fold_values) == 2
    assert result.mean >= 0.9  # cleanly separated blobs
    with pytest.raises(LomoError, match="binary-only"):
        run_cv(manifest, folds, cfg, "auc")
