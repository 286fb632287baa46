"""Unit tests for metrics and the cross-validation runner."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lomo.core
import lomo.evaluation
import lomo.inference
import lomo.training
from hypothesis import given, settings
from hypothesis import strategies as st

from lomo.core import LomoError
from lomo.data import (
    DatasetManifest,
    Fold,
    PreprocessConfig,
    SynthSpec,
    fit_preprocess,
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
    with pytest.raises(LomoError, match="^avg_class_accuracy needs at least one class$"):
        avg_class_accuracy([("a", "a")], classes=[])


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(1,)], r"^pairs\[0\] must be a \(true, predicted\) pair, got \(1,\)$"),
        ([(1, 1), 5], r"^pairs\[1\] must be a \(true, predicted\) pair, got 5$"),
        ([(1, 1, 1)], r"^pairs\[0\] must be a \(true, predicted\) pair, got \(1, 1, 1\)$"),
        ([("a", "a"), (1, 1)],
         r"^classes must be hashable and of one sortable kind: '<' not supported "
         r"between instances of 'int' and 'str'$"),
    ],
    ids=["one-value", "not-iterable", "three-values", "mixed-label-types"],
)
def test_avg_class_accuracy_names_an_item_that_is_not_a_pair(pairs, message):
    with pytest.raises(LomoError, match=message):
        avg_class_accuracy(pairs)
    assert avg_class_accuracy([[1, 1], [-1, 1]]) == 0.5  # any two-item pair is one


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


@pytest.mark.parametrize(
    "metric, scores, message",
    [
        (roc_auc, ["a", 0.0], r"^scores\[0\] is 'a'; ROC metrics need finite scores$"),
        (roc_eer_rate, [None, 0.0], r"^scores\[0\] is None; ROC metrics need finite scores$"),
        (roc_auc, [0.0, np.float64("nan")], r"^scores\[1\] is nan; ROC metrics need finite scores$"),
        (roc_eer_rate, [0.0, 10**400], r"^scores\[1\] is 1000*; ROC metrics need finite scores$"),
    ],
    ids=["auc-str", "eer-none", "auc-numpy-nan", "eer-int-too-large-for-a-float"],
)
def test_roc_metrics_name_the_first_score_that_is_not_a_finite_number(metric, scores, message):
    with pytest.raises(LomoError, match=message):
        metric([1, -1], scores)


@pytest.mark.parametrize(
    "metric, labels, message",
    [
        (roc_auc, [1, 2, -1], r"^labels\[1\] is 2; ROC metrics need labels \+1 or -1$"),
        (roc_eer_rate, [1, 0, -1], r"^labels\[1\] is 0; ROC metrics need labels \+1 or -1$"),
        (roc_auc, ["pos", "neg", "neg"],
         r"^labels\[0\] is 'pos'; ROC metrics need labels \+1 or -1$"),
        (roc_eer_rate, [1, -1, None], r"^labels\[2\] is None; ROC metrics need labels \+1 or -1$"),
        (roc_auc, [1, False, -1], r"^labels\[1\] is False; ROC metrics need labels \+1 or -1$"),
        (roc_eer_rate, np.array([True, False, True]),
         r"^labels\[1\] is np.False_; ROC metrics need labels \+1 or -1$"),
        (roc_eer_rate, [1, -1, float("nan")],
         r"^labels\[2\] is nan; ROC metrics need labels \+1 or -1$"),
    ],
    ids=["auc-2", "eer-0", "auc-class-names", "eer-none", "auc-false", "eer-numpy-false",
         "eer-nan"],
)
def test_roc_metrics_name_the_first_label_that_is_not_plus_or_minus_one(metric, labels, message):
    with pytest.raises(LomoError, match=message):
        metric(labels, [0.9, 0.1, 0.5])


def test_roc_metrics_accept_numeric_spellings_of_plus_and_minus_one():
    labels = [True, np.True_, np.int64(1), 1.0, np.float64(-1.0), -1]
    scores = [0.9, 0.4, 0.2, 0.7, 0.3, 0.8]
    assert roc_auc(labels, scores) == roc_auc([1, 1, 1, 1, -1, -1], scores)
    assert roc_eer_rate(labels, scores) == roc_eer_rate([1, 1, 1, 1, -1, -1], scores)


# ---------------------------------------------------------------------------
# results containers


def test_cv_result_mean():
    assert CvResult("acc", [0.5, 0.75]).mean == pytest.approx(0.625)


@pytest.mark.parametrize("args, message", [
    (("acc", None), "fold_values must be iterable, got None"),
    (("acc", [0.5, "x"]), "fold_values[1] is 'x'; a fold value must be a finite number"),
    (("acc", [math.nan]), "fold_values[0] is nan; a fold value must be a finite number"),
    (("acc", []), "fold_values must hold a value per fold, got none"),
    (("f1", [0.5]), "metric must be one of ('acc', 'auc', 'eer'), got 'f1'"),
])
def test_cv_result_checks_its_fields(args, message):
    with pytest.raises(LomoError) as info:
        CvResult(*args)
    assert str(info.value) == message


def test_cv_result_keeps_python_floats_and_a_lower_case_metric():
    result = CvResult("AUC", (np.float64(0.5), 1))
    assert (result.metric, result.fold_values) == ("auc", [0.5, 1.0])
    assert all(type(v) is float for v in result.fold_values)


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
        manifest, folds, _fast_cfg(variant="mil"), "acc", positive_label="pos",
        preprocess=PreprocessConfig(pool="mean"),
    )
    assert all(0.0 <= v <= 1.0 for v in pooled.fold_values)


# each string-choice field: its choices, and a call that sets it on `manifest`
CHOICE_FIELDS = {
    "variant": (("lomo", "mil"), lambda v, manifest: TrainConfig(variant=v)),
    "cost_update": (("gradient", "literal"), lambda v, manifest: TrainConfig(cost_update=v)),
    "neg_mode": (("shuffled", "absent"), lambda v, manifest: SynthSpec(neg_mode=v)),
    "pool": (("mean", "max"), lambda v, manifest: PreprocessConfig(pool=v)),
    "scheme": (("logo", "kfold"), lambda v, manifest: make_folds(
        manifest, v, 0, k=2 if isinstance(v, str) and v.lower() == "kfold" else None)),
    "metric": (("acc", "auc", "eer"), lambda v, manifest: run_cv(
        manifest, make_folds(manifest, "kfold", 0, k=2), _fast_cfg(max_iter=50), v,
        positive_label="pos")),
}


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    return _synthetic_manifest(tmp_path_factory.mktemp("choices"), num_pos=4, num_neg=4)


def test_serial_run_cv_checks_only_the_manifests_sequences(tmp_path, monkeypatch):
    # prepared splits come from a kernel that checked its own output, and
    # training takes the fold's (sequence, label) pairs as they are
    _synthetic_manifest(tmp_path, num_pos=6, num_neg=6)
    monkeypatch.setattr(lomo.core, "cpu_count", lambda: 1)
    counts = Counter()
    check = FrameSequence.__post_init__

    def counted(self):
        counts["FrameSequence"] += 1
        check(self)

    monkeypatch.setattr(FrameSequence, "__post_init__", counted)
    manifest = parse_manifest(tmp_path / "data" / "manifest.csv")
    folds = make_folds(manifest, "kfold", seed=0, k=3)
    run_cv(manifest, folds, _fast_cfg(variant="mil"), "acc", positive_label="pos",
           preprocess=PreprocessConfig(l2=True, pool="max"))
    assert counts == {"FrameSequence": len(manifest.records)}


@pytest.mark.parametrize("positive_label", ["pos", None])
def test_a_cv_fold_does_not_check_its_splits_again(tmp_path, monkeypatch, positive_label):
    # run_cv checked every fold id; training takes the fold's sequences and
    # labels, and scoring its test split, without the public entry checks
    _synthetic_manifest(tmp_path, num_pos=6, num_neg=6)
    path = tmp_path / "data" / "manifest.csv"
    if positive_label is None:  # three classes: one-vs-all
        text = path.read_text(encoding="utf-8").replace(",neg,", ",mid,", 3)
        path.write_text(text, encoding="utf-8")
    manifest = parse_manifest(path)
    monkeypatch.setattr(lomo.core, "cpu_count", lambda: 1)
    checked = Counter()
    for module, name in ((lomo.training, "require_pairs"), (lomo.inference, "require_items")):
        def counted(*args, _check=getattr(module, name), _name=name):
            checked[_name] += 1
            return _check(*args)

        monkeypatch.setattr(module, name, counted)
    folds = make_folds(manifest, "logo", seed=0)
    result = run_cv(manifest, folds, _fast_cfg(variant="mil"), "acc", positive_label,
                    PreprocessConfig(pool="max"))
    assert len(result.fold_values) == len(folds) and checked == {}


@pytest.mark.parametrize("name", sorted(CHOICE_FIELDS))
def test_choice_fields_take_any_case_and_refuse_other_values(name, small_manifest):
    choices, call = CHOICE_FIELDS[name]
    for choice in choices:
        assert call(choice.capitalize(), small_manifest) == call(choice, small_manifest)
    for value in ([] if name == "pool" else [None]) + [1, b"x"]:
        message = f"{name} must be one of {choices!r}, got {value!r}"
        with pytest.raises(LomoError, match=f"^{re.escape(message)}$"):
            call(value, small_manifest)


def test_run_cv_argument_validation(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    folds = make_folds(manifest, "kfold", seed=0, k=2)
    with pytest.raises(LomoError, match="needs a positive_label"):
        run_cv(manifest, folds, _fast_cfg(), "acc")
    with pytest.raises(LomoError, match=r"^positive label 'yes' not among classes \['neg', 'pos'\]$"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="yes")
    with pytest.raises(LomoError, match="metric must be one of"):
        run_cv(manifest, folds, _fast_cfg(), "f1", positive_label="pos")


def test_run_cv_names_an_argument_that_is_not_a_manifest_or_a_fold(tmp_path):
    with pytest.raises(LomoError, match=r"^manifest must be a DatasetManifest, got None$"):
        run_cv(None, [], _fast_cfg())
    manifest = _synthetic_manifest(tmp_path, num_pos=2, num_neg=2)
    with pytest.raises(LomoError, match=r"^folds\[1\] must be a Fold, got None$"):
        run_cv(manifest, [*make_folds(manifest, "logo", seed=0)[:1], None], _fast_cfg(),
               "acc", positive_label="pos")


@pytest.mark.parametrize(
    "wrong, message",
    [
        ({"cfg": None}, r"^cfg must be a TrainConfig, got None$"),
        ({"preprocess": {"l2": True}},
         r"^preprocess must be a PreprocessConfig, got \{'l2': True\}$"),
        ({"preprocess": {}}, r"^preprocess must be a PreprocessConfig, got \{\}$"),
    ],
    ids=["cfg-none", "preprocess-dict", "preprocess-empty-dict"],
)
def test_run_cv_names_a_config_of_the_wrong_type_before_it_forks(
    tmp_path, monkeypatch, wrong, message
):
    manifest = _synthetic_manifest(tmp_path, num_pos=2, num_neg=2)
    folds = make_folds(manifest, "logo", seed=0)

    def no_folds(*args, **kwargs):
        raise AssertionError("run_cv started its folds")

    monkeypatch.setattr(lomo.evaluation, "forked_map", no_folds)
    args = {"cfg": _fast_cfg(), "positive_label": "pos", **wrong}
    with pytest.raises(LomoError, match=message):
        run_cv(manifest, folds, **args)


def test_run_cv_rejects_single_class_training_split(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    by_label = {"pos": [], "neg": []}
    for rec in manifest.records:
        by_label[rec.label].append(rec.id)
    folds = [Fold(train_ids=tuple(by_label["neg"]), test_ids=tuple(by_label["pos"]))]
    with pytest.raises(LomoError, match=r"^fold 0: positive label 'pos' not among classes \['neg'\]$"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


def test_run_cv_rejects_empty_fold(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    ids = tuple(r.id for r in manifest.records)
    folds = [Fold(train_ids=ids, test_ids=())]
    with pytest.raises(LomoError, match="fold 0: empty train or test split"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


@pytest.mark.parametrize(
    "unlisted, message",
    [
        ("fold", r"^fold 1: id 'nope' is no manifest record with a sequence$"),
        ("sequences", r"^fold 0: id '(pos|neg)\d{4}' is no manifest record with a sequence$"),
    ],
    ids=["unknown-id", "manifest-without-sequences"],
)
def test_run_cv_names_a_fold_id_with_no_sequence_before_it_forks(
    tmp_path, monkeypatch, unlisted, message
):
    manifest = _synthetic_manifest(tmp_path, num_pos=2, num_neg=2)
    folds = make_folds(manifest, "logo", seed=0)
    if unlisted == "fold":
        folds[1] = Fold(train_ids=(*folds[1].train_ids, "nope"), test_ids=folds[1].test_ids)
    else:
        manifest = DatasetManifest(manifest.records, manifest.dim)

    def no_folds(*args, **kwargs):
        raise AssertionError("run_cv started its folds")

    monkeypatch.setattr(lomo.evaluation, "forked_map", no_folds)
    with pytest.raises(LomoError, match=message):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


@pytest.mark.parametrize(
    "folds, message",
    [
        ([], r"^run_cv needs at least one fold$"),
        ([Fold([["a"]], ("b",))], r"^fold 0: id \['a'\] is no manifest record with a sequence$"),
    ],
    ids=["no-folds", "unhashable-id"],
)
def test_run_cv_refuses_no_folds_and_an_unhashable_id_before_it_forks(
    tmp_path, monkeypatch, folds, message
):
    manifest = _synthetic_manifest(tmp_path, num_pos=2, num_neg=2)

    def no_folds(*args, **kwargs):
        raise AssertionError("run_cv started its folds")

    monkeypatch.setattr(lomo.evaluation, "forked_map", no_folds)
    with pytest.raises(LomoError, match=message):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


@pytest.mark.parametrize(
    "split, message",
    [
        ({"train_ids": 5}, r"^fold 1: train_ids must be iterable, got 5$"),
        ({"train_ids": "pos0000", "test_ids": "neg0000"},
         r"^fold 1: train_ids must be a collection of ids, got the str 'pos0000'$"),
        ({"test_ids": ""}, r"^fold 1: test_ids must be a collection of ids, got the str ''$"),
    ],
    ids=["not-iterable", "str", "empty-str"],
)
def test_run_cv_refuses_a_split_that_is_no_collection_of_ids_before_it_forks(
    tmp_path, monkeypatch, split, message
):
    manifest = _synthetic_manifest(tmp_path, num_pos=2, num_neg=2)
    folds = make_folds(manifest, "logo", seed=0)
    folds[1] = dataclasses.replace(folds[1], **split)

    def no_folds(*args, **kwargs):
        raise AssertionError("run_cv started its folds")

    monkeypatch.setattr(lomo.evaluation, "forked_map", no_folds)
    with pytest.raises(LomoError, match=message):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


def test_run_cv_reads_each_split_once(tmp_path):
    # a split given as a generator is not used up by the id check
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    folds = make_folds(manifest, "kfold", seed=1, k=2)
    lazy = [Fold(iter(fold.train_ids), (i for i in fold.test_ids)) for fold in folds]
    want = run_cv(manifest, folds, _fast_cfg(), "auc", positive_label="pos")
    assert run_cv(manifest, lazy, _fast_cfg(), "auc", positive_label="pos") == want


def test_run_cv_refuses_a_fold_without_ids_in_its_turn(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=2, num_neg=2)
    folds = [*make_folds(manifest, "logo", seed=0)[:1], Fold(train_ids=None, test_ids=None)]
    with pytest.raises(LomoError, match="^fold 1: empty train or test split$"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos")


def test_run_cv_names_the_fold_of_a_preprocessing_error(tmp_path):
    manifest = _synthetic_manifest(tmp_path, num_pos=5, num_neg=5)
    folds = make_folds(manifest, "kfold", seed=1, k=2)
    with pytest.raises(LomoError, match=r"^fold 0: pca dimension k=7 out of range 1\.\.6$"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="pos",
               preprocess=PreprocessConfig(pca_dim=7))


def _spread_manifest(tmp_path):
    """12 records of 5 frames whose six axes have well-separated variances,
    so each PCA component is far from a tie; labels alternate pos, neg."""
    rng = np.random.default_rng(21)
    lines = ["id,label,group,path"]
    for k in range(12):
        frames = rng.normal(size=(5, 6)) * [6.0, 5.0, 4.0, 3.0, 2.0, 1.0] + 0.5
        write_sequence(FrameSequence(frames), tmp_path / f"r{k}.csv")
        lines.append(f"r{k},{'neg' if k % 2 else 'pos'},g{k % 4},r{k}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return parse_manifest(path)


def _cv_fits(monkeypatch, manifest, folds, config, cpus=1):
    """The FittedPreprocess of each fold that run_cv runs in this process,
    and the frame count of each _pca_moments call made here."""
    monkeypatch.setattr(lomo.core, "cpu_count", lambda: cpus)
    fits, sums = [], []
    fit, pca_moments = lomo.evaluation._fit, lomo.evaluation._pca_moments

    def recording_fit(*args):
        fits.append(fit(*args))
        return fits[-1]

    def counting_moments(seqs, l2):
        sums.append(sum(seq.num_frames for seq in seqs))
        return pca_moments(seqs, l2)

    monkeypatch.setattr(lomo.evaluation, "_fit", recording_fit)
    monkeypatch.setattr(lomo.evaluation, "_pca_moments", counting_moments)
    run_cv(manifest, folds, _fast_cfg(num_templates=1), "acc", positive_label="pos",
           preprocess=config)
    return fits, sums


@pytest.mark.parametrize("l2", [False, True])
def test_run_cv_fits_each_hand_built_fold_as_fit_preprocess_does(tmp_path, monkeypatch, l2):
    manifest = _spread_manifest(tmp_path)
    r = [f"r{k}" for k in range(12)]
    folds = [
        # every later fold trains on all of this split
        Fold(train_ids=tuple(r[4:8]), test_ids=tuple(r[0:2])),
        Fold(train_ids=tuple(r[0:8]), test_ids=tuple(r[8:12])),
        # overlaps the one before; r10 and r11 are in no training split
        Fold(train_ids=tuple(r[2:10]), test_ids=tuple(r[10:12])),
        # r4 and r5 listed twice count twice
        Fold(train_ids=tuple(r[4:10] + r[4:6]), test_ids=tuple(r[0:4])),
    ]
    config = PreprocessConfig(l2=l2, pca_dim=3)
    fits, sums = _cv_fits(monkeypatch, manifest, folds, config)
    # per fold, what all remaining folds list that is not yet held, then
    # the rest of its split: fold 0 holds r4-7 and has no rest; fold 1
    # sums r0-3; fold 2 adds r8-9 and sums r2-3; fold 3 adds its second
    # r4-5 and has no rest
    assert sums == [20, 0, 0, 20, 10, 10, 10, 0]
    top = 1.0 if l2 else max(float(np.abs(seq.frames).max()) for seq in manifest.sequences.values())
    for fold, got in zip(folds, fits, strict=True):
        want = fit_preprocess([manifest.sequences[i] for i in fold.train_ids], config)
        np.testing.assert_allclose(got.mean, want.mean, rtol=1e-12, atol=1e-12 * top)
        np.testing.assert_allclose(got.components, want.components, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_cv_sums_what_its_remaining_folds_share_once(tmp_path, monkeypatch, cpus):
    manifest = _synthetic_manifest(tmp_path)
    folds = make_folds(manifest, "kfold", seed=1, k=5)
    _, sums = _cv_fits(monkeypatch, manifest, folds, PreprocessConfig(l2=True, pca_dim=3), cpus)
    # 16 frames per record; a fold's training split is the other test splits
    split = [len(fold.test_ids) * 16 for fold in folds]
    if cpus == 1:
        # fold i adds fold i-1's test split to the held moments, then sums
        # the test splits of the later folds
        want = [0, sum(split[1:])]
        for i in range(1, 5):
            want += [split[i - 1], sum(split[i + 1:])]
    else:
        # this process runs folds 0, 2 and 4 and holds folds 1 and 3's
        # test splits from the start
        want = [split[1] + split[3], split[2] + split[4], split[0], split[4], split[2], 0]
    assert sums == want


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_cv_counts_each_training_split_of_a_worker_once(tmp_path, monkeypatch, cpus):
    # the PCA plan of a worker's share is linear in its folds: at most two
    # Counters per fold, where a scan of every later fold made O(F**2)
    manifest = _synthetic_manifest(tmp_path)
    folds = make_folds(manifest, "logo", seed=0)
    built = []

    def counter(*args):
        built.append(args)
        return Counter(*args)

    monkeypatch.setattr(lomo.evaluation, "Counter", counter)
    fits, _ = _cv_fits(monkeypatch, manifest, folds, PreprocessConfig(pca_dim=2), cpus)
    share = folds[::cpus]  # the folds this process runs
    assert len(folds) == 10 and len(fits) == len(share)
    assert 0 < len(built) <= 2 * len(share)


def test_run_cv_accuracy_names_the_class_a_test_split_lacks(tmp_path):
    # logo's group g0 holds only 'pos' records, so with 'neg' as the positive
    # class fold 0 tests no sequence of it
    manifest = _spread_manifest(tmp_path)
    folds = make_folds(manifest, "logo", seed=0)
    assert {manifest.records[k].label for k in (0, 4, 8)} == {"pos"}
    with pytest.raises(LomoError, match=r"^fold 0: class 'neg' has no examples$"):
        run_cv(manifest, folds, _fast_cfg(), "acc", positive_label="neg")


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
    """Make every fold's one-vs-all training return `models`."""
    monkeypatch.setattr(lomo.evaluation, "_train_ova",
                        lambda seqs, labels, cfg, classes=None: models)


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
    message = "^positive_label applies to binary manifests; this manifest has 3 classes$"
    with pytest.raises(LomoError, match=message):
        run_cv(manifest, folds, cfg, "acc", positive_label="a")


def test_cv_timings_times_a_serial_and_a_forked_cv(capsys):
    script = Path(__file__).parents[1] / "tools" / "cv_timings.py"
    spec = importlib.util.spec_from_file_location("cv_timings", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    argv = ["--dim", "4", "--files", "20", "--frames", "20", "--pca-dim", "3", "--runs", "2"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d=4 files=20 frames=20 pca_dim=3 runs=2"
    figures = json.loads(lines[-1])
    assert sorted(figures) == ["forked_wall", "serial_cpu"]
    for figure in figures.values():
        assert figure["median_ms"] > 0 and figure["iqr_ms"] >= 0
