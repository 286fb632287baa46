"""Metrics and the cross-validation runner.

ROC metrics use discrete conventions, no curve interpolation: AUC is the
Mann-Whitney pair probability with ties counted 0.5; the EER rate sweeps
thresholds at every distinct score and at +inf (rule: positive iff
score >= threshold; a threshold between two consecutive distinct scores,
or below the lowest, classifies as the next score up does), picks the
threshold minimizing |FPR - FNR| (ties to lower FPR, then lower FNR), and
reports 1 - (FPR + FNR) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import LomoError, child_seed, forked_map, format_float
from .data import DatasetManifest, Fold, PreprocessConfig, prepare
from .inference import score_sequences
from .training import LabeledSequence, TrainConfig, train, train_ova

METRICS = ("acc", "auc", "eer")


def avg_class_accuracy(pairs, classes=None) -> float:
    """Mean per-class recall over (true label, predicted label) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise LomoError("avg_class_accuracy needs at least one prediction")
    names = sorted(classes) if classes is not None else sorted({t for t, _ in pairs})
    recalls = []
    for name in names:
        total = sum(1 for t, _ in pairs if t == name)
        if total == 0:
            raise LomoError(f"class {name!r} has no examples")
        hit = sum(1 for t, p in pairs if t == name and p == name)
        recalls.append(hit / total)
    return float(np.mean(recalls))


def _split_scores(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) scores, each sorted; every score must be finite."""
    labels = list(labels)
    scores = np.asarray(list(scores), dtype=np.float64)
    if len(labels) != scores.shape[0]:
        raise LomoError(f"{len(labels)} labels vs {scores.shape[0]} scores")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise LomoError(f"scores[{bad[0]}] is {scores[bad[0]]}; ROC metrics need finite scores")
    mask = np.array([bool(l == 1 or l is True) for l in labels])
    pos = np.sort(scores[mask])
    neg = np.sort(scores[~mask])
    if pos.size == 0 or neg.size == 0:
        raise LomoError("ROC metrics need both classes present")
    return pos, neg


def roc_auc(labels, scores) -> float:
    """P(random positive outscores random negative), ties counted 0.5.

    Twice the Mann-Whitney U statistic is, summed over the positives, the
    number of negatives below each one plus the number at or below it,
    counted by binary search in the sorted negatives. That count is an exact
    integer, so the result matches exhaustive pair counting bit for bit.
    """
    pos, neg = _split_scores(labels, scores)
    below = np.searchsorted(neg, pos, "left").sum()
    twice_u = int(below + np.searchsorted(neg, pos, "right").sum())
    return twice_u / 2.0 / (pos.shape[0] * neg.shape[0])


def roc_eer_rate(labels, scores) -> float:
    """Classification rate at the discrete equal-error operating point; FPR
    and FNR at each threshold are counts found by binary search."""
    pos, neg = _split_scores(labels, scores)
    thresholds = np.append(np.unique(np.concatenate([pos, neg])), np.inf)
    fpr = (neg.shape[0] - np.searchsorted(neg, thresholds, "left")) / neg.shape[0]
    fnr = np.searchsorted(pos, thresholds, "left") / pos.shape[0]
    _, fpr, fnr = min(zip(np.abs(fpr - fnr).tolist(), fpr.tolist(), fnr.tolist()))
    return 1.0 - (fpr + fnr) / 2.0


# ---------------------------------------------------------------------------
# cross-validation runner


@dataclass
class CvResult:
    metric: str
    fold_values: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_values))


def _binary_fold_value(train_pairs, test_pairs, cfg, metric, positive_label):
    train_data = [
        LabeledSequence(seq, 1 if r.label == positive_label else -1)
        for r, seq in train_pairs
    ]
    if {ex.label for ex in train_data} != {-1, 1}:
        raise LomoError("training split lacks one of the two classes")
    model = train(train_data, cfg)
    icfg = cfg.inference_config()
    truths = [1 if r.label == positive_label else -1 for r, _ in test_pairs]
    values = score_sequences(model, [seq for _, seq in test_pairs], icfg).tolist()
    if metric == "acc":
        preds = [1 if v > 0 else -1 for v in values]
        return avg_class_accuracy(list(zip(truths, preds)), classes=(-1, 1))
    if metric == "auc":
        return roc_auc(truths, values)
    return roc_eer_rate(truths, values)


def _multiclass_fold_value(train_pairs, test_pairs, cfg, classes):
    """One-vs-all: the class whose model scores a sequence highest; a tie goes
    to the smallest class name, the first maximum over the sorted names."""
    models = train_ova([(seq, r.label) for r, seq in train_pairs], cfg, classes=classes)
    names = sorted(models)
    icfg = cfg.inference_config()
    test_seqs = [seq for _, seq in test_pairs]
    scores = np.stack([score_sequences(models[name], test_seqs, icfg) for name in names])
    pairs = [(r.label, names[k]) for (r, _), k in zip(test_pairs, scores.argmax(axis=0).tolist())]
    return avg_class_accuracy(pairs, classes=sorted({r.label for r, _ in test_pairs}))


def run_cv(
    manifest: DatasetManifest,
    folds: list[Fold],
    cfg: TrainConfig,
    metric: str = "acc",
    positive_label: str | None = None,
    preprocess: PreprocessConfig | None = None,
) -> CvResult:
    """Per-fold train/evaluate with train-only preprocessing statistics.

    Each fold fits `preprocess` on its training sequences and applies it to
    both splits; the svm_pool variant needs `preprocess.pool` set.

    Binary manifests score the `positive_label` class; manifests with more
    than two classes run one-vs-all and report average class accuracy.
    A LomoError raised inside fold i is raised again as "fold i: <message>".
    Fold i trains with a child seed of cfg.seed, so results are
    deterministic and independent of fold execution order; the folds run
    on forked workers, one per CPU (core.forked_map). Every fold trains a
    model, which outweighs the cost of a fork even for two-sequence
    training splits, so folds fork with no minimum share. See
    core.forked_map for when it runs serially and for the threads that
    make forking unsafe.
    """
    metric = str(metric).lower()
    if metric not in METRICS:
        raise LomoError(f"metric must be one of {METRICS}, got {metric!r}")
    preprocess = preprocess or PreprocessConfig()
    classes = manifest.classes
    multiclass = len(classes) > 2
    if multiclass and metric != "acc":
        raise LomoError(f"metric {metric!r} is binary-only; this manifest has {len(classes)} classes")
    if not multiclass:
        if positive_label is None:
            raise LomoError("binary cross-validation needs a positive_label")
        if positive_label not in classes:
            raise LomoError(f"positive_label {positive_label!r} not among classes {classes}")
    seqs = manifest.sequences
    by_id = manifest.by_id()

    def fold_value(fold_no: int) -> float:
        fold = folds[fold_no]
        try:
            if not fold.train_ids or not fold.test_ids:
                raise LomoError("empty train or test split")
            raw_train = [seqs[i] for i in fold.train_ids]
            _, train_seqs, test_seqs = prepare(
                preprocess, raw_train, raw_train, [seqs[i] for i in fold.test_ids]
            )
            train_pairs = list(zip([by_id[i] for i in fold.train_ids], train_seqs))
            test_pairs = list(zip([by_id[i] for i in fold.test_ids], test_seqs))
            fold_cfg = replace(cfg, seed=child_seed(cfg.seed, fold_no))
            if multiclass:
                return _multiclass_fold_value(train_pairs, test_pairs, fold_cfg, classes)
            return _binary_fold_value(train_pairs, test_pairs, fold_cfg, metric, positive_label)
        except LomoError as err:
            raise LomoError(f"fold {fold_no}: {err}") from None

    values = list(forked_map(fold_value, range(len(folds))))
    return CvResult(metric=metric, fold_values=values)


def format_cv_results(result: CvResult) -> str:
    """Results CSV: per-fold rows then a final mean row."""
    lines = ["fold,metric,value"]
    for fold_no, value in enumerate(result.fold_values):
        lines.append(f"{fold_no},{result.metric},{format_float(value)}")
    lines.append(f"mean,{result.metric},{format_float(result.mean)}")
    return "\n".join(lines) + "\n"
