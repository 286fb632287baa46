"""Metrics and the cross-validation runner.

ROC metrics use discrete conventions, no curve interpolation: AUC is the
Mann-Whitney pair probability with ties counted 0.5; the EER rate sweeps
thresholds at every distinct score, every midpoint between consecutive
distinct scores, and one point beyond each extreme (rule: positive iff
score >= threshold), picks the threshold minimizing |FPR - FNR| (ties to
lower FPR, then lower FNR), and reports 1 - (FPR + FNR) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import LomoError, child_seed, cpu_count, forked_map, format_float
from .data import (
    DatasetManifest,
    FoldPlan,
    FittedPreprocess,
    PreprocessConfig,
    apply_preprocess,
    fit_preprocess,
    pooled_sequence,
)
from .inference import ova_predict, score_sequences
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
    labels = list(labels)
    scores = np.asarray(list(scores), dtype=np.float64)
    if len(labels) != scores.shape[0]:
        raise LomoError(f"{len(labels)} labels vs {scores.shape[0]} scores")
    mask = np.array([bool(l == 1 or l is True) for l in labels])
    pos = scores[mask]
    neg = scores[~mask]
    if pos.size == 0 or neg.size == 0:
        raise LomoError("ROC metrics need both classes present")
    return pos, neg


def roc_auc(labels, scores) -> float:
    """P(random positive outscores random negative), ties counted 0.5.

    Computed from midranks of the pooled sample (exactly the Mann-Whitney
    U statistic), which matches exhaustive pair counting bit for bit.
    """
    pos, neg = _split_scores(labels, scores)
    pooled = np.concatenate([pos, neg])
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.shape[0])
    i = 0
    while i < pooled.shape[0]:
        j = i
        while j + 1 < pooled.shape[0] and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * ((i + 1) + (j + 1))
        i = j + 1
    n_pos = pos.shape[0]
    rank_sum = float(np.sum(ranks[:n_pos]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * neg.shape[0])


def _eer_candidates(values: np.ndarray) -> np.ndarray:
    distinct = np.unique(values)
    mids = (distinct[:-1] + distinct[1:]) / 2.0 if distinct.size > 1 else np.array([])
    return np.concatenate([[distinct[0] - 1.0], distinct, mids, [distinct[-1] + 1.0]])


def roc_eer_rate(labels, scores) -> float:
    """Classification rate at the discrete equal-error operating point."""
    pos, neg = _split_scores(labels, scores)
    best = None
    for threshold in _eer_candidates(np.concatenate([pos, neg])):
        fpr = float(np.mean(neg >= threshold))
        fnr = float(np.mean(pos < threshold))
        key = (abs(fpr - fnr), fpr, fnr)
        if best is None or key < best:
            best = key
    _, fpr, fnr = best
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


def _prepared(seq, fitted: FittedPreprocess, cfg: TrainConfig):
    out = apply_preprocess(fitted, seq)
    if cfg.variant == "svm_pool":
        out = pooled_sequence(out, cfg.pooling)
    return out


def _binary_fold_value(
    train_recs, test_recs, seqs, cfg, metric, positive_label, fold_no, preprocess
):
    fitted = fit_preprocess([seqs[r.id] for r in train_recs], preprocess)
    train_data = [
        LabeledSequence(
            _prepared(seqs[r.id], fitted, cfg), 1 if r.label == positive_label else -1, r.group
        )
        for r in train_recs
    ]
    if {ex.label for ex in train_data} != {-1, 1}:
        raise LomoError(f"fold {fold_no}: training split lacks one of the two classes")
    model = train(train_data, cfg)
    icfg = cfg.inference_config()
    truths = [1 if r.label == positive_label else -1 for r in test_recs]
    test_seqs = [_prepared(seqs[r.id], fitted, cfg) for r in test_recs]
    values = score_sequences(model, test_seqs, icfg).tolist()
    if metric == "acc":
        preds = [1 if v > 0 else -1 for v in values]
        try:
            return avg_class_accuracy(list(zip(truths, preds)), classes=(-1, 1))
        except LomoError as err:
            raise LomoError(f"fold {fold_no}: {err}") from None
    try:
        if metric == "auc":
            return roc_auc(truths, values)
        return roc_eer_rate(truths, values)
    except LomoError as err:
        raise LomoError(f"fold {fold_no}: {err}") from None


def _multiclass_fold_value(train_recs, test_recs, seqs, cfg, classes, fold_no, preprocess):
    fitted = fit_preprocess([seqs[r.id] for r in train_recs], preprocess)
    train_data = [(_prepared(seqs[r.id], fitted, cfg), r.label) for r in train_recs]
    try:
        models = train_ova(train_data, cfg, classes=classes)
    except LomoError as err:
        raise LomoError(f"fold {fold_no}: {err}") from None
    icfg = cfg.inference_config()
    pairs = []
    for r in test_recs:
        predicted, _ = ova_predict(models, _prepared(seqs[r.id], fitted, cfg), icfg)
        pairs.append((r.label, predicted))
    return avg_class_accuracy(pairs, classes=sorted({r.label for r in test_recs}))


def run_cv(
    manifest: DatasetManifest,
    plan: FoldPlan,
    cfg: TrainConfig,
    metric: str = "acc",
    positive_label: str | None = None,
    preprocess: PreprocessConfig | None = None,
) -> CvResult:
    """Per-fold train/evaluate with train-only preprocessing statistics.

    Binary manifests score the `positive_label` class; manifests with more
    than two classes run one-vs-all and report average class accuracy.
    Fold i trains with a child seed of cfg.seed, so results are
    deterministic and independent of fold execution order; the folds run
    on forked workers, one per CPU (core.forked_map). Every fold trains a
    model, which outweighs the cost of a fork even for two-sequence
    training splits, so folds fork with no minimum size. Forking is unsafe
    in a process that runs other threads, including a BLAS built on GNU
    OpenMP: a worker can deadlock and the call then never returns.
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
        fold = plan.folds[fold_no]
        if not fold.train_ids or not fold.test_ids:
            raise LomoError(f"fold {fold_no}: empty train or test split")
        train_recs = [by_id[i] for i in fold.train_ids]
        test_recs = [by_id[i] for i in fold.test_ids]
        fold_cfg = replace(cfg, seed=child_seed(cfg.seed, fold_no))
        if multiclass:
            return _multiclass_fold_value(
                train_recs, test_recs, seqs, fold_cfg, classes, fold_no, preprocess
            )
        return _binary_fold_value(
            train_recs, test_recs, seqs, fold_cfg, metric, positive_label, fold_no, preprocess
        )

    folds = range(len(plan.folds))
    values = list(forked_map(fold_value, folds, min(cpu_count(), len(folds))))
    return CvResult(metric=metric, fold_values=values)


def format_cv_results(result: CvResult) -> str:
    """Results CSV: per-fold rows then a final mean row."""
    lines = ["fold,metric,value"]
    for fold_no, value in enumerate(result.fold_values):
        lines.append(f"{fold_no},{result.metric},{format_float(value)}")
    lines.append(f"mean,{result.metric},{format_float(result.mean)}")
    return "\n".join(lines) + "\n"
