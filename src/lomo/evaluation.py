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

import numbers
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    LomoError,
    _shown,
    child_seed,
    finite_floats,
    forked_map,
    format_float,
    require_choice,
    require_instance,
    require_items,
    require_iterable,
    require_pairs,
    sorted_classes,
)
from .data import (DatasetManifest, Fold, PreprocessConfig, _fit, _merge_moments, _pca_moments,
                   apply_preprocess)
from .inference import score_sequences
from .training import TrainConfig, binary_targets, check_positive_label, train_binary, train_ova

METRICS = ("acc", "auc", "eer")


def avg_class_accuracy(pairs, classes=None) -> float:
    """Mean per-class recall over (true label, predicted label) pairs."""
    pairs = require_pairs("pairs", pairs, "(true, predicted)")
    if not pairs:
        raise LomoError("avg_class_accuracy needs at least one prediction")
    names = sorted_classes("classes", classes if classes is not None else [t for t, _ in pairs])
    if not names:
        raise LomoError("avg_class_accuracy needs at least one class")
    recalls = []
    for name in names:
        total = sum(1 for t, _ in pairs if t == name)
        if total == 0:
            raise LomoError(f"class {_shown(name)} has no examples")
        hit = sum(1 for t, p in pairs if t == name and p == name)
        recalls.append(hit / total)
    return float(np.mean(recalls))


def _split_scores(labels, scores) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) scores, each sorted; every score must be finite
    and every label +1 or -1. The first label that is neither raises
    LomoError "labels[k] is <label>; ROC metrics need labels +1 or -1"."""
    labels = list(require_iterable("labels", labels))
    scores = np.array(finite_floats("scores", scores, "ROC metrics need finite scores"))
    if len(labels) != scores.shape[0]:
        raise LomoError(f"{len(labels)} labels vs {scores.shape[0]} scores")
    for k, label in enumerate(labels):
        if not (isinstance(label, (numbers.Real, np.bool_)) and label in (1, -1)):
            raise LomoError(f"labels[{k}] is {_shown(label)}; ROC metrics need labels +1 or -1")
    mask = np.array([label == 1 for label in labels], dtype=bool)
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
    and FNR at each threshold are counts found by binary search.

    A score that repeats repeats its (|FPR - FNR|, FPR, FNR) triple, which
    leaves the minimum as it is, so the scores are not deduplicated:
    np.unique (numpy 2.4) imports numpy.ma on its first call, 1.3 MB
    resident and 14 ms on a 2-vCPU Xeon."""
    pos, neg = _split_scores(labels, scores)
    thresholds = np.append(np.sort(np.concatenate([pos, neg])), np.inf)
    fpr = (neg.shape[0] - np.searchsorted(neg, thresholds, "left")) / neg.shape[0]
    fnr = np.searchsorted(pos, thresholds, "left") / pos.shape[0]
    _, fpr, fnr = min(zip(np.abs(fpr - fnr).tolist(), fpr.tolist(), fnr.tolist()))
    return 1.0 - (fpr + fnr) / 2.0


# ---------------------------------------------------------------------------
# cross-validation runner


@dataclass
class CvResult:
    """A cv metric and its value on each fold, in fold order. Checked when
    built: the metric is one of METRICS, and there is a fold value, each a
    finite number (kept as a Python float)."""

    metric: str
    fold_values: list[float]

    def __post_init__(self):
        self.metric = require_choice("metric", self.metric, METRICS)
        self.fold_values = finite_floats("fold_values", self.fold_values,
                                         "a fold value must be a finite number")
        if not self.fold_values:
            raise LomoError("fold_values must hold a value per fold, got none")

    @property
    def mean(self) -> float:
        return float(np.mean(self.fold_values))


def _binary_fold_value(train_seqs, train_labels, test_seqs, test_labels, cfg, metric,
                       positive_label, classes):
    """The fold's metric; `acc` averages the recalls of the two `classes`,
    each sequence predicted `positive_label` when it scores above 0.

    The model is train_binary's and the scores score_sequences', each
    through its public entry checks, though run_cv has checked the ids of
    both splits: the checks cost about 0.1 ms a fold."""
    model = train_binary(list(zip(train_seqs, train_labels)), positive_label, cfg)
    values = score_sequences(model, test_seqs, cfg.exclusion_t).tolist()
    if metric == "acc":
        # training needed both classes, so the manifest has two
        (negative,) = [name for name in classes if name != positive_label]
        preds = [positive_label if v > 0 else negative for v in values]
        return avg_class_accuracy(list(zip(test_labels, preds)), classes=classes)
    truths = binary_targets(test_labels, positive_label)
    if metric == "auc":
        return roc_auc(truths, values)
    return roc_eer_rate(truths, values)


def _multiclass_fold_value(train_seqs, train_labels, test_seqs, test_labels, cfg, classes):
    """One-vs-all: the class whose model scores a sequence highest; a tie goes
    to the smallest class name, the first maximum over the sorted names.
    The models are train_ova's, through its entry checks as in
    _binary_fold_value."""
    models = train_ova(list(zip(train_seqs, train_labels)), cfg, classes)
    names = sorted(models)
    t = cfg.exclusion_t
    scores = np.stack([score_sequences(models[name], test_seqs, t) for name in names])
    pairs = [(label, names[k]) for label, k in zip(test_labels, scores.argmax(axis=0).tolist())]
    return avg_class_accuracy(pairs, classes=test_labels)


def _fold_moments(folds, sequences, l2: bool):
    """(start, moments) for the PCA fits of the folds of run_cv.

    start(share) takes the fold numbers this process runs, in order (the
    `start` of core.forked_map). moments(fold_no) returns the (n, mean, M2)
    moments of the training frames of folds[fold_no], the sequences looked
    up by id in `sequences` and l2-normalised when `l2` is set; a record
    listed twice in a split counts twice.

    A process holds one set of moments, whatever the number of folds: those
    of the frames that every one of its remaining folds trains on. A fold
    first sums into them the frames that its remaining folds, itself
    included, now all list; then it sums the rest of its training split
    and merges the held moments into that (data._pca_moments,
    data._merge_moments). So a fold sums only frames of its own split, and
    a float error in them is raised inside that fold, with its prefix.
    With make_folds, a process that runs m of the folds sums each frame
    once into the held moments and, in its i-th fold, the test splits of
    its m - i later folds.

    start lists, for every fold of its share, the sequences that the held
    moments gain and the rest of the fold's split, in one backward pass
    that counts each training split once.
    """
    plans = {}  # fold number -> [gained sequences, rest of its split, is last]
    held = None

    def listed(counts: Counter) -> list:
        return [sequences[i] for i, count in counts.items() for _ in range(count)]

    def start(fold_nos) -> None:
        nonlocal held
        held = None
        plans.clear()
        # `shared` is what fold `later` and every fold after it list;
        # Counter & keeps the smaller count
        later = shared = None
        for fold_no in reversed(fold_nos):
            mine = Counter(folds[fold_no].train_ids)
            now = mine if shared is None else mine & shared
            plans[fold_no] = [None, listed(mine - now), shared is None]
            if later is not None:
                plans[later][0] = listed(shared - now)
            later, shared = fold_no, now
        if later is not None:
            plans[later][0] = listed(shared)

    def moments(fold_no: int):
        nonlocal held
        gained, rest, last = plans.pop(fold_no)
        held = _merge_moments(held, _pca_moments(gained, l2))
        own = _pca_moments(rest, l2)
        if last:
            kept, held = held, None
            return _merge_moments(own, kept)
        if own is None:
            return held[0], held[1].copy(), held[2]
        return _merge_moments(own, held)

    return start, moments


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
    both splits; the pooled SVM is the mil variant with `preprocess.pool` set.
    With PCA, a fold's moments come from _fold_moments, which sums once
    the frames that all of a worker's remaining folds train on. So a fold's
    PCA mean and components depend, in their last bits, on which folds
    share its worker, and so on the CPU count; a fold value moves with them
    only when a decision or ranking is that close to a tie.

    Binary manifests score the `positive_label` class; manifests with more
    than two classes run one-vs-all and report average class accuracy.
    There must be a fold, each split of a fold must be an iterable of ids
    (not a str), read once, and every fold id must name a manifest record
    with a sequence, which is checked before any fold starts; a split of
    None is refused as empty in its fold's turn. A LomoError raised inside
    fold i is raised again as "fold i: <message>".
    Fold i trains with a child seed of cfg.seed, so results are
    deterministic and independent of fold execution order; the folds run
    on forked workers, one per CPU (core.forked_map). Every fold trains a
    model, which outweighs the cost of a fork even for two-sequence
    training splits, so folds fork with no minimum share. See
    core.forked_map for when it runs serially and for the threads that
    make forking unsafe.
    """
    require_instance("manifest", manifest, DatasetManifest)
    folds = require_items("folds", folds, Fold)
    require_instance("cfg", cfg, TrainConfig)
    if preprocess is None:
        preprocess = PreprocessConfig()
    require_instance("preprocess", preprocess, PreprocessConfig)
    metric = require_choice("metric", metric, METRICS)
    classes = manifest.classes
    multiclass = len(classes) > 2
    if multiclass and metric != "acc":
        raise LomoError(f"metric {metric!r} is binary-only; this manifest has {len(classes)} classes")
    if multiclass and positive_label is not None:
        raise LomoError(
            f"positive_label applies to binary manifests; this manifest has {len(classes)} classes"
        )
    if not multiclass:
        if positive_label is None:
            raise LomoError("binary cross-validation needs a positive_label")
        check_positive_label(positive_label, classes)
    if not folds:
        raise LomoError("run_cv needs at least one fold")
    seqs = manifest.sequences
    labels = {rec.id: rec.label for rec in manifest.records}
    for fold_no, fold in enumerate(folds):
        splits = []  # each as a tuple, read once, so a generator is not used up
        for name, split in (("train_ids", fold.train_ids), ("test_ids", fold.test_ids)):
            if isinstance(split, str):
                raise LomoError(f"fold {fold_no}: {name} must be a collection of ids, "
                                f"got the str {_shown(split)}")
            # None is refused, as an empty split, in its fold's turn
            splits.append(None if split is None else
                          tuple(require_iterable(f"fold {fold_no}: {name}", split)))
        for i in (*(splits[0] or ()), *(splits[1] or ())):
            try:
                known = i in labels and i in seqs
            except TypeError:  # unhashable, so no record's id
                known = False
            if not known:
                raise LomoError(f"fold {fold_no}: id {_shown(i)} is no manifest record with a sequence")
        folds[fold_no] = Fold(*splits)
    start, moments = _fold_moments(folds, seqs, preprocess.l2)

    def fold_value(fold_no: int) -> float:
        fold = folds[fold_no]
        try:
            if not fold.train_ids or not fold.test_ids:
                raise LomoError("empty train or test split")
            raw_train = [seqs[i] for i in fold.train_ids]
            fitted = _fit(raw_train, preprocess, lambda *_: moments(fold_no))
            train_seqs = apply_preprocess(fitted, raw_train)
            test_seqs = apply_preprocess(fitted, [seqs[i] for i in fold.test_ids])
            splits = (train_seqs, [labels[i] for i in fold.train_ids],
                      test_seqs, [labels[i] for i in fold.test_ids])
            fold_cfg = replace(cfg, seed=child_seed(cfg.seed, fold_no))
            if multiclass:
                return _multiclass_fold_value(*splits, fold_cfg, classes)
            return _binary_fold_value(*splits, fold_cfg, metric, positive_label, classes)
        except LomoError as err:
            raise LomoError(f"fold {fold_no}: {err}") from None

    pca = preprocess.pca_dim is not None  # only a PCA fit calls moments
    values = list(forked_map(fold_value, range(len(folds)), start=start if pca else None))
    return CvResult(metric=metric, fold_values=values)


def format_cv_results(result: CvResult) -> str:
    """Results CSV: per-fold rows then a final mean row."""
    lines = ["fold,metric,value"]
    for fold_no, value in enumerate(result.fold_values):
        lines.append(f"{fold_no},{result.metric},{format_float(value)}")
    lines.append(f"mean,{result.metric},{format_float(result.mean)}")
    return "\n".join(lines) + "\n"
