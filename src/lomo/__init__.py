"""Weakly-supervised sequence classification with latent sub-event templates
and a learned cost table over their temporal orderings, plus MIL and
temporal-pooling baselines, preprocessing, synthetic benchmarks,
cross-validation, and metrics."""

from .core import LomoError, child_seed
from .data import (
    DatasetManifest,
    FittedPreprocess,
    Fold,
    PreprocessConfig,
    SynthSpec,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    make_folds,
    parse_manifest,
    read_sequence,
    write_sequence,
)
from .evaluation import CvResult, avg_class_accuracy, roc_auc, roc_eer_rate, run_cv
from .inference import (
    BatchAssignment,
    FrameSequence,
    assign_batch,
    fuse_scores,
    score,
    score_sequences,
)
from .model import (
    LomoModel,
    init_model,
    load_model,
    perm_index,
    perm_unrank,
    rank_pattern,
    save_model,
)
from .training import TrainConfig, objective, train_binary, train_ova

__version__ = "0.1.0"

__all__ = [
    "BatchAssignment",
    "CvResult",
    "DatasetManifest",
    "FittedPreprocess",
    "Fold",
    "FrameSequence",
    "LomoError",
    "LomoModel",
    "PreprocessConfig",
    "SynthSpec",
    "TrainConfig",
    "apply_preprocess",
    "assign_batch",
    "avg_class_accuracy",
    "child_seed",
    "fit_preprocess",
    "fuse_scores",
    "gen_synthetic",
    "init_model",
    "load_model",
    "make_folds",
    "objective",
    "parse_manifest",
    "perm_index",
    "perm_unrank",
    "rank_pattern",
    "read_sequence",
    "roc_auc",
    "roc_eer_rate",
    "run_cv",
    "save_model",
    "score",
    "score_sequences",
    "train_binary",
    "train_ova",
    "write_sequence",
]
