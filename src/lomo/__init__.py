"""Weakly-supervised sequence classification with latent sub-event templates
and a learned cost table over their temporal orderings, plus MIL and
temporal-pooling baselines, preprocessing, synthetic benchmarks,
cross-validation, and metrics."""

from .core import LomoError, Rng, child_seed
from .data import (
    DatasetManifest,
    Fold,
    PreprocessConfig,
    SynthSpec,
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
    InferenceConfig,
    LatentAssignment,
    assign_batch,
    fuse_scores,
    latent_assign,
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
from .training import LabeledSequence, TrainConfig, objective, train, train_binary, train_ova

__version__ = "0.1.0"

__all__ = [
    "BatchAssignment",
    "CvResult",
    "DatasetManifest",
    "Fold",
    "FrameSequence",
    "InferenceConfig",
    "LabeledSequence",
    "LatentAssignment",
    "LomoError",
    "LomoModel",
    "PreprocessConfig",
    "Rng",
    "SynthSpec",
    "TrainConfig",
    "assign_batch",
    "avg_class_accuracy",
    "child_seed",
    "fuse_scores",
    "gen_synthetic",
    "init_model",
    "latent_assign",
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
    "train",
    "train_binary",
    "train_ova",
    "write_sequence",
]
