"""Command-line front end: synth | train | predict | cv | report.

Flags are the single source of truth; every run echoes its resolved
configuration to stderr and writes data to files or stdout, so reruns
with identical flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .core import LomoError, format_float, write_text
from .data import (
    PreprocessConfig,
    SynthSpec,
    gen_synthetic,
    make_folds,
    parse_manifest,
    prepare,
    read_sequence,
)
from .evaluation import format_cv_results, run_cv
from .inference import InferenceConfig, assign_batch, fuse_scores, score_sequences
from .model import load_model, save_model
from .training import TrainConfig, train_binary, train_ova

# --variant -> (TrainConfig.variant, PreprocessConfig.pool)
VARIANT_FLAGS = {
    "lomo": ("lomo", None),
    "mil": ("mil", None),
    "svm-mean": ("mil", "mean"),
    "svm-max": ("mil", "max"),
}


def _echo(command: str, pairs) -> None:
    rendered = " ".join(
        f"{key}={format_float(value) if isinstance(value, float) else value}"
        for key, value in pairs
    )
    print(f"{command} config: {rendered}", file=sys.stderr)


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text(out_path, text)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        num_templates=args.templates,
        eta=args.eta,
        reg_lambda=args.reg_lambda,
        exclusion_t=args.exclusion_t,
        max_iter=args.max_iter,
        seed=args.seed,
        variant=VARIANT_FLAGS[args.variant][0],
        cost_update=args.cost_update,
    )


def _train_settings(args, cfg: TrainConfig, max_iter) -> list[tuple]:
    """The training settings that train and cv echo, one per _add_train_flags flag."""
    return [
        ("variant", args.variant), ("templates", cfg.num_templates), ("eta", cfg.eta),
        ("lambda", cfg.reg_lambda), ("exclusion_t", cfg.exclusion_t),
        ("max_iter", max_iter), ("seed", cfg.seed), ("cost_update", cfg.cost_update),
    ]


def _add_exclusion_flag(sub) -> None:
    sub.add_argument("--exclusion-t", type=int, default=5, metavar="T",
                     help="frames excluded on each side of a chosen frame")


def _add_train_flags(sub) -> None:
    sub.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="lomo",
                     help="model family: full ordinal model, MIL, or pooled SVM")
    sub.add_argument("--templates", type=int, default=3, metavar="M",
                     help="number of sub-event templates (forced to 1 by mil/svm variants)")
    sub.add_argument("--eta", type=float, default=0.05, help="SGD learning rate")
    sub.add_argument("--lambda", dest="reg_lambda", type=float, default=1e-5,
                     help="L2 regularizer on the templates")
    _add_exclusion_flag(sub)
    sub.add_argument("--max-iter", type=int, default=None,
                     help="SGD iterations (default: 100 x number of training sequences)")
    sub.add_argument("--seed", type=int, default=42, help="RNG seed")
    sub.add_argument("--cost-update", choices=("gradient", "literal"), default="gradient",
                     help="ordering-cost update rule on margin violations")


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        dim=args.d,
        num_frames=args.n,
        num_events=args.m_true,
        noise_sigma=args.noise_sigma,
        min_gap=args.min_gap,
        num_pos=args.pos,
        num_neg=args.neg,
        neg_mode=args.neg_mode,
        seed=args.seed,
    )
    _echo("synth", spec.text_fields())
    manifest = gen_synthetic(spec, args.out)
    print(
        f"wrote {len(manifest.records)} sequences "
        f"({spec.num_pos} pos / {spec.num_neg} neg, d={spec.dim}, "
        f"N={spec.num_frames}, neg_mode={spec.neg_mode}) to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.ova and args.positive_label is not None:
        raise LomoError("--positive-label has no effect with --ova")
    cfg = _train_config(args)
    manifest = parse_manifest(args.manifest)
    seqs = [manifest.sequences[rec.id] for rec in manifest.records]
    _, seqs = prepare(PreprocessConfig(pool=VARIANT_FLAGS[args.variant][1]), seqs, seqs)
    _echo("train", [*_train_settings(args, cfg, cfg.num_steps(len(seqs))),
                    ("ova", args.ova), ("positive_label", args.positive_label)])
    pairs = [(seq, rec.label) for rec, seq in zip(manifest.records, seqs)]
    if args.ova:
        models = train_ova(pairs, cfg)
        os.makedirs(args.out, exist_ok=True)
        for name, model in sorted(models.items()):
            save_model(model, os.path.join(args.out, f"{name}.lomo"))
        print(f"wrote {len(models)} models to {args.out}", file=sys.stderr)
        return 0
    if args.positive_label is None:
        raise LomoError(
            f"binary training needs --positive-label (classes here: {', '.join(manifest.classes)})"
        )
    model = train_binary(pairs, args.positive_label, cfg)
    save_model(model, args.out)
    print(f"wrote model to {args.out}", file=sys.stderr)
    return 0


def _cmd_predict(args) -> int:
    _echo("predict", [
        ("models", len(args.model)), ("exclusion_t", args.exclusion_t), ("pool", args.pool),
    ])
    models = [load_model(p) for p in args.model]
    manifest = parse_manifest(args.manifest)
    icfg = InferenceConfig(exclusion_t=args.exclusion_t)
    seqs = [manifest.sequences[rec.id] for rec in manifest.records]
    _, seqs = prepare(PreprocessConfig(pool=None if args.pool == "none" else args.pool), seqs, seqs)
    per_model = [score_sequences(m, seqs, icfg).tolist() for m in models]
    lines = ["id,score,decision"]
    for k, rec in enumerate(manifest.records):
        try:
            fused = fuse_scores([scores[k] for scores in per_model])
        except LomoError as err:
            raise LomoError(f"sequence {rec.id}: {err}") from None
        decision = 1 if fused > 0 else -1
        lines.append(f"{rec.id},{format_float(fused)},{decision}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cv(args) -> int:
    cfg = _train_config(args)
    _echo("cv", [
        ("scheme", args.scheme), ("folds", args.folds), ("metric", args.metric),
        *_train_settings(args, cfg, cfg.max_iter), ("positive_label", args.positive_label),
        ("l2", args.l2), ("pca_dim", args.pca_dim), ("stack", args.stack),
    ])
    manifest = parse_manifest(args.manifest)
    folds = make_folds(manifest, args.scheme, args.seed, k=args.folds)
    preprocess = PreprocessConfig(
        l2=args.l2, pca_dim=args.pca_dim, stack=args.stack, pool=VARIANT_FLAGS[args.variant][1]
    )
    result = run_cv(
        manifest, folds, cfg,
        metric=args.metric,
        positive_label=args.positive_label,
        preprocess=preprocess,
    )
    _write_text(format_cv_results(result), args.out)
    return 0


def _cmd_report(args) -> int:
    _echo("report", [("exclusion_t", args.exclusion_t)])
    model = load_model(args.model)
    seq = read_sequence(args.sequence)
    assign = assign_batch(model, [seq], InferenceConfig(exclusion_t=args.exclusion_t))
    n = seq.num_frames
    lines = ["template,frame_index,percentile,template_score"]
    chosen = assign.chosen[0].tolist()
    for i, (k, s) in enumerate(zip(chosen, assign.template_scores[0].tolist()), start=1):
        percentile = math.floor(100.0 * k / n + 0.5)
        lines.append(f"{i},{k},{percentile},{format_float(s)}")
    lines.append(f"perm_index,{assign.perm[0]}")
    lines.append(f"ordering_cost,{format_float(assign.ordering_cost[0])}")
    lines.append(f"total_score,{format_float(assign.total[0])}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lomo",
        description="Weakly-supervised sequence classification with latent "
        "sub-event templates and learned temporal-ordering costs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic planted-order dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--d", type=int, default=20, help="feature dimension")
    p.add_argument("--n", type=int, default=40, help="frames per sequence")
    p.add_argument("--m-true", type=int, default=3, help="planted sub-events per positive")
    p.add_argument("--noise-sigma", type=float, default=0.3, help="background noise scale")
    p.add_argument("--min-gap", type=int, default=5,
                   help="minimum frames strictly between planted positions")
    p.add_argument("--pos", type=int, default=200, help="number of positive sequences")
    p.add_argument("--neg", type=int, default=200, help="number of negative sequences")
    p.add_argument("--neg-mode", choices=("shuffled", "absent"), default="shuffled",
                   help="negatives reorder the prototypes or omit them")
    p.add_argument("--seed", type=int, default=7, help="RNG seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", required=True, help="path to manifest.csv")
    p.add_argument("--out", required=True,
                   help="model file path (a directory when --ova is set)")
    p.add_argument("--positive-label", default=None,
                   help="class treated as +1 for binary training")
    p.add_argument("--ova", action="store_true",
                   help="train one model per class (one-vs-all)")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score sequences with one or more models")
    p.add_argument("--manifest", required=True, help="path to manifest.csv")
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat to average scores (late fusion)")
    _add_exclusion_flag(p)
    p.add_argument("--pool", choices=("none", "mean", "max"), default="none",
                   help="pool each sequence to one frame before scoring")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("cv", help="cross-validate a configuration on a manifest")
    p.add_argument("--manifest", required=True, help="path to manifest.csv")
    p.add_argument("--scheme", choices=("logo", "kfold"), default="logo",
                   help="leave-one-group-out or grouped k-fold")
    p.add_argument("--folds", type=int, default=None, metavar="K",
                   help="fold count for the kfold scheme")
    p.add_argument("--metric", choices=("acc", "auc", "eer"), default="acc",
                   help="acc = average class accuracy; auc/eer are binary-only")
    p.add_argument("--positive-label", default=None,
                   help="class treated as +1 for binary tasks")
    p.add_argument("--l2", action="store_true", help="unit-l2 normalize every frame")
    p.add_argument("--pca-dim", type=int, default=None,
                   help="PCA dimension, fit on each fold's training split")
    p.add_argument("--stack", type=int, default=1, metavar="W",
                   help="stack each frame with the next W-1 frames")
    p.add_argument("--out", default=None, help="results CSV path (default stdout)")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("report", help="detection timeline for one sequence")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--sequence", required=True, help="sequence CSV file")
    _add_exclusion_flag(p)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LomoError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
