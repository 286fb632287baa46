"""Command-line front end: synth | train | predict | cv | report.

The library's configs (SynthSpec, TrainConfig, PreprocessConfig) are the
single source of truth for every setting; each flag reads its default and
choices from them through the *_FLAGS tables, so predict and report take
--exclusion-t's default from TrainConfig.
Every run echoes its resolved configuration to stderr and writes data to
files or stdout, so reruns with identical flags produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace

from .core import LomoError, format_float, write_text
from .data import (
    NEG_MODES,
    POOLS,
    SCHEMES,
    PreprocessConfig,
    SynthSpec,
    _l2_in_place,
    apply_preprocess,
    fit_preprocess,
    gen_synthetic,
    make_folds,
    parse_manifest,
    read_sequence,
)
from .evaluation import METRICS, format_cv_results, run_cv
from .inference import assign_batch, fuse_scores, score_sequences
from .model import load_model, save_model
from .training import COST_UPDATES, TrainConfig, train_binary, train_ova

# --variant -> (TrainConfig.variant, PreprocessConfig.pool)
VARIANT_FLAGS = {
    "lomo": ("lomo", None),
    "mil": ("mil", None),
    "svm-mean": ("mil", "mean"),
    "svm-max": ("mil", "max"),
}


def _echo(command: str, settings: dict) -> None:
    rendered = " ".join(
        f"{key}={format_float(value) if isinstance(value, float) else value}"
        for key, value in settings.items()
    )
    print(f"{command} config: {rendered}", file=sys.stderr)


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        write_text(out_path, text)


# One table per config: (flag, config field, help text). A flag's default
# is its field's default and its choices are the constant the config checks
# against, so cli.py restates neither; its echo key is the flag's name.
SYNTH_FLAGS = (
    ("--d", "dim", "feature dimension"),
    ("--n", "num_frames", "frames per sequence"),
    ("--m-true", "num_events", "planted sub-events per positive"),
    ("--noise-sigma", "noise_sigma", "background noise scale"),
    ("--min-gap", "min_gap", "minimum frames strictly between planted positions"),
    ("--pos", "num_pos", "number of positive sequences"),
    ("--neg", "num_neg", "number of negative sequences"),
    ("--neg-mode", "neg_mode", "negatives reorder the prototypes or omit them"),
    ("--seed", "seed", "RNG seed"),
)
INFERENCE_FLAGS = (
    ("--exclusion-t", "exclusion_t", "frames excluded on each side of a chosen frame"),
)
TRAIN_FLAGS = (
    ("--templates", "num_templates",
     "number of sub-event templates (forced to 1 by mil/svm variants)"),
    ("--eta", "eta", "SGD learning rate"),
    ("--lambda", "reg_lambda", "L2 regularizer on the templates"),
    *INFERENCE_FLAGS,
    ("--max-iter", "max_iter", "SGD iterations (default: 100 x number of training sequences)"),
    ("--seed", "seed", "RNG seed"),
    ("--cost-update", "cost_update", "ordering-cost update rule on margin violations"),
)
PREPROCESS_FLAGS = (
    ("--l2", "l2", "unit-l2 normalize every frame"),
    ("--pca-dim", "pca_dim", "PCA dimension, fit on each fold's training split"),
    ("--stack", "stack", "stack each frame with the next STACK-1 frames"),
)
CHOICES = {"neg_mode": NEG_MODES, "cost_update": COST_UPDATES}


def _add_flags(sub, config, rows) -> None:
    """Add each row's flag: default from the config's field, type from the
    default (int for None), store_true for a bool, choices from CHOICES."""
    defaults = {f.name: f.default for f in fields(config)}
    for flag, name, text in rows:
        value = defaults[name]
        kind = (
            {"action": "store_true"} if isinstance(value, bool)
            else {"type": int if value is None else type(value), "choices": CHOICES.get(name)}
        )
        sub.add_argument(flag, dest=name, default=value, help=text, **kind)


def _config(config, rows, args, **extra):
    """A `config` built from the parsed flags of `rows`, plus `extra` fields."""
    return config(**{name: getattr(args, name) for _, name, _ in rows}, **extra)


def _settings(values, rows) -> dict:
    """Echo pairs: each row's flag name (underscores for dashes) -> its field
    in `values`, a config or the parsed flags."""
    return {flag[2:].replace("-", "_"): getattr(values, name) for flag, name, _ in rows}


def _train_config(args) -> TrainConfig:
    return _config(TrainConfig, TRAIN_FLAGS, args, variant=VARIANT_FLAGS[args.variant][0])


def _add_train_flags(sub) -> None:
    sub.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="lomo",
                     help="model family: full ordinal model, MIL, or pooled SVM")
    _add_flags(sub, TrainConfig, TRAIN_FLAGS)


def _cmd_synth(args) -> int:
    spec = _config(SynthSpec, SYNTH_FLAGS, args)
    _echo("synth", dict(spec.text_fields()))
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
    pool = VARIANT_FLAGS[args.variant][1]
    seqs = apply_preprocess(fit_preprocess(seqs, PreprocessConfig(pool=pool)), seqs)
    _echo("train", {"variant": args.variant, **_settings(cfg, TRAIN_FLAGS),
                    "max_iter": cfg.num_steps(len(seqs)),  # the steps run, in max_iter's place
                    "ova": args.ova, "positive_label": args.positive_label})
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
    _echo("predict", {
        "models": len(args.model), **_settings(args, INFERENCE_FLAGS), "pool": args.pool,
    })
    models = [load_model(p) for p in args.model]
    manifest = parse_manifest(args.manifest)
    seqs = [manifest.sequences[rec.id] for rec in manifest.records]
    pool = None if args.pool == "none" else args.pool
    seqs = apply_preprocess(fit_preprocess(seqs, PreprocessConfig(pool=pool)), seqs)
    per_model = [score_sequences(m, seqs, args.exclusion_t).tolist() for m in models]
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
    _echo("cv", {
        "scheme": args.scheme, "folds": args.folds, "metric": args.metric,
        "variant": args.variant, **_settings(cfg, TRAIN_FLAGS),
        "positive_label": args.positive_label, **_settings(args, PREPROCESS_FLAGS),
    })
    manifest = parse_manifest(args.manifest)
    folds = make_folds(manifest, args.scheme, args.seed, k=args.folds)
    preprocess = _config(
        PreprocessConfig, PREPROCESS_FLAGS, args, pool=VARIANT_FLAGS[args.variant][1]
    )
    # The frames are this command's own, so l2 runs once, in place, and not
    # in every fold.
    if preprocess.l2:
        _l2_in_place(manifest.sequences.values())
        preprocess = replace(preprocess, l2=False)
    result = run_cv(
        manifest, folds, cfg,
        metric=args.metric,
        positive_label=args.positive_label,
        preprocess=preprocess,
    )
    _write_text(format_cv_results(result), args.out)
    return 0


def _cmd_report(args) -> int:
    _echo("report", _settings(args, INFERENCE_FLAGS))
    model = load_model(args.model)
    seq = read_sequence(args.sequence)
    assign = assign_batch(model, [seq], args.exclusion_t)
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
    _add_flags(p, SynthSpec, SYNTH_FLAGS)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--manifest", required=True, help="path to manifest.csv")
    p.add_argument("--out", required=True,
                   help="model file path (a directory when --ova is set)")
    p.add_argument("--positive-label", help="class treated as +1 for binary training")
    p.add_argument("--ova", action="store_true",
                   help="train one model per class (one-vs-all)")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score sequences with one or more models")
    p.add_argument("--manifest", required=True, help="path to manifest.csv")
    p.add_argument("--model", action="append", required=True,
                   help="model file; repeat to average scores (late fusion)")
    _add_flags(p, TrainConfig, INFERENCE_FLAGS)
    p.add_argument("--pool", choices=("none", *POOLS), default="none",
                   help="pool each sequence to one frame before scoring")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("cv", help="cross-validate a configuration on a manifest")
    p.add_argument("--manifest", required=True, help="path to manifest.csv")
    p.add_argument("--scheme", choices=SCHEMES, default="logo",
                   help="leave-one-group-out or grouped k-fold")
    p.add_argument("--folds", type=int, metavar="K", help="fold count for the kfold scheme")
    p.add_argument("--metric", choices=METRICS, default="acc",
                   help="acc = average class accuracy; auc/eer are binary-only")
    p.add_argument("--positive-label", help="class treated as +1 for binary tasks")
    _add_flags(p, PreprocessConfig, PREPROCESS_FLAGS)
    p.add_argument("--out", help="results CSV path (default stdout)")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_cv)

    p = sub.add_parser("report", help="detection timeline for one sequence")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--sequence", required=True, help="sequence CSV file")
    _add_flags(p, TrainConfig, INFERENCE_FLAGS)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LomoError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

