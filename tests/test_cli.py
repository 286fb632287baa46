"""End-to-end tests for the command-line interface (run in-process)."""

from __future__ import annotations

import argparse
import math
import os
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lomo.core
from lomo.cli import build_parser, main
from lomo.core import format_float
from lomo.data import write_sequence
from lomo.inference import FrameSequence, InferenceConfig, fuse_scores, latent_assign, score
from lomo.model import LomoModel, load_model, save_model


def _synth(tmp_path, name="data", **overrides):
    out = str(tmp_path / name)
    flags = {
        "--out": out, "--d": "4", "--n": "10", "--m-true": "2",
        "--noise-sigma": "0.2", "--min-gap": "1", "--pos": "6", "--neg": "6",
        "--neg-mode": "absent", "--seed": "3",
    }
    flags.update(overrides)
    argv = ["synth"]
    for key, value in flags.items():
        argv += [key, value]
    assert main(argv) == 0
    return out


TRAIN_FAST = ["--templates", "2", "--exclusion-t", "1", "--max-iter", "300"]


def _train(tmp_path, data_dir, name="model.lomo", extra=()):
    out = str(tmp_path / name)
    argv = [
        "train", "--manifest", os.path.join(data_dir, "manifest.csv"),
        "--out", out, "--positive-label", "pos", *TRAIN_FAST, *extra,
    ]
    assert main(argv) == 0
    return out


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_dataset_and_reports(tmp_path, capsys):
    out = _synth(tmp_path)
    captured = capsys.readouterr()
    assert "synth config:" in captured.err
    assert "neg_mode=absent" in captured.err
    assert "wrote 12 sequences" in captured.out
    names = sorted(os.listdir(out))
    assert "manifest.csv" in names and "spec.txt" in names
    assert sum(name.startswith("seq_") for name in names) == 12
    # the echo and spec.txt print the same key=value pairs in the same order
    echo = next(line for line in captured.err.splitlines() if line.startswith("synth config: "))
    spec_lines = Path(out, "spec.txt").read_text(encoding="utf-8").splitlines()
    assert echo.removeprefix("synth config: ").split(" ") == spec_lines


def test_synth_is_byte_deterministic(tmp_path):
    a = _synth(tmp_path, "a")
    b = _synth(tmp_path, "b")
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name), "rb") as fh_a, open(os.path.join(b, name), "rb") as fh_b:
            assert fh_a.read() == fh_b.read(), name


# ---------------------------------------------------------------------------
# train


def test_train_writes_loadable_model(tmp_path, capsys):
    data = _synth(tmp_path)
    path = _train(tmp_path, data)
    captured = capsys.readouterr()
    assert "train config: variant=lomo templates=2" in captured.err
    assert "eta=0.05" in captured.err and "lambda=1e-05" in captured.err
    assert "max_iter=300" in captured.err
    assert f"wrote model to {path}" in captured.err
    model = load_model(path)
    assert model.num_templates == 2
    assert model.dim == 4


def test_train_is_byte_deterministic(tmp_path):
    data = _synth(tmp_path)
    a = _train(tmp_path, data, "a.lomo")
    b = _train(tmp_path, data, "b.lomo")
    with open(a, "rb") as fh_a, open(b, "rb") as fh_b:
        assert fh_a.read() == fh_b.read()


def test_train_mil_forces_single_frozen_template(tmp_path):
    data = _synth(tmp_path)
    path = _train(tmp_path, data, "mil.lomo", extra=["--variant", "mil"])
    text = Path(path).read_text(encoding="utf-8")
    assert "M=1 d=4" in text
    assert "\ncosts 0.0\n" in text  # ordering costs stay frozen at zero


def test_train_svm_variant_pools_sequences(tmp_path):
    data = _synth(tmp_path)
    path = _train(tmp_path, data, "svm.lomo", extra=["--variant", "svm-max"])
    model = load_model(path)
    assert model.num_templates == 1
    assert model.costs == (0.0,)


def test_train_requires_positive_label(tmp_path, capsys):
    data = _synth(tmp_path)
    argv = [
        "train", "--manifest", os.path.join(data, "manifest.csv"),
        "--out", str(tmp_path / "m.lomo"), *TRAIN_FAST,
    ]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: binary training needs --positive-label (classes here: neg, pos)" in captured.err


def test_train_rejects_unknown_positive_label(tmp_path, capsys):
    data = _synth(tmp_path)
    argv = [
        "train", "--manifest", os.path.join(data, "manifest.csv"),
        "--out", str(tmp_path / "m.lomo"), "--positive-label", "yes", *TRAIN_FAST,
    ]
    assert main(argv) == 1
    assert "error: positive label 'yes' not among classes" in capsys.readouterr().err


def _multiclass_manifest(tmp_path):
    rng = np.random.default_rng(55)
    directions = {"a": (1.0, 0.0), "b": (-1.0, 0.0), "c": (0.0, 1.0)}
    lines = ["id,label,group,path"]
    for label, direction in directions.items():
        for i in range(6):
            frames = rng.normal(scale=0.1, size=(3, 2)) + np.asarray(direction)
            write_sequence(FrameSequence(frames), tmp_path / f"{label}{i}.csv")
            lines.append(f"{label}{i},{label},g{i % 3},{label}{i}.csv")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_train_ova_writes_one_model_per_class(tmp_path, capsys):
    manifest = _multiclass_manifest(tmp_path)
    out_dir = str(tmp_path / "models")
    argv = [
        "train", "--manifest", manifest, "--out", out_dir, "--ova",
        "--templates", "1", "--exclusion-t", "0", "--max-iter", "400",
    ]
    assert main(argv) == 0
    assert "wrote 3 models" in capsys.readouterr().err
    assert sorted(os.listdir(out_dir)) == ["a.lomo", "b.lomo", "c.lomo"]
    for name in ("a", "b", "c"):
        assert load_model(os.path.join(out_dir, f"{name}.lomo")).num_templates == 1


# ---------------------------------------------------------------------------
# predict


def _parse_predictions(text):
    lines = text.splitlines()
    assert lines[0] == "id,score,decision"
    rows = {}
    for line in lines[1:]:
        seq_id, score_text, decision = line.split(",")
        rows[seq_id] = (float(score_text), int(decision))
    return rows


def test_predict_stdout_scores_every_record(tmp_path, capsys):
    data = _synth(tmp_path)
    model_path = _train(tmp_path, data)
    argv = [
        "predict", "--manifest", os.path.join(data, "manifest.csv"),
        "--model", model_path, "--exclusion-t", "1",
    ]
    capsys.readouterr()  # drop synth/train chatter
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "predict config: models=1 exclusion_t=1 pool=none" in captured.err
    rows = _parse_predictions(captured.out)
    assert len(rows) == 12
    model = load_model(model_path)
    icfg = InferenceConfig(exclusion_t=1)
    for rec_id, (value, decision) in rows.items():
        seq_path = os.path.join(data, f"seq_{rec_id}.csv")
        frames = np.loadtxt(seq_path, delimiter=",", ndmin=2)
        expected = score(model, FrameSequence(frames), icfg)
        assert value == expected  # format_float round-trips exactly
        assert decision == (1 if expected > 0 else -1)


def test_predict_late_fusion_averages_model_scores(tmp_path):
    data = _synth(tmp_path)
    model_a = _train(tmp_path, data, "a.lomo", extra=["--seed", "1"])
    model_b = _train(tmp_path, data, "b.lomo", extra=["--seed", "2"])
    outputs = {}
    for name, model_flags in {
        "a": ["--model", model_a],
        "b": ["--model", model_b],
        "ab": ["--model", model_a, "--model", model_b],
    }.items():
        out = str(tmp_path / f"pred_{name}.csv")
        argv = [
            "predict", "--manifest", os.path.join(data, "manifest.csv"),
            *model_flags, "--exclusion-t", "1", "--out", out,
        ]
        assert main(argv) == 0
        outputs[name] = _parse_predictions(Path(out).read_text(encoding="utf-8"))
    for rec_id, (fused, _) in outputs["ab"].items():
        assert fused == fuse_scores([outputs["a"][rec_id][0], outputs["b"][rec_id][0]])


def test_predict_pool_flag_scores_pooled_frames(tmp_path):
    data = _synth(tmp_path)
    model_path = _train(tmp_path, data, "svm.lomo", extra=["--variant", "svm-mean"])
    out = str(tmp_path / "pred.csv")
    argv = [
        "predict", "--manifest", os.path.join(data, "manifest.csv"),
        "--model", model_path, "--pool", "mean", "--out", out,
    ]
    assert main(argv) == 0
    rows = _parse_predictions(Path(out).read_text(encoding="utf-8"))
    model = load_model(model_path)
    for rec_id, (value, _) in rows.items():
        frames = np.loadtxt(os.path.join(data, f"seq_{rec_id}.csv"), delimiter=",", ndmin=2)
        pooled = frames.mean(axis=0)
        assert value == pytest.approx(float(np.dot(model.templates[0], pooled)), abs=1e-12)


def test_predict_dimension_mismatch_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)  # d=4
    other = _synth(tmp_path, "other", **{"--d": "3"})
    model_path = _train(tmp_path, other)
    argv = [
        "predict", "--manifest", os.path.join(data, "manifest.csv"),
        "--model", model_path,
    ]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cv


def test_cv_writes_fold_rows_and_mean(tmp_path, capsys):
    data = _synth(tmp_path)
    out = str(tmp_path / "cv.csv")
    argv = [
        "cv", "--manifest", os.path.join(data, "manifest.csv"),
        "--scheme", "kfold", "--folds", "2", "--metric", "acc",
        "--positive-label", "pos", "--out", out, *TRAIN_FAST,
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "cv config: scheme=kfold folds=2 metric=acc" in captured.err
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "fold,metric,value"
    assert len(lines) == 4  # header, two folds, mean
    assert lines[1].startswith("0,acc,") and lines[2].startswith("1,acc,")
    assert lines[3].startswith("mean,acc,")
    fold_values = [float(line.split(",")[2]) for line in lines[1:3]]
    assert float(lines[3].split(",")[2]) == pytest.approx(np.mean(fold_values))


def test_cv_rerun_is_byte_identical(tmp_path):
    data = _synth(tmp_path)
    argv_base = [
        "cv", "--manifest", os.path.join(data, "manifest.csv"),
        "--scheme", "kfold", "--folds", "3", "--metric", "auc",
        "--positive-label", "pos", "--l2", *TRAIN_FAST,
    ]
    for name in ("a.csv", "b.csv"):
        assert main(argv_base + ["--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_cv_multiclass_accuracy(tmp_path):
    manifest = _multiclass_manifest(tmp_path)
    out = str(tmp_path / "cv.csv")
    argv = [
        "cv", "--manifest", manifest, "--scheme", "logo", "--metric", "acc",
        "--templates", "1", "--exclusion-t", "0", "--max-iter", "400", "--out", out,
    ]
    assert main(argv) == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("mean,acc,")
    assert float(lines[-1].split(",")[2]) >= 0.9


def test_cv_logo_with_folds_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    argv = [
        "cv", "--manifest", os.path.join(data, "manifest.csv"), "--scheme", "logo",
        "--folds", "3", "--positive-label", "pos", *TRAIN_FAST,
    ]
    assert main(argv) == 1
    assert "logo scheme takes no fold count k, got k=3" in capsys.readouterr().err


def test_cv_binary_without_positive_label_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    argv = [
        "cv", "--manifest", os.path.join(data, "manifest.csv"),
        "--scheme", "kfold", "--folds", "2", *TRAIN_FAST,
    ]
    assert main(argv) == 1
    assert "error: binary cross-validation needs a positive_label" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report


def test_report_timeline_matches_latent_assignment(tmp_path, capsys):
    data = _synth(tmp_path)
    model_path = _train(tmp_path, data)
    seq_path = os.path.join(data, "seq_pos0000.csv")
    argv = ["report", "--model", model_path, "--sequence", seq_path, "--exclusion-t", "1"]
    capsys.readouterr()  # drop synth/train chatter
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "report config: exclusion_t=1" in captured.err
    lines = captured.out.splitlines()
    assert lines[0] == "template,frame_index,percentile,template_score"

    model = load_model(model_path)
    frames = np.loadtxt(seq_path, delimiter=",", ndmin=2)
    assign = latent_assign(model, FrameSequence(frames), InferenceConfig(exclusion_t=1))
    n = frames.shape[0]
    assert len(lines) == 1 + model.num_templates + 3
    for i, (k, s) in enumerate(zip(assign.chosen, assign.template_scores), start=1):
        expected = f"{i},{k},{math.floor(100.0 * k / n + 0.5)},{format_float(s)}"
        assert lines[i] == expected
    assert lines[-3] == f"perm_index,{assign.perm}"
    assert lines[-2] == f"ordering_cost,{format_float(assign.ordering_cost)}"
    assert lines[-1] == f"total_score,{format_float(assign.total)}"


def test_report_percentiles_round_half_up(tmp_path):
    # 10 frames: frame k sits at the k-th decile, e.g. frame 3 -> 30
    data = _synth(tmp_path)
    model_path = _train(tmp_path, data)
    seq_path = os.path.join(data, "seq_pos0001.csv")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["report", "--model", model_path, "--sequence", seq_path,
                     "--exclusion-t", "1"]) == 0
    for line in buf.getvalue().splitlines()[1:3]:
        _, k, pct, _ = line.split(",")
        assert int(pct) == 10 * int(k)


# ---------------------------------------------------------------------------
# error handling


def test_missing_manifest_exits_one(tmp_path, capsys):
    argv = [
        "train", "--manifest", str(tmp_path / "nope.csv"),
        "--out", str(tmp_path / "m.lomo"), "--positive-label", "pos",
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--lambda", "nan", "reg_lambda must be finite and >= 0, got nan"),
    ("--eta", "inf", "eta must be finite and > 0, got inf"),
    ("--noise-sigma", "nan", "noise_sigma must be finite and >= 0, got nan"),
])
def test_non_finite_numeric_setting_exits_one(tmp_path, capsys, flag, value, message):
    if flag == "--noise-sigma":
        argv = ["synth", "--out", str(tmp_path / "data"), flag, value]
    else:
        manifest = os.path.join(_synth(tmp_path), "manifest.csv")
        argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "m.lomo"),
                "--positive-label", "pos", *TRAIN_FAST, flag, value]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _single_error(capsys, argv) -> str:
    """Run `argv`, which must exit 1 without a warning, and return its one
    stderr line that starts with "error:"."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert "Warning" not in err
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    return line


@pytest.mark.parametrize("command", [
    ["synth"], ["train"], ["cv", "--scheme", "logo"], ["cv", "--scheme", "kfold", "--folds", "2"],
])
def test_negative_seed_exits_one(tmp_path, capsys, command):
    if command == ["synth"]:
        argv = ["synth", "--out", str(tmp_path / "neg"), "--seed", "-1"]
    else:
        manifest = os.path.join(_synth(tmp_path), "manifest.csv")
        argv = [*command, "--manifest", manifest, "--positive-label", "pos", *TRAIN_FAST,
                "--seed", "-1"]
        if command == ["train"]:
            argv += ["--out", str(tmp_path / "m.lomo")]
    assert _single_error(capsys, argv) == "error: seed must be >= 0, got -1"
    assert not (tmp_path / "neg").exists() and not (tmp_path / "m.lomo").exists()


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--eta", "1e300"], re.escape("reg_lambda * eta must be < 1, got 1e-05 * 1e+300"),
                 id="eta"),
    pytest.param(["--lambda", "20"], re.escape("reg_lambda * eta must be < 1, got 20.0 * 0.05"),
                 id="lambda"),
    pytest.param(["--eta", "1e308", "--lambda", "0"], (
        r"training step \d+: overflow encountered in \w+ with eta=1e\+308, reg_lambda=0\.0"
    ), id="overflow"),
])
def test_diverging_training_exits_one_without_a_numpy_warning(tmp_path, capsys, flags, message):
    manifest = os.path.join(_synth(tmp_path), "manifest.csv")
    argv = ["train", "--manifest", manifest, "--out", str(tmp_path / "m.lomo"),
            "--positive-label", "pos", *TRAIN_FAST, "--max-iter", "100", *flags]
    assert re.fullmatch(f"error: {message}", _single_error(capsys, argv))
    assert not (tmp_path / "m.lomo").exists()


def test_overflowing_synth_noise_exits_one_without_a_numpy_warning(tmp_path, capsys):
    argv = ["synth", "--out", str(tmp_path / "data"), "--noise-sigma", "1e308"]
    assert _single_error(capsys, argv) == (
        "error: sequence pos0000: overflow encountered in multiply with noise_sigma=1e+308"
    )
    assert not (tmp_path / "data").exists()


def test_overflowing_scores_exit_one_without_a_numpy_warning(tmp_path, capsys):
    data = _synth(tmp_path)
    model = str(tmp_path / "huge.lomo")
    save_model(LomoModel(np.full((1, 4), 1e308), np.zeros(1)), model)
    message = "error: sequence {}: overflow encountered in matmul while scoring"
    # pos0000 to pos0004 score finite values; pos0005 is the first that overflows
    argv = ["predict", "--manifest", os.path.join(data, "manifest.csv"), "--model", model,
            "--out", str(tmp_path / "p.csv")]
    assert _single_error(capsys, argv) == message.format("pos0005")
    assert not (tmp_path / "p.csv").exists()
    argv = ["report", "--model", model, "--sequence", os.path.join(data, "seq_pos0005.csv")]
    assert _single_error(capsys, argv) == message.format("seq_pos0005")


def test_overflowing_fused_scores_exit_one_without_a_numpy_warning(tmp_path, capsys):
    data = _synth(tmp_path)
    model = str(tmp_path / "big.lomo")
    # every sequence scores 1.5e308, a finite value; the sum of two overflows
    save_model(LomoModel(np.zeros((1, 4)), np.full(1, 1.5e308)), model)
    argv = ["predict", "--manifest", os.path.join(data, "manifest.csv"), "--model", model,
            "--model", model, "--out", str(tmp_path / "p.csv")]
    assert _single_error(capsys, argv) == (
        "error: sequence pos0000: overflow encountered in reduce while fusing 2 scores"
    )
    assert not (tmp_path / "p.csv").exists()


def test_corrupt_model_file_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    bad = tmp_path / "bad.lomo"
    bad.write_text("LOMO v1\nM=1 d=1\ncosts nope\nw1 1.0\n", encoding="utf-8")
    argv = ["predict", "--manifest", os.path.join(data, "manifest.csv"),
            "--model", str(bad)]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def _error_line(capsys) -> str:
    """The last stderr line; commands echo their configuration first."""
    return capsys.readouterr().err.splitlines()[-1]


def _report_argv(tmp_path, model, sequence):
    return ["report", "--model", str(model), "--sequence", str(sequence),
            "--exclusion-t", "0", "--out", str(tmp_path / "r.csv")]


def test_undecodable_sequence_file_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    model = _train(tmp_path, data)
    seq = os.path.join(data, "seq_pos0003.csv")
    with open(seq, "ab") as fh:
        fh.write(b"1.0,\xff\n")
    argv = ["predict", "--manifest", os.path.join(data, "manifest.csv"), "--model", model]
    assert main(argv) == 1
    assert _error_line(capsys).startswith(f"error: {seq}: not valid UTF-8 text")
    assert main(_report_argv(tmp_path, model, seq)) == 1
    assert _error_line(capsys).startswith(f"error: {seq}: not valid UTF-8 text")


def test_undecodable_manifest_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    model = _train(tmp_path, data)
    manifest = os.path.join(data, "manifest.csv")
    with open(manifest, "ab") as fh:
        fh.write(b"x\xff,pos,s00,seq_pos0000.csv\n")
    assert main(["predict", "--manifest", manifest, "--model", model]) == 1
    assert _error_line(capsys).startswith(f"error: {manifest}: not valid UTF-8 text")


def test_undecodable_model_file_exits_one(tmp_path, capsys):
    data = _synth(tmp_path)
    bad = tmp_path / "bad.lomo"
    bad.write_bytes(b"LOMO v1\nM=1 d=4\ncosts 0.0\nw1 \xff\n")
    argv = ["predict", "--manifest", os.path.join(data, "manifest.csv"), "--model", str(bad)]
    assert main(argv) == 1
    assert _error_line(capsys).startswith(f"error: {bad}: not valid UTF-8 text")
    seq = os.path.join(data, "seq_pos0000.csv")
    assert main(_report_argv(tmp_path, bad, seq)) == 1
    assert _error_line(capsys).startswith(f"error: {bad}: not valid UTF-8 text")


@pytest.mark.parametrize("flag, field, value", [
    ("--d", "dim", "9223372036854775808"),  # "Maximum allowed dimension exceeded"
    ("--n", "num_frames", "4611686018427387904"),  # "array is too big; ..."
])
def test_synth_size_too_large_to_draw_exits_one(tmp_path, capsys, flag, field, value):
    """numpy rejects both shapes before it allocates anything; the error
    names the field and ends in numpy's reason."""
    argv = ["synth", "--out", str(tmp_path / "D"), "--pos", "1", "--neg", "1", flag, value]
    assert _single_error(capsys, argv).startswith(f"error: {field}={value} is too large: ")
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize("field, value, shape, message", [
    ("dim", 7, (3, 7), "Unable to allocate 168. B"),
    ("num_frames", 40, (40, 7), ""),
])
def test_synth_draw_out_of_memory_exits_one(tmp_path, capsys, monkeypatch, field, value, shape,
                                            message):
    """A MemoryError at either draw names the field; the draw is stubbed, so
    nothing large is allocated."""
    real_normal = lomo.core.Rng.normal

    def normal(self, size=None):
        if size == shape:
            raise MemoryError(message)
        return real_normal(self, size)

    monkeypatch.setattr(lomo.core.Rng, "normal", normal)
    argv = ["synth", "--out", str(tmp_path / "D"), "--pos", "1", "--neg", "1", "--d", "7"]
    assert _single_error(capsys, argv) == (
        f"error: {field}={value} is too large: {message or 'out of memory'}"
    )
    assert not (tmp_path / "D").exists()


# ---------------------------------------------------------------------------
# every command, with flag values drawn from the parser's own actions

GATE_INTS = (-2**63, -1, 0, 1, 2, 2**63)
GATE_FLOATS = ("-1", "0", "5e-324", "1e300", "nan", "inf")
# large values of these flags are valid input that only costs time or memory
GATE_CAPS = {"--max-iter": 50, "--pos": 50, "--neg": 50, "--stack": 50}


@pytest.fixture(scope="module")
def gate_files(tmp_path_factory):
    """A tiny synth set, one of its sequence files and a model trained on it."""
    base = tmp_path_factory.mktemp("gate")
    data = str(base / "data")
    model = str(base / "model.lomo")
    # 24 frames hold the default M=3 picks with their +-5 exclusion windows
    argv = ["synth", "--out", data, "--d", "4", "--n", "24", "--m-true", "2", "--min-gap", "1",
            "--pos", "6", "--neg", "6", "--neg-mode", "absent", "--seed", "3"]
    assert main(argv) == 0
    argv = ["train", "--manifest", os.path.join(data, "manifest.csv"), "--out", model,
            "--positive-label", "pos", *TRAIN_FAST]
    assert main(argv) == 0
    return {
        "manifest": os.path.join(data, "manifest.csv"),
        "model": model,
        "sequence": os.path.join(data, "seq_pos0000.csv"),
        "base": str(base),
    }


def _gate_values(action, files):
    """Strategy for the value text of one flag that takes a value; `files`
    gives the paths of the path flags."""
    flag = action.option_strings[0]
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        cap = GATE_CAPS.get(flag, math.inf)
        return st.sampled_from([str(min(v, cap)) for v in GATE_INTS])
    if action.type is float:
        return st.sampled_from(GATE_FLOATS)
    texts = {
        "manifest": st.just(files["manifest"]),
        "model": st.just(files["model"]),
        "sequence": st.just(files["sequence"]),
        "out": st.just(files["out"]),
        "positive_label": st.sampled_from(["pos", "neg", "other"]),
    }
    assert action.dest in texts, f"the gate draws no values for {flag}"
    return texts[action.dest]


def _gate_argv(draw, files) -> list[str]:
    """One command line: a drawn command, its required flags and a drawn
    subset of its other flags (each about one time in three), written as
    --flag=value. An appending flag (--model) is given once or twice."""
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    command = draw(st.sampled_from(sorted(commands.choices)))
    argv = [command]
    for action in commands.choices[command]._actions:
        flag = action.option_strings[0]
        if action.dest == "help":
            continue
        if action.nargs == 0:
            argv += [flag] if draw(st.booleans()) else []
            continue
        if action.required:
            count = draw(st.integers(1, 2)) if isinstance(action, argparse._AppendAction) else 1
        else:
            count = int(draw(st.integers(0, 2)) == 0)
        argv += [f"{flag}={draw(_gate_values(action, files))}" for _ in range(count)]
    return argv


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_flag_value_exits_zero_or_with_one_error_line(gate_files, capsys, data):
    """No value of any flag ends in a traceback or a warning: a command
    exits 0, or 1 with stderr ending in its one "error: " line."""
    work = tempfile.mkdtemp(dir=gate_files["base"])
    argv = _gate_argv(data.draw, {**gate_files, "out": os.path.join(work, "out")})
    capsys.readouterr()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        shutil.rmtree(work)
    err = capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1)
    assert "Traceback" not in err and "Warning" not in err
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if code == 1:
        assert errors == [err.splitlines()[-1]], err
    else:
        assert errors == [], err
