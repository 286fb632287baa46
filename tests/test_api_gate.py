"""The public-API gate: every public callable answers a bad argument with a
result or a LomoError, and warns nothing.

It covers each name in `lomo.__all__` and each public method of an
exported class (as `FrameSequence.require_dim`). For each parameter in
turn hypothesis draws one bad value (a wrong type, NaN, ±inf, a negative
number, an int beyond float64, an int too long to print or an empty
container) while every other parameter keeps a good value. A
path parameter gets only str paths under a temporary directory (missing, a
directory, an empty file, a file that is not UTF-8), and may also raise an
OSError.

No value drawn here makes the library allocate more than a few kB: the
huge sizes, 10**400 and 10**5000, are refused before anything is allocated.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lomo
from lomo.core import _shown, generator

# Every public parameter gets each of these, and then values that hypothesis draws
FIXED = (
    None, "x", b"x", 1j, object(), True, math.nan, math.inf, -math.inf, -1, -0.5,
    10**400, -10**400, 10**5000, -10**5000, [], (), {}, set(), "", b"",
)
DRAWN = st.one_of(
    st.integers(max_value=-1), st.floats(), st.text(max_size=4), st.binary(max_size=4),
    st.lists(st.sampled_from(FIXED), max_size=3),
)
PATH_NAMES = ("missing", "missing/deeper", "dir", "empty", "not-utf8")
PATH_PARAMS = {
    ("load_model", "path"), ("parse_manifest", "path"), ("read_sequence", "path"),
    ("save_model", "path"), ("write_sequence", "path"), ("gen_synthetic", "out_dir"),
}
METHODS = {
    f"{name}.{method}"
    for name in lomo.__all__ if isinstance(getattr(lomo, name), type)
    for method, fn in vars(getattr(lomo, name)).items()
    if not method.startswith("_") and inspect.isfunction(fn)
}
NAMES = sorted({n for n in lomo.__all__ if callable(getattr(lomo, n))} | METHODS)


class Calls(dict):
    """name -> (callable, good keyword arguments), shown briefly in a
    falsifying example."""

    def __repr__(self) -> str:
        return f"<{len(self)} public calls>"


def _fields(cls, value) -> dict:
    """Every field of the dataclass instance `value`, by name."""
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}


def _assignment_rows(assignment) -> list:
    """Each row of a BatchAssignment: B picks of M templates, integer
    frames and patterns, finite scores."""
    count, m = assignment.chosen.shape
    for name in ("perm", "ordering_cost", "total"):
        assert getattr(assignment, name).shape == (count,), name
    assert assignment.template_scores.shape == (count, m)
    assert assignment.chosen.dtype.kind == assignment.perm.dtype.kind == "i"
    assert np.isfinite(assignment.template_scores).all() and np.isfinite(assignment.total).all()
    return list(zip(assignment.chosen.tolist(), assignment.total.tolist()))


def _cv_mean(result) -> float:
    """The mean of a CvResult, whose metric must be one cv computes."""
    assert result.metric in ("acc", "auc", "eer")
    return result.mean


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """name -> (callable, good keyword arguments); path arguments name files
    under a module temporary directory, and writers write to `{work}`."""
    base = tmp_path_factory.mktemp("gate")
    spec = lomo.SynthSpec(dim=2, num_frames=6, num_events=2, min_gap=1, num_pos=2, num_neg=2,
                          seed=0)
    manifest = lomo.gen_synthetic(spec, base / "data")
    seqs = [manifest.sequences[rec.id] for rec in manifest.records]
    pairs = [(seq, rec.label) for rec, seq in zip(manifest.records, seqs)]
    model = lomo.init_model(2, 1, generator(0))
    lomo.save_model(model, base / "model.lomo")
    cfg = lomo.TrainConfig(num_templates=1, exclusion_t=0, max_iter=5, seed=0)
    pre = lomo.PreprocessConfig(l2=True, pca_dim=1)
    fitted = lomo.fit_preprocess(seqs, pre)
    folds = lomo.make_folds(manifest, "logo", 0)[:1]  # one fold: run_cv runs it in process
    assignment = lomo.assign_batch(model, seqs, 0)
    return base, Calls({
        # read once built, so a field value that the record takes must hold
        "BatchAssignment": (lambda **rows: _assignment_rows(lomo.BatchAssignment(**rows)),
                            _fields(lomo.BatchAssignment, assignment)),
        "CvResult": (lambda **result: _cv_mean(lomo.CvResult(**result)),
                     {"metric": "acc", "fold_values": [0.5]}),
        "DatasetManifest": (lomo.DatasetManifest, _fields(lomo.DatasetManifest, manifest)),
        # applied once built, so a field value that the record takes must work
        "FittedPreprocess": (lambda **fit: lomo.apply_preprocess(lomo.FittedPreprocess(**fit), seqs),
                             _fields(lomo.FittedPreprocess, fitted)),
        "Fold": (lomo.Fold, _fields(lomo.Fold, folds[0])),
        "FrameSequence": (lomo.FrameSequence, {"frames": np.ones((2, 2)), "id": "s"}),
        "LomoError": (lambda message: lomo.LomoError(message), {"message": "m"}),
        "LomoModel": (lomo.LomoModel, {"templates": np.ones((1, 2)), "costs": np.zeros(1)}),
        "PreprocessConfig": (lomo.PreprocessConfig,
                             _fields(lomo.PreprocessConfig, lomo.PreprocessConfig(pool="max"))),
        "SynthSpec": (lomo.SynthSpec, _fields(lomo.SynthSpec, spec)),
        "TrainConfig": (lomo.TrainConfig, _fields(lomo.TrainConfig, cfg)),
        "apply_preprocess": (lomo.apply_preprocess, {"fitted": fitted, "seqs": seqs}),
        "assign_batch": (lomo.assign_batch, {"model": model, "seqs": seqs, "exclusion_t": 0}),
        "avg_class_accuracy": (lomo.avg_class_accuracy,
                               {"pairs": [("a", "a"), ("b", "a")], "classes": ("a", "b")}),
        "child_seed": (lomo.child_seed, {"seed": 1, "index": 0}),
        "fit_preprocess": (lomo.fit_preprocess, {"train_seqs": seqs, "config": pre}),
        "fuse_scores": (lomo.fuse_scores, {"scores": [0.5, 1.5]}),
        "gen_synthetic": (lomo.gen_synthetic, {"spec": spec, "out_dir": "{work}/synth"}),
        "init_model": (lomo.init_model, {"d": 2, "m": 1, "rng": generator(0)}),
        "load_model": (lomo.load_model, {"path": str(base / "model.lomo")}),
        "make_folds": (lomo.make_folds,
                       {"manifest": manifest, "scheme": "kfold", "seed": 0, "k": 2}),
        "objective": (lomo.objective,
                      {"model": model, "data": pairs, "positive_label": "pos", "cfg": cfg}),
        "parse_manifest": (lomo.parse_manifest, {"path": str(base / "data" / "manifest.csv")}),
        "perm_index": (lomo.perm_index, {"p": [2, 1]}),
        "perm_unrank": (lomo.perm_unrank, {"index": 2, "m": 2}),
        "rank_pattern": (lomo.rank_pattern, {"k": [3, 1]}),
        "read_sequence": (lomo.read_sequence,
                          {"path": manifest.records[0].path, "seq_id": "s"}),
        "roc_auc": (lomo.roc_auc, {"labels": [1, -1], "scores": [0.5, 0.1]}),
        "roc_eer_rate": (lomo.roc_eer_rate, {"labels": [1, -1], "scores": [0.5, 0.1]}),
        "run_cv": (lomo.run_cv, {"manifest": manifest, "folds": folds, "cfg": cfg,
                                 "metric": "acc", "positive_label": "pos", "preprocess": pre}),
        "save_model": (lomo.save_model, {"model": model, "path": "{work}/out.lomo"}),
        "score": (lomo.score, {"model": model, "seq": seqs[0], "exclusion_t": 0}),
        "score_sequences": (lomo.score_sequences,
                            {"model": model, "seqs": seqs, "exclusion_t": 0}),
        "train_binary": (lomo.train_binary,
                         {"data": pairs, "positive_label": "pos", "cfg": cfg}),
        "train_ova": (lomo.train_ova, {"data": pairs, "cfg": cfg, "classes": ["neg", "pos"]}),
        "write_sequence": (lomo.write_sequence, {"seq": seqs[0], "path": "{work}/out.csv"}),
        "FrameSequence.require_dim": (seqs[0].require_dim, {"dim": 2}),
        "SynthSpec.text_fields": (spec.text_fields, {}),
        # with max_iter unset, so that the step count depends on n
        "TrainConfig.num_steps": (lomo.TrainConfig().num_steps, {"n": 4}),
    })


def test_the_gate_covers_every_parameter_of_every_public_callable(good):
    _, calls = good
    assert sorted(calls) == NAMES
    for name, (_, kwargs) in calls.items():
        owner, _, method = name.rpartition(".")
        fn = getattr(getattr(lomo, owner) if owner else lomo, method)
        if name == "LomoError":
            continue  # an exception class takes any arguments
        params = set(inspect.signature(fn).parameters) - {"self"}
        assert set(kwargs) == params, name


def _work(base: Path) -> Path:
    """A new directory holding a directory, an empty file and a file that
    is not UTF-8, for one example's path arguments."""
    work = Path(tempfile.mkdtemp(dir=base))
    (work / "dir").mkdir()
    (work / "empty").write_bytes(b"")
    (work / "not-utf8").write_bytes(b"\xff\xfe\x00,\x80\n")
    return work


def _call(name, fn, kwargs, allowed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(**kwargs)
        except allowed:
            pass
        except Exception as err:
            args = ", ".join(f"{k}={_shown(v):.60}" for k, v in kwargs.items())
            raise AssertionError(f"{name}({args}) raised {type(err).__name__}: {err}") from err


def _check(good, name, bad_values) -> None:
    """Call `name` with good values, then with each bad value that
    bad_values(param, choices) gives for each parameter in turn; `choices`
    are the path names for a path parameter and FIXED for any other."""
    base, calls = good
    fn, kwargs = calls[name]
    work = _work(base)
    kwargs = {k: v.format(work=work) if isinstance(v, str) and "{work}" in v else v
              for k, v in kwargs.items()}
    _call(name, fn, kwargs, ())  # the good values are good
    for param in kwargs:
        if (name, param) in PATH_PARAMS:
            bads = [str(work / path) for path in bad_values(param, PATH_NAMES)]
            allowed = (lomo.LomoError, OSError)
        else:
            bads = bad_values(param, FIXED)
            allowed = lomo.LomoError
        for bad in bads:
            _call(name, fn, {**kwargs, param: bad}, allowed)


@pytest.mark.parametrize("name", NAMES)
def test_each_fixed_bad_argument_gets_a_result_or_a_lomo_error(good, name):
    _check(good, name, lambda param, choices: choices)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_drawn_bad_argument_gets_a_result_or_a_lomo_error(good, name, data):
    def draw(param, choices):
        strategy = st.sampled_from(choices) if choices is PATH_NAMES else DRAWN
        return [data.draw(strategy, label=param)]

    _check(good, name, draw)
