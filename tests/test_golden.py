"""Golden byte tests: SHA-256 of CLI outputs on a small synthetic set.

The first six digests were taken from the reference implementation
(per-sequence latent assignment and one model object per SGD step); the
pooled cv, pooled predict and 3-class cv digests from the code that
pooled outside the preprocessing pipeline. Any refactor of
training, scoring, parsing or preprocessing must reproduce these files
byte for byte, on a cold and on a warm frame cache; a digest may change
only in a change that says which bytes change and why.

The synth digests pin every file `lomo synth` writes at a size where the
sequence files are written by forked workers (80 files, two CPUs); they
were taken from the serial writer.
"""

from __future__ import annotations

import glob
import hashlib
import os

import pytest

import lomo.core
from lomo.cli import main

SYNTH = [
    "--d", "5", "--n", "20", "--m-true", "3", "--noise-sigma", "0.3",
    "--min-gap", "2", "--pos", "12", "--neg", "12", "--neg-mode", "shuffled",
    "--seed", "5",
]

# output name -> argv after "--manifest <manifest>"; {out} and {dir} are filled in
COMMANDS = {
    "lomo_m3_gradient.lomo": [
        "train", "--positive-label", "pos", "--variant", "lomo", "--templates", "3",
        "--exclusion-t", "1", "--max-iter", "2000", "--seed", "1", "--out", "{out}",
    ],
    "lomo_m5_literal.lomo": [
        "train", "--positive-label", "pos", "--variant", "lomo", "--templates", "5",
        "--exclusion-t", "1", "--max-iter", "2000", "--cost-update", "literal",
        "--seed", "2", "--out", "{out}",
    ],
    "mil.lomo": [
        "train", "--positive-label", "pos", "--variant", "mil", "--exclusion-t", "2",
        "--max-iter", "1000", "--seed", "3", "--out", "{out}",
    ],
    "svm_max.lomo": [
        "train", "--positive-label", "pos", "--variant", "svm-max",
        "--max-iter", "1000", "--seed", "4", "--out", "{out}",
    ],
    "fusion_predict.csv": [
        "predict", "--model", "{dir}/lomo_m3_gradient.lomo",
        "--model", "{dir}/lomo_m5_literal.lomo", "--exclusion-t", "1", "--out", "{out}",
    ],
    "l2_pca_kfold_cv.csv": [
        "cv", "--scheme", "kfold", "--folds", "3", "--metric", "auc",
        "--positive-label", "pos", "--variant", "lomo", "--templates", "2",
        "--exclusion-t", "1", "--l2", "--pca-dim", "3", "--max-iter", "500",
        "--seed", "6", "--out", "{out}",
    ],
    "svm_max_l2_pca_stack_cv.csv": [
        "cv", "--scheme", "kfold", "--folds", "3", "--metric", "eer",
        "--positive-label", "pos", "--variant", "svm-max", "--l2", "--pca-dim", "3",
        "--stack", "2", "--max-iter", "500", "--seed", "7", "--out", "{out}",
    ],
    "svm_max_pool_predict.csv": [
        "predict", "--model", "{dir}/svm_max.lomo", "--pool", "max", "--out", "{out}",
    ],
    "three_class_l2_pca_cv.csv": [
        "cv", "--scheme", "kfold", "--folds", "3", "--metric", "acc", "--variant", "lomo",
        "--templates", "2", "--exclusion-t", "1", "--l2", "--pca-dim", "3",
        "--max-iter", "300", "--seed", "8", "--out", "{out}",
    ],
}

# outputs read from a manifest other than the synthetic one; the fixture
# writes it next to the synthetic manifest
MANIFESTS = {"three_class_l2_pca_cv.csv": "three_class_manifest.csv"}

GOLDEN_SHA256 = {
    "lomo_m3_gradient.lomo":
        "3a4b15bce5d3a288239f890083e412a0b01fa1e9c89fe13d71744cfcae08d581",
    "lomo_m5_literal.lomo":
        "980cc0956d0733696bbefac62e588e841a4002d3f5dd859b137e0ed405e70237",
    "mil.lomo":
        "8060691595f3f32ffb9d0972f598ef1d44b900739e418402063f6bbde1d1ee53",
    "svm_max.lomo":
        "403a0bbb5fb61d2493603abdbf901067159f7b457d2d3b28403b9c47c1931412",
    "fusion_predict.csv":
        "abee72925cb0eefdad2bb02d5c59ce9e4e41256723f90b4e55e378c0e74f38f0",
    "l2_pca_kfold_cv.csv":
        "a9c3f786d9fbbf312cdd58da3c00f990ccc79959b9de38e85acb566539cf3bcb",
    "svm_max_l2_pca_stack_cv.csv":
        "148316d76398e6298c0f6432ab4e5c5b833635044236e8972de28306c7306534",
    "svm_max_pool_predict.csv":
        "d8959d275347b3ec703611542547a0d8a2d4ebd0b5362f4f92779938b42c821c",
    "three_class_l2_pca_cv.csv":
        "bce63eeb3d64bd1367809ef45ff57dd63f19a6358f985f592cb499b9d19cefcd",
}


def _write_three_class_manifest(data: str) -> None:
    """The synthetic manifest with negatives 6..11 relabelled "mid".

    Those six negatives span six of the ten groups, so every training
    split of a 3-fold grouped cv holds all three classes.
    """
    with open(os.path.join(data, "manifest.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        rec_id, label, rest = line.split(",", 2)
        if label == "neg" and int(rec_id[3:]) >= 6:
            label = "mid"
        rows.append(f"{rec_id},{label},{rest}")
    path = os.path.join(data, MANIFESTS["three_class_l2_pca_cv.csv"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")


def _synth_data(work) -> str:
    data = str(work / "data")
    assert main(["synth", "--out", data, *SYNTH]) == 0
    _write_three_class_manifest(data)
    return data


def _run(work, data: str, name: str) -> str:
    """Run the command that writes output `name`; the output's digest."""
    out = str(work / name)
    argv = [a.format(out=out, dir=work) for a in COMMANDS[name]]
    manifest = os.path.join(data, MANIFESTS.get(name, "manifest.csv"))
    assert main([argv[0], "--manifest", manifest, *argv[1:]]) == 0, name
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    data = _synth_data(work)
    return {name: _run(work, data, name) for name in COMMANDS}  # models first: predict reads them


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_output_bytes_match_golden_digest(outputs, name):
    assert outputs[name] == GOLDEN_SHA256[name]


def test_output_bytes_match_golden_digests_on_a_cold_and_a_warm_cache(tmp_path):
    """Each command once with no frame cache beside its manifest, then
    again on the cache that run left."""
    data = _synth_data(tmp_path)
    digests = {}
    for name in COMMANDS:
        for path in glob.glob(os.path.join(data, ".*.frames")):
            os.remove(path)
        digests[name] = (_run(tmp_path, data, name), _run(tmp_path, data, name))
    assert len(glob.glob(os.path.join(data, ".*.frames"))) == 1
    assert digests == {name: (digest, digest) for name, digest in GOLDEN_SHA256.items()}


GOLDEN_SYNTH = [
    "--d", "7", "--n", "12", "--m-true", "3", "--noise-sigma", "0.3",
    "--min-gap", "2", "--pos", "40", "--neg", "40", "--neg-mode", "shuffled",
    "--seed", "9",
]

# manifest.csv and spec.txt by name; the 80 seq_*.csv files through the
# digest of their `sha256sum` listing ("<sha256>  <name>" lines, sorted by name)
GOLDEN_SYNTH_SHA256 = {
    "manifest.csv": "c7d82f728ad33461f26f03e89f49239bd15a569a4df76200a212ff9062975ba5",
    "spec.txt": "78ec4a88c165241be3e7e722dfb32e96d9c43baac380f037e91e177dcd9513f2",
    "seq_*.csv": "5a4068b5e85e5da836feeeabb8d9b9ba6ec4b7791602ad655acb260f11d79ed8",
}


def test_synth_bytes_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.setattr(lomo.core, "cpu_count", lambda: 2)
    data = str(tmp_path / "data")
    assert main(["synth", "--out", data, *GOLDEN_SYNTH]) == 0
    digests = {}
    for name in sorted(os.listdir(data)):
        with open(os.path.join(data, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    seq_names = [name for name in digests if name.startswith("seq_")]
    assert len(seq_names) == 80 and len(digests) == 82
    listing = "".join(f"{digests[name]}  {name}\n" for name in seq_names)
    assert {
        "manifest.csv": digests["manifest.csv"],
        "spec.txt": digests["spec.txt"],
        "seq_*.csv": hashlib.sha256(listing.encode()).hexdigest(),
    } == GOLDEN_SYNTH_SHA256
