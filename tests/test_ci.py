"""The CI workflow runs the tier-1 suite with the command ROADMAP.md gives, on
one BLAS thread, a pinned numpy and under a job time limit, after printing
numpy's BLAS core and running the installed console script, which runs an
l2 cv, a train and a predict end to end, and `python -m lomo --help`."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lomo.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]
NUMPY_PIN = "numpy==2.4.6"


def test_ci_workflow_runs_the_tier1_suite():
    yaml = pytest.importorskip("yaml")
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    job = yaml.safe_load(workflow.read_text(encoding="utf-8"))["jobs"]["tier1"]
    steps = job["steps"]
    runs = [step.get("run", "") for step in steps]
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert "python -m pytest -q --continue-on-collection-errors" in command
    assert any(step.get("with", {}).get("python-version") == "3.11" for step in steps)
    assert runs.index('pip install -e ".[test]"') < runs.index(command)
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    # a worker that deadlocks after a fork is waited for without a limit
    assert 0 < job["timeout-minutes"] <= 30


def test_ci_pins_numpy_before_the_tests():
    # the golden synth digests hold Generator streams, which NEP 19 lets a
    # numpy feature release change
    yaml = pytest.importorskip("yaml")
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    runs = [step.get("run", "") for step in yaml.safe_load(
        workflow.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]]
    (pin,) = [k for k, run in enumerate(runs) if "numpy==" in run]
    (tests,) = [k for k, run in enumerate(runs) if "pytest" in run]
    assert runs[pin] == f'pip install "{NUMPY_PIN}"'
    assert runs.index('pip install -e ".[test]"') < pin < tests
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Tests\n", 1)[1].split("\n## ", 1)[0]
    assert f"`{NUMPY_PIN}`" in section


def test_ci_prints_numpys_blas_core_before_the_tests():
    yaml = pytest.importorskip("yaml")
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    runs = [step.get("run", "") for step in yaml.safe_load(
        workflow.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]]
    (core,) = [k for k, run in enumerate(runs) if "get_corename" in run]
    (tests,) = [k for k, run in enumerate(runs) if "pytest" in run]
    assert core < tests
    script = re.fullmatch(r"python - <<'EOF'\n(.*)EOF\n", runs[core], re.S).group(1)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert re.match(r"numpy's (OpenBLAS core: \S+\n$|BLAS is not scipy-openblas64)", out)


def test_ci_runs_the_installed_console_script_before_the_tests():
    yaml = pytest.importorskip("yaml")
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    runs = [step.get("run", "") for step in yaml.safe_load(
        workflow.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]]
    (script,) = [k for k, run in enumerate(runs) if 'lomo "$command" --help' in run]
    (tests,) = [k for k, run in enumerate(runs) if "pytest" in run]
    assert runs.index('pip install -e ".[test]"') < script < tests
    (commands,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    listed = re.search(r"^for command in ([\w ]+); do$", runs[script], re.M).group(1)
    assert sorted(listed.split()) == sorted(commands)
    # the one -m entry point, run where it is installed
    assert "\npython -m lomo --help\n" in runs[script]


def test_ci_runs_a_cv_a_train_and_a_predict_through_the_installed_console_script(
        tmp_path, capsys):
    yaml = pytest.importorskip("yaml")
    workflow = ROOT / ".github" / "workflows" / "tier1.yml"
    runs = [step.get("run", "") for step in yaml.safe_load(
        workflow.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]]
    (script,) = [run for run in runs if 'lomo "$command" --help' in run]
    lines = script.splitlines()
    assert lines[-5] == 'data="$(mktemp -d)/data"'
    calls = [shlex.split(line.replace("$data", str(tmp_path / "data"))) for line in lines[-4:]]
    assert [argv[:2] for argv in calls] == [["lomo", "synth"], ["lomo", "cv"], ["lomo", "train"],
                                            ["lomo", "predict"]]
    assert {"--l2", "--pca-dim"} <= set(calls[1]) and "svm-max" in calls[1]
    # the cv trains one-frame sequences only; this train takes the general step
    train, predict = calls[2], calls[3]
    assert train[train.index("--templates") + 1] == "3"
    assert train[train.index("--exclusion-t") + 1] == predict[predict.index("--exclusion-t") + 1]
    assert predict[predict.index("--model") + 1] == train[train.index("--out") + 1]
    for argv in calls:  # what the installed script runs, here in process
        assert main(argv[1:]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].startswith("wrote 40 sequences") and rows[1] == "fold,metric,value"
    (mean,) = [k for k, row in enumerate(rows) if row.startswith("mean,acc,")]
    assert rows[mean + 1] == "id,score,decision" and len(rows) == mean + 2 + 40
