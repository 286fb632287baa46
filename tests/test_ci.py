"""The CI workflow runs the tier-1 suite with the command ROADMAP.md gives, on
one BLAS thread."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
