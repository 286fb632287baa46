"""The README's Python API example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_api_block() -> str:
    """The first ```python fence under the "## Python API" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python fence under ## Python API"
    return match.group(1)


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_python_api_block(), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[") and printed[1].startswith("(10, 20) [")
    assert (tmp_path / "bench" / "manifest.csv").is_file()
