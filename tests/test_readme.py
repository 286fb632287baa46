"""The README's Python API example runs as written, and its command-line
walkthrough uses only flags the parser accepts."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from lomo.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _fence(heading: str, language: str) -> str:
    """The first ```<language> fence under the "## <heading>" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"^```{language}\n(.*?)^```$", section, re.S | re.M)
    assert match, f"no {language} fence under ## {heading}"
    return match.group(1)


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(_fence("Python API", "python"), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[") and printed[1].startswith("(10, 20) [")
    assert (tmp_path / "bench" / "manifest.csv").is_file()


def test_cli_walkthrough_commands_parse():
    script = _fence("Command-line walkthrough", "bash").replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("lomo ")]
    parser = build_parser()
    parsed = [parser.parse_args(argv).command for argv in commands]
    assert sorted(parsed) == ["cv", "predict", "report", "synth", "train"]
