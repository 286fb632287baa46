"""List the lines of src/lomo that no test executes.

    PYTHONPATH=src python3 tools/unreached_lines.py [pytest arguments]

Runs the test suite (tests/, or the given pytest arguments) in this process
under a line tracer, sys.settrace and threading.settrace, that records lines
only in the files of src/lomo. Then it prints each line of those files that
holds code and that no test executed. A line holds code when the compiler
attributes bytecode to it (code.co_lines), so docstrings, comments and blank
lines are not counted.

The tracer sees the calling process only. The lines that only a forked
child runs, core._serve (the body of a forked_map worker) and its call in
forked_map, are listed under a heading of their own: the tests run them,
but not in this process. Tracing about doubles the time of the suite. The
exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lomo"
CHILD_BODY = "_serve"  # what core.forked_map runs in a forked child


def code_lines(source: str, path: Path) -> set[int]:
    """The line numbers that the compiler attributes bytecode to, in every
    code object of the module (line 0, a module's hidden first step, left out)."""
    lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def child_lines(source: str) -> set[int]:
    """The lines of the CHILD_BODY function and the lines that call it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == CHILD_BODY:
            lines.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == CHILD_BODY:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def run_traced(args: list[str], lines: dict[str, set[int]]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per file, which of its code `lines` ran.

    Every line has its slot before the tests start, so the tracer allocates
    nothing that outlives a line event: the suite's tracemalloc peaks hold.
    """
    hits = {name: dict.fromkeys(numbers, False) for name, numbers in lines.items()}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename][frame.f_lineno] = True
        return trace_lines

    def trace(frame, event, arg):
        # no line events for code outside the package
        return trace_lines if frame.f_code.co_filename in hits else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), {name: {n for n, ran in ran_lines.items() if ran}
                         for name, ran_lines in hits.items()}


def main(argv: list[str]) -> int:
    sources = {str(path): path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    lines = {name: code_lines(source, Path(name)) for name, source in sources.items()}
    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    status, ran = run_traced(args, lines)
    unreached, child = [], []
    for name, source in sources.items():
        text = source.splitlines()
        in_child = child_lines(source)
        for line in sorted(lines[name] - ran[name]):
            entry = f"{Path(name).relative_to(ROOT)}:{line}: {text[line - 1].strip()}"
            (child if line in in_child else unreached).append(entry)
    total = sum(len(numbers) for numbers in lines.values())
    print(f"\n{total - len(unreached) - len(child)} of {total} code lines in "
          f"{PACKAGE.relative_to(ROOT)} ran in this process; "
          f"{len(unreached)} unreached, {len(child)} run only in forked children")
    print("\nUnreached:")
    print("\n".join(unreached) or "(none)")
    print("\nRun only in forked children, which this tracer does not see:")
    print("\n".join(child) or "(none)")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
