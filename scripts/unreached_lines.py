#!/usr/bin/env python3
"""List the statements of ``src/equity_audit/`` that no test in ``tests/`` runs.

Runs pytest on ``tests/`` in this process with a small plugin that
records every line executed in ``src/equity_audit/``, through
``sys.settrace``. The trace function is set again before each test's
setup and call: a test or a library that sets a trace function of its own
would otherwise end the recording for every later test. When pytest is
done it prints ``<file>:<line>  <statement>`` for each statement that
never ran, in file and line order, and last a count. Run from anywhere:

    python3 scripts/unreached_lines.py [pytest arguments]

Extra arguments go to pytest after ``tests/`` (``-k cli`` traces only the
tests it selects). The program is imported from ``src/`` of the same
checkout. The exit status is pytest's.

Only this process is seen. A command a test runs in a subprocess is not:
``run_case_study``'s "at least 10 students" check, for one, is reached
only by a subprocess test in ``tests/test_cli.py``, so it is listed.

A statement counts as run when any line of its own ran: every line of a
simple statement, the header of a compound one (its decorators, and the
lines before its body). A statement none of whose lines carries bytecode
(a docstring) is never listed. Tracing makes the suite about 1.8 times
as slow (48 s against 27 s on a 2-core VM).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equity_audit"


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` that belong to no statement nested in it."""
    body = getattr(node, "body", None)
    if not body:
        return range(node.lineno, node.end_lineno + 1)
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return range(start, max(start, body[0].lineno - 1) + 1)


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each statement of the file at ``path`` with bytecode of which no line ran."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    has_code = _code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        own = set(_own_lines(node))
        if own & has_code and not own & ran:
            first = min(own & has_code)
            found.append((first, text[first - 1].strip()))
    return sorted(found)


class Recorder:
    """A pytest plugin that records the executed lines of every file in ``PACKAGE``."""

    def __init__(self):
        self.ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
        self.tracers = {name: self._line_tracer(lines) for name, lines in self.ran.items()}

    @staticmethod
    def _line_tracer(lines: set[int]):
        def trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace

        return trace

    def _trace_call(self, frame, event, arg):
        return self.tracers.get(frame.f_code.co_filename)

    def install(self) -> None:
        sys.settrace(self._trace_call)

    def pytest_runtest_setup(self, item):
        self.install()

    def pytest_runtest_call(self, item):
        self.install()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    recorder = Recorder()
    recorder.install()  # the package's import, at collection, runs its module-level statements
    try:
        status = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv], plugins=[recorder])
    finally:
        sys.settrace(None)
    count = 0
    for name, lines in recorder.ran.items():
        path = Path(name)
        for line, statement in unreached(path, lines):
            print(f"{path.relative_to(ROOT)}:{line}  {statement}")
            count += 1
    print(f"{count} statements never ran")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
