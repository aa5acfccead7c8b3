#!/usr/bin/env python3
"""Print the lines of `src/symq` that never run under the Tier-1 tests.

Usage: python scripts/linecov.py [PYTEST_ARGS...]

Runs the Tier-1 tests (`pytest -q --continue-on-collection-errors`, plus
any extra arguments) in this process, from the repository root with `src`
first on `sys.path`, under a `sys.settrace` tracer that records every line
of a `src/symq` frame.  The executable lines of each module are the line
starts that `dis.findlinestarts` gives for its code objects, the module's
own and every nested one.  It prints each executable line that never ran
as `path:line: source`, then a count, and exits with pytest's exit code.
Code that the tests run in a child process (a console-script smoke) is not
traced, so it reads as unrun.  Stdlib only, apart from pytest itself; a
run takes about ten times as long as the tests alone (about 3 min on a
2-vCPU x86_64 VM).

The tracer is two module-level functions that add (file, line) pairs to
one module-level set.  A closure would do the same job, but the cells
that hold it are reference cycles, which the suite's garbage-cycle test
counts as garbage.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "symq"
_PREFIX = str(PACKAGE) + os.sep

_hits: set[tuple[str, int]] = set()


def _trace_lines(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    """Trace the frames of package code, and record the line they start on."""
    if not frame.f_code.co_filename.startswith(_PREFIX):
        return None
    _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def executable_lines(code: types.CodeType) -> set[int]:
    """The line starts of `code` and of every code object nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def main(argv: list[str]) -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if any(name == "symq" or name.startswith("symq.") for name in sys.modules):
        raise SystemExit("symq is already imported; its module-level lines would read as unrun")
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        total += len(lines)
        text = source.splitlines()
        for line in sorted(lines):
            if (str(path), line) not in _hits:
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines in src/symq never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
