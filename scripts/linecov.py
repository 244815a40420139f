#!/usr/bin/env python3
"""Lines of the package that the tier-1 tests never run, with the standard library alone.

    PYTHONPATH=src python3 scripts/linecov.py [pytest arguments]

Runs pytest in this process (by default on the tier-1 command's
arguments) under a ``sys.settrace`` line tracer, so the CLI tests, which
call ``cli.main`` in-process, count too; tests that start a child process
do not.  The tracer starts before the package is imported, so module-level
lines count.  A line is executable when the compiler gives it bytecode
(``co_lines`` of the module's code objects).  Prints each module's
never-run lines and a total.  The report never fails a run: the exit code
is pytest's.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "braidcode"
TIER1 = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def executable_lines(path: Path) -> set[int]:
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's RESUME
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def spans(lines: list[int]) -> str:
    """1, 2, 3, 7 -> "1-3, 7"."""
    out: list[list[int]] = []
    for n in lines:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv: list[str]) -> int:
    files = {str(p): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {f: set() for f in files}

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in hits else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main([*TIER1, *argv] if argv else [*TIER1, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = missed = 0
    for f, lines in files.items():
        never = sorted(lines - hits[f])
        total, missed = total + len(lines), missed + len(never)
        name = Path(f).relative_to(PACKAGE.parent)
        print(f"{name}: {len(never)} of {len(lines)} never run" + (f": {spans(never)}" if never else ""))
    print(f"total: {missed} of {total} executable lines never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
