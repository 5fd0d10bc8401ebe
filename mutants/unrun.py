"""Print the lines of src/hamext that a pytest run never executes.

    PYTHONPATH=src python mutants/unrun.py [pytest arguments, default: tests]

Each line is `file:line`; the exit code is pytest's. Only the calling
thread is traced, so code run in subprocesses or other threads counts as
unrun, and a line the compiler folds into a jump (a bare `continue`) is
never reported as run.
"""

import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src" / "hamext")
ran = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def code_lines(code):
    yield from (line for *_, line in code.co_lines() if line)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from code_lines(const)


if __name__ == "__main__":
    sys.settrace(trace)
    code = pytest.main(sys.argv[1:] or ["tests", "-q", "-p", "no:cacheprovider"])
    sys.settrace(None)
    for path in sorted(Path(SRC).glob("*.py")):
        lines = set(code_lines(compile(path.read_text(), str(path), "exec")))
        for line in sorted(lines - {n for f, n in ran if f == str(path)}):
            print(f"{path.name}:{line}")
    sys.exit(code)
