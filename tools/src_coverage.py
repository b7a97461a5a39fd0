"""List the statements in ``src/`` that a pytest run never executes, and fail on
any outside the named exemptions. Standard library only: a ``sys.settrace``
line tracer goes in before ``dialogrank`` is imported, then ``pytest.main``
runs on the arguments.

    python3 tools/src_coverage.py [PYTEST ARGS ...]

A statement is any ``ast`` statement outside docstrings (the rule of
``tools/src_lines.py``) except ``def``, ``class`` and import lines. It counts as
executed when a line event fires on one of its lines; a compound statement owns
only its header lines (``if``, ``for``, ``try``, ``with`` and the like, up to
its body). Code that runs only in a child process is not traced.

Exits with pytest's status when the tests fail, else 1 when an unexecuted
statement is not exempt or an exemption names a statement that no longer
exists, else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

from src_lines import docstring_lines

SRC = Path(__file__).resolve().parents[1] / "src"

# (file under src/, first line of the statement stripped) -> why no test runs it
EXEMPT = {
    ("dialogrank/checkpoint.py", "arr.byteswap(inplace=True)"):
        "the big-endian path of _read_entry; CI has no big-endian host",
    ("dialogrank/cli.py", "sys.exit(main())"):
        "cli.py run as a script; the tests that do so run it in a child process",
}

UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(source: str) -> dict[int, range]:
    """First line of each counted statement -> the lines whose events show it ran."""
    tree = ast.parse(source)
    skip = docstring_lines(tree)
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, UNCOUNTED) or node.lineno in skip:
            continue
        body = getattr(node, "body", None)
        if body:  # the header, up to the first line of the body
            out[node.lineno] = range(node.lineno, max(node.lineno + 1, body[0].lineno))
        else:
            out[node.lineno] = range(node.lineno, node.end_lineno + 1)
    return out


def main(argv: list[str]) -> int:
    files = {str(p): p for p in sorted((SRC / "dialogrank").rglob("*.py"))}
    hit: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    if not any(hit.values()):
        print(f"src_coverage: no line under {SRC} ran", file=sys.stderr)
        return 1
    missed = exempt = total = 0
    found = set()
    for name, path in files.items():
        rel = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for first, span in sorted(statements(source).items()):
            total += 1
            key = (rel, lines[first - 1].strip())
            found.add(key)
            if hit[name].isdisjoint(span):
                if key in EXEMPT:
                    exempt += 1
                    print(f"{rel}:{first}: exempt ({EXEMPT[key]}): {key[1]}")
                else:
                    missed += 1
                    print(f"{rel}:{first}: not executed: {key[1]}")
    stale = [key for key in EXEMPT if key not in found]
    for rel, text in stale:
        print(f"{rel}: exemption names no statement: {text}")
    print(f"src_coverage: {missed + exempt} of {total} statements not executed, "
          f"{exempt} of them exempt")
    if status != 0:
        return int(status)
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
