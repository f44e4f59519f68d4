"""List the statement lines of ``src/mvhedge`` that no test reaches.

Usage, from the root of a checkout:

    python3 tools/unreached.py                    # the tier-1 suite
    python3 tools/unreached.py tests/test_bsde.py # any pytest arguments

Runs pytest in this process under ``sys.settrace``, recording line
events only in frames whose code lies in ``src/mvhedge``, then prints,
per module, every statement that never ran and a total.  Docstrings and
``def``, ``class``, import, ``global`` and ``nonlocal`` statements are
left out, as is the ``try:`` header (its body's statements speak for
it).  A simple statement counts as reached when any of its lines ran; a
compound one (``if``, ``for``, ``with``, ...) when a line of its header,
before its body, ran.  Standard library only, apart from pytest itself.
The exit code is pytest's.
"""

import ast
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvhedge"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal, ast.Try)


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source):
    """(first line, header lines) of every counted statement in ``source``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        out.append((node.lineno, range(node.lineno, max(last, node.lineno) + 1)))
    return sorted(out)


def trace_lines(pytest_args):
    """Run pytest with line tracing on the package; (exit code, {file: lines})."""
    prefix = str(PACKAGE) + os.sep
    reached = defaultdict(set)
    wanted = {}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        inside = wanted.get(name)
        if inside is None:
            inside = wanted[name] = os.path.realpath(name).startswith(prefix)
        return local if inside else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    sys.settrace(global_)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    by_path = defaultdict(set)
    for name, lines in reached.items():
        by_path[os.path.realpath(name)] |= lines
    return int(code), by_path


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    code, reached = trace_lines(args or ["-q", "--continue-on-collection-errors"])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = reached.get(str(path), set())
        missed = [first for first, header in statements(source) if ran.isdisjoint(header)]
        if not missed:
            continue
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} unreached")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    print(f"{total} unreached statement lines in {PACKAGE.relative_to(ROOT)}")
    return code


if __name__ == "__main__":
    sys.exit(main())
