"""Statements of the hypertoric package that no test executes.

Runs pytest in-process under sys.settrace (and threading.settrace), records
every line the package executes, and prints each statement of
src/hypertoric whose lines never ran, grouped by module, with a count.
A statement counts as run when any of its lines ran, the lines of its
body included.  Docstrings are not statements.  Lines run only in a child
process (the tests that start `hypertoric` or a demo as a subprocess) are
not seen, so a statement listed here may still be reached that way.

Not part of the test suite (pytest does not collect this file).  Arguments
are passed to pytest; the default is the tier-1 suite.  Tracing makes the
run several times slower than the suite alone.

    PYTHONPATH=src python tests/line_coverage.py [pytest args ...]
"""

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypertoric"


def statements(path):
    """(first line, its lines) of every statement of the module at path,
    docstrings excluded.  The lines of a compound statement include its
    body: if any of them ran, so did its header."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        docstring = None
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            docstring = node.body[0]
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child is not docstring:
                first = min([child.lineno] + [d.lineno for d in getattr(
                    child, "decorator_list", [])])
                out.append((child.lineno,
                            range(first, child.end_lineno + 1)))
    return out


def trace_tests(args):
    """(pytest exit code, {resolved file path: set of lines run})."""
    import pytest

    prefix = str(PACKAGE) + "/"
    inside = {}                 # co_filename -> whether it is the package's
    need = {}                   # code object -> the lines it has
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        lines = need.get(code)
        if lines is None:
            name = code.co_filename
            hit = inside.get(name)
            if hit is None:
                hit = inside[name] = str(Path(name).resolve()).startswith(
                    prefix)
            lines = need[code] = {line for *_, line in code.co_lines()
                                  if line is not None} if hit else set()
        # a code object none of whose lines is new is not traced again
        return local if lines and not lines <= ran[code.co_filename] \
            else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines = defaultdict(set)
    for name, run in ran.items():
        lines[str(Path(name).resolve())] |= run
    return code, lines


def main():
    code, ran = trace_tests(sys.argv[1:] or ["-q", "-p", "no:cacheprovider",
                                             "--continue-on-collection-errors"])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        source = path.read_text().splitlines()
        missed = sorted(first for first, span in statements(path)
                        if not lines.intersection(span))
        if missed:
            print(f"{path.relative_to(PACKAGE.parent.parent)}: "
                  f"{len(missed)} statements not run")
            for first in missed:
                print(f"  {first:5d}  {source[first - 1].strip()}")
        total += len(missed)
    print(f"{total} statements of the package not run by the tests "
          f"(pytest exit code {code})")


if __name__ == "__main__":
    main()
