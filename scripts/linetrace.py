#!/usr/bin/env python3
"""Print every statement of src/allocflow that no tier-1 test runs.

Runs the tier-1 suite in this process under sys.settrace, with a global
tracer that returns a line tracer only for frames whose code lies under
src/allocflow, then lists each statement of those files on none of whose
lines a line event fired.  A `def` or `class` line, a docstring and the
`try:` and `else:` keywords are not statements here.  Code run only in a
subprocess (a test that starts `python -m allocflow.cli`) counts as never
run.  test_criterion_7 is left out: it fits wall-clock solve times, which
the tracer slows unevenly.  The report is a list, not a gate; the script
exits 0 whatever it lists.

Example:
  python scripts/linetrace.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "allocflow"
PREFIX = str(PACKAGE) + "/"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(tree: ast.Module) -> Iterator[Tuple[int, int]]:
    """The (first, last) line span of each statement that a line event can
    mark as run: a simple statement's whole span and a compound statement's
    header, up to its body; no def, class, docstring or try."""
    docstrings = {
        id(node.body[0]) for node in ast.walk(tree) if isinstance(node, SCOPES) and ast.get_docstring(node) is not None
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SCOPES + (ast.Try,)) or id(node) in docstrings:
            continue
        body = getattr(node, "body", None)
        if body:
            yield node.lineno, max(node.lineno, body[0].lineno - 1)
        else:
            yield node.lineno, node.end_lineno


def main() -> int:
    import pytest

    ran: Dict[str, Set[int]] = {}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        ran.setdefault(filename, set())
        return lines

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(calls)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--deselect", "tests/test_acceptance.py::test_criterion_7",
                     str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    missed: List[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        hit = ran.get(str(path), set())
        source_lines = source.splitlines()
        for first, last in sorted(statements(ast.parse(source))):
            if not any(line in hit for line in range(first, last + 1)):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {source_lines[first - 1].strip()}")
    print(f"{len(missed)} statements of src/allocflow never ran under tier-1:")
    for line in missed:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
