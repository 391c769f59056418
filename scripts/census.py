#!/usr/bin/env python3
"""List the statements of src/orbitcalc that the tests never run.

    python3 scripts/census.py [pytest arguments]

Runs tier-1 (or the given pytest arguments, such as test ids) in this
interpreter under a ``sys.settrace`` line tracer limited to
``src/orbitcalc``, then prints every statement that never ran, as
``path:line | text``.  Children that a test spawns, such as the CLI runs,
are not traced.

``tests/unrun.txt`` gives each statement that stays unrun its reason, one
``path:line | reason | text`` entry a line.  The census exits 1 if a
statement is unrun with no entry, if an entry's statement ran, or if the
tests failed.  It takes about four times tier-1's time.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "orbitcalc"
UNRUN = ROOT / "tests" / "unrun.txt"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")]


def read_unrun(path: Path = UNRUN) -> list[tuple[str, int, str, str]]:
    """(path, line, reason, text) per entry; ``#`` lines are comments."""
    entries = []
    for raw in path.read_text().splitlines():
        if raw.strip() and not raw.startswith("#"):
            location, reason, text = raw.split(" | ", 2)
            file, line = location.rsplit(":", 1)
            entries.append((file, int(line), reason, text))
    return entries


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, the lines whose events show it ran) per statement that
    compiles to code: docstrings, ``global``, ``nonlocal`` and a function's
    bare annotations compile to none.  A compound statement has run when its
    header or the first statement of its body has, since some headers
    (``try:``, ``while True:``) raise no line event of their own."""
    found: list[tuple[int, range]] = []

    def visit(body: list[ast.stmt], in_function: bool) -> None:
        for node in body:
            value = node.value if isinstance(node, ast.Expr) else None
            docstring = isinstance(value, ast.Constant) and isinstance(value.value, str)
            bare = isinstance(node, ast.AnnAssign) and node.value is None and in_function
            if docstring or bare or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            inner = getattr(node, "body", None)
            last = inner[0].lineno if inner else node.end_lineno
            found.append((node.lineno, range(first, max(first, last) + 1)))
            nested = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), nested)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, nested)
            for case in getattr(node, "cases", []):
                visit(case.body, nested)

    visit(ast.parse(source).body, False)
    return found


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per package file."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}

    def line(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return line

    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), hits


def main() -> int:
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code, hits = run_traced(sys.argv[1:] or TIER1)
    unrun = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text().splitlines()
        ran = hits.get(str(path), set())
        for lineno, span in statements("\n".join(lines)):
            if ran.isdisjoint(span):
                unrun[(str(path.relative_to(ROOT)), lineno)] = lines[lineno - 1].strip()
    explained = {(file, line) for file, line, _, _ in read_unrun()}
    for (file, line), text in unrun.items():
        mark = "" if (file, line) in explained else "  (no entry in tests/unrun.txt)"
        print(f"{file}:{line} | {text}{mark}")
    stale = sorted(explained - unrun.keys())
    for file, line in stale:
        print(f"{file}:{line} ran, but tests/unrun.txt lists it")
    missing = unrun.keys() - explained
    print(f"{len(unrun)} statements unrun, {len(missing)} without an entry, {len(stale)} stale")
    return 1 if code or missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
