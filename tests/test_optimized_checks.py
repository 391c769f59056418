"""Checks that guard a result are explicit exceptions, so they still run
under ``python -O``, which strips every ``assert`` statement."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc.verify import run_suite

PACKAGE = Path(orbitcalc.__file__).resolve().parent
CLI_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "cli"


def run_optimized(*argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run(
        [sys.executable, "-O", "-m", "orbitcalc.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_package_has_no_assert():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


@pytest.mark.parametrize("suite, bound", [("induce-oracle", 6), ("conjugation", 10), ("non3", 8)])
def test_suite_under_optimize(suite, bound):
    proc = run_optimized("verify", "--suite", suite, "--max", str(bound))
    checked = run_suite(suite, bound).checked
    assert checked > 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{suite} (bound {bound}): pass, {checked} cases\n"


def test_constructor_check_under_optimize():
    """The sign conventions are checked by the SignedDiagram constructor, not
    by an assert: validate reports the violation and tower refuses the file."""
    path = str(CLI_INPUTS / "bad_conventions.json")
    expected = json.loads((CLI_INPUTS / "expected.json").read_text())["validate-conventions"]
    proc = run_optimized("validate", path)
    assert (proc.returncode, proc.stdout) == (expected["exit"], expected["stdout"])
    assert expected["exit"] == 1
    proc = run_optimized("tower", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "invalid signed diagram" in proc.stderr


ROW_SPEC_REFUSALS = """
from orbitcalc.diagram_core import Kind, Sign, SignedDiagram, from_row_spec
from orbitcalc.theta_orbits import prepend_column

P, M, O, S = Sign.PLUS, Sign.MINUS, Kind.ORTHOGONAL, Kind.SYMPLECTIC
cases = [
    lambda: from_row_spec(O, [(0, P)]),
    lambda: from_row_spec(O, [(-1, P)]),
    lambda: from_row_spec(O, [(2.0, None)]),
    lambda: from_row_spec(O, [(True, P)]),
    lambda: from_row_spec(S, [(0, None)]),
    lambda: from_row_spec(S, [(-1, P)]),
    lambda: from_row_spec(S, [(2.0, P)]),
    lambda: from_row_spec(S, [(True, None)]),
    lambda: from_row_spec(S, [(1, None)]),
    lambda: from_row_spec(S, [(1, M), (1, P)]),
    lambda: from_row_spec(O, [(1, "+")]),
    lambda: from_row_spec("orthogonal", [(1, P)]),
    lambda: from_row_spec(O, [(2, None), (2.0, None)]),
    lambda: from_row_spec(O, [(2.0, None), (2, None)]),
    lambda: from_row_spec(O, [(1, P), (True, M)]),
    lambda: from_row_spec(O, [(True, M), (1, P)]),
]
# a symplectic column prepend with an odd count of new 1-rows
for rows, ones in [((), 1), ((), 3), (((1, P),), 1), (((1, P), (1, M)), 1)]:
    d = SignedDiagram(O, rows)
    cases.append(lambda d=d, ones=ones: prepend_column(d, ones))
for case in cases:
    try:
        case()
    except Exception as exc:
        print(type(exc).__name__)
    else:
        print("accepted")
"""


def test_row_spec_checks_under_optimize():
    """The per-class checks of from_row_spec, the one builder of specs that
    come from elsewhere, and prepend_column's refusal of an odd count of
    symplectic 1-rows (it builds through moved_rows, not from_row_spec) are
    explicit ValueErrors that -O keeps."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", ROW_SPEC_REFUSALS],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 20
