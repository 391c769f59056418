"""Checks that guard a result are explicit exceptions, so they still run
under ``python -O``, which strips every ``assert`` statement."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc.verify import run_suite

PACKAGE = Path(orbitcalc.__file__).resolve().parent


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
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "orbitcalc.cli", "verify", "--suite", suite, "--max", str(bound)],
        capture_output=True,
        text=True,
        env=env,
    )
    checked = run_suite(suite, bound).checked
    assert checked > 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{suite} (bound {bound}): pass, {checked} cases\n"
