"""The command mix of the cli-mix workload and its reference outputs.

Every command runs with the working directory ``perfbench/cli`` so that the
input paths, and hence the outputs, are the same in every checkout.  The
reference exit codes and stdout in ``cli/expected.json`` were recorded with
``record_cli.py``.  Malformed input must exit 2 with nothing on stdout (the
CLI reports usage errors on stderr); ``KNOWN_DEFECTS`` lists the commands
that do not do so yet.  They stay in the mix and count as failures, and the
run stays correct only while every failure is one of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CLI_DIR = HERE / "cli"
EXPECTED_PATH = CLI_DIR / "expected.json"

USAGE_ERROR = 2

# name -> argv after "python -m orbitcalc.cli"
COMMANDS = {
    "tower-intro": ["tower", "mp30.json"],
    "tower-intro-json": ["tower", "--json", "mp30.json"],
    "classify-intro": ["classify", "--json", "mp30.json"],
    "validate-intro": ["validate", "mp30.json"],
    "validate-conventions": ["validate", "bad_conventions.json"],
    "chain-intro": ["chain", "mp30.json"],
    "render-intro": ["render", "mp30.json"],
    "infchar-sp": ["infchar", "--kind", "sp", "--json", "partition.json"],
    "induce-n16": ["induce", "--n", "16", "--json", "source.json"],
    "induce-tau-n16": ["induce", "--n", "16", "--tau", "source.json"],
    "oracle-dense-sp6": ["oracle", "classify", "matrix.json", "--form", "sp:6", "--json"],
    "enumerate-o-7-9": ["enumerate", "--kind", "o", "--signature", "7,9", "--count"],
    "enumerate-sp-12": ["enumerate", "--kind", "sp", "--size", "12", "--count", "--json"],
    "wf-ialpha-12": ["wf-ialpha", "--n", "12", "--alpha", "1", "--json"],
    "verify-lemma-pm-10": ["verify", "--suite", "lemma-pm", "--max", "10"],
    "verify-domino-12": ["verify", "--suite", "domino-oracle", "--max", "12", "--json"],
    # malformed input: usage errors
    "bad-kind": ["infchar", "--kind", "x", "partition.json"],
    "bad-form": ["oracle", "classify", "matrix.json", "--form", "sp:3"],
    "missing-file": ["render", "missing.json"],
    "malformed-json": ["validate", "malformed.json"],
    "float-partition": ["infchar", "--kind", "sp", "partition_float.json"],
    "flat-matrix": ["oracle", "classify", "matrix_flat.json", "--form", "sp:2"],
    "negative-bound": ["verify", "--suite", "lemma-pm", "--max", "-3"],
}

# malformed input the CLI does not reject yet: [2.7, 1] is coerced to
# (2, 1) and exits 0, the matrix [1, 2] escapes as a TypeError (exit 1),
# and a negative bound reports "pass, 0 cases"
KNOWN_DEFECTS = frozenset({"float-partition", "flat-matrix", "negative-bound"})

MALFORMED = frozenset(
    {"bad-kind", "bad-form", "missing-file", "malformed-json"} | KNOWN_DEFECTS
)


def load_expected() -> dict[str, dict]:
    """name -> {"exit": code, "stdout": text}; malformed input expects a
    usage error with empty stdout."""
    recorded = json.loads(EXPECTED_PATH.read_text())
    expected = {}
    for name in COMMANDS:
        if name in MALFORMED:
            expected[name] = {"exit": USAGE_ERROR, "stdout": ""}
        else:
            expected[name] = recorded[name]
    return expected


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ORBITCALC_THREADS"}
    env["PYTHONPATH"] = str(src)
    return env


def run_subprocess(argv: list[str], env: dict[str, str]) -> tuple[int, str, float]:
    """One command from spawn to exit: (exit code, stdout, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "orbitcalc.cli", *argv],
        cwd=CLI_DIR,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def calibrate_child(env: dict[str, str]) -> float:
    """calibrate() in a fresh interpreter, for scaling the child commands."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "calibration.py")],
        env=env, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout)


def run_in_process(argv: list[str]) -> tuple[int, str, float]:
    """The same command through orbitcalc.cli.main inside this process; an
    uncaught exception maps to exit 1 as it would in the interpreter."""
    cli = sys.modules["orbitcalc.cli"]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.chdir(CLI_DIR), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the subprocess would die with a traceback
            code = 1
    return code, out.getvalue(), time.perf_counter() - start
