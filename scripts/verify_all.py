#!/usr/bin/env python3
"""Run every verification suite at its acceptance bound and print a table.

    PYTHONPATH=src python3 scripts/verify_all.py [--out BENCH_<label>.json]

Exits nonzero if any suite reports a counterexample.  With ``--out`` the
run is also written as JSON: per suite its bound, ``checked``, ``passed``
and ``elapsed_s``, plus the Python version, ``os.cpu_count()`` and the
commit of the checkout the ``orbitcalc`` package was imported from (null
when git cannot tell).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import orbitcalc
from orbitcalc.verify import run_suite

ACCEPTANCE_BOUNDS = [
    ("reasonss", 10),
    ("lemma-pm", 20),
    ("reversal", 14),
    ("bounds", 20),
    ("domino-oracle", 20),
    ("twocom", 12),
    ("induce-oracle", 12),
    ("conjugation", 100),
    ("non3", 20),
    ("appendix", 40),
]


def package_commit() -> str | None:
    """``git rev-parse HEAD`` next to the imported package, or None."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(orbitcalc.__file__).resolve().parent,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the run as JSON to this file")
    args = parser.parse_args()
    failures = 0
    suites = {}
    for name, bound in ACCEPTANCE_BOUNDS:
        start = time.monotonic()
        rep = run_suite(name, bound)
        elapsed = time.monotonic() - start
        status = "pass" if rep.passed else "FAIL"
        print(
            f"{name:<14} bound={bound:<4} {status}  "
            f"{rep.checked:>6} cases  {elapsed:7.2f}s"
        )
        for note in rep.notes:
            print(f"    note: {note}")
        for ce in rep.counterexamples:
            print(f"    counterexample: {ce}")
        failures += not rep.passed
        suites[name] = {
            "bound": bound,
            "checked": rep.checked,
            "passed": rep.passed,
            "elapsed_s": round(elapsed, 4),
        }
    if args.out:
        record = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "commit": package_commit(),
            "suites": suites,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
