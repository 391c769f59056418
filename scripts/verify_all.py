#!/usr/bin/env python3
"""Run every verification suite at its acceptance bound and print a table.

    PYTHONPATH=src python3 scripts/verify_all.py [--out BENCH_<label>.json]

Exits nonzero if any suite reports a counterexample or checks another
number of cases than ``ACCEPTANCE_BOUNDS`` records for it, so that a suite
that silently lost cases does not pass.  The table times one pass per
suite.  With ``--out`` each suite instead runs ``TIMED_PASSES`` passes and
is timed by the fastest, the pass least disturbed by other load on the
host, and the run is also written as JSON: per suite its bound,
``checked``, ``passed``, ``elapsed_s`` (the time of the fastest pass) and
``repetitions``, plus the Python version, ``os.cpu_count()``, the commit
of the checkout the ``orbitcalc`` package was imported from (marked
``+dirty`` when the package differs from it, null when git cannot tell) and
``src_lines``, the line count of the package's ``*.py`` files.
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

# (suite, acceptance bound, cases the suite checks at that bound); the
# acceptance tests read this one table too
ACCEPTANCE_BOUNDS = [
    ("reasonss", 10, 516),
    ("lemma-pm", 20, 1624),
    ("reversal", 14, 1196),
    ("bounds", 20, 194),
    ("domino-oracle", 20, 848),
    ("twocom", 12, 26),
    ("induce-oracle", 12, 80),
    ("conjugation", 100, 100),
    ("non3", 20, 1624),
    ("appendix", 40, 8711),
]
TIMED_PASSES = 5  # with --out, the passes of each suite; the fastest is reported


def package_commit() -> str | None:
    """``git rev-parse HEAD`` next to the imported package, with a
    ``+dirty`` suffix when the package's files differ from that commit, or
    None when git cannot tell."""
    cwd = Path(orbitcalc.__file__).resolve().parent

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=cwd, capture_output=True, text=True)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        dirty = git("diff", "--quiet", "HEAD", "--", ".").returncode != 0
    except OSError:
        return None
    return head.stdout.strip() + ("+dirty" if dirty else "")


def package_lines() -> int:
    """Lines in the ``*.py`` files of the imported ``orbitcalc`` package, as
    ``wc -l`` counts them."""
    package = Path(orbitcalc.__file__).resolve().parent
    return sum(f.read_bytes().count(b"\n") for f in package.glob("*.py"))


def timed(name: str, bound: int, passes: int):
    """The report of ``run_suite(name, bound)`` and the time of each of its
    ``passes`` passes."""
    times: list[float] = []
    for _ in range(passes):
        start = time.monotonic()
        rep = run_suite(name, bound)
        times.append(time.monotonic() - start)
    return rep, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="also write the run as JSON to this file")
    args = parser.parse_args()
    failures = 0
    suites = {}
    for name, bound, expected in ACCEPTANCE_BOUNDS:
        rep, times = timed(name, bound, TIMED_PASSES if args.out else 1)
        elapsed = min(times)
        ok = rep.passed and rep.checked == expected
        status = "pass" if ok else "FAIL"
        repeated = f"  (fastest of {len(times)})" if len(times) > 1 else ""
        print(
            f"{name:<14} bound={bound:<4} {status}  "
            f"{rep.checked:>6} cases  {elapsed:7.2f}s{repeated}"
        )
        for note in rep.notes:
            print(f"    note: {note}")
        if rep.checked != expected:
            print(f"    count: expected {expected} cases")
        for ce in rep.counterexamples:
            print(f"    counterexample: {ce}")
        failures += not ok
        suites[name] = {
            "bound": bound,
            "checked": rep.checked,
            "passed": rep.passed,
            "elapsed_s": round(elapsed, 5),
            "repetitions": len(times),
        }
    if args.out:
        record = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "commit": package_commit(),
            "src_lines": package_lines(),
            "suites": suites,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
