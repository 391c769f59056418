#!/usr/bin/env python3
"""Run every verification suite at its acceptance bound and print a table.

    PYTHONPATH=src python3 scripts/verify_all.py

Exits nonzero if any suite reports a counterexample or checks another
number of cases than ``ACCEPTANCE_BOUNDS`` records for it, so that a suite
that silently lost cases does not pass.  The table times one pass per
suite.  The package is imported in ``main``, so that the acceptance tests
and ``bench_compare.py`` read the table without loading any package.
"""

import argparse
import sys
import time

# (suite, acceptance bound, cases the suite checks at that bound); the
# acceptance tests and bench_compare.py read this one table too
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


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    from orbitcalc.verify import run_suite

    failures = 0
    for name, bound, expected in ACCEPTANCE_BOUNDS:
        start = time.monotonic()
        rep = run_suite(name, bound)
        elapsed = time.monotonic() - start
        ok = rep.passed and rep.checked == expected
        status = "pass" if ok else "FAIL"
        print(f"{name:<14} bound={bound:<4} {status}  {rep.checked:>6} cases  {elapsed:7.2f}s")
        for note in rep.notes:
            print(f"    note: {note}")
        if rep.checked != expected:
            print(f"    count: expected {expected} cases")
        for ce in rep.counterexamples:
            print(f"    counterexample: {ce}")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
