#!/usr/bin/env python3
"""Run every verification suite at its acceptance bound and print a table.

Exits nonzero if any suite reports a counterexample.
"""

import sys
import time

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


def main() -> int:
    failures = 0
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
