"""Machine speed calibration.

The shared host the baseline was measured on drifts in speed by 10-50 %
over tens of seconds, and its two vCPUs need not run at the same speed.
``calibrate`` times a fixed loop of Fraction arithmetic on the standard
library only, which the program under test cannot change.  Each timed
interval is bracketed by two calibrations in the same process (for a child
process, in a calibration child spawned just before and just after it) and
multiplied by ``scale(before, after)``, so that reported times are times on
the baseline machine at its usual speed.

    python3 calibration.py           print calibrate() of a fresh interpreter
    python3 calibration.py MODULE    print the import time of MODULE in a
                                     fresh interpreter, scaled and raw
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

CALIBRATION_STEPS = 8000
# median of 150 calibrate() calls on the baseline machine (2 vCPUs,
# Python 3.11.7) while it ran at its usual speed
REFERENCE_S = 0.0318


def calibrate() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        acc += Fraction(i % 17 - 8, i % 13 + 1)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    return 2 * REFERENCE_S / (before + after)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        before = calibrate()
        start = time.perf_counter()
        importlib.import_module(sys.argv[1])
        imported = time.perf_counter() - start
        print(imported * scale(before, calibrate()), imported)
    else:
        print(calibrate())
