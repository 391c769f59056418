#!/usr/bin/env python3
"""Time scripts/verify_all.py on two source trees, run alternately.

    python3 scripts/bench_compare.py --base-src OTHER/src --runs 3 --out BENCH_<label>.json

Each run is a fresh interpreter running ``verify_all.py --out`` with
``PYTHONPATH`` set to one side's ``src``: the base tree given, or the
change, which is the ``src`` next to this script.  The runs come in pairs,
and the side that runs first alternates from pair to pair, so that drift on
a shared host hits both alike.  The output holds every run of both sides,
each side's per-suite median of ``elapsed_s``, and the ratio base / change
of those medians.  Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
VERIFY_ALL = HERE / "verify_all.py"


def one_run(src: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, str(VERIFY_ALL), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, check=True,
        )
        return json.loads(out.read_text())


def medians(runs: list[dict]) -> dict[str, float]:
    names = runs[0]["suites"]
    return {
        name: round(statistics.median(r["suites"][name]["elapsed_s"] for r in runs), 4)
        for name in names
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-src", required=True, type=Path)
    parser.add_argument("--runs", type=int, default=3, help="pairs of runs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be positive")
    sides = {"base": args.base_src.resolve(), "change": HERE.parent / "src"}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(args.runs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(one_run(sides[side]))
            print(f"pair {i + 1}/{args.runs}: {side} done", file=sys.stderr)
    med = {side: medians(rs) for side, rs in runs.items()}
    record = {
        "runs_per_side": args.runs,
        "order": "pairs; base runs first in odd pairs, change in even ones",
        **{
            side: {"commit": rs[0]["commit"], "median_elapsed_s": med[side], "runs": rs}
            for side, rs in runs.items()
        },
        "speedup_base_over_change": {
            name: round(med["base"][name] / med["change"][name], 2)
            for name in med["change"]
            if med["change"][name] > 0
        },
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
