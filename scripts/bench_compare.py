#!/usr/bin/env python3
"""Time scripts/verify_all.py on two source trees, run alternately.

    python3 scripts/bench_compare.py --base-src OTHER/src --runs 3 --out BENCH_<label>.json

Each run is a fresh interpreter running ``verify_all.py --out`` with
``PYTHONPATH`` set to one side's ``src``: the base tree given, or the
change, which is the ``src`` next to this script.  The runs come in pairs,
and the side that runs first alternates from pair to pair, so that drift on
a shared host hits both alike.  ``verify_all.py --out`` repeats each suite
until it has run for 0.5 s and reports the median time of one pass.  The
output holds every run of both sides, each side's per-suite median and
quartiles of those times over its runs, and per suite the ratio base /
change of the medians next to both sides' quartiles, so that a ratio can be
read against the spread of the runs behind it, and each side's
``src_lines``, the line count of its package.  The same comparison is
printed as a table.  Stdlib only.
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


def spread(runs: list[dict]) -> dict[str, dict]:
    """Per suite the median and the quartiles of ``elapsed_s`` over the runs
    (all three equal for a single run)."""
    out = {}
    for name in runs[0]["suites"]:
        times = [r["suites"][name]["elapsed_s"] for r in runs]
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
        out[name] = {
            "median_s": round(statistics.median(times), 5),
            "quartiles_s": [round(q1, 5), round(q3, 5)],
        }
    return out


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
    stats = {side: spread(rs) for side, rs in runs.items()}
    comparison = {}
    for name, change in stats["change"].items():
        base = stats["base"][name]
        ratio = base["median_s"] / change["median_s"] if change["median_s"] > 0 else None
        comparison[name] = {
            "speedup_base_over_change": None if ratio is None else round(ratio, 2),
            "base_quartiles_s": base["quartiles_s"],
            "change_quartiles_s": change["quartiles_s"],
        }
        print(
            f"{name:<14} base {base['median_s']:8.4f}s [{base['quartiles_s'][0]:.4f}, "
            f"{base['quartiles_s'][1]:.4f}]  change {change['median_s']:8.4f}s "
            f"[{change['quartiles_s'][0]:.4f}, {change['quartiles_s'][1]:.4f}]  "
            f"base/change {'-' if ratio is None else f'{ratio:.2f}'}"
        )
    lines = {side: rs[0]["src_lines"] for side, rs in runs.items()}
    print(f"src_lines      base {lines['base']}  change {lines['change']}")
    record = {
        "runs_per_side": args.runs,
        "order": "pairs; base runs first in odd pairs, change in even ones",
        **{
            side: {
                "commit": rs[0]["commit"],
                "src_lines": lines[side],
                "elapsed_s": stats[side],
                "runs": rs,
            }
            for side, rs in runs.items()
        },
        "comparison": comparison,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
