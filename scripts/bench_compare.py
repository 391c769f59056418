#!/usr/bin/env python3
"""Time scripts/verify_all.py and the CLI commands on two source trees, run alternately.

    python3 scripts/bench_compare.py --base-rev REV --out BENCH_<label>.json
    python3 scripts/bench_compare.py --base-src OTHER/src --out BENCH_<label>.json

Each run is a fresh interpreter running ``verify_all.py --out`` with
``PYTHONPATH`` set to one side's ``src``: the base, or the change, which
is the ``src`` next to this script.  The base is either the ``src`` of a git
revision of this repository, exported with ``git archive`` into a temporary
directory, or a ``src`` tree given as it stands.  The runs come in pairs,
and the side that runs first alternates from pair to pair, so that drift on
a shared host hits both alike.  ``verify_all.py --out`` repeats each suite
until it has run for 0.5 s and reports the median time of one pass.  The
output holds every run of both sides, each side's per-suite median and
quartiles of those times over its runs, and per suite the ratio base /
change of the medians next to both sides' quartiles, so that a ratio can be
read against the spread of the runs behind it, and each side's
``src_lines``, the line count of its package, and ``commit``: for
``--base-rev`` the commit exported, otherwise the commit git reads next to
the package (null outside a checkout).  The same comparison is printed as a
table.

Each pair also times CLI start-up: every command of the ``cli-mix``
benchmark workload (``perfbench/cli_mix.py``, imported read-only) runs as
``python -m orbitcalc.cli`` from spawn to exit, once per side, the two sides
back to back per command in the pair's order.  ``cli_startup`` in the output
holds each side's per-command and pooled (all commands, all pairs) median
and quartiles, the pooled ratio base / change, and the commands whose exit
code or stdout differ between the sides.  Stdlib only.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
VERIFY_ALL = HERE / "verify_all.py"
sys.path.insert(0, str(HERE.parent / "perfbench"))
import cli_mix  # noqa: E402  (the command list and the spawn-to-exit runner)


def one_run(src: Path) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run(
            [sys.executable, str(VERIFY_ALL), "--out", str(out)],
            env=env, stdout=subprocess.DEVNULL, check=True,
        )
        return json.loads(out.read_text())


def summary(times: list[float]) -> dict:
    """The median and the quartiles of ``times`` (all three equal for one)."""
    q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {
        "median_s": round(statistics.median(times), 5),
        "quartiles_s": [round(q1, 5), round(q3, 5)],
    }


def spread(runs: list[dict]) -> dict[str, dict]:
    """Per suite the median and the quartiles of ``elapsed_s`` over the runs."""
    return {
        name: summary([r["suites"][name]["elapsed_s"] for r in runs]) for name in runs[0]["suites"]
    }


def startup(times: dict[str, list[float]]) -> dict:
    """Per-command and pooled summaries of one side's CLI timings."""
    pooled = [t for ts in times.values() for t in ts]
    return {"pooled": summary(pooled), "per_command": {n: summary(ts) for n, ts in times.items()}}


def export(rev: str, into: Path) -> tuple[Path, str]:
    """Extract ``src`` of the git revision ``rev`` of this repository into
    ``into``; return that ``src`` and the full commit it was taken from."""

    def git(*argv):
        return subprocess.run(["git", *argv], cwd=HERE.parent, capture_output=True, check=True)

    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").stdout.decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit, "src").stdout)) as tar:
        tar.extractall(into)
    return into / "src", commit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base-rev", help="a git revision of this repository")
    base.add_argument("--base-src", type=Path, help="a src tree, as it stands")
    parser.add_argument("--runs", type=int, default=10, help="pairs of runs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        if args.base_src:
            return compare(args.base_src.resolve(), None, args.runs, args.out)
        try:
            src, commit = export(args.base_rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            parser.error(f"--base-rev {args.base_rev}: {exc.stderr.decode().strip()}")
        return compare(src, commit, args.runs, args.out)


def compare(base_src: Path, base_commit: str | None, pairs: int, out_path: str) -> int:
    """Run ``pairs`` alternating pairs on the base and the change, print the
    comparison and write the record to ``out_path``."""
    sides = {"base": base_src, "change": HERE.parent / "src"}
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    cli = {side: {name: [] for name in cli_mix.COMMANDS} for side in sides}
    outputs: dict[str, dict] = {side: {} for side in sides}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(one_run(sides[side]))
            print(f"pair {i + 1}/{pairs}: {side} done", file=sys.stderr)
        for name, argv in cli_mix.COMMANDS.items():
            for side in order:
                code, out, seconds = cli_mix.run_subprocess(argv, cli_mix.child_env(sides[side]))
                cli[side][name].append(seconds)
                outputs[side][name] = (code, out)
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
    cli_stats = {side: startup(times) for side, times in cli.items()}
    pooled = {side: stats["pooled"] for side, stats in cli_stats.items()}
    cli_ratio = round(pooled["base"]["median_s"] / pooled["change"]["median_s"], 2)
    differ = [name for name in cli_mix.COMMANDS if outputs["base"][name] != outputs["change"][name]]
    print(
        f"cli pooled     base {pooled['base']['median_s']:8.4f}s {pooled['base']['quartiles_s']}  "
        f"change {pooled['change']['median_s']:8.4f}s {pooled['change']['quartiles_s']}  "
        f"base/change {cli_ratio:.2f}  outputs differ: {differ or 'none'}"
    )
    lines = {side: rs[0]["src_lines"] for side, rs in runs.items()}
    commits = {side: rs[0]["commit"] for side, rs in runs.items()}
    commits["base"] = base_commit or commits["base"]
    print(f"src_lines      base {lines['base']}  change {lines['change']}")
    record = {
        "runs_per_side": pairs,
        "order": "pairs; base runs first in odd pairs, change in even ones",
        **{
            side: {
                "commit": commits[side],
                "src_lines": lines[side],
                "elapsed_s": stats[side],
                "runs": rs,
            }
            for side, rs in runs.items()
        },
        "comparison": comparison,
        "cli_startup": {
            "command": "python -m orbitcalc.cli ARGV, cwd perfbench/cli, spawn to exit",
            **cli_stats,
            "pooled_speedup_base_over_change": cli_ratio,
            "outputs_differ": differ,
        },
    }
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
