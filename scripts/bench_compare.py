#!/usr/bin/env python3
"""Time the verification suites and the CLI commands on two source trees, in alternating rounds.

    python3 scripts/bench_compare.py --base-rev REV [--runs 10] --out BENCH_<label>.json

The base is the ``src`` of a git revision of this repository, exported with
``git archive`` into a temporary directory; the change is the ``src`` next
to this script.  Both packages are imported into this one interpreter, as
``orbitcalc_base`` and ``orbitcalc_change``.  Each of the ``--runs`` rounds
runs every suite of ``verify_all.ACCEPTANCE_BOUNDS`` at its bound on both
sides back to back, the side that goes first alternating from round to
round, so that drift on a shared host hits both alike.  Both packages are
imported afresh at the start of each round, in its order.  Each side first
runs the suite once untimed, as a warm-up; a suite under ``MIN_TIMED_S`` in
the faster warm-up is then timed over as many passes as reach it, the same
count on both sides.  The two sides are timed ``REPEATS`` times each, taking
turns, and each side's time in the round is its fastest: a stall of the host
then has to hit every timing of one side to move the round.

Per suite the record holds the pass count of each round, each side's median
and quartiles of the time per pass, the per-round ratios base / change with
their median and quartiles, the rounds the change ran faster, whether the
two sides' reports were identical JSON in every round, and ``resolved``,
whether the rounds tell the sides apart at all (see ``resolved``): only a
resolved suite backs a claim either way.  It also holds each side's
``src_lines``, the line count of its package, and ``commit``: for the base
the commit exported, for the change the commit git reads next to the
package (marked ``+dirty`` when the package differs from it, null outside a
checkout).  The same comparison is printed as a table.

Each round also times CLI start-up: every command of the ``cli-mix``
benchmark workload (``perfbench/cli_mix.py``, imported read-only) runs as
``python -m orbitcalc.cli`` from spawn to exit, once per side, the two sides
back to back per command in the round's order.  ``cli_startup`` in the
output holds each side's per-command and pooled (all commands, all rounds)
median and quartiles, the pooled ratio base / change, and the commands whose
exit code or stdout differ between the sides.  Stdlib only.
"""

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]
import cli_mix  # noqa: E402  (the command list and the spawn-to-exit runner)
from verify_all import ACCEPTANCE_BOUNDS  # noqa: E402  (the table alone, no package)

SIDES = ("base", "change")
MIN_TIMED_S = 0.01  # a suite faster than this per pass is timed over several passes
REPEATS = 3  # timings per side per round, the sides alternating; the fastest counts
MIN_ROUNDS = 10  # fewer rounds resolve no suite


def summary(values: list[float], suffix: str = "_s") -> dict:
    """The median and the quartiles of ``values`` (all three equal for one)."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {f"median{suffix}": round(med, 6), f"quartiles{suffix}": [round(q1, 6), round(q3, 6)]}


def resolved(rounds: int, wins: int, base: dict, change: dict) -> bool:
    """Whether the rounds tell the two sides of a suite apart: at least
    ``MIN_ROUNDS`` of them, the change faster in at least nine tenths of
    them or in at most one tenth, and the medians further apart than the
    base side's quartiles."""
    q1, q3 = base["quartiles_s"]
    return (
        rounds >= MIN_ROUNDS
        and (10 * wins >= 9 * rounds or 10 * wins <= rounds)
        and abs(base["median_s"] - change["median_s"]) > q3 - q1
    )


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


def package_commit(src: Path) -> str | None:
    """``git rev-parse HEAD`` next to the package in ``src``, with a
    ``+dirty`` suffix when the package's files differ from that commit, or
    None when git cannot tell."""

    def git(*argv):
        cwd = src / "orbitcalc"
        return subprocess.run(["git", *argv], cwd=cwd, capture_output=True, text=True)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return None
        dirty = git("diff", "--quiet", "HEAD", "--", ".").returncode != 0
    except OSError:
        return None
    return head.stdout.strip() + ("+dirty" if dirty else "")


def package_lines(src: Path) -> int:
    """Lines in the ``*.py`` files of the package in ``src``, as ``wc -l``
    counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (src / "orbitcalc").glob("*.py"))


def load(src: Path, name: str):
    """Import the package in ``src`` as ``name``, in place of any earlier
    one of that name, and return its ``verify`` module.  The package's
    imports are relative, so its modules load as ``name.*``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    init = src / "orbitcalc" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.verify")


def seconds_per_pass(run_suite, name: str, bound: int, passes: int) -> float:
    gc.collect()  # each timed run starts with empty collector generations, on both sides
    start = time.perf_counter()
    for _ in range(passes):
        run_suite(name, bound)
    return (time.perf_counter() - start) / passes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base-rev", required=True, help="a git revision of this repository")
    parser.add_argument("--runs", type=int, default=10, help="rounds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            src, commit = export(args.base_rev, Path(tmp))
        except subprocess.CalledProcessError as exc:
            parser.error(f"--base-rev {args.base_rev}: {exc.stderr.decode().strip()}")
        return compare(src, commit, args.runs, args.out)


def compare(base_src: Path, base_commit: str, rounds: int, out_path: str) -> int:
    """Run ``rounds`` alternating rounds on the base and the change, print
    the comparison and write the record to ``out_path``."""
    srcs = {"base": base_src, "change": HERE.parent / "src"}
    runs = {
        name: {"passes": [], "identical": True, "base": [], "change": []}
        for name, _, _ in ACCEPTANCE_BOUNDS
    }
    cli = {side: {name: [] for name in cli_mix.COMMANDS} for side in SIDES}
    outputs: dict[str, dict] = {side: {} for side in SIDES}
    for i in range(rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        # fresh copies each round, loaded in the round's order: with the two
        # copies loaded once, one of them can run a suite a few per cent
        # faster in every round, on the same source
        run_suite = {side: load(srcs[side], f"orbitcalc_{side}").run_suite for side in order}
        for name, bound, _ in ACCEPTANCE_BOUNDS:
            # both warm-ups come first, so that each timed run follows a run
            # of the same suite on the other side
            run, warm, reports = runs[name], [], set()
            for side in order:
                start = time.perf_counter()
                report = run_suite[side](name, bound).to_json_dict()
                reports.add(json.dumps(report, sort_keys=True))
                warm.append(time.perf_counter() - start)
            run["identical"] &= len(reports) == 1
            run["passes"].append(max(1, math.ceil(MIN_TIMED_S / min(warm))))
            best = {side: math.inf for side in order}
            for _ in range(REPEATS):
                for side in order:
                    seconds = seconds_per_pass(run_suite[side], name, bound, run["passes"][-1])
                    best[side] = min(best[side], seconds)
            for side in order:
                run[side].append(best[side])
        for name, argv in cli_mix.COMMANDS.items():
            for side in order:
                code, out, seconds = cli_mix.run_subprocess(argv, cli_mix.child_env(srcs[side]))
                cli[side][name].append(seconds)
                outputs[side][name] = (code, out)
        print(f"round {i + 1}/{rounds} done", file=sys.stderr)
    suites = {}
    for name, bound, _ in ACCEPTANCE_BOUNDS:
        run = runs[name]
        ratios = [b / c for b, c in zip(run["base"], run["change"])]
        suites[name] = record = {
            "bound": bound,
            "passes": run["passes"],
            "reports_identical": run["identical"],
            "base": summary(run["base"]),
            "change": summary(run["change"]),
            "ratios_base_over_change": [round(r, 4) for r in ratios],
            "ratio": summary(ratios, suffix=""),
            "change_wins": sum(r > 1 for r in ratios),
        }
        record["resolved"] = resolved(
            rounds, record["change_wins"], record["base"], record["change"]
        )
        med, (q1, q3) = record["ratio"].values()
        print(
            f"{name:<14} x{max(run['passes']):<3} base {record['base']['median_s'] * 1e3:8.3f} ms"
            f"  change {record['change']['median_s'] * 1e3:8.3f} ms  base/change {med:.3f}"
            f" [{q1:.3f}, {q3:.3f}]  change won {record['change_wins']}/{rounds}"
            f"  resolved: {str(record['resolved']).lower()}"
        )
    differ = [name for name, record in suites.items() if not record["reports_identical"]]
    print(f"suite reports  outputs differ: {differ or 'none'}")
    cli_stats = {side: startup(times) for side, times in cli.items()}
    pooled = {side: stats["pooled"] for side, stats in cli_stats.items()}
    cli_ratio = round(pooled["base"]["median_s"] / pooled["change"]["median_s"], 2)
    cli_differ = [n for n in cli_mix.COMMANDS if outputs["base"][n] != outputs["change"][n]]
    print(
        f"cli pooled     base {pooled['base']['median_s']:8.4f}s {pooled['base']['quartiles_s']}  "
        f"change {pooled['change']['median_s']:8.4f}s {pooled['change']['quartiles_s']}  "
        f"base/change {cli_ratio:.2f}  outputs differ: {cli_differ or 'none'}"
    )
    lines = {side: package_lines(src) for side, src in srcs.items()}
    print(f"src_lines      base {lines['base']}  change {lines['change']}")
    commits = {"base": base_commit, "change": package_commit(srcs["change"])}
    record = {
        "rounds": rounds,
        "order": "in one interpreter; base runs first in odd rounds, change in even ones",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **{side: {"commit": commits[side], "src_lines": lines[side]} for side in SIDES},
        "suites": suites,
        "suites_differ": differ,
        "cli_startup": {
            "command": "python -m orbitcalc.cli ARGV, cwd perfbench/cli, spawn to exit",
            **cli_stats,
            "pooled_speedup_base_over_change": cli_ratio,
            "outputs_differ": cli_differ,
        },
    }
    Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
