#!/usr/bin/env python3
"""orbitcalc benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload oracle-sparse --seed 1 --seconds 25 --trace 0

Workloads: oracle-sparse, oracle-dense, diagram-sweep, cli-mix (see
workloads.py and README.md).  The package is imported from src/ of the
checkout this file sits in; ORBITCALC_THREADS is dropped from the
environment, so every workload runs in one process (cli-mix: one child at
a time).

--trace 0  set up several times (setup_s is the median), then run whole
           rounds until --seconds have passed; end-to-end metrics, with
           times scaled to the reference machine speed (calibration.py).
--trace 1  two untraced and two traced passes of one in-process round,
           alternating; per-layer metrics from the first traced pass, spans
           written to perfbench/out/, and the tracing overhead.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
"correct" is false when a check fails that is not a known defect; known
defects still count in "failed".
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate, scale
from cli_mix import child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
STARTUP_REPS = 5
MIN_SAMPLES = 100  # latency samples per run, so that p90 has ten beyond it


def import_seconds(module: str) -> tuple[float, float]:
    """(scaled, raw) import time of module in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "calibration.py"), module],
        env=child_env(SRC), capture_output=True, text=True, check=True,
    )
    scaled, raw = proc.stdout.split()
    return float(scaled), float(raw)


def startup_ms() -> tuple[float, float]:
    """(interpreter start, import of orbitcalc.cli beyond it), medians in ms,
    both measured from spawn to exit of a child."""

    def wall(code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(SRC), check=True)
        return (time.perf_counter() - start) * 1e3

    bare = statistics.median(wall("pass") for _ in range(STARTUP_REPS))
    cli = statistics.median(wall("import orbitcalc.cli") for _ in range(STARTUP_REPS))
    return bare, cli - bare


def measure(wl, seed: int, seconds: int) -> tuple[dict, list]:
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        imported, raw_imported = import_seconds(wl.imports)
        before = calibrate()
        start = time.perf_counter()
        wl.setup(seed)
        generated = time.perf_counter() - start
        setups.append(imported + generated * scale(before, calibrate()))
        raw_setups.append(raw_imported + generated)

    rounds, latencies = [], []
    start = time.perf_counter()
    before = calibrate()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_SAMPLES:
        rounds.append(wl.round())
        if not wl.runs_in_children:  # a child-process round scales itself
            after = calibrate()
            rounds[-1].rescale(scale(before, after))
            before = after
        latencies += rounds[-1].scaled
    checks = rounds + [wl.finish()]

    raw_rates = [r.work / r.seconds for r in rounds]
    speed = [r.scaled_seconds / r.seconds for r in rounds]
    who = resource.RUSAGE_CHILDREN if wl.runs_in_children else resource.RUSAGE_SELF
    attempted = sum(r.attempted for r in checks)
    failed = sum(r.failed for r in checks)
    metrics = {
        "cases_per_s": (statistics.median(r.work / r.scaled_seconds for r in rounds), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    raw = [x for r in rounds for x in r.latencies]
    print(
        f"# {wl.name} seed={seed}: {len(rounds)} rounds, {len(latencies)} latency samples, "
        f"{failed} of {attempted} checks failed; the machine ran at "
        f"{statistics.median(speed):.3f} x the reference speed; unscaled cases_per_s "
        f"{statistics.median(raw_rates):.4f}, latency_p50_ms {statistics.median(raw) * 1e3:.4f}, "
        f"latency_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.4f}, "
        f"setup_s {statistics.median(raw_setups):.4f}"
    )
    return metrics, checks


def traced(wl, seed: int) -> tuple[dict, list]:
    import tracer as tr
    from workloads import Round

    wl.setup(seed)
    selfcheck_ok = tr.selfcheck()
    # untraced and traced passes alternate so that drift hits both sides
    untraced, passes = [], []
    for _ in range(2):
        untraced.append(wl.in_process_round())
        tracer = tr.Tracer()
        undo = tr.install(tracer)
        try:
            passes.append((tracer, wl.in_process_round()))
        finally:
            undo()
    (first, _), (second, _) = passes
    calls_repeat = first.calls_by_name() == second.calls_by_name()
    checks = untraced + [r for _, r in passes] + [wl.finish()]
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for _, r in passes)

    values = tr.layer_values(first)
    values["trace.overhead_s"] = (traced_s - untraced_s) / 2
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    values["cli.interpreter_ms"], values["cli.import_ms"] = startup_ms()
    metrics = {name: (values.get(name, 0), unit) for name, unit, _ in tr.catalogue()}

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.tsv"
    first.write_spans(spans_path)
    print(
        f"# {wl.name} seed={seed}: two traced passes {traced_s:.3f}s vs two untraced "
        f"{untraced_s:.3f}s, {len(first.spans)} spans -> {spans_path.relative_to(ROOT)}; "
        f"self-time check {'ok' if selfcheck_ok else 'FAILED'}, "
        f"call counts {'repeat' if calls_repeat else 'DIFFER'} across two traced passes"
    )
    if not (selfcheck_ok and calls_repeat):
        checks.append(Round(attempted=1, failed=1, unexpected=1))
    return metrics, checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "orbitcalc" / "__init__.py").is_file():
        print(f"error: no orbitcalc sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    os.environ.pop("ORBITCALC_THREADS", None)
    sys.path.insert(0, str(SRC))
    import orbitcalc.cli  # loads every module, so the tracer can find them all

    if Path(orbitcalc.cli.__file__).resolve().parent != SRC / "orbitcalc":
        print(f"error: orbitcalc imported from {orbitcalc.cli.__file__}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, SRC)
    if args.trace:
        metrics, checks = traced(wl, args.seed)
    else:
        metrics, checks = measure(wl, args.seed, args.seconds)
    result = {
        "correct": all(c.unexpected == 0 for c in checks),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
