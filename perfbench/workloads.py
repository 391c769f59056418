"""The four workloads.  Each one sets up its inputs from the seed, then runs
rounds: a round is a fixed unit of work whose outputs are checked by a route
independent of the code under test.

oracle-sparse   run_suite("induce-oracle", 8): the witness grid, sparse
                integer matrices; latency is per classify_signed call.
oracle-dense    classify_signed on Cayley-conjugated witnesses and
                representatives: dense matrices with large numerators and
                denominators; one call per matrix per round.
diagram-sweep   run_suite on the eight diagram-side suites, never the
                oracle; latency is per run_suite call.
cli-mix         one closed-loop client running `python -m orbitcalc.cli`
                over a fixed command mix; latency is spawn to exit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from orbitcalc import moment_oracle as mo
from orbitcalc import verify
from orbitcalc.diagram_core import Kind, equivalent
from orbitcalc.enumeration import signed_diagrams
from orbitcalc.orbit_induction import induce_real

import cli_mix
from calibration import scale
from tracer import rebind, restore

SPARSE_BOUND = 8

# (suite, bound) for diagram-sweep; a round takes about 1.3 s on 2 cores
SWEEP = (
    ("lemma-pm", 14),
    ("non3", 14),
    ("bounds", 14),
    ("reasonss", 10),
    ("reversal", 12),
    ("domino-oracle", 20),
    ("twocom", 20),
    ("appendix", 20),
)

# case counts recorded at the commit that introduced the benchmark; a suite
# passes only with exactly this many cases
EXPECTED_CHECKED = {
    ("induce-oracle", 8): 24,
    ("lemma-pm", 14): 412,
    ("non3", 14): 412,
    ("bounds", 14): 76,
    ("reasonss", 10): 516,
    ("reversal", 12): 570,
    ("domino-oracle", 20): 848,
    ("twocom", 20): 42,
    ("appendix", 20): 1327,
}

DENSE_SIZES = (4, 6, 8)  # representatives of every symplectic diagram of these sizes
WITNESS_NS = (3, 4)  # witnesses build_witness(s, n, j) for |s| <= 4
CONJUGATORS = 8  # random form-preserving matrices drawn per dimension


@dataclass
class Round:
    seconds: float = 0.0  # wall clock of the timed work
    work: int = 0  # suite cases, oracle calls or commands completed
    latencies: list[float] = field(default_factory=list)
    # the same at the reference machine speed (calibration.py)
    scaled_seconds: float = 0.0
    scaled: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures that are not known defects

    def rescale(self, k: float) -> None:
        self.scaled_seconds = self.seconds * k
        self.scaled = [x * k for x in self.latencies]

    def check(self, ok: bool, known_defect: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected += not known_defect


def _suite_ok(name: str, bound: int, rep) -> bool:
    return rep.passed and rep.checked > 0 and rep.checked == EXPECTED_CHECKED[(name, bound)]


class Workload:
    name: str
    imports: str  # module whose fresh import set-up pays
    runs_in_children = False  # the timed work runs in child processes

    def setup(self, seed: int) -> None:
        """Build the inputs; the same seed gives the same inputs."""

    def round(self) -> Round:
        raise NotImplementedError

    def in_process_round(self) -> Round:
        """The round the traced run measures; it must run in this process."""
        return self.round()

    def finish(self) -> Round:
        """Checks made once after the timed rounds."""
        return Round()


class OracleSparse(Workload):
    name = "oracle-sparse"
    imports = "orbitcalc.verify"

    def round(self) -> Round:
        out = Round()
        original = mo.classify_signed

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                out.latencies.append(time.perf_counter() - start)

        undo = rebind(mo, "classify_signed", timed)
        try:
            start = time.perf_counter()
            rep = verify.run_suite("induce-oracle", SPARSE_BOUND)
            out.seconds = time.perf_counter() - start
        finally:
            restore(undo)
        out.work = rep.checked
        out.check(_suite_ok("induce-oracle", SPARSE_BOUND, rep))
        return out


class OracleDense(Workload):
    name = "oracle-dense"
    imports = "orbitcalc.moment_oracle"

    @staticmethod
    def sources() -> list[tuple]:
        """(matrix, form, label) with the label known by construction:
        representative(d) is d, and the j-th witness lands on the j-th
        orbit of the combinatorial induction.  Sorted by a key of the
        inputs, so that the seeded draws do not depend on enumeration order."""

        def key(d):
            return tuple((r.length, r.leading.char) for r in d.rows)

        keyed = []
        for size in DENSE_SIZES:
            form = mo.FormSpec.symplectic(size)
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                keyed.append(((0, size, key(d)), (mo.representative(d), form, d)))
        for size in range(0, 5, 2):
            for s in signed_diagrams(Kind.SYMPLECTIC, size=size):
                for n in WITNESS_NS:
                    if n - size // 2 < len(s.rows):
                        continue
                    form = mo.FormSpec.symplectic(2 * n)
                    for j, label in enumerate(induce_real(s, n).diagrams):
                        keyed.append(((1, n, key(s), j), (mo.build_witness(s, n, j), form, label)))
        return [item for _, item in sorted(keyed, key=lambda pair: pair[0])]

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)  # the conjugators depend on the seed only
        pools: dict = {}
        self.items = []
        for x, form, label in self.sources():
            if form not in pools:
                pools[form] = [mo.random_form_preserving(form, rng) for _ in range(CONJUGATORS)]
            g = rng.choice(pools[form])
            self.items.append((mo.conjugate(g, x), form, label, x))

    def round(self) -> Round:
        out = Round()
        start = time.perf_counter()
        for y, form, label, _ in self.items:
            call = time.perf_counter()
            try:
                got = mo.classify_signed(y, form)
            except ValueError:
                got = None
            out.latencies.append(time.perf_counter() - call)
            out.check(got is not None and equivalent(got, label))
        out.seconds = time.perf_counter() - start
        out.work = len(self.items)
        return out

    def finish(self) -> Round:
        """Each unconjugated source classifies to the same label."""
        out = Round()
        for _, form, label, x in self.items:
            out.check(equivalent(mo.classify_signed(x, form), label))
        return out


class DiagramSweep(Workload):
    name = "diagram-sweep"
    imports = "orbitcalc.verify"

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)  # only the suite order depends on it

    def round(self) -> Round:
        out = Round()
        order = list(SWEEP)
        self.rng.shuffle(order)
        round_start = time.perf_counter()
        for name, bound in order:
            start = time.perf_counter()
            rep = verify.run_suite(name, bound)
            out.latencies.append(time.perf_counter() - start)
            out.work += rep.checked
            out.check(_suite_ok(name, bound, rep))
        out.seconds = time.perf_counter() - round_start
        return out


class CliMix(Workload):
    name = "cli-mix"
    imports = "orbitcalc.cli"
    runs_in_children = True

    def __init__(self, src) -> None:
        self.env = cli_mix.child_env(src)

    def setup(self, seed: int) -> None:
        self.rng = random.Random(seed)  # only the command order depends on it
        self.expected = cli_mix.load_expected()

    def _round(self, run, calibrate: bool) -> Round:
        out = Round()
        names = list(cli_mix.COMMANDS)
        self.rng.shuffle(names)
        before = cli_mix.calibrate_child(self.env) if calibrate else None
        start = time.perf_counter()
        for name in names:
            code, stdout, seconds = run(cli_mix.COMMANDS[name])
            out.latencies.append(seconds)
            if calibrate:
                after = cli_mix.calibrate_child(self.env)
                out.scaled.append(seconds * scale(before, after))
                before = after
            want = self.expected[name]
            out.check(
                code == want["exit"] and stdout == want["stdout"],
                known_defect=name in cli_mix.KNOWN_DEFECTS,
            )
        out.seconds = sum(out.latencies) if calibrate else time.perf_counter() - start
        out.scaled_seconds = sum(out.scaled)
        out.work = len(names)
        return out

    def round(self) -> Round:
        """Each command is scaled by calibration children spawned just
        before and after it; cases_per_s counts command time only."""
        return self._round(lambda argv: cli_mix.run_subprocess(argv, self.env), calibrate=True)

    def in_process_round(self) -> Round:
        return self._round(cli_mix.run_in_process, calibrate=False)


def make(name: str, src):
    if name == CliMix.name:
        return CliMix(src)
    return {w.name: w for w in (OracleSparse, OracleDense, DiagramSweep)}[name]()


NAMES = (OracleSparse.name, OracleDense.name, DiagramSweep.name, CliMix.name)
