"""In-memory span tracer that wraps orbitcalc's public functions from outside.

Nothing inside the package is instrumented.  ``install`` replaces each
function listed in ``LAYERS`` with a wrapper, both on its defining module or
class and in every ``orbitcalc`` module that imported it by name, and
returns an undo callable.  Every call becomes a span (function, parent,
root, start, end); a span's self time is its duration minus the durations
of its direct child spans.  Generators get one span per ``next``; a call of
a function from directly inside its own span (recursion) is folded into the
enclosing span.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# module -> [(attribute path, metric name)]; names become
# "<module>.<metric>.calls" and "<module>.<metric>.self_s"
LAYERS = {
    "moment_oracle": [
        ("classify_signed", "classify_signed"),
        ("FormSpec.contains", "FormSpec.contains"),
        ("RationalMatrix.__matmul__", "matmul"),
        ("RationalMatrix.rank", "rank"),
        ("RationalMatrix.kernel_basis", "kernel_basis"),
        ("symmetric_signature", "symmetric_signature"),
        ("build_witness", "build_witness"),
        ("witness_block_part", "witness_block_part"),
        ("random_form_preserving", "random_form_preserving"),
        ("conjugate", "conjugate"),
    ],
    "verify": [("run_suite", "run_suite")],
    "tower": [
        ("class_u", "class_u"),
        ("check_lemma_pm", "check_lemma_pm"),
        ("check_range", "check_range"),
        ("check_non3", "check_non3"),
        ("certificate", "certificate"),
    ],
    "theta_orbits": [
        ("chain", "chain"),
        ("deletion_inertia", "deletion_inertia"),
        ("in_moment_image", "in_moment_image"),
    ],
    "enumeration": [
        ("signed_diagrams", "signed_diagrams"),
        ("diagrams_for_shape", "diagrams_for_shape"),
        ("partitions", "partitions"),
    ],
    "diagram_core": [
        ("validate_signed", "validate_signed"),
        ("canonicalize", "canonicalize"),
        ("delete_column_signed", "delete_column_signed"),
        ("from_row_spec", "from_row_spec"),
    ],
    "orbit_induction": [
        ("induce_real", "induce_real"),
        ("induce_real_tau", "induce_real_tau"),
    ],
    "infchar": [
        ("infchar_segments", "infchar_segments"),
        ("infchar_domino", "infchar_domino"),
        ("check_bound", "check_bound"),
    ],
    "vector_order": [
        ("seq_preceq", "seq_preceq"),
        ("bar_sort", "bar_sort"),
        ("dominance_leq", "dominance_leq"),
    ],
}

SUITES = (
    "reasonss", "lemma-pm", "reversal", "bounds", "domino-oracle",
    "twocom", "induce-oracle", "conjugation", "non3", "appendix",
)
SUBCOMMANDS = (
    "validate", "classify", "tower", "induce", "infchar", "chain",
    "oracle", "render", "enumerate", "verify", "wf-ialpha",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans: list = []  # (fid, parent, root, start_ns, end_ns)
        self.stack: list[list[int]] = []  # [fid, span index, root, start, child_ns]
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.entries = self.nonzero = 0  # of classify_signed inputs
        self.members = 0  # class_u calls that accepted
        self.admissible: set = set()  # distinct diagrams class_u accepted

    def fid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    def enter(self, fid: int) -> list[int]:
        idx = len(self.spans)
        self.spans.append(None)
        root = self.stack[-1][2] if self.stack else idx
        frame = [fid, idx, root, 0, 0]
        self.stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def exit(self, frame: list[int]) -> int:
        end = time.perf_counter_ns()
        self.stack.pop()
        fid, idx, root, start, child = frame
        dur = end - start
        self.self_ns[fid] += dur - child
        parent = -1
        if self.stack:
            self.stack[-1][4] += dur
            parent = self.stack[-1][1]
        self.spans[idx] = (fid, parent, root, start, end)
        return dur

    def in_own_span(self, fid: int) -> bool:
        return bool(self.stack) and self.stack[-1][0] == fid

    def calls_by_name(self) -> dict[str, int]:
        return dict(zip(self.names, self.calls))

    def write_spans(self, path) -> None:
        with open(path, "w") as out:
            out.write("span\tparent\troot\tname\tstart_ns\tend_ns\n")
            for idx, (fid, parent, root, start, end) in enumerate(self.spans):
                out.write(f"{idx}\t{parent}\t{root}\t{self.names[fid]}\t{start}\t{end}\n")


# ---------------------------------------------------------------------------
# wrappers


def _wrap_function(tracer: Tracer, fid: int, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.in_own_span(fid):
            return fn(*args, **kwargs)
        tracer.calls[fid] += 1
        frame = tracer.enter(fid)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = tracer.exit(frame)
        if hook is not None:
            hook(tracer, args, out, dur)
        return out

    return traced


def _wrap_generator(tracer: Tracer, fid: int, fn, yielded: str):
    def iterate(gen):
        while True:
            frame = tracer.enter(fid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit(frame)
            tracer.counts[yielded] += 1
            yield item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.in_own_span(fid):
            return fn(*args, **kwargs)
        tracer.calls[fid] += 1
        return iterate(fn(*args, **kwargs))

    return traced


def _wrap_cli_main(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(argv=None):
        fid = tracer.fid(f"cli.{argv[0]}")
        tracer.calls[fid] += 1
        frame = tracer.enter(fid)
        try:
            return fn(argv)
        finally:
            tracer.exit(frame)

    return traced


# hooks: (tracer, args, result, duration_ns) -> None; counters named like a
# catalogue metric are reported as they are


def _matmul_hook(tracer, args, out, dur):
    a, b = args
    tracer.counts["moment_oracle.matmul.mult_adds"] += a.nrows * a.ncols * b.ncols


def _classify_hook(tracer, args, out, dur):
    x = args[0]
    tracer.counts["moment_oracle.classify_signed.dim_sum"] += x.nrows
    tracer.entries += x.nrows * x.ncols
    tracer.nonzero += sum(1 for row in x.entries for v in row if v)


def _class_u_hook(tracer, args, out, dur):
    if out.member:
        tracer.members += 1
        tracer.admissible.add(args[0])


def _run_suite_hook(tracer, args, out, dur):
    tracer.counts[f"verify.{out.name}.s"] += dur / 1e9
    tracer.counts[f"verify.{out.name}.checked"] += out.checked


HOOKS = {
    "moment_oracle.matmul": _matmul_hook,
    "moment_oracle.classify_signed": _classify_hook,
    "tower.class_u": _class_u_hook,
    "verify.run_suite": _run_suite_hook,
}


def _package_modules() -> list:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "orbitcalc" or name.startswith("orbitcalc."))
    ]


def rebind(owner, attr: str, replacement) -> list[tuple]:
    """Set owner.attr to replacement; for a module-level function also every
    orbitcalc module binding the same object by name.  Returns the undo list."""
    original = getattr(owner, attr)
    undo = [(owner, attr, original)]
    setattr(owner, attr, replacement)
    if inspect.ismodule(owner):
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, original))
                    setattr(module, name, replacement)
    return undo


def restore(undo: list[tuple]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def install(tracer: Tracer):
    """Wrap every LAYERS function and cli.main; returns the undo callable."""
    undo: list[tuple] = []
    for layer, entries in LAYERS.items():
        module = sys.modules[f"orbitcalc.{layer}"]
        for path, metric in entries:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{layer}.{metric}"
            fid = tracer.fid(name)
            fn = getattr(owner, attr)
            if inspect.isgeneratorfunction(fn):
                wrapper = _wrap_generator(tracer, fid, fn, f"{name}.yielded")
            else:
                wrapper = _wrap_function(tracer, fid, fn, HOOKS.get(name))
            undo += rebind(owner, attr, wrapper)
    for sub in SUBCOMMANDS:
        tracer.fid(f"cli.{sub}")
    cli = sys.modules.get("orbitcalc.cli")
    if cli is not None:
        undo += rebind(cli, "main", _wrap_cli_main(tracer, cli.main))
    return lambda: restore(undo)


# ---------------------------------------------------------------------------
# metrics


# metrics reported besides .calls and .self_s, as (suffix, unit, better)
EXTRAS = {
    "moment_oracle.matmul": [("mult_adds", "count", "lower")],
    "moment_oracle.classify_signed": [("dim_sum", "count", "lower"), ("nnz_frac", "ratio", "lower")],
    "tower.class_u": [("member_frac", "ratio", "higher")],
    "theta_orbits.chain": [("per_member", "ratio", "lower")],
    "enumeration.signed_diagrams": [("yielded", "count", "lower")],
}


def catalogue() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    functions = [f"{layer}.{m}" for layer, entries in LAYERS.items() for _, m in entries]
    for name in functions + [f"cli.{sub}" for sub in SUBCOMMANDS]:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        out += [(f"{name}.{suffix}", unit, better) for suffix, unit, better in EXTRAS.get(name, [])]
        if name == "verify.run_suite":
            for suite in SUITES:
                out.append((f"verify.{suite}.s", "s", "lower"))
                out.append((f"verify.{suite}.checked", "count", "higher"))
    out.append(("cli.interpreter_ms", "ms", "lower"))
    out.append(("cli.import_ms", "ms", "lower"))
    out.append(("trace.overhead_s", "s", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    out.append(("trace.spans", "count", "lower"))
    return out


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Span-derived metric values; names not called are absent."""
    values: dict[str, float] = dict(tracer.counts)
    for name, fid in tracer._ids.items():
        values[f"{name}.calls"] = tracer.calls[fid]
        values[f"{name}.self_s"] = tracer.self_ns[fid] / 1e9
    if tracer.entries:
        values["moment_oracle.classify_signed.nnz_frac"] = tracer.nonzero / tracer.entries
    if tracer.members:
        values["tower.class_u.member_frac"] = tracer.members / values["tower.class_u.calls"]
        values["theta_orbits.chain.per_member"] = (
            values["theta_orbits.chain.calls"] / len(tracer.admissible)
        )
    values["trace.spans"] = len(tracer.spans)
    return values


# ---------------------------------------------------------------------------
# self-check on a synthetic nested call


def selfcheck() -> bool:
    """Self time must equal span time minus child span time, exactly."""

    def spin(n):
        total = 0
        for i in range(n):
            total += i
        return total

    tracer = Tracer()
    inner_fid = tracer.fid("inner")
    outer_fid = tracer.fid("outer")
    inner = _wrap_function(tracer, inner_fid, spin)

    def outer_body(n):
        spin(n)
        return inner(n) + inner(2 * n)

    outer = _wrap_function(tracer, outer_fid, outer_body)
    outer(20000)
    outer_span = [s for s in tracer.spans if s[0] == outer_fid]
    inner_spans = [s for s in tracer.spans if s[0] == inner_fid]
    if len(outer_span) != 1 or len(inner_spans) != 2:
        return False
    (_, parent, root, o_start, o_end), = outer_span
    child = sum(end - start for _, _, _, start, end in inner_spans)
    return (
        tracer.calls == [2, 1]
        and all(s[1] == 0 and s[2] == 0 for s in inner_spans)
        and tracer.self_ns[outer_fid] == (o_end - o_start) - child
        and tracer.self_ns[inner_fid] == child
        and tracer.self_ns[outer_fid] > 0
    )
