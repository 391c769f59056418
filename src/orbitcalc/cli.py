"""Command-line surface.

Subcommands: validate, classify, tower, induce, infchar, chain, oracle,
render, enumerate, verify, wf-ialpha.  Exit codes: 0 ok, 1 check failed,
2 usage or malformed input, 141 stdout closed early (as for SIGPIPE).  All
output is deterministic for fixed input.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import diagram_core as dc
from .diagram_core import ORTHOGONAL, SYMPLECTIC, Kind, Partition, Signature

if TYPE_CHECKING:
    from .moment_oracle import FormSpec

# Each command imports the modules it runs once its input has passed the
# checks, so that validate, render and the usage errors of every command but
# oracle (whose matrices moment_oracle parses) load diagram_core alone.

USAGE_ERROR = 2
CHECK_FAILED = 1
BROKEN_PIPE = 141


class CliError(Exception):
    """Malformed input or bad arguments; exits with the usage code."""


def _kind(token: str) -> Kind:
    if token in ("sp", "symplectic"):
        return SYMPLECTIC
    if token in ("o", "orthogonal"):
        return ORTHOGONAL
    raise CliError(f"unknown kind {dc.brief(token, repr)}; use sp or o")


def _nonnegative(option: str, value: int) -> int:
    if value < 0:
        raise CliError(f"{option} must be nonnegative, got {dc.brief(str(value))}")
    return value


def _integer(text: str) -> int:
    """An integer option, read by ``int`` as argparse reads one, which refuses
    more digits than Python's limit; the refusal shows a long value by a
    prefix."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {dc.brief(text, repr)}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None


def _json_int(digits: str) -> int:
    """A JSON integer, refused past Python's digit limit without its advice."""
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) - digits.startswith("-") > limit:
        raise ValueError(f"an integer of more than {limit} digits")
    return int(digits)


def _load(path: str, build, what: str = ""):
    """``build`` applied to the JSON value in the file at ``path``.  Malformed
    input is a usage error, nesting too deep to decode or to build included."""
    text = _read(path)
    try:
        return build(json.loads(text, parse_int=_json_int))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: {what}{exc}") from None


def _partition(data) -> Partition:
    if not isinstance(data, list):
        raise ValueError("expected a list of integer row lengths")
    return Partition(tuple(data))


def _checked_rows(data) -> tuple[Kind, tuple[dc.SignedRow, ...]]:
    """Schema and shape problems are usage errors; convention violations
    are findings."""
    kind, rows = dc.parse_json_rows(data)
    Partition(tuple(length for length, _ in rows))
    return kind, rows


def _emit(data: dict | list, as_json: bool, pretty: str) -> None:
    print(json.dumps(data, indent=2, sort_keys=True) if as_json else pretty)


# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    violations = dc.validate_signed(*_load(args.diagram, _checked_rows))
    _emit(
        {"valid": not violations, "violations": violations},
        args.json,
        "invalid: " + "; ".join(violations) if violations else "valid",
    )
    return CHECK_FAILED if violations else 0


def cmd_classify(args) -> int:
    d = _load(args.diagram, dc.from_json_dict)
    report = dc.class_u(d)
    data = {
        "group": dc.group_of(d),
        "signature": list(dc.signature(d)),
        "shape": d.shape().to_json(),
        "class_u": report.to_json_dict(),
    }
    pretty = "\n".join(
        [
            f"group: {data['group']}",
            f"signature: ({data['signature'][0]},{data['signature'][1]})",
            f"admissible: {'yes' if report.member else 'no'}",
        ]
        + [f"  - {r}" for r in report.reasons]
    )
    _emit(data, args.json, pretty)
    return 0 if report.member else CHECK_FAILED


def cmd_tower(args) -> int:
    d = _load(args.diagram, dc.from_json_dict)
    from .tower import NotAdmissible, certificate
    from .vector_order import vector_to_json

    try:
        cert = certificate(d)
    except NotAdmissible as exc:
        _emit(
            {"valid": False, "class_u": exc.report.to_json_dict()},
            args.json,
            "not admissible: " + "; ".join(exc.report.reasons),
        )
        return CHECK_FAILED
    data = cert.to_json_dict()
    groups = data["groups"]
    lines = [
        f"tower of {data['group']}:",
        "  " + " -> ".join(groups),
        "  signatures: " + " ".join(f"({s.plus},{s.minus})" for s in cert.tower.sig[1:]),
    ]
    for k, records in enumerate(cert.records, start=1):
        flags = [
            f"{label}:{'ok' if rec.ok else 'FAIL'}"
            for label, rec in zip(("pm", "range", "non3"), records)
            if rec is not None
        ]
        lines.append(f"  step {k}: {groups[k - 1]} " + " ".join(flags))
    lines.append("  infchar: " + " ".join(vector_to_json(cert.infchar)))
    lines.append(f"  associated variety: {d.shape()}")
    lines.append("  certificate: " + ("VALID" if cert.valid else "INVALID"))
    _emit(data, args.json, "\n".join(lines))
    return 0 if cert.valid else CHECK_FAILED


def cmd_induce(args) -> int:
    s = _load(args.diagram, dc.from_json_dict)
    from .orbit_induction import induce_real, induce_real_tau

    try:
        result = (induce_real_tau if args.tau else induce_real)(s, args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    data = {
        "count": result.count,
        "new_columns": result.new_columns,
        "diagrams": [dc.to_json_dict(d) for d in result.diagrams],
    }
    _emit(data, args.json, "\n\n".join(dc.render_ascii(d) for d in result.diagrams))
    return 0


def cmd_infchar(args) -> int:
    d = _load(args.partition, _partition, "not a partition: ")
    kind = _kind(args.kind)
    if not dc.validate_partition_kind(d, kind):
        raise CliError(f"{args.partition}: {d} is not a valid {kind.value} shape")
    from .infchar import infchar_domino, infchar_segments
    from .vector_order import bar_sort, vector_to_json

    segments = infchar_segments(d, kind)
    data: dict = {
        "segments": vector_to_json(segments),
        "sorted": vector_to_json(bar_sort(segments)),
    }
    try:
        domino = infchar_domino(d, kind)
        data["domino"] = vector_to_json(domino)
        data["agree"] = domino == bar_sort(segments)
    except ValueError as exc:
        data["domino"] = None
        data["domino_error"] = str(exc)
        data["agree"] = None
    pretty = [
        "segments: " + " ".join(data["segments"]),
        "domino:   "
        + (" ".join(data["domino"]) if data["domino"] is not None else f"({data['domino_error']})"),
        f"agree: {data['agree']}",
    ]
    _emit(data, args.json, "\n".join(pretty))
    return 0 if data["agree"] is not False else CHECK_FAILED


def cmd_chain(args) -> int:
    d = _load(args.diagram, dc.from_json_dict)
    from .theta_orbits import chain

    steps = chain(d)
    groups = [dc.group_of(step) for step in steps]
    data = [{"diagram": dc.to_json_dict(step), "group": g} for step, g in zip(steps, groups)]
    _emit({"chain": data}, args.json, " -> ".join(groups))
    return 0


def cmd_oracle(args) -> int:
    from . import moment_oracle as mo

    matrix = _load(args.matrix, mo.RationalMatrix.from_json)
    form = _parse_form(args.form)
    try:
        d = mo.classify_signed(matrix, form)
    except ValueError as exc:
        print(f"classification failed: {exc}")
        return CHECK_FAILED
    _emit(
        {"diagram": dc.to_json_dict(d), "group": dc.group_of(d)},
        args.json,
        dc.render_ascii(d) + f"\n{dc.group_of(d)}",
    )
    return 0


def _parse_form(token: str) -> FormSpec:
    from .moment_oracle import FormSpec

    try:
        head, params = token.split(":", 1)
        numbers = tuple(map(int, params.split(",")))
        build = {("sp", 1): FormSpec.symplectic, ("o", 2): FormSpec.orthogonal}[head, len(numbers)]
    except (ValueError, KeyError):
        raise CliError(f"bad form {dc.brief(token, repr)}; use sp:2n or o:p,q") from None
    try:
        return build(*numbers)
    except ValueError as exc:  # the token parses, but names no form
        raise CliError(f"bad form {dc.brief(token, repr)}: {exc}") from None


def cmd_render(args) -> int:
    d = _load(args.diagram, dc.from_json_dict)
    print(dc.render_ascii(d))
    return 0


def cmd_enumerate(args) -> int:
    kind = _kind(args.kind)
    sig = None
    if args.signature is not None:
        try:
            p, q = (_nonnegative("signature", int(x)) for x in args.signature.split(","))
        except ValueError:
            raise CliError("signature must be p,q") from None
        sig = Signature(p, q)
    if args.size is not None:
        _nonnegative("--size", args.size)
    from .enumeration import class_count, shapes, signed_diagrams

    diagrams = signed_diagrams(kind, size=args.size, sig=sig)
    try:
        first = next(diagrams, None)  # the generator checks its arguments here
    except ValueError as exc:
        raise CliError(str(exc)) from None
    diagrams = itertools.chain(() if first is None else (first,), diagrams)
    if args.count:
        count = sum(1 for _ in diagrams)
        data = {"count": count}
        if sig is None:
            data["formula"] = sum(class_count(s, kind) for s in shapes(kind, args.size))
        _emit(data, args.json, str(count))
        return 0
    diagrams = list(diagrams)
    _emit(
        [dc.to_json_dict(d) for d in diagrams],
        args.json,
        "\n\n".join(dc.render_ascii(d) for d in diagrams),
    )
    return 0


def cmd_verify(args) -> int:
    bound = _nonnegative("--max", args.max)  # before the import: a usage error loads nothing
    from .verify import SUITES, run_suite

    if args.suite not in SUITES:
        raise CliError(f"unknown suite {dc.brief(args.suite, repr)}; choose from {sorted(SUITES)}")
    rep = run_suite(args.suite, bound)
    status = "pass" if rep.passed else "FAIL"
    lines = [f"{rep.name} (bound {rep.bound}): {status}, {rep.checked} cases"]
    lines += [f"  note: {note}" for note in rep.notes]
    lines += [f"  counterexample: {ce}" for ce in rep.counterexamples]
    _emit(rep.to_json_dict(), args.json, "\n".join(lines))
    return 0 if rep.passed else CHECK_FAILED


def cmd_wf_ialpha(args) -> int:
    n = _nonnegative("--n", args.n)
    from .orbit_induction import two_n_signed, wf_ialpha

    try:
        indices = wf_ialpha(n, args.alpha)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    data = {
        "components": [
            {"plus_rows": i, "diagram": dc.to_json_dict(two_n_signed(n, i))} for i in indices
        ],
        "complete": len(indices) == args.n + 1,
    }
    _emit(data, args.json, " ".join(f"[2^{args.n}]^({i})" for i in indices))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitcalc",
        description="signed Young diagram calculus for real nilpotent orbits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("diagram")
    add_json(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="group and admissibility of a diagram")
    p.add_argument("diagram")
    add_json(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tower", help="full certificate of a diagram")
    p.add_argument("diagram")
    add_json(p)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("induce", help="real induced orbits from a symplectic diagram")
    p.add_argument("diagram")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--tau", action="store_true", help="use the tau variant")
    add_json(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("infchar", help="infinitesimal character of a shape of the given kind")
    p.add_argument("partition")
    p.add_argument("--kind", required=True, help="sp or o")
    add_json(p)
    p.set_defaults(func=cmd_infchar)

    p = sub.add_parser("chain", help="alternating orbit chain of a diagram")
    p.add_argument("diagram")
    add_json(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("oracle", help="matrix-level classification")
    p.add_argument("action", choices=["classify"])
    p.add_argument("matrix")
    p.add_argument("--form", required=True, help="sp:2n or o:p,q")
    add_json(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="ASCII picture of a diagram")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("enumerate", help="stream valid diagrams")
    p.add_argument("--kind", required=True, help="sp or o")
    p.add_argument("--size", type=_integer)
    p.add_argument("--signature", help="p,q")
    p.add_argument("--count", action="store_true", help="print counts only")
    add_json(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--max", type=_integer, required=True, help="size bound")
    add_json(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("wf-ialpha", help="wave-front components of a parity class")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--alpha", type=_integer, required=True)
    add_json(p)
    p.set_defaults(func=cmd_wf_ialpha)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader left early (| head): stdout to devnull, so exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
