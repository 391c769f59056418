"""Acceptance criteria, one test per criterion.

Each test prints one pass/fail line (run with -s to see them live) and
enforces the stated size bounds and wall-clock limits.  The suite bounds
and the case count each suite checks there are pinned in one table,
``ACCEPTANCE_BOUNDS`` in ``scripts/verify_all.py``, which is loaded here by
path; they are not configurable.  Each suite runs once at its bound, and
the last test pins the JSON of all those reports in one digest.
"""

import functools
import hashlib
import importlib.util
import json
import time
from pathlib import Path

from orbitcalc.cli import main
from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Signature,
    equivalent,
    validate_partition_kind,
)
from orbitcalc.enumeration import class_count, shapes, signed_diagrams
from orbitcalc.orbit_induction import induce_real
from orbitcalc.verify import run_suite
from oracles import brute_count, delete_columns, dumps


def _load_verify_all():
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ACCEPTANCE = {
    name: (bound, checked) for name, bound, checked in _load_verify_all().ACCEPTANCE_BOUNDS
}


@functools.cache
def accepted_report(name: str):
    """The report of the suite at its acceptance bound, run once."""
    return run_suite(name, ACCEPTANCE[name][0])


def accepted(name: str):
    """The report of the suite at its acceptance bound, and whether it
    passed having checked exactly the recorded number of cases."""
    rep = accepted_report(name)
    return rep, rep.passed and rep.checked == ACCEPTANCE[name][1]


def report(number: int, ok: bool, elapsed: float, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} ({elapsed:6.2f}s)  {text}")
    assert ok, f"criterion {number}: {text}"


def timed(limit: float):
    start = time.monotonic()

    def done() -> float:
        elapsed = time.monotonic() - start
        assert elapsed < limit, f"time limit {limit}s exceeded: {elapsed:.2f}s"
        return elapsed

    return done


def test_01_intro_tower(tmp_path, intro_diagram, capsys):
    done = timed(1.0)
    path = tmp_path / "intro.json"
    path.write_text(dumps(intro_diagram))
    code = main(["tower", "--json", str(path)])
    out = capsys.readouterr().out
    elapsed = done()
    data = json.loads(out)
    ok = (
        code == 0
        and data["valid"]
        and data["signatures"]
        == [[1, 0], [2, 2], [5, 4], [7, 7], [10, 11], [15, 15]]
        and data["groups"]
        == ["O(1,0)", "Mp(4)", "O(5,4)", "Mp(14)", "O(10,11)", "Mp(30)"]
    )
    with capsys.disabled():
        report(1, ok, elapsed, "intro tower signatures and group chain, < 1 s")


def test_02_column_deletions(capsys):
    done = timed(1.0)
    d = Partition((3, 3, 2, 1, 1))
    ok = (
        delete_columns(d, 1) == Partition((2, 2, 1))
        and delete_columns(d, 2) == Partition((1, 1))
        and validate_partition_kind(d, Kind.SYMPLECTIC)
        and validate_partition_kind(delete_columns(d, 1), Kind.ORTHOGONAL)
        and validate_partition_kind(delete_columns(d, 2), Kind.SYMPLECTIC)
    )
    with capsys.disabled():
        report(2, ok, done(), "column deletions with alternating validity, exact")


def test_03_induction_fixture(induction_source, induction_expected, capsys):
    done = timed(1.0)
    result = induce_real(induction_source, 16)
    ok = result.count == 3 and all(
        equivalent(got, want)
        for got, want in zip(result.diagrams, induction_expected)
    )
    with capsys.disabled():
        report(3, ok, done(), "the three printed induced diagrams, exact")


def test_04_deletion_classification(capsys):
    done = timed(30.0)
    rep, ok = accepted("reasonss")
    with capsys.disabled():
        report(
            4,
            ok,
            done(),
            f"deletion classification and signature bounds, {rep.checked} diagrams <= {rep.bound}",
        )


def test_05_domino_oracle(capsys):
    done = timed(60.0)
    rep, ok = accepted("domino-oracle")
    with capsys.disabled():
        report(
            5,
            ok,
            done(),
            f"domino labels match segments, {rep.checked} cases <= {rep.bound}",
        )


def test_06_appendix_identities(capsys):
    done = timed(120.0)
    rep, ok = accepted("appendix")
    with capsys.disabled():
        report(
            6,
            ok,
            done(),
            f"segment sums and the two scaled-segment bounds, {rep.checked} cases",
        )


def test_07_reversal(capsys):
    done = timed(120.0)
    rep, ok = accepted("reversal")
    with capsys.disabled():
        report(
            7,
            ok,
            done(),
            f"order reversal on comparable pairs, {rep.checked} pairs <= {rep.bound}",
        )


def test_08_character_bounds(capsys):
    done = timed(120.0)
    rep, ok = accepted("bounds")
    note = f"; {rep.notes[0]}" if rep.notes else ""
    with capsys.disabled():
        report(
            8,
            ok,
            done(),
            f"weak and strict character bounds, {rep.checked} shapes <= {rep.bound}{note}",
        )


def test_09_tower_ledger(capsys):
    done = timed(300.0)
    _, pm_ok = accepted("lemma-pm")
    ledger, ledger_ok = accepted("non3")
    ok = pm_ok and ledger_ok
    with capsys.disabled():
        report(
            9,
            ok,
            done(),
            f"column lemma, range conditions, uniqueness: "
            f"{ledger.checked} members <= {ledger.bound}",
        )


def test_10_wavefront_coverage(capsys):
    done = timed(30.0)
    rep, ok = accepted("twocom")
    with capsys.disabled():
        report(
            10,
            ok,
            done(),
            f"wave-front coverage and disjointness, n <= {rep.bound} both classes",
        )


def test_11_moment_oracle(capsys):
    done = timed(300.0)
    witnesses, witnesses_ok = accepted("induce-oracle")
    conj, conj_ok = accepted("conjugation")
    ok = witnesses_ok and conj_ok
    with capsys.disabled():
        report(
            11,
            ok,
            done(),
            f"witness classification grid 2n <= {witnesses.bound} ({witnesses.checked} cells), "
            f"negation rule, anchors, {conj.checked} conjugations",
        )


def test_12_enumeration_counts(capsys):
    done = timed(60.0)
    ok = True
    for n in range(0, 6):
        formula = sum(
            class_count(s, Kind.SYMPLECTIC) for s in shapes(Kind.SYMPLECTIC, 2 * n)
        )
        streamed = sum(1 for _ in signed_diagrams(Kind.SYMPLECTIC, size=2 * n))
        ok = ok and streamed == formula == brute_count(Kind.SYMPLECTIC, 2 * n)
    for total in range(0, 9):
        formula = sum(
            class_count(s, Kind.ORTHOGONAL) for s in shapes(Kind.ORTHOGONAL, total)
        )
        by_signature = sum(
            sum(1 for _ in signed_diagrams(Kind.ORTHOGONAL, sig=Signature(p, total - p)))
            for p in range(total + 1)
        )
        ok = ok and by_signature == formula
        ok = ok and brute_count(Kind.ORTHOGONAL, total) == formula
    with capsys.disabled():
        report(12, ok, done(), "enumeration counts match the product formula")


def test_suite_reports_digest():
    # sha256 over the JSON of every report at its acceptance bound, in table
    # order; the reports must stay byte-identical under refactoring
    digest = hashlib.sha256()
    for name in ACCEPTANCE:
        digest.update(json.dumps(accepted_report(name).to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "57b6549aeb2deaa903e4caf5fb1f22291b7db56e14d8dd099d37598805df622e"
    )
