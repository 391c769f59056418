import hashlib
import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc import (
    diagram_core,
    moment_oracle,
    orbit_induction,
    theta_orbits,
    tower,
    vector_order,
    verify,
)
from orbitcalc.diagram_core import Kind, Partition, SignedDiagram
from orbitcalc.enumeration import partitions, shapes
from orbitcalc.verify import SUITES, run_suite
from oracles import failed_record

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

SMALL_BOUNDS = {
    "reasonss": 6,
    "lemma-pm": 10,
    "reversal": 8,
    "bounds": 10,
    "domino-oracle": 10,
    "twocom": 6,
    "induce-oracle": 6,
    "conjugation": 12,
    "non3": 10,
    "appendix": 12,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_small_bound(name):
    rep = run_suite(name, SMALL_BOUNDS[name])
    assert rep.passed, rep.counterexamples
    assert rep.checked > 0


def test_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", 3)


def test_zero_cases_do_not_pass():
    rep = run_suite("reasonss", 0)
    assert rep.checked == 0
    assert not rep.passed


def test_domino_oracle_cases_match_filtered_partitions(monkeypatch):
    # the suite builds its cases from column heights; they must be the
    # (heights, kind) pairs of filtering every partition by its transpose
    checked = []
    domino = verify.infchar_domino

    def recording(d, kind):
        checked.append((d.transpose().rows, kind))
        return domino(d, kind)

    monkeypatch.setattr(verify, "infchar_domino", recording)
    rep = run_suite("domino-oracle", 24)
    want = []
    for size in range(1, 25):
        for rows in partitions(size):
            heights = Partition(rows).transpose().rows
            if all(h % 2 == 0 for h in heights) or all(h % 2 == 1 for h in heights):
                kinds = Kind if size % 2 == 0 else (Kind.ORTHOGONAL,)
                want += [(heights, kind) for kind in kinds]
    assert rep.passed and rep.checked == len(checked) == len(want) == 1716
    assert len(set(checked)) == len(checked)
    assert set(checked) == set(want)


def test_reversal_families_match_transposed_shapes(monkeypatch):
    # the suite builds its shapes from column heights; per size and kind,
    # its even and odd families must be the shapes, in shapes() order, of
    # transposing every valid shape and keeping the very even and very odd
    segments = verify.segments_of_transpose
    families = {}

    def recording(heights, kind):
        shape = Partition(heights).transpose()
        families.setdefault((shape.size, kind, heights[0] % 2), []).append(shape)
        return segments(heights, kind)

    monkeypatch.setattr(verify, "segments_of_transpose", recording)
    rep = run_suite("reversal", 16)
    want = {}
    for size in range(1, 17):
        for kind in Kind:
            for shape in shapes(kind, size):
                t = shape.transpose()
                if t.very_even or t.very_odd:
                    want.setdefault((size, kind, t.rows[0] % 2), []).append(shape)
    assert rep.passed and rep.checked > 0
    assert families == want
    assert sum(map(len, want.values())) == 300


def test_reversal_compares_each_pair_once(monkeypatch):
    # a work count, pinned exactly: one closure comparison per pair of a
    # family, and one character comparison per pair that lies below
    calls = 0
    real = vector_order.scaled_preceq

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(vector_order, "scaled_preceq", counted)
    rep = run_suite("reversal", 12)
    assert rep.passed and rep.checked == 570
    assert calls == 1617


def test_reversal_transposes_each_parity_partition_once(monkeypatch):
    # a work count, pinned exactly: the 98 parity partitions of size 1..12,
    # each transposed once for both kinds
    calls = 0
    real = Partition.transpose

    def counted(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(Partition, "transpose", counted)
    assert run_suite("reversal", 12).checked == 570
    assert calls == 98


def count_calls(monkeypatch, *functions) -> dict[str, int]:
    """Wrap each package function in every loaded package module that binds
    it; the returned dict counts the calls by function name as they happen."""
    calls = {}
    for real in functions:
        calls[real.__name__] = 0

        def counted(*args, _real=real, **kwargs):
            calls[_real.__name__] += 1
            return _real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("orbitcalc") and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, counted)
    return calls


MP30 = SCRIPTS.parent / "perfbench" / "cli" / "mp30.json"


def test_package_checks_no_spec(monkeypatch):
    # the package lays out every diagram it computes itself, class by class,
    # so no suite and no certificate runs the checking spec builder
    calls = count_calls(monkeypatch, diagram_core.from_row_spec)
    for name, bound in SMALL_BOUNDS.items():
        assert run_suite(name, bound).passed, name
    tower.certificate(diagram_core.from_json_dict(json.loads(MP30.read_text())))
    assert calls == {"from_row_spec": 0}
    diagram_core.from_row_spec(Kind.SYMPLECTIC, [(2, diagram_core.PLUS)])  # the probe sees a call
    assert calls == {"from_row_spec": 1}


NON3_WORK = (
    tower.check_non3,
    theta_orbits.inertia_companions,
    orbit_induction.induce_real,
    theta_orbits.deletion_inertia,
)


def test_non3_work_is_pinned(monkeypatch):
    # one non3 record per metaplectic step, each with one companion search
    # and one induction; a change in these counts is a change in the work
    calls = count_calls(monkeypatch, *NON3_WORK)
    assert run_suite("non3", 14).passed
    assert calls == {
        "check_non3": 121,
        "inertia_companions": 121,
        "induce_real": 121,
        "deletion_inertia": 460,
    }


def test_certificate_work_is_pinned(monkeypatch):
    d = diagram_core.from_json_dict(json.loads(MP30.read_text()))
    calls = count_calls(monkeypatch, *NON3_WORK)
    tower.certificate(d)
    assert calls == {
        "check_non3": 2,
        "inertia_companions": 2,
        "induce_real": 2,
        "deletion_inertia": 4,
    }


def test_bounds_builds_no_signed_diagram(monkeypatch):
    # the bound reads shapes only; class U by shape is decided by the
    # column heights, so neither the checking constructor nor the trusted
    # build may run
    built = []
    init = SignedDiagram.__init__
    trusted = SignedDiagram._trusted.__func__

    def checking(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def unchecked(cls, kind, rows):
        built.append(rows)
        return trusted(cls, kind, rows)

    monkeypatch.setattr(SignedDiagram, "__init__", checking)
    monkeypatch.setattr(SignedDiagram, "_trusted", classmethod(unchecked))
    assert run_suite("bounds", 20).passed
    assert built == []
    run_suite("lemma-pm", 4)  # the probe sees a suite that builds diagrams
    assert built


def test_suites_deterministic():
    a = run_suite("conjugation", 10)
    b = run_suite("conjugation", 10)
    assert a.to_json_dict() == b.to_json_dict()


def test_verify_all_fails_on_a_case_count_mismatch(monkeypatch, capsys):
    verify_all = _load_script("verify_all")
    checked = run_suite("twocom", 4).checked
    monkeypatch.setattr(sys, "argv", ["verify_all.py"])
    monkeypatch.setattr(verify_all, "ACCEPTANCE_BOUNDS", [("twocom", 4, checked)])
    assert verify_all.main() == 0
    monkeypatch.setattr(verify_all, "ACCEPTANCE_BOUNDS", [("twocom", 4, checked + 1)])
    assert verify_all.main() == 1
    assert f"count: expected {checked + 1} cases" in capsys.readouterr().out


def test_startup_pools_every_command():
    bench_compare = _load_script("bench_compare")
    stats = bench_compare.startup({"a": [0.1, 0.3], "b": [0.2, 0.4, 0.5]})
    assert stats["pooled"] == {"median_s": 0.3, "quartiles_s": [0.15, 0.45]}
    assert stats["per_command"]["a"] == {"median_s": 0.2, "quartiles_s": [0.05, 0.35]}
    assert list(stats["per_command"]) == ["a", "b"]


def test_bench_compare_runs_a_round_with_this_tree_on_both_sides(monkeypatch, tmp_path):
    bench_compare = _load_script("bench_compare")
    src = SCRIPTS.parent / "src"
    monkeypatch.setattr(bench_compare, "ACCEPTANCE_BOUNDS", [("twocom", 4, None)])
    command = {"validate-intro": bench_compare.cli_mix.COMMANDS["validate-intro"]}
    monkeypatch.setattr(bench_compare.cli_mix, "COMMANDS", command)
    out = tmp_path / "bench.json"
    assert bench_compare.compare(src, "c0ffee", 1, str(out)) == 0
    record = json.loads(out.read_text())
    suite = record["suites"]["twocom"]
    assert suite["reports_identical"] and record["suites_differ"] == []
    (passes,), (ratio,) = suite["passes"], suite["ratios_base_over_change"]
    assert passes >= 1 and suite["change_wins"] == (ratio > 1)
    assert ratio > 0 and set(suite["ratio"]) == {"median", "quartiles"}
    assert set(suite["base"]) == set(suite["change"]) == {"median_s", "quartiles_s"}
    assert record["base"]["commit"] == "c0ffee"
    lines = bench_compare.package_lines(src)
    assert record["base"]["src_lines"] == record["change"]["src_lines"] == lines
    assert record["cli_startup"]["outputs_differ"] == []
    assert suite["resolved"] is False  # one round resolves nothing


@pytest.mark.parametrize(
    "rounds, wins, change_median, want",
    [
        (10, 9, 0.25, True),
        (10, 1, 1.75, True),
        (10, 10, 0.25, True),
        (20, 18, 0.25, True),
        (9, 9, 0.25, False),  # too few rounds
        (10, 8, 0.25, False),  # 8 of 10 is what identical code can reach
        (10, 2, 1.75, False),
        (20, 17, 0.25, False),
        (10, 9, 0.75, False),  # within the base side's quartile spread
        (10, 9, 0.5, False),  # exactly at it
    ],
)
def test_bench_compare_resolves_a_suite(rounds, wins, change_median, want):
    bench_compare = _load_script("bench_compare")
    base = {"median_s": 1.0, "quartiles_s": [0.75, 1.25]}
    change = {"median_s": change_median, "quartiles_s": [0.0, 2.0]}
    assert bench_compare.resolved(rounds, wins, base, change) is want


def test_base_rev_is_exported_with_its_commit(monkeypatch, tmp_path):
    # --base-rev runs the src of that revision and records its commit
    bench_compare = _load_script("bench_compare")
    repo = tmp_path / "repo"
    package = repo / "src" / "orbitcalc"
    package.mkdir(parents=True)
    (package / "m.py").write_text("base\n")

    def git(*argv):
        done = subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
            cwd=repo, capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()

    git("init", "-q")
    git("add", "src")
    git("commit", "-qm", "base")
    head = git("rev-parse", "HEAD")
    assert bench_compare.package_commit(repo / "src") == head
    (package / "m.py").write_text("change\n")
    assert bench_compare.package_commit(repo / "src") == head + "+dirty"
    assert bench_compare.package_commit(tmp_path) is None
    monkeypatch.setattr(bench_compare, "HERE", repo / "scripts")
    ran = []

    def compare(base_src, base_commit, rounds, out_path):
        ran.append(((base_src / "orbitcalc" / "m.py").read_text(), base_commit, rounds))
        return 0

    monkeypatch.setattr(bench_compare, "compare", compare)
    argv = ["bench_compare.py", "--runs", "1", "--out", str(tmp_path / "bench.json")]
    monkeypatch.setattr(sys, "argv", argv + ["--base-rev", "HEAD"])
    assert bench_compare.main() == 0
    assert ran == [("base\n", head, 1)]
    monkeypatch.setattr(sys, "argv", argv + ["--base-rev", "no-such-rev"])
    with pytest.raises(SystemExit) as exc:
        bench_compare.main()
    assert exc.value.code == 2


def test_package_lines_counts_every_module():
    bench_compare = _load_script("bench_compare")
    src = Path(orbitcalc.__file__).resolve().parents[1]
    files = sorted((src / "orbitcalc").glob("*.py"))
    assert len(files) > 1
    want = sum(len(f.read_text().splitlines()) for f in files)
    assert bench_compare.package_lines(src) == want


def _every_third(real, forced):
    """``real``, except that every third call returns ``forced(result, *args)``."""
    calls = itertools.count(1)

    def patched(*args):
        out = real(*args)
        return forced(out, *args) if next(calls) % 3 == 0 else out

    return patched


def _failed(records):
    return [failed_record(rec) for rec in records]


def _twocom_forced(parts, n, alpha):
    # a class of its own holding a label outside [0, n] and one already taken
    taken = [i for members in parts.values() for i in members][:1]
    return {**parts, (-1, -1): (-1, *taken)}


def _shifted(seg, kind, m):
    return range(seg.start + 2, seg.stop + 2, seg.step)


# the checks each suite is made to fail every third call: (module, name, forced)
FORCED = {
    "reasonss": [
        ("verify", "validate_signed", lambda out, kind, rows: ["forced"]),
        ("verify", "signature", lambda sig, d: type(sig)(sig.plus + 1, sig.minus)),
    ],
    "lemma-pm": [("verify", "check_lemma_pm", lambda recs, t: _failed(recs))],
    "reversal": [("verify", "characters_reverse", lambda ok, *args: ok if ok is None else not ok)],
    "bounds": [("verify", "check_bound", lambda res, shape, kind: type(res)(False, False))],
    "domino-oracle": [("verify", "infchar_domino", lambda got, d, kind: got + (0,))],
    "twocom": [("verify", "wf_ialpha_parts", _twocom_forced)],
    "induce-oracle": [("moment_oracle", "classify_signed", lambda got, x, form: verify.negate(got))],
    "conjugation": [("verify", "equivalent", lambda same, a, b: not same)],
    "non3": [
        ("verify", "check_range", lambda recs, t: _failed(recs)),
        ("verify", "check_non3", lambda rec, t, k: failed_record(rec)),
    ],
    "appendix": [
        ("verify", "scaled_preceq", lambda ok, *args: not ok),
        ("verify", "segment", _shifted),
    ],
}

# sha256 of each forced report's JSON at the suite's small bound
FORCED_DIGESTS = {
    "reasonss": "a143c3936b1c66e2659a8c408cd846fdec0792e8db7463463d8c758ca2bb6c3f",
    "lemma-pm": "56aeb0a0d5ca6ff5a0688280d38933ee0b5a916f6bf415572bbec9b756729050",
    "reversal": "ec8999094edfb929cd53b4cd55eddafdcb3db7913d002c2bcb86cf73560ff5bd",
    "bounds": "6184ba6a2ab47e0d4de501a0a50db69c85186677ea40b089c91bef558f0eed60",
    "domino-oracle": "6cd32776e55268a728b2cf688ba81ea59f6dedd6e01cdaf889f1507ec607fb1b",
    "twocom": "09bccb4801ab2b9b4a642f31f21292470eb7cc9c4a81dc24f8e2002551b079f4",
    "induce-oracle": "83b871164b09ce8e0dfc95062c15a63d94ab4a669e42711821917f814b942e94",
    "conjugation": "c3fda17e114d956a4cf6e01fa84c13d4ed763bbb9ad6d951ff63b3969a6c2cd3",
    "non3": "9e2cbec82c8f1994df18ca72a632bf726bfe06d47b3ce2ac3ed3937cf9b0177c",
    "appendix": "ffc5bf3c827ccdfb41237a1d22d5aef6de2305ad567b861ade7796db7853a1fa",
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_forced_failures_report_every_counterexample_in_order(name, monkeypatch):
    # pins the text, order and count of a failing report, which no passing
    # run can: one case may fail several checks, and failing cases count
    modules = {"verify": verify, "moment_oracle": moment_oracle}
    for module, attr, forced in FORCED[name]:
        real = getattr(modules[module], attr)
        monkeypatch.setattr(modules[module], attr, _every_third(real, forced))
    rep = run_suite(name, SMALL_BOUNDS[name])
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert not rep.passed and rep.counterexamples
    assert hashlib.sha256(text.encode()).hexdigest() == FORCED_DIGESTS[name]


def test_forced_block_part_failures_are_reported(monkeypatch):
    # every third block part is the zero matrix of the block's size; only
    # the block-part verdict sees it, and a zero block of the orbit [1+, 1-]
    # or of the empty S still holds
    def zero(block, x, m):
        return moment_oracle.RationalMatrix.zeros(block.nrows, block.ncols)

    real = moment_oracle.witness_block_part
    monkeypatch.setattr(moment_oracle, "witness_block_part", _every_third(real, zero))
    rep = run_suite("induce-oracle", SMALL_BOUNDS["induce-oracle"])
    assert rep.counterexamples == tuple(
        f"witness block part leaves the source orbit (S=({row},), n=3)"
        for row in (
            "SignedRow(length=2, leading=Sign('-'))",
            "SignedRow(length=2, leading=Sign('+'))",
            "SignedRow(length=4, leading=Sign('-'))",
        )
    )
