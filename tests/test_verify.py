import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc import verify
from orbitcalc.diagram_core import Kind, Partition, SignedDiagram
from orbitcalc.enumeration import partitions, shapes
from orbitcalc.verify import SUITES, run_suite

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


def test_timed_repeats_until_the_minimum():
    verify_all = _load_script("verify_all")
    rep, times = verify_all.timed("twocom", 4, 0.0)
    assert rep.passed and len(times) == 1
    rep, times = verify_all.timed("twocom", 4, 0.05)
    assert rep.passed and len(times) > 1 and sum(times) >= 0.05
    assert sum(times[:-1]) < 0.05


def test_verify_all_fails_on_a_case_count_mismatch(monkeypatch, capsys):
    verify_all = _load_script("verify_all")
    checked = run_suite("twocom", 4).checked
    monkeypatch.setattr(sys, "argv", ["verify_all.py"])
    monkeypatch.setattr(verify_all, "ACCEPTANCE_BOUNDS", [("twocom", 4, checked)])
    assert verify_all.main() == 0
    monkeypatch.setattr(verify_all, "ACCEPTANCE_BOUNDS", [("twocom", 4, checked + 1)])
    assert verify_all.main() == 1
    assert f"count: expected {checked + 1} cases" in capsys.readouterr().out


def test_spread_reports_median_and_quartiles():
    bench_compare = _load_script("bench_compare")
    runs = [{"suites": {"s": {"elapsed_s": t}}} for t in (0.4, 0.1, 0.3, 0.2, 0.5)]
    assert bench_compare.spread(runs) == {"s": {"median_s": 0.3, "quartiles_s": [0.15, 0.45]}}
    one = bench_compare.spread(runs[:1])
    assert one == {"s": {"median_s": 0.4, "quartiles_s": [0.4, 0.4]}}


def test_startup_pools_every_command():
    bench_compare = _load_script("bench_compare")
    stats = bench_compare.startup({"a": [0.1, 0.3], "b": [0.2, 0.4, 0.5]})
    assert stats["pooled"] == {"median_s": 0.3, "quartiles_s": [0.15, 0.45]}
    assert stats["per_command"]["a"] == {"median_s": 0.2, "quartiles_s": [0.05, 0.35]}
    assert list(stats["per_command"]) == ["a", "b"]


def test_base_rev_is_exported_with_its_commit(monkeypatch, tmp_path):
    # --base-rev runs the src of that revision and records its commit
    bench_compare = _load_script("bench_compare")
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "m.py").write_text("base\n")

    def git(*argv):
        done = subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
            cwd=repo, capture_output=True, text=True, check=True,
        )
        return done.stdout.strip()

    git("init", "-q")
    git("add", "src")
    git("commit", "-qm", "base")
    (repo / "src" / "m.py").write_text("change\n")
    monkeypatch.setattr(bench_compare, "HERE", repo / "scripts")
    ran = {}

    def one_run(src):
        side = "change" if src == repo / "src" else "base"
        ran[side] = (src / "m.py").read_text()
        commit = "c0ffee" if side == "change" else None
        return {"suites": {"s": {"elapsed_s": 0.1}}, "commit": commit, "src_lines": 1}

    monkeypatch.setattr(bench_compare, "one_run", one_run)
    monkeypatch.setattr(bench_compare.cli_mix, "COMMANDS", {"a": ["--help"]})
    monkeypatch.setattr(bench_compare.cli_mix, "run_subprocess", lambda argv, env: (0, "", 0.1))
    out = tmp_path / "bench.json"
    argv = ["bench_compare.py", "--runs", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv + ["--base-rev", "HEAD"])
    assert bench_compare.main() == 0
    record = json.loads(out.read_text())
    head = git("rev-parse", "HEAD")
    assert (record["base"]["commit"], record["change"]["commit"]) == (head, "c0ffee")
    assert ran == {"base": "base\n", "change": "change\n"}
    monkeypatch.setattr(sys, "argv", argv + ["--base-rev", "no-such-rev"])
    with pytest.raises(SystemExit) as exc:
        bench_compare.main()
    assert exc.value.code == 2


def test_package_lines_counts_every_module():
    verify_all = _load_script("verify_all")
    files = sorted(Path(orbitcalc.__file__).resolve().parent.glob("*.py"))
    assert len(files) > 1
    want = sum(len(f.read_text().splitlines()) for f in files)
    assert verify_all.package_lines() == want
