import ast
import contextlib
import importlib.util
import inspect
import io
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orbitcalc
from orbitcalc import cli
from orbitcalc import diagram_core as dc
from orbitcalc.cli import main
from orbitcalc.diagram_core import Kind, Sign, SignedDiagram, SignedRow
from orbitcalc.tower import class_u
from orbitcalc.verify import SUITES
from oracles import dumps, parse_ascii


ROOT = Path(__file__).resolve().parents[1]
PACKAGE_PARENT = str(Path(orbitcalc.__file__).resolve().parents[1])


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cli_mix = _load_perfbench("cli_mix")


def run_python(argv):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


@pytest.fixture
def intro_path(tmp_path, intro_diagram):
    path = tmp_path / "intro.json"
    path.write_text(dumps(intro_diagram))
    return str(path)


@pytest.fixture
def source_path(tmp_path, induction_source):
    path = tmp_path / "source.json"
    path.write_text(dumps(induction_source))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid(self, capsys, intro_path):
        code, out, _ = run(capsys, "validate", intro_path)
        assert code == 0
        assert "valid" in out

    def test_invalid_conventions(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "symplectic",
                    "rows": [{"len": 1, "sign": "-"}, {"len": 1, "sign": "-"}],
                }
            )
        )
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.json")
        assert code == 2


class TestTower:
    def test_pretty(self, capsys, intro_path):
        code, out, _ = run(capsys, "tower", intro_path)
        assert code == 0
        assert "O(1,0) -> Mp(4) -> O(5,4) -> Mp(14) -> O(10,11) -> Mp(30)" in out
        assert "VALID" in out

    def test_json(self, capsys, intro_path, intro_diagram):
        code, out, _ = run(capsys, "tower", "--json", intro_path)
        assert code == 0
        data = json.loads(out)
        assert data["valid"] is True
        assert data["signatures"] == [
            [1, 0],
            [2, 2],
            [5, 4],
            [7, 7],
            [10, 11],
            [15, 15],
        ]
        # the embedded diagram round-trips through the parser
        assert dc.from_json_dict(data["diagram"]) == intro_diagram

    def test_inadmissible_exits_one(self, capsys, tmp_path):
        d = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, Sign.PLUS),) * 2)
        path = tmp_path / "excluded.json"
        path.write_text(dumps(d))
        code, out, _ = run(capsys, "tower", str(path))
        assert code == 1

    def test_deterministic_output(self, capsys, intro_path):
        _, out1, _ = run(capsys, "tower", "--json", intro_path)
        _, out2, _ = run(capsys, "tower", "--json", intro_path)
        assert out1 == out2

    @pytest.mark.parametrize("admissible", [True, False])
    def test_class_u_runs_once(self, capsys, monkeypatch, tmp_path, intro_path, admissible):
        calls = []

        def counted(d):
            calls.append(d)
            return class_u(d)

        # tower() looks class_u up in its own module, and the CLI imports
        # tower when the command runs, so this patch reaches every call
        monkeypatch.setattr("orbitcalc.tower.class_u", counted)
        path = intro_path
        if not admissible:
            path = tmp_path / "excluded.json"
            excluded = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, Sign.PLUS),) * 2)
            path.write_text(dumps(excluded))
        code, out, _ = run(capsys, "tower", str(path))
        assert code == (0 if admissible else 1)
        assert out.startswith("tower of Mp(30):" if admissible else "not admissible: uniform")
        assert len(calls) == 1

    @pytest.mark.parametrize("as_json", [False, True])
    def test_one_signature_per_step(self, capsys, monkeypatch, intro_path, as_json):
        # the groups and the top group are read off Tower.sig, so the run
        # computes each of the 6 steps' signatures once, in Tower.lift
        calls = []
        original = dc.signature

        def counted(d):
            calls.append(d)
            return original(d)

        monkeypatch.setattr("orbitcalc.diagram_core.signature", counted)
        monkeypatch.setattr("orbitcalc.tower.signature", counted)
        code, _, _ = run(capsys, "tower", *(["--json"] if as_json else []), intro_path)
        assert code == 0
        assert len(calls) == 6


class TestClassify:
    def test_intro(self, capsys, intro_path):
        code, out, _ = run(capsys, "classify", intro_path)
        assert code == 0
        assert "Mp(30)" in out
        assert "admissible: yes" in out


class TestInduce:
    def test_three_orbits(self, capsys, source_path, induction_expected):
        code, out, _ = run(capsys, "induce", "--n", "16", "--json", source_path)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3
        got = [dc.from_json_dict(entry) for entry in data["diagrams"]]
        for a, b in zip(got, induction_expected):
            assert dc.equivalent(a, b)

    def test_tau_variant(self, capsys, source_path):
        code, out, _ = run(capsys, "induce", "--n", "16", "--tau", "--json", source_path)
        assert code == 0
        assert json.loads(out)["count"] == 3

    def test_out_of_range(self, capsys, source_path):
        code, _, err = run(capsys, "induce", "--n", "10", source_path)
        assert code == 2


class TestInfchar:
    def test_both_algorithms_agree(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[2, 2]")
        code, out, _ = run(capsys, "infchar", "--kind", "sp", "--json", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["segments"] == ["1", "0"]
        assert data["domino"] == ["1", "0"]
        assert data["agree"] is True

    def test_mixed_parity_reports_domino_error(self, capsys, tmp_path):
        # (3, 1) is orthogonal; its transpose (2, 1, 1) mixes parities
        path = tmp_path / "d.json"
        path.write_text("[3, 1]")
        code, out, _ = run(capsys, "infchar", "--kind", "o", "--json", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["domino"] is None
        assert data["agree"] is None


class TestChainRender:
    def test_chain(self, capsys, intro_path):
        code, out, _ = run(capsys, "chain", intro_path)
        assert code == 0
        assert out.strip().startswith("Mp(30) -> O(10,11)")

    def test_render_roundtrip(self, capsys, intro_path, intro_diagram):
        code, out, _ = run(capsys, "render", intro_path)
        assert code == 0
        assert parse_ascii(out.strip("\n"), Kind.SYMPLECTIC) == intro_diagram


class TestOracle:
    def test_classify_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["0", "1"], ["0", "0"]]))
        code, out, _ = run(
            capsys, "oracle", "classify", str(path), "--form", "sp:2", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["diagram"]["rows"] == [{"len": 2, "sign": "+"}]

    def test_bad_form(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["0"]]))
        # a token that does not parse gets the usage text, whatever its flaw
        for token in ("huh", "o:x", "sp:2,2", "x:2"):
            code, out, err = run(capsys, "oracle", "classify", str(path), "--form", token)
            assert (code, out) == (2, "")
            assert err == f"error: bad form {token!r}; use sp:2n or o:p,q\n"
        # one that parses but names no form gets FormSpec's reason
        code, _, err = run(capsys, "oracle", "classify", str(path), "--form", "sp:3")
        assert code == 2
        assert err == "error: bad form 'sp:3': symplectic dimension must be even and nonnegative\n"

    def test_not_nilpotent(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([["1", "0"], ["0", "-1"]]))
        code, out, _ = run(capsys, "oracle", "classify", str(path), "--form", "sp:2")
        assert code == 1

    @pytest.mark.parametrize(
        "rows, form, text",
        [
            # x^t J + J x != 0 in sp(2)
            ([[1, 0], [0, 0]], "sp:2", "matrix is not in the Lie algebra of the form"),
            ([[0, 1, 0], [0, 0, 0]], "sp:2", "matrix is not in the Lie algebra of the form"),
            # diag(A, -A^t) in sp(4) with A = [[1, 1], [0, 0]] = A^2: the
            # ranks of the powers fall from 4 to 2 and stay there
            (
                [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, -1, 0]],
                "sp:4",
                "classification requires a nilpotent matrix",
            ),
        ],
        ids=["outside-algebra", "non-square", "rank-stalls"],
    )
    def test_failure_texts(self, capsys, tmp_path, rows, form, text):
        # literal texts, as the power-chain classifier printed them
        path = tmp_path / "m.json"
        path.write_text(json.dumps(rows))
        code, out, err = run(capsys, "oracle", "classify", str(path), "--form", form)
        assert (code, out, err) == (1, f"classification failed: {text}\n", "")


class TestBrokenPipe:
    def test_closed_stdout_exits_without_traceback(self):
        # 111 kB of JSON, more than a 64 kB pipe buffer holds, so the child is
        # still writing when the reader closes the pipe after 16 bytes
        argv = ["-m", "orbitcalc.cli", "enumerate", "--kind", "sp", "--size", "14", "--json"]
        env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT)
        with subprocess.Popen(
            [sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as proc:
            assert proc.stdout.read(16)
            proc.stdout.close()
            assert proc.wait(timeout=60) == cli.BROKEN_PIPE
            err = proc.stderr.read().decode()
        assert "Traceback" not in err and "Exception ignored" not in err, err


class TestEnumerate:
    def test_count_matches_formula(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "sp", "--size", "4", "--count", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == data["formula"]

    def test_signature_listing(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--kind", "o", "--signature", "1,0", "--json"
        )
        assert code == 0
        assert len(json.loads(out)) == 1
        # a symplectic signature must be balanced; any other lists nothing
        code, out, _ = run(
            capsys, "enumerate", "--kind", "sp", "--signature", "3,1", "--json"
        )
        assert (code, json.loads(out)) == (0, [])
        code, out, _ = run(
            capsys, "enumerate", "--kind", "sp", "--signature", "3,1", "--count", "--json"
        )
        assert (code, json.loads(out)) == (0, {"count": 0})

    def test_needs_a_filter(self, capsys):
        code, _, err = run(capsys, "enumerate", "--kind", "o")
        assert code == 2


class TestVerify:
    def test_small_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "reasonss", "--max", "6")
        assert code == 0
        assert "pass" in out

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "twocom", "--max", "4", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True and data["suite"] == "twocom"

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope", "--max", "3")
        assert code == 2


def _diagram_with_len(length):
    return {"kind": "orthogonal", "rows": [{"len": length, "sign": "+"}]}


class TestMalformedInput:
    """Malformed input exits 2 with nothing on stdout; it is never coerced."""

    @pytest.mark.parametrize(
        "argv, content, reason",
        [
            (
                ["infchar", "--kind", "sp"],
                [2.7, 1],
                "not a partition: row lengths must be integers: (2.7, 1)",
            ),
            (
                ["infchar", "--kind", "sp"],
                [True, True],
                "not a partition: row lengths must be integers: (True, True)",
            ),
            (["infchar", "--kind", "sp"], [1], "(1) is not a valid symplectic shape"),
            (["infchar", "--kind", "sp"], [3, 1], "(3,1) is not a valid symplectic shape"),
            (["infchar", "--kind", "o"], [2], "(2) is not a valid orthogonal shape"),
            (["validate"], _diagram_with_len("2"), "row lengths must be integers: ('2',)"),
            (["validate"], _diagram_with_len(1.9), "row lengths must be integers: (1.9,)"),
            (["validate"], _diagram_with_len(True), "row lengths must be integers: (True,)"),
            (
                ["validate"],
                {"kind": "orthogonal", "rows": 5},
                "diagram 'rows' must be a list",
            ),
            (["validate"], {"kind": "x", "rows": []}, "unknown kind 'x'"),
            (
                ["validate"],
                {"kind": "orthogonal", "rows": [{"len": 1}]},
                "row 1: needs 'len' and 'sign' fields",
            ),
            (
                ["oracle", "classify", "--form", "sp:2"],
                [1, 2],
                "matrix JSON must be a list of rows",
            ),
            (
                ["oracle", "classify", "--form", "sp:2"],
                [[1.5]],
                "matrix entry 1.5 is not an exact rational",
            ),
            (
                ["oracle", "classify", "--form", "sp:2"],
                [[True]],
                "matrix entry True is not an exact rational",
            ),
            (
                ["oracle", "classify", "--form", "o:-1,2"],
                [[0]],
                "bad form 'o:-1,2': signature entries must be nonnegative",
            ),
        ],
        ids=[
            "float-partition",
            "bool-partition",
            "not-symplectic-1",
            "not-symplectic-3-1",
            "not-orthogonal-2",
            "string-len",
            "float-len",
            "bool-len",
            "rows-not-list",
            "unknown-kind",
            "row-without-sign",
            "flat-matrix",
            "float-matrix-entry",
            "bool-matrix-entry",
            "negative-form-entry",
        ],
    )
    def test_malformed_file(self, capsys, tmp_path, argv, content, reason):
        # the reason is the one of the check that refused the input
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f"{reason}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "lemma-pm", "--max", "-3"],
            ["enumerate", "--kind", "sp", "--size", "-2", "--count"],
            ["enumerate", "--kind", "o", "--signature=-1,2"],
            ["wf-ialpha", "--n", "-3", "--alpha", "0"],
        ],
        ids=["verify-max", "enumerate-size", "enumerate-signature", "wf-ialpha-n"],
    )
    def test_negative_parameter(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must be nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["classify"],
            ["tower"],
            ["induce", "--n", "2"],
            ["infchar", "--kind", "sp"],
            ["chain"],
            ["oracle", "classify", "--form", "sp:2"],
            ["render"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_deeply_nested_json(self, capsys, monkeypatch, tmp_path, argv):
        # the decoder gives up near the recursion limit, and building a value
        # (or the repr in its error message) can hit the limit just below
        # that; the depths 800..1000 cross both points from inside pytest
        parser = cli.build_parser()  # built once: rebuilding it dominates the run time
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        path = tmp_path / "deep.json"
        for depth in (100_000, *range(800, 1001)):
            path.write_text("[" * depth + "]" * depth)
            code, out, err = run(capsys, *argv, str(path))
            assert (code, out) == (2, ""), depth
            assert "error" in err

    @pytest.mark.parametrize("count", [["--count"], []], ids=["count", "listing"])
    def test_size_and_signature_disagree(self, capsys, count):
        code, out, err = run(
            capsys, "enumerate", "--kind", "sp", "--size", "4", "--signature", "3,3", *count
        )
        assert code == 2
        assert out == ""
        assert "size and signature disagree" in err


# arbitrary bounded JSON, plus well-formed diagrams and partitions of small
# random shape so that some inputs get past parsing
_strings = st.sampled_from(["symplectic", "orthogonal", "+", "-", "kind", "rows"]) | st.text(
    max_size=3
)
_scalars = st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | _strings
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "rows", "len", "sign"]) | _strings, inner, max_size=4),
    max_leaves=12,
)
_rows = st.lists(st.tuples(st.integers(1, 6), st.sampled_from("+-")), max_size=5).map(
    lambda rows: [{"len": n, "sign": sign} for n, sign in sorted(rows, reverse=True)]
)
_diagrams = st.fixed_dictionaries({"kind": st.sampled_from(["symplectic", "orthogonal"]), "rows": _rows})
_partitions = st.lists(st.integers(1, 6), max_size=6).map(lambda rows: sorted(rows, reverse=True))
_fuzzed_commands = [
    ["validate"],
    ["classify"],
    ["tower"],
    ["chain"],
    ["render"],
    ["induce", "--n", "8"],
    ["infchar", "--kind", "sp"],
    ["infchar", "--kind", "o"],
]
_entries = st.integers(-2, 2) | st.sampled_from(["1/2", "-3/4", "0", "1/0", "x"])
_matrices = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)
)
_forms = st.sampled_from(["sp:2", "sp:4", "o:2,1", "o:1,1", "sp:3", "o:1", "o:-1,2"]) | st.text(
    max_size=4
)

# option values: small integers, so that the runs stay short, and text
# without digits, which int() could read as a large number ("9_9", "९९")
_text = st.text(st.characters(blacklist_categories=("Nd",)), max_size=3)
_ints = st.integers(-3, 6).map(str) | _text
_signatures = st.tuples(st.integers(-1, 5), st.integers(-1, 5)).map("{0[0]},{0[1]}".format) | _text


def _option(name, values):
    return values.map(lambda v: [f"{name}={v}"])


def _maybe(name, values):
    return st.just([]) | _option(name, values)


def _switch(name):
    return st.sampled_from([[], [name]])


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


_option_commands = (
    _argv(
        st.just(["enumerate"]),
        _option("--kind", st.sampled_from(["sp", "o", "symplectic", "x"])),
        _maybe("--size", _ints),
        _maybe("--signature", _signatures),
        _switch("--count"),
        _switch("--json"),
    )
    | _argv(
        st.just(["verify"]),
        _option("--suite", st.sampled_from(sorted(SUITES) + ["nope"])),
        _option("--max", _ints),
        _switch("--json"),
    )
    | _argv(
        st.just(["wf-ialpha"]),
        _option("--n", _ints),
        _option("--alpha", st.integers(-5, 5).map(str) | _text),
        _switch("--json"),
    )
)


class TestFuzzBoundary:
    """Any JSON file sent to a subcommand, and any option values, exit 0, 1
    or 2, never with a traceback, and a usage error prints nothing on
    stdout."""

    def check(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert "error" in err.getvalue()

    @settings(max_examples=100, deadline=None)
    @given(content=_json | _diagrams | _partitions, argv=st.sampled_from(_fuzzed_commands))
    def test_any_json(self, tmp_path_factory, content, argv):
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(json.dumps(content))
        self.check([*argv, str(path)])

    @settings(max_examples=100, deadline=None)
    @given(content=_json | _matrices, form=_option("--form", _forms), as_json=_switch("--json"))
    def test_oracle_matrix_file(self, tmp_path_factory, content, form, as_json):
        path = tmp_path_factory.mktemp("fuzz") / "matrix.json"
        path.write_text(json.dumps(content))
        self.check(["oracle", "classify", str(path), *form, *as_json])

    @settings(max_examples=100, deadline=None)
    @given(argv=_option_commands)
    def test_options(self, argv):
        self.check(argv)


class TestRecordedOutputs:
    """Every command of the benchmark's CLI mix, run in-process in the mix's
    working directory, prints the recorded stdout and exits with the
    recorded code; malformed input exits 2 with empty stdout."""

    EXPECTED = cli_mix.load_expected()

    @pytest.mark.parametrize("name", sorted(cli_mix.COMMANDS))
    def test_matches_recording(self, capsys, monkeypatch, name):
        monkeypatch.chdir(cli_mix.CLI_DIR)
        code, out, _ = run(capsys, *cli_mix.COMMANDS[name])
        assert {"exit": code, "stdout": out} == self.EXPECTED[name]


class TestTracerNames:
    """The benchmark's tracer wraps package functions by name, from outside:
    every name it lists must resolve, the generator whose yields it counts
    must still be a generator function, and its undo must restore them all.
    Its workloads call the package directly, and each must run a round."""

    @staticmethod
    def resolve(layer, path):
        owner = importlib.import_module(f"orbitcalc.{layer}")
        for part in path.split("."):
            owner = getattr(owner, part)
        return owner

    def test_install_and_undo(self):
        tracer = _load_perfbench("tracer")
        paths = [(layer, path) for layer, entries in tracer.LAYERS.items() for path, _ in entries]
        before = {p: self.resolve(*p) for p in paths}
        assert inspect.isgeneratorfunction(before[("enumeration", "signed_diagrams")])
        undo = tracer.install(tracer.Tracer())
        try:
            wrapped = {p: self.resolve(*p) for p in paths}
        finally:
            undo()
        assert all(wrapped[p] is not before[p] for p in paths)
        assert all(self.resolve(*p) is before[p] for p in paths)

    def test_workloads_run_a_round(self, monkeypatch):
        # each workload sets up and runs one in-process round as the
        # benchmark does, so a call it depends on cannot change unseen
        perfbench = ROOT / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        monkeypatch.chdir(perfbench / "cli")
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        own = ("workloads", "cli_mix", "calibration", "tracer")
        loaded = [name for name in own if name in sys.modules]
        try:
            workloads = importlib.import_module("workloads")
            for name in workloads.NAMES:
                wl = workloads.make(name, Path(PACKAGE_PARENT))
                wl.setup(7)
                done, checked = wl.in_process_round(), wl.finish()
                assert done.work > 0 and done.attempted > 0, name
                assert done.failed == checked.failed == 0, name
        finally:
            for name in own:
                if name not in loaded:
                    sys.modules.pop(name, None)


class TestPackageReach:
    """The package holds what it runs: every public function, class and
    method is named somewhere in the package, or wrapped by the benchmark's
    tracer.  A reference route that only the tests call lives in
    tests/oracles.py, and a notion that only its own test calls is gone.

    An attribute of a module bound by a plain ``import`` statement names
    that module's attribute, not the package's, so ``json.loads`` or
    ``heapq.merge`` reaches no package name.  The blind spot that remains:
    names are matched without their class, so a method is counted as
    reached when a method of the same name on another class is called
    (``to_json``, say, on two value classes)."""

    # the moment maps and the representatives are checked by the tests alone
    # until the matrix route for the column deletion decides what they are for
    AWAITING_A_CALLER = ("moment_m1", "moment_m2", "representative")

    def test_every_public_name_is_reached(self):
        tracer = _load_perfbench("tracer")
        traced = {path.rsplit(".", 1)[-1] for entries in tracer.LAYERS.values() for path, _ in entries}
        defined, named = [], set()
        for path in sorted(Path(orbitcalc.__file__).resolve().parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.stem, node.name, node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (path.stem, f"{node.name}.{member.name}", member.name)
                        for member in node.body
                        if isinstance(member, ast.FunctionDef)
                    ]
            imported = {
                alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in imported
                ):
                    named.add(node.attr)
        reached = named | traced | set(self.AWAITING_A_CALLER)
        unreached = [
            f"{module}.{qualname}"
            for module, qualname, name in defined
            if not name.startswith("_") and name not in reached
        ]
        assert unreached == []


class TestLazyImports:
    """Structural pins, not timing gates: each command loads only the modules
    it runs, and the package never loads ``dataclasses``."""

    @staticmethod
    def loaded_after(*commands):
        """(exit codes, the orbitcalc and heavy stdlib modules loaded) after
        running ``commands`` through ``main`` in a fresh interpreter."""
        script = textwrap.dedent(
            f"""
            import contextlib, io, json, sys
            from orbitcalc.cli import main
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes = [main(argv) for argv in {list(commands)!r}]
            heavy = ("dataclasses", "inspect", "fractions", "decimal")
            loaded = [m for m in sys.modules if m.startswith("orbitcalc") or m in heavy]
            print(json.dumps([codes, sorted(loaded)]))
            """
        )
        proc = run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        return tuple(json.loads(proc.stdout.splitlines()[-1]))

    def test_tower_and_render_skip_oracle_and_verify(self, intro_path):
        codes, loaded = self.loaded_after(["render", intro_path], ["tower", intro_path])
        assert codes == [0, 0]
        heavy = ("orbitcalc.moment_oracle", "orbitcalc.verify", "fractions", "dataclasses")
        assert [m for m in heavy if m in loaded] == []

    def test_render_validate_and_usage_errors_load_diagram_core_alone(self, intro_path):
        codes, loaded = self.loaded_after(
            ["render", intro_path],
            ["validate", intro_path],
            ["verify", "--suite", "nope", "--max", "-3"],
            ["infchar", "--kind", "x", intro_path],
            ["enumerate", "--kind", "sp", "--size", "-1"],
            ["wf-ialpha", "--n", "-1", "--alpha", "1"],
            *([cmd, intro_path + ".missing"] for cmd in ("tower", "classify", "chain")),
            ["induce", "--n", "3", intro_path + ".missing"],
            ["classify", intro_path],
        )
        assert codes == [0, 0] + [2] * 8 + [0]
        assert loaded == ["orbitcalc", "orbitcalc.cli", "orbitcalc.diagram_core"]

    def test_diagram_suites_skip_oracle(self):
        codes, loaded = self.loaded_after(
            ["verify", "--suite", "lemma-pm", "--max", "8"],
            ["verify", "--suite", "domino-oracle", "--max", "8"],
        )
        assert codes == [0, 0]
        assert "orbitcalc.verify" in loaded
        oracle = ("orbitcalc.moment_oracle", "fractions", "decimal")
        assert [m for m in oracle if m in loaded] == []

    def test_oracle_loads_no_dataclasses(self, tmp_path):
        path = tmp_path / "nilpotent.json"
        path.write_text("[[0, 1], [0, 0]]")
        codes, loaded = self.loaded_after(["oracle", "classify", str(path), "--form", "sp:2"])
        assert codes == [0]
        assert "orbitcalc.moment_oracle" in loaded
        assert "dataclasses" not in loaded and "orbitcalc.verify" not in loaded

    def test_bad_max_is_reported_before_the_suite(self, capsys):
        # --max is checked before verify is imported, so it wins over a bad suite
        code, out, err = run(capsys, "verify", "--suite", "nope", "--max", "-3")
        assert (code, out) == (2, "")
        assert err == "error: --max must be nonnegative, got -3\n"


class TestConsoleScript:
    """The ``orbitcalc`` script that ``pyproject.toml`` declares runs ``chain``
    on the Mp(30) example: the installed script where there is one, and
    without an install the named function, called the way the generated
    wrapper calls it, in a child process."""

    def test_entry_point(self, intro_path):
        exe = shutil.which("orbitcalc")
        if exe is not None:
            proc = subprocess.run([exe, "chain", intro_path], capture_output=True, text=True)
            assert proc.returncode == 0
            assert proc.stdout.strip().startswith("Mp(30)")

        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        module, function = scripts["orbitcalc"].split(":")
        assert callable(getattr(importlib.import_module(module), function))
        wrapper = (
            f"import sys; from {module} import {function}; "
            f"sys.argv = ['orbitcalc', 'chain', {intro_path!r}]; sys.exit({function}())"
        )
        proc = run_python(["-c", wrapper])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("Mp(30)")


class TestWfIalpha:
    def test_complete(self, capsys):
        code, out, _ = run(capsys, "wf-ialpha", "--n", "3", "--alpha", "0", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["complete"] is True
        assert [c["plus_rows"] for c in data["components"]] == [3, 2, 1, 0]

    def test_parity_error(self, capsys):
        code, _, err = run(capsys, "wf-ialpha", "--n", "3", "--alpha", "1")
        assert code == 2
