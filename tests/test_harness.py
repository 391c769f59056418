"""The tier-1 harness in ``conftest.py``: a test call that runs past the
per-test limit fails, and the failure names the test; hypothesis keeps its
storage outside the checkout.  The statement census's list of unrun
statements, ``tests/unrun.txt``, still names its lines."""

import importlib.util
from pathlib import Path

from hypothesis.configuration import storage_directory

import orbitcalc

CONFTEST = Path(__file__).with_name("conftest.py")
PACKAGE_PARENT = str(Path(orbitcalc.__file__).resolve().parents[1])


def test_time_limit_fails_a_hanging_test_by_name(pytester, monkeypatch):
    # the suite's own conftest with a half-second limit, around a test that
    # would sleep for 20 s
    source = CONFTEST.read_text()
    short = source.replace("LIMIT = 30", "LIMIT = 0.5")
    assert short != source
    pytester.makeconftest(short)
    pytester.makepyfile(test_sleeper="import time\n\n\ndef test_sleeps():\n    time.sleep(20)\n")
    monkeypatch.setenv("PYTHONPATH", PACKAGE_PARENT)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*test_sleeper.py::test_sleeps ran past the 0.5 s limit*"])
    assert result.duration < 15


def test_hypothesis_storage_is_outside_the_checkout():
    root = Path(__file__).resolve().parents[1]
    home = storage_directory(intent_to_write=False).path.resolve()
    assert home != root and root not in home.parents, home


def test_unrun_entries_match_their_lines():
    # cheap: reads the list and the sources, runs no census; a line that
    # moved or changed fails here until scripts/census.py is re-run
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("census", root / "scripts" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    for file, line, reason, text in census.read_unrun():
        source = (root / file).read_text()
        assert source.splitlines()[line - 1].strip() == text, (file, line)
        assert line in dict(census.statements(source)), (file, line)
        assert reason, (file, line)
