"""The tier-1 harness in ``conftest.py``: a test call that runs past the
per-test limit fails, and the failure names the test."""

from pathlib import Path

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
