import pytest

from orbitcalc.verify import SUITES, run_suite

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


def test_suites_deterministic():
    a = run_suite("conjugation", 10)
    b = run_suite("conjugation", 10)
    assert a.to_json_dict() == b.to_json_dict()
