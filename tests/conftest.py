import signal
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from orbitcalc.diagram_core import Kind, Sign, SignedDiagram, SignedRow

pytest_plugins = ("pytester",)

# tier1: the same cases on every run, no example database in the checkout,
# and no per-example deadline, which tracks host load rather than the code;
# the per-test LIMIT below bounds the time instead
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# hypothesis still writes its storage (constants, unicode data) without a
# database; keep it in a directory outside the checkout, removed at exit
HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="orbitcalc-hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

LIMIT = 30  # seconds per test call; faulthandler_timeout dumps the stacks first


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail a test whose call runs past LIMIT seconds, naming it, so that a
    hang fails the run instead of stopping it."""

    def expire(signum, frame):
        pytest.fail(f"{item.nodeid} ran past the {LIMIT} s limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

M = Sign.MINUS
P = Sign.PLUS


@pytest.fixture
def intro_diagram() -> SignedDiagram:
    """The Mp(30) running example: signature sequence down the tower is
    (15,15), (10,11), (7,7), (5,4), (2,2), (1,0)."""
    return SignedDiagram(
        Kind.SYMPLECTIC,
        (
            SignedRow(6, M),
            SignedRow(5, M),
            SignedRow(5, P),
            SignedRow(4, M),
            SignedRow(4, P),
            SignedRow(2, P),
            SignedRow(2, P),
            SignedRow(1, M),
            SignedRow(1, P),
        ),
    )


@pytest.fixture
def induction_source() -> SignedDiagram:
    """Source of the three-orbit induction example (size 18, so m = 9)."""
    return SignedDiagram(
        Kind.SYMPLECTIC,
        (
            SignedRow(5, M),
            SignedRow(5, P),
            SignedRow(4, M),
            SignedRow(2, M),
            SignedRow(2, M),
        ),
    )


@pytest.fixture
def induction_expected() -> list[SignedDiagram]:
    """The three induced diagrams printed for the example, j = 0, 1, 2."""
    common = (
        SignedRow(7, M),
        SignedRow(7, P),
        SignedRow(6, P),
        SignedRow(4, P),
        SignedRow(4, P),
    )
    return [
        SignedDiagram(Kind.SYMPLECTIC, common + (SignedRow(2, P), SignedRow(2, P))),
        SignedDiagram(Kind.SYMPLECTIC, common + (SignedRow(2, P), SignedRow(2, M))),
        SignedDiagram(Kind.SYMPLECTIC, common + (SignedRow(2, M), SignedRow(2, M))),
    ]


@pytest.fixture
def tau_example() -> tuple[SignedDiagram, SignedDiagram]:
    """Even-row flip example: rows 7,7,4,2,1,1; the 4 and 2 rows flip."""
    before = SignedDiagram(
        Kind.SYMPLECTIC,
        (
            SignedRow(7, M),
            SignedRow(7, P),
            SignedRow(4, P),
            SignedRow(2, P),
            SignedRow(1, M),
            SignedRow(1, P),
        ),
    )
    after = SignedDiagram(
        Kind.SYMPLECTIC,
        (
            SignedRow(7, M),
            SignedRow(7, P),
            SignedRow(4, M),
            SignedRow(2, M),
            SignedRow(1, M),
            SignedRow(1, P),
        ),
    )
    return before, after


@pytest.fixture
def yd79_pair() -> list[SignedDiagram]:
    """Two orthogonal diagrams of signature (7, 9)."""
    return [
        SignedDiagram(
            Kind.ORTHOGONAL,
            (SignedRow(6, P), SignedRow(6, M), SignedRow(3, M), SignedRow(1, M)),
        ),
        SignedDiagram(
            Kind.ORTHOGONAL,
            (SignedRow(5, M), SignedRow(4, P), SignedRow(4, M), SignedRow(3, M)),
        ),
    ]
