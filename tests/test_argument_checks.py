"""Checks on arguments that no other test triggers, each reached through
its public entry with the message it raises, and the field count that
every value's constructor and trusted builder check."""

import pytest

from orbitcalc import tower, verify  # noqa: F401  (their Value classes)
from orbitcalc.diagram_core import (
    MINUS,
    ORTHOGONAL,
    PLUS,
    SYMPLECTIC,
    Partition,
    SignedDiagram,
    Signature,
    Value,
)
from orbitcalc.infchar import segment
from orbitcalc.moment_oracle import (
    RationalMatrix,
    build_witness,
    moment_m1,
    moment_m2,
    representative,
)
from orbitcalc.orbit_induction import wf_theta_trivial
from orbitcalc.theta_orbits import deletion_inertia, inertia_companions

O1 = SignedDiagram(ORTHOGONAL, ((1, PLUS),))
SP2 = SignedDiagram(SYMPLECTIC, ((1, MINUS), (1, PLUS)))  # m = 1, two rows
I2, I3 = RationalMatrix.identity(2), RationalMatrix.identity(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: segment(SYMPLECTIC, -1), "segment length must be nonnegative"),
        (lambda: I2 + I3, "shape mismatch: 2x2 vs 3x3"),
        (lambda: I2 @ I3, "dimension mismatch: 2 vs 3"),
        (lambda: RationalMatrix.zeros(2, 3).inverse(), "only a square matrix has an inverse"),
        (lambda: moment_m1(RationalMatrix.zeros(2, 2), 2, 1), "matrix has 2 rows, need p + q = 3"),
        (lambda: moment_m2(RationalMatrix.zeros(3, 3), 2, 1), "column count must be even"),
        (lambda: representative(O1), "representatives are built for symplectic diagrams"),
        (lambda: build_witness(SP2, 2, 0), "row count 2 exceeds new column length 1"),
        (lambda: build_witness(SP2, 3, 1), "orbit index 1 outside [0, 0]"),
        (lambda: build_witness(O1, 1, 0), "witnesses extend symplectic diagrams"),
        (lambda: wf_theta_trivial(0, 0), "need p, q >= 0 with p + q >= 1"),
        (lambda: deletion_inertia(O1), "the pairing inertia applies to symplectic diagrams"),
        (
            lambda: inertia_companions(Partition((3, 1)), Signature(1, 1)),
            "(3,1) is not a valid symplectic shape",
        ),
    ],
    ids=[
        "segment-negative-length",
        "add-shapes",
        "matmul-shapes",
        "inverse-not-square",
        "m1-row-count",
        "m2-odd-columns",
        "representative-orthogonal",
        "witness-too-many-rows",
        "witness-orbit-index",
        "witness-orthogonal",
        "wf-theta-trivial-empty",
        "deletion-inertia-orthogonal",
        "companions-odd-class",
    ],
)
def test_argument_check(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def value_classes() -> list[type]:
    """Every ``Value`` subclass the package defines."""
    found, todo = [], [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("orbitcalc."):
                found.append(cls)
    return found


def test_every_value_class_is_found():
    assert sorted(cls.__name__ for cls in value_classes()) == [
        "BoundReport",
        "CheckRecord",
        "ClassUReport",
        "FormSpec",
        "InducedOrbitSet",
        "Partition",
        "RationalMatrix",
        "SignedDiagram",
        "SuiteReport",
        "Tower",
        "TowerCertificate",
    ]


@pytest.mark.parametrize("cls", value_classes(), ids=lambda cls: cls.__name__)
def test_wrong_field_count_is_a_type_error(cls):
    # one field too many or one too few; a class that checks its input
    # keeps its own signature and defaults
    n = len(cls._field_names)
    too_few = n - 1
    own_init = "__init__" in vars(cls)
    for build, count in [
        (cls, n + 1),
        (cls._trusted, n + 1),
        (cls._trusted, too_few),
        *([] if own_init else [(cls, too_few)]),
    ]:
        with pytest.raises(TypeError):
            build(*[None] * count)
