"""Value semantics of the package's record classes, pinned to the text and
behaviour they had as frozen dataclasses: repr and str (counterexample text
embeds them), class-strict equality, the hash of the field tuple, the
``AttributeError`` on assignment, and the constructors' ``ValueError``s."""

import copy
import pickle

import pytest

from orbitcalc.diagram_core import Kind, Partition, Sign, SignedDiagram
from orbitcalc.infchar import BoundReport, Domino, check_bound, domino_cover
from orbitcalc.moment_oracle import FormSpec, RationalMatrix
from orbitcalc.orbit_induction import InducedOrbitSet, induce_real
from orbitcalc.tower import (
    EMPTY,
    MEMBER,
    CheckRecord,
    ClassUReport,
    Tower,
    TowerCertificate,
    certificate,
    check_range,
    tower,
)
from orbitcalc.verify import SuiteReport, run_suite

P, M = Sign.PLUS, Sign.MINUS
SP = "<Kind.SYMPLECTIC: 'symplectic'>"
OR = "<Kind.ORTHOGONAL: 'orthogonal'>"
O1 = f"SignedDiagram(kind={OR}, rows=(SignedRow(length=1, leading=Sign('+')),))"
TOWER_O1 = f"Tower(steps=({O1},), sig=(Signature(plus=0, minus=0), Signature(plus=1, minus=0)))"


def o1():
    return SignedDiagram(Kind.ORTHOGONAL, ((1, P),))


def base_record():
    return check_range(tower(SignedDiagram(Kind.SYMPLECTIC, ((2, P), (2, M)))))[0]


# (value, repr) with str equal to repr unless the class defines its own
REPRS = [
    (lambda: SignedDiagram(Kind.ORTHOGONAL), f"SignedDiagram(kind={OR}, rows=())"),
    (
        lambda: SignedDiagram(Kind.SYMPLECTIC, ((2, P), (1, M), (1, P))),
        f"SignedDiagram(kind={SP}, rows=(SignedRow(length=2, leading=Sign('+')), "
        "SignedRow(length=1, leading=Sign('-')), SignedRow(length=1, leading=Sign('+'))))",
    ),
    (o1, O1),
    (
        lambda: domino_cover(Partition((2, 2)), Kind.SYMPLECTIC),
        "(Domino(orientation='vertical', column=1, top_row=1, label=2), "
        "Domino(orientation='vertical', column=2, top_row=1, label=0))",
    ),
    (
        lambda: check_bound(Partition((2,)), Kind.SYMPLECTIC),
        "BoundReport(holds_weak=True, holds_strict=True)",
    ),
    (
        lambda: induce_real(SignedDiagram(Kind.SYMPLECTIC), 1),
        "InducedOrbitSet(diagrams=("
        f"SignedDiagram(kind={SP}, rows=(SignedRow(length=2, leading=Sign('+')),)), "
        f"SignedDiagram(kind={SP}, rows=(SignedRow(length=2, leading=Sign('-')),))), "
        "new_columns=1)",
    ),
    (
        lambda: MEMBER,
        "ClassUReport(very_even_or_odd=True, interlacing_ok=True, excluded_pattern=False, reasons=())",
    ),
    (lambda: EMPTY, "Tower(steps=(), sig=(Signature(plus=0, minus=0),))"),
    (lambda: tower(o1()), TOWER_O1),
    (
        lambda: certificate(o1()),
        f"TowerCertificate(diagram={O1}, tower={TOWER_O1}, records=((None, None, None),), "
        "infchar=())",
    ),
    (
        base_record,
        "CheckRecord(k=1, fields={'step': 'base'}, "
        "clauses={'balanced': True, 'size_covers': True})",
    ),
    (
        lambda: RationalMatrix.from_rows([[1, "1/2"], [0, -3]]),
        "RationalMatrix(rows=({0: 2, 1: 1}, {1: -6}), ncols=2, den=2)",
    ),
    (lambda: FormSpec.orthogonal(2, 1), f"FormSpec(kind={OR}, p=2, q=1)"),
    (
        lambda: SuiteReport("twocom", 4, 0, [], []),
        "SuiteReport(name='twocom', bound=4, checked=0, counterexamples=(), notes=())",
    ),
]


@pytest.mark.parametrize("build, text", REPRS)
def test_repr_and_str(build, text):
    assert repr(build()) == text
    assert str(build()) == text


def test_own_str():
    assert (repr(Partition((2, 1))), str(Partition((2, 1)))) == ("Partition(rows=(2, 1))", "(2,1)")
    assert (repr(Partition()), str(Partition())) == ("Partition(rows=())", "()")


def test_equality_is_by_class_and_fields():
    assert Partition((2, 1)) == Partition([2, 1])
    assert Partition((2, 1)) != (2, 1)
    assert Partition((2, 1)) != Partition((2,))
    assert BoundReport(True, False) != (True, False)
    assert Domino("open", 1) == Domino("open", 1, None, None)
    assert Tower((), ()) != InducedOrbitSet((), ())
    clauses = {"balanced": True, "size_covers": True}
    assert base_record() == CheckRecord(1, {"step": "base"}, clauses)
    assert base_record() != CheckRecord(1, {"step": "base"}, dict(clauses, balanced=False))
    assert run_suite("twocom", 4) == run_suite("twocom", 4) == SuiteReport("twocom", 4, 10, [], [])
    assert run_suite("twocom", 4) != run_suite("twocom", 3)


def test_hash_is_the_hash_of_the_field_tuple():
    d = SignedDiagram(Kind.SYMPLECTIC, ((2, P), (1, M), (1, P)))
    assert hash(d) == hash((d.kind, d.rows))
    assert hash(Partition((2, 1))) == hash(((2, 1),))
    assert hash(EMPTY) == hash(((), EMPTY.sig))
    assert hash(MEMBER) == hash((True, True, False, ()))
    assert {FormSpec.symplectic(2): 1}[FormSpec(Kind.SYMPLECTIC, 2, 0)] == 1
    # a matrix holds dicts, so only an empty one hashes, as before; a check
    # record holds dicts too, and so has no hash
    assert hash(RationalMatrix.zeros(0, 3)) == hash(((), 3, 1))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(RationalMatrix.identity(2))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(base_record())
    rep = run_suite("bounds", 4)
    assert rep.notes and hash(rep) == hash(("bounds", 4, rep.checked, (), rep.notes))


@pytest.mark.parametrize(
    "value, field",
    [
        (Partition((1,)), "rows"),
        (SignedDiagram(Kind.ORTHOGONAL), "kind"),
        (certificate(o1()), "records"),
        (BoundReport(True, True), "holds_weak"),
        (InducedOrbitSet((), 0), "new_columns"),
        (MEMBER, "reasons"),
        (EMPTY, "steps"),
        (RationalMatrix.identity(1), "den"),
        (FormSpec.symplectic(2), "p"),
        (Partition((1,)), "other"),
        (run_suite("twocom", 4), "checked"),
        (base_record(), "clauses"),
    ],
)
def test_frozen(value, field):
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_domino_is_a_frozen_named_tuple():
    # the one record built per tile; equal to its field tuple, as a named tuple is
    tile = Domino("vertical", 2, 1, 4)
    assert tile == ("vertical", 2, 1, 4) and hash(tile) == hash(("vertical", 2, 1, 4))
    with pytest.raises(AttributeError):
        tile.label = 0


def test_certificate_is_a_value():
    cert = certificate(o1())
    assert isinstance(cert, TowerCertificate)
    assert cert == certificate(o1())
    assert ClassUReport(True, True, False, ()) == MEMBER


@pytest.mark.parametrize("value", [build for build, _ in REPRS])
def test_copy_and_pickle_keep_the_value(value):
    v = value()
    assert copy.copy(v) == v
    assert copy.deepcopy(v) == v
    assert pickle.loads(pickle.dumps(v)) == v


class SlottedRecord(CheckRecord):
    """A slotted subclass that adds no field: its fields are its base's."""

    __slots__ = ()


def test_slotted_subclass_keeps_its_base_fields():
    rec = SlottedRecord(1, {"step": "base"}, {"balanced": True, "size_covers": True})
    assert (rec.k, rec.fields, rec.clauses) == (1, {"step": "base"}, base_record().clauses)
    assert not hasattr(rec, "__dict__")
    assert rec == SlottedRecord(*base_record()._fields()) != base_record()
    assert repr(rec) == repr(base_record()).replace("CheckRecord", "SlottedRecord")
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec
    with pytest.raises(AttributeError, match="cannot assign to field 'k'"):
        rec.k = 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Partition(5), "row lengths must be a sequence: 5"),
        (lambda: Partition((2.0, 1)), "row lengths must be integers: (2.0, 1)"),
        (lambda: Partition((0,)), "row lengths must be positive: (0,)"),
        (lambda: Partition((1, 2)), "row lengths must be weakly decreasing: (1, 2)"),
        (lambda: SignedDiagram("sp"), "invalid signed diagram: kind must be a Kind, got 'sp'"),
        (
            lambda: SignedDiagram(Kind.SYMPLECTIC, [(1,)]),
            "invalid signed diagram: rows must be (length, sign) pairs: [(1,)]",
        ),
        (
            lambda: SignedDiagram(Kind.SYMPLECTIC, ((2, "+"),)),
            "invalid signed diagram: leading signs must be Sign values: "
            "(SignedRow(length=2, leading='+'),)",
        ),
        (
            lambda: SignedDiagram(Kind.SYMPLECTIC, ((1, P), (2, P))),
            "invalid signed diagram: row lengths must be weakly decreasing: (1, 2)",
        ),
        (
            lambda: SignedDiagram(Kind.SYMPLECTIC, ((1, P), (1, M))),
            "invalid signed diagram: row 1 of the length-1 class leads with '+', convention "
            "requires '-'; row 2 of the length-1 class leads with '-', convention requires '+'",
        ),
        (
            lambda: SignedDiagram(Kind.SYMPLECTIC, ((1, P),)),
            "invalid signed diagram: rows of length 1 occur 1 times; even multiplicity required "
            "for symplectic diagrams; row 1 of the length-1 class leads with '+', convention "
            "requires '-'",
        ),
        (lambda: RationalMatrix((), 0, 0), "matrix denominator must be nonzero"),
        (lambda: FormSpec.symplectic(3), "symplectic dimension must be even and nonnegative"),
        (lambda: RationalMatrix.from_rows([[1, 2], [3]]), "ragged matrix"),
    ],
)
def test_constructor_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
