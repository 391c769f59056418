"""The trusted builders against the checking constructors.

Inside the package a diagram or partition whose rows the code laid out
itself is built through ``_trusted``, which checks nothing.  For every
result the internal builders produce on small inputs, the trusted object
must pass every check the public constructor makes and equal what the
constructor builds from the same rows.
"""

from itertools import groupby

import pytest

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    Signature,
    _shape_problem,
    canonicalize,
    delete_column_signed,
    signature,
    tau,
    validate_signed,
)
from orbitcalc.enumeration import partitions, shapes, signed_diagrams
from orbitcalc.moment_oracle import FormSpec, classify_signed, representative
from orbitcalc.orbit_induction import add_two_columns, induce_real, two_n_signed
from orbitcalc.theta_orbits import inertia_companions
from orbitcalc.verify import _conjugation_pool
from oracles import all_signed, theta_lift_real

SIGNED_MAX = 14
PARTITION_MAX = 20


def assert_checked_equal(d: SignedDiagram) -> None:
    assert type(d) is SignedDiagram and isinstance(d.kind, Kind)
    assert type(d.rows) is tuple
    assert all(type(r) is SignedRow and isinstance(r.leading, Sign) for r in d.rows), d
    assert _shape_problem(tuple(r.length for r in d.rows)) is None, d
    assert validate_signed(d.kind, d.rows) == [], d
    assert SignedDiagram(d.kind, d.rows) == d
    assert_partition_checked_equal(d.shape())


def assert_partition_checked_equal(p: Partition) -> None:
    assert type(p) is Partition and type(p.rows) is tuple
    assert _shape_problem(p.rows) is None, p
    assert Partition(p.rows) == p


def free_classes_reversed(d: SignedDiagram) -> SignedDiagram:
    """A valid, in general not canonical, copy of d: every free class lists
    its Minus-leading rows first."""
    rows = []
    for length, group in groupby(d.rows, key=lambda row: row.length):
        group = list(group)
        rows += group if d.kind.constrained(length) else group[::-1]
    return SignedDiagram(d.kind, tuple(rows))


class TestSignedBuilders:
    """diagrams_for_shape, canonicalize, tau, delete_column_signed,
    induce_real and theta_lift_real, on every diagram up to size 14, and
    two_n_signed up to [2^30]."""

    def test_every_result_passes_the_constructor(self):
        built = 0
        for d in all_signed(SIGNED_MAX):  # diagrams_for_shape
            results = [d, canonicalize(d), delete_column_signed(d)]
            copy = free_classes_reversed(d)
            assert canonicalize(copy) == d
            results.append(canonicalize(copy))
            if d.kind is Kind.SYMPLECTIC:
                results.append(tau(d))
                m, r = d.size // 2, len(d.rows)
                for n in range(m + r, SIGNED_MAX // 2 + 1):
                    results += induce_real(d, n).diagrams
            for e in results:
                assert_checked_equal(e)
            built += len(results)
        assert built > 9000

    def test_every_lift_passes_the_constructor(self):
        # every target of size <= 14 with every split, balanced or not, so
        # that a candidate with an odd constrained class is tried
        lifts = refused = 0
        for d in all_signed(SIGNED_MAX - 1):
            for size in range(d.size + len(d.rows), SIGNED_MAX + 1):
                for plus in range(size + 1):
                    try:
                        lift = theta_lift_real(d, Signature(plus, size - plus))
                    except ValueError:
                        refused += 1
                        continue
                    assert_checked_equal(lift)
                    assert signature(lift) == Signature(plus, size - plus)
                    lifts += 1
        assert lifts > 1000 and refused > 1000

    def test_two_n_signed(self):
        for n in range(31):
            for i in range(n + 1):
                rows = (SignedRow(2, Sign.PLUS),) * i + (SignedRow(2, Sign.MINUS),) * (n - i)
                d = two_n_signed(n, i)
                assert d == SignedDiagram(Kind.SYMPLECTIC, rows), (n, i)
                assert_checked_equal(d)
            for i in (-1, n + 1):
                with pytest.raises(ValueError, match="outside"):
                    two_n_signed(n, i)


class TestComputedBuilders:
    """classify_signed and inertia_companions lay out the classes they
    computed and build through _trusted: every label of a representative up
    to size 12 and of the conjugation pool, and every companion up to size
    14."""

    def test_classify_signed(self):
        labels = []
        for size in range(0, 13, 2):
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                label = classify_signed(representative(d), FormSpec.symplectic(size))
                assert label == d
                labels.append(label)
        labels += [classify_signed(x, form) for x, form in _conjugation_pool()]
        for label in labels:
            assert_checked_equal(label)
        assert {label.kind for label in labels} == set(Kind)

    def test_inertia_companions(self):
        found = 0
        for size in range(0, 15, 2):
            for shape in shapes(Kind.SYMPLECTIC, size):
                for plus in range(size + 1):
                    for minus in range(size + 1 - plus):
                        d, count = inertia_companions(shape, Signature(plus, minus))
                        if d is not None:
                            assert_checked_equal(d)
                            assert d.shape() == shape and count > 0
                            found += 1
        assert found == 487  # the (shape, target) pairs some diagram reaches


class TestPartitionBuilders:
    """transpose, add_two_columns, shapes and the partitions() stream, on
    every partition up to size 20."""

    def test_every_result_passes_the_constructor(self):
        built = 0
        for n in range(PARTITION_MAX + 1):
            for rows in partitions(n):
                # rows read as column heights, as suite_domino_oracle and
                # admissible_shapes take them; results[0] is their shape
                p = Partition._trusted(rows)
                assert_partition_checked_equal(p)
                results = [p.transpose(), p.transpose().transpose()]
                results += [add_two_columns(p, k) for k in range(p.height, p.height + 3)]
                for q in results:
                    assert_partition_checked_equal(q)
                assert results[1] == p
                built += len(results)
        assert built > 13_000

    def test_shapes(self):
        for size in range(PARTITION_MAX + 1):
            for kind in Kind:
                for p in shapes(kind, size):
                    assert_partition_checked_equal(p)
                    assert p.size == size
