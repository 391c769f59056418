import pytest

from orbitcalc.diagram_core import (
    Kind,
    Sign,
    SignedDiagram,
    SignedRow,
    Signature,
    delete_column_signed,
    equivalent,
    group_of,
    signature,
    tau,
)
from orbitcalc.enumeration import diagrams_for_shape, shapes, signed_diagrams
from orbitcalc.orbit_induction import two_n_signed
from orbitcalc.theta_orbits import (
    chain,
    deletion_inertia,
    in_moment_image,
    inertia_companions,
)
from oracles import is_nilpotent, is_zero, theta_lift_real

M = Sign.MINUS
P = Sign.PLUS


class TestLiftReal:
    def test_intro_top(self, intro_diagram):
        d5 = delete_column_signed(intro_diagram)
        assert signature(d5) == Signature(10, 11)
        lifted = theta_lift_real(d5, Signature(15, 15))
        assert equivalent(lifted, intro_diagram)

    def test_single_box(self):
        lifted = theta_lift_real(SignedDiagram(Kind.SYMPLECTIC, ()), Signature(1, 0))
        assert lifted.rows == (SignedRow(1, P),)

    def test_infeasible_counts(self):
        d = SignedDiagram(Kind.ORTHOGONAL, (SignedRow(1, P),))
        # lift must flip the box to (2, -) and add paired 1-rows: (4, 2) has
        # no room for the demanded plus surplus
        with pytest.raises(ValueError, match="no valid lift"):
            theta_lift_real(d, Signature(4, 2))

    @pytest.mark.parametrize(
        "rows, target",
        [((), (1, 0)), ((), (2, 1)), (((1, P),), (2, 1)), (((1, P), (1, M)), (3, 2))],
    )
    def test_odd_symplectic_ones_refused(self, rows, target):
        # the lift is symplectic and needs an odd count of new 1-rows, which
        # no symplectic diagram has
        d = SignedDiagram(Kind.ORTHOGONAL, rows)
        assert (sum(target) - d.size - len(d.rows)) % 2 == 1
        with pytest.raises(ValueError, match="no valid lift"):
            theta_lift_real(d, Signature(*target))

    def test_round_trip_small(self):
        for size in range(0, 9):
            for kind in Kind:
                for d in signed_diagrams(kind, size=size):
                    base = signature(
                        SignedDiagram(
                            kind.opposite,
                            tuple(
                                SignedRow(r.length + 1, r.leading.flipped)
                                for r in d.rows
                            ),
                        )
                    )
                    for ones in range(0, 4):
                        if kind.opposite is Kind.SYMPLECTIC:
                            if ones % 2 != 0:
                                continue
                            target = Signature(
                                base.plus + ones // 2, base.minus + ones // 2
                            )
                            targets = [target]
                        else:
                            targets = [
                                Signature(base.plus + a, base.minus + ones - a)
                                for a in range(ones + 1)
                            ]
                        for target in targets:
                            lifted = theta_lift_real(d, target)
                            assert equivalent(delete_column_signed(lifted), d)
                            assert signature(lifted) == target


class TestPairingInertia:
    def test_two_rows(self):
        # [2^n]^(i) has inertia (i, n-i)
        for n in range(5):
            for i in range(n + 1):
                assert deletion_inertia(two_n_signed(n, i)) == Signature(i, n - i)

    def test_regular_rows(self):
        # an even row of length 2w splits (w-1, w-1) plus one middle sign
        assert deletion_inertia(SignedDiagram(Kind.SYMPLECTIC, ((4, P),))) == (1, 2)
        assert deletion_inertia(SignedDiagram(Kind.SYMPLECTIC, ((4, M),))) == (2, 1)
        assert deletion_inertia(SignedDiagram(Kind.SYMPLECTIC, ((6, P),))) == (3, 2)

    @pytest.mark.parametrize("lead", [P, M])
    def test_middle_sign_rule(self, lead):
        # the middle sign of an even row of length 2 * half leading with
        # lead is lead * (-1)^(half - 1), the sign of box half; it decides
        # which side of the inertia gets the row's middle
        value = 1 if lead is P else -1
        for half in range(1, 9):
            middle = lead.alternation[half % 2]
            assert (middle is P) == (value * (-1) ** (half - 1) == 1), (half, lead)
            row = SignedDiagram(Kind.SYMPLECTIC, ((2 * half, lead),))
            plus = int(middle is P)
            assert deletion_inertia(row) == (half - 1 + plus, half - plus)
            assert inertia_companions(row.shape(), deletion_inertia(row)) == (row, 1)

    def test_odd_pairs_split_evenly(self):
        d = SignedDiagram(Kind.SYMPLECTIC, ((3, M), (3, P)))
        assert deletion_inertia(d) == Signature(2, 2)

    def test_negation_swaps(self):
        from orbitcalc.diagram_core import negate

        for size in range(0, 9, 2):
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                r, s = deletion_inertia(d)
                assert deletion_inertia(negate(d)) == Signature(s, r)

    def test_tau_swaps_inertia_and_companion_counts_to_16(self):
        # check_non3 takes a companion of inertia (p0, q0) for tau of one of
        # inertia (q0, p0): tau moves every even row's middle sign to the
        # other side, and it permutes the diagrams of a shape, so the two
        # targets have as many companions
        for size in range(0, 17, 2):
            for shape in shapes(Kind.SYMPLECTIC, size):
                inertias = set()
                for d in diagrams_for_shape(shape, Kind.SYMPLECTIC):
                    r, s = deletion_inertia(d)
                    assert deletion_inertia(tau(d)) == Signature(s, r), d
                    inertias.add(Signature(r, s))
                for r, s in inertias:
                    count = inertia_companions(shape, Signature(r, s))[1]
                    assert count > 0, (shape, r, s)
                    assert inertia_companions(shape, Signature(s, r))[1] == count, (shape, r, s)

    def test_matches_matrix_inertia(self):
        # the row formula equals the inertia of -W X on a representative
        from orbitcalc import moment_oracle as mo

        for size in range(0, 9, 2):
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                x = mo.representative(d)
                w = mo.FormSpec.symplectic(size).matrix()
                s = -(w @ x)
                got = mo.symmetric_signature([list(row) for row in s.entries])
                assert got == tuple(deletion_inertia(d)), d


class TestMomentImage:
    def test_two_row_criterion(self):
        # [2^n]^(i) meets the image for (p, q) exactly when i <= p, n-i <= q
        for n in range(1, 7):
            for p in range(0, n + 1):
                q = n - p  # p + q = n <= 2n
                for i in range(n + 1):
                    want = i <= p and n - i <= q
                    assert in_moment_image(two_n_signed(n, i), p, q) == want

    def test_regular_orbit_sides(self):
        # the size-4 regular orbits need the mixed signatures, not definite
        plus = SignedDiagram(Kind.SYMPLECTIC, ((4, P),))
        minus = SignedDiagram(Kind.SYMPLECTIC, ((4, M),))
        assert in_moment_image(plus, 1, 2)
        assert not in_moment_image(plus, 2, 1)
        assert in_moment_image(minus, 2, 1)
        assert not in_moment_image(minus, 1, 2)

    def test_regular_orbit_matrix_witness(self):
        # explicit x with m2(x) in the plus regular orbit for (p, q) = (1, 2)
        from orbitcalc import moment_oracle as mo
        from orbitcalc.diagram_core import equivalent

        plus = SignedDiagram(Kind.SYMPLECTIC, ((4, P),))
        x = mo.representative(plus)
        w = mo.FormSpec.symplectic(4).matrix()
        s = -(w @ x)
        assert mo.symmetric_signature([list(r) for r in s.entries]) == (1, 2)
        # peel s into rank-one pieces: s = sum of +/- v v^t readable off a
        # congruence basis; here the middle antidiagonal form diagonalizes
        # by hand over the rationals
        found = None
        import itertools

        for entries in itertools.product((-1, 0, 1), repeat=12):
            x3 = mo.RationalMatrix.from_rows(
                [entries[0:4], entries[4:8], entries[8:12]]
            )
            m2 = mo.moment_m2(x3, 1, 2)
            if is_nilpotent(m2) and not is_zero(m2):
                label = mo.classify_signed(m2, mo.FormSpec.symplectic(4))
                if equivalent(label, plus):
                    found = x3
                    break
        assert found is not None

    def test_boundary(self):
        d = two_n_signed(3, 2)
        r, s = deletion_inertia(d)
        assert (r, s) == (2, 1)
        assert in_moment_image(d, r, s)
        assert not in_moment_image(d, r - 1, s)

    def test_monotone(self):
        for d in signed_diagrams(Kind.SYMPLECTIC, size=6):
            hits = set()
            for p in range(0, 7):
                for q in range(0, 7 - p):
                    if in_moment_image(d, p, q):
                        hits.add((p, q))
            for p, q in hits:
                if p + 1 + q <= 6:
                    assert (p + 1, q) in hits
                if p + q + 1 <= 6:
                    assert (p, q + 1) in hits

    def test_precondition(self):
        with pytest.raises(ValueError, match="p \\+ q"):
            in_moment_image(two_n_signed(2, 1), 3, 2)


class TestChain:
    def test_intro(self, intro_diagram):
        th = chain(intro_diagram)
        assert [group_of(d) for d in th] == [
            "Mp(30)",
            "O(10,11)",
            "Mp(14)",
            "O(5,4)",
            "Mp(4)",
            "O(1,0)",
        ]
        assert [tuple(signature(d)) for d in th] == [
            (15, 15),
            (10, 11),
            (7, 7),
            (5, 4),
            (2, 2),
            (1, 0),
        ]

    def test_single_box(self):
        th = chain(SignedDiagram(Kind.ORTHOGONAL, (SignedRow(1, M),)))
        assert len(th) == 1
        assert group_of(th[0]) == "O(0,1)"

    def test_length_is_width(self):
        for size in range(0, 9):
            for kind in Kind:
                for d in signed_diagrams(kind, size=size):
                    assert len(chain(d)) == d.shape().width

    def test_builds_one_diagram_per_step(self, monkeypatch):
        # every step is built once, through the trusted builder; none goes
        # through the checking constructor
        diagrams = [d for size in range(0, 9) for kind in Kind for d in signed_diagrams(kind, size=size)]
        built, checked = [], []
        trusted = SignedDiagram._trusted
        check = SignedDiagram.__init__

        def counted(kind, rows):
            built.append(rows)
            return trusted(kind, rows)

        def counted_check(self, *args, **kwargs):
            checked.append(args)
            check(self, *args, **kwargs)

        monkeypatch.setattr(SignedDiagram, "_trusted", staticmethod(counted))
        monkeypatch.setattr(SignedDiagram, "__init__", counted_check)
        for d in diagrams:
            built.clear()
            steps = chain(d)
            assert len(built) == len(steps) == d.width, d
        assert checked == []

    def test_alternates_and_deletes(self):
        for d in signed_diagrams(Kind.ORTHOGONAL, size=7):
            th = chain(d)
            for a, b in zip(th, th[1:]):
                assert b.kind is a.kind.opposite
                assert equivalent(delete_column_signed(a), b)
