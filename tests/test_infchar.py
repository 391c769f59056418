from fractions import Fraction

import pytest

from orbitcalc.diagram_core import Kind, Partition
from orbitcalc.enumeration import partitions
from orbitcalc.infchar import (
    check_bound,
    domino_cover,
    infchar_domino,
    infchar_segments,
    segment,
)
from orbitcalc.vector_order import bar_sort, scaled_preceq, seq_preceq, vector_to_json
from oracles import reversal_check, rho


class TestSegment:
    def test_even_minus_is_rho(self):
        assert vector_to_json(segment(Kind.SYMPLECTIC, 6)) == ["3", "2", "1"]

    def test_plus_one_empty(self):
        assert tuple(segment(Kind.ORTHOGONAL, 1)) == ()

    def test_odd_minus(self):
        assert vector_to_json(segment(Kind.SYMPLECTIC, 3)) == ["3/2", "1/2"]

    def test_endings(self):
        # odd m: minus segment ends in 1/2; even m >= 2: plus segment ends in 0
        # (entries are doubled)
        for m in range(1, 100, 2):
            assert segment(Kind.SYMPLECTIC, m)[-1] == 1
        for m in range(2, 100, 2):
            assert segment(Kind.ORTHOGONAL, m)[-1] == 0

    def test_sum_identities(self):
        for m in range(1, 100, 2):
            assert Fraction(sum(segment(Kind.SYMPLECTIC, m)), 2) == Fraction(
                (m + 1) ** 2, 8
            )
            assert Fraction(sum(segment(Kind.ORTHOGONAL, m)), 2) == Fraction(
                (m - 1) ** 2, 8
            )


class TestSegments:
    def test_column_shape_gives_rho(self):
        for n in (1, 2, 3, 5):
            d = Partition((1,) * (2 * n))
            got = infchar_segments(d, Kind.SYMPLECTIC)
            assert got == tuple(2 * (n - i) for i in range(n))  # doubled (n, ..., 1)

    def test_intro_shape(self):
        d = Partition((6, 5, 5, 4, 4, 2, 2, 1, 1))
        assert d.transpose() == Partition((9, 7, 5, 5, 3, 1))
        got = infchar_segments(d, Kind.SYMPLECTIC)
        want = [
            "9/2", "7/2", "5/2", "3/2", "1/2",
            "5/2", "3/2", "1/2",
            "5/2", "3/2", "1/2",
            "3/2", "1/2",
            "3/2", "1/2",
        ]
        assert vector_to_json(got) == want

    def test_alternating_rho_segments_for_even_heights(self):
        # transpose (4, 2): the segments are the half sums for sp4 and o2
        d = Partition((4, 2)).transpose()
        got = infchar_segments(d, Kind.SYMPLECTIC)
        assert vector_to_json(got) == ["2", "1", "0"]

    def test_empty(self):
        assert infchar_segments(Partition(), Kind.SYMPLECTIC) == ()


class TestDomino:
    def test_two_two(self):
        assert vector_to_json(infchar_domino(Partition((2, 2)), Kind.SYMPLECTIC)) == ["1", "0"]

    def test_two_one_one(self):
        got = infchar_domino(Partition((2, 1, 1)), Kind.SYMPLECTIC)
        assert vector_to_json(got) == ["3/2", "1/2"]

    def test_open_domino_case(self):
        d = Partition((3, 1, 1))
        assert vector_to_json(infchar_domino(d, Kind.ORTHOGONAL)) == ["1/2", "1/2"]
        opens = [t for t in domino_cover(d, Kind.ORTHOGONAL) if t.orientation == "open"]
        assert len(opens) == 1 and opens[0].label is None and opens[0].column == 1

    def test_mixed_parity_rejected(self):
        with pytest.raises(ValueError, match="very even or very odd"):
            infchar_domino(Partition((2, 1)), Kind.SYMPLECTIC)

    def test_agrees_with_segments_small(self):
        for size in range(1, 13):
            for rows in partitions(size):
                d = Partition(rows)
                t = d.transpose()
                if not (t.very_even or t.very_odd):
                    continue
                for kind in Kind:
                    if kind is Kind.SYMPLECTIC and size % 2 != 0:
                        continue
                    assert infchar_domino(d, kind) == bar_sort(
                        infchar_segments(d, kind)
                    ), (d, kind)

    def test_symplectic_odd_size_rejected(self):
        with pytest.raises(ValueError, match="even-size"):
            infchar_domino(Partition((1,)), Kind.SYMPLECTIC)


class TestRho:
    def test_examples(self):
        assert vector_to_json(rho(Kind.SYMPLECTIC, 8, 0)) == ["4", "3", "2", "1"]
        assert vector_to_json(rho(Kind.ORTHOGONAL, 3, 5)) == ["3", "2", "1"]
        assert vector_to_json(rho(Kind.ORTHOGONAL, 1, 1)) == ["0"]
        assert rho(Kind.SYMPLECTIC, 0, 0) == ()
        assert rho(Kind.ORTHOGONAL, 4, 0) == ()


class TestBound:
    def test_column_shape_weak_equality(self):
        for n in (1, 2, 4):
            d = Partition((1,) * (2 * n))
            res = check_bound(d, Kind.SYMPLECTIC)
            assert res.holds_weak and res.holds_strict
            lhs = bar_sort(infchar_segments(d, Kind.SYMPLECTIC))
            bound = rho(Kind.SYMPLECTIC, 2 * n, 0)
            # equality at the boundary case: the scale m1/2n is 2n/2n = 1
            assert lhs == bound
            assert scaled_preceq(lhs, bound, 2 * n, 2 * n)
            assert not scaled_preceq(lhs, bound, 2 * n, 2 * n, strict=True)

    def test_intro_shape(self):
        d = Partition((6, 5, 5, 4, 4, 2, 2, 1, 1))
        res = check_bound(d, Kind.SYMPLECTIC)
        assert res.holds_weak and res.holds_strict

    def test_orthogonal_size_two_degenerate(self):
        with pytest.raises(ValueError, match="denominator"):
            check_bound(Partition((1, 1)), Kind.ORTHOGONAL)

    def test_orthogonal_single_box(self):
        res = check_bound(Partition((1,)), Kind.ORTHOGONAL)
        assert res.holds_weak and res.holds_strict  # empty vectors

    def test_staircase_family_instance(self):
        # transpose (5, 5, 3, 1): within the staircase family's constraints
        d = Partition((5, 5, 3, 1)).transpose()
        lhs = bar_sort(infchar_segments(d, Kind.SYMPLECTIC))
        rhs = segment(Kind.SYMPLECTIC, 14)
        assert scaled_preceq(lhs, rhs, 5, 14)


class TestReversal:
    def test_equal_inputs(self):
        d = Partition((2, 2))
        assert reversal_check(d, d, Kind.SYMPLECTIC)

    def test_column_shape_has_largest_character(self):
        # the zero orbit's character dominates every comparable partner
        for n in (2, 3):
            ones = Partition((1,) * (2 * n))
            col = bar_sort(infchar_segments(ones, Kind.SYMPLECTIC))
            for rows in partitions(2 * n):
                other = Partition(rows)
                t = other.transpose()
                if not (t.very_even == ones.transpose().very_even or t.very_odd):
                    continue
                if (t.very_even, t.very_odd) != (
                    ones.transpose().very_even,
                    ones.transpose().very_odd,
                ):
                    continue
                assert reversal_check(ones, other, Kind.SYMPLECTIC)
                assert seq_preceq(
                    bar_sort(infchar_segments(other, Kind.SYMPLECTIC)), col
                )

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parity"):
            reversal_check(Partition((2, 2)), Partition((3, 1)), Kind.SYMPLECTIC)
