from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitcalc.diagram_core import Partition, validate_partition_kind, Kind
from orbitcalc.enumeration import partitions
from orbitcalc.moment_oracle import parse_rational
from orbitcalc.vector_order import (
    bar_sort,
    dominance_leq,
    scaled_preceq,
    seq_preceq,
    vector_to_json,
)
from oracles import format_rational, vector_from_json

halves = st.integers(-8, 8)  # doubled entries: the halves -4, -7/2, ..., 4
vectors = st.lists(halves, min_size=0, max_size=8).map(tuple)


def seq_prec(a, b):
    """Strict at every partial sum: the strict path of scaled_preceq."""
    return scaled_preceq(a, b, 1, 1, strict=True)


class TestSeqOrders:
    def test_reflexive_weak_not_strict(self):
        a = (6, 2, 1)  # (3, 1, 1/2) doubled
        assert seq_preceq(a, a)
        assert not seq_prec(a, a)

    def test_basic(self):
        assert seq_preceq((2, 2), (4, 0))
        assert not seq_preceq((4, 0), (2, 2))

    def test_segment_pair_instance(self):
        # merged pair of small segments against half the full segment
        lhs = vector_from_json(["3/2", "1/2", "1/2"])
        rhs = vector_from_json(["3/2", "1", "1/2"])
        assert seq_preceq(lhs, rhs)
        assert not seq_prec(lhs, rhs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            seq_preceq((2,), (2, 0))

    def test_empty_vacuous(self):
        assert seq_preceq((), ())
        assert seq_prec((), ())


class TestBarSort:
    def test_examples(self):
        assert bar_sort((0, 4, 2)) == (4, 2, 0)
        assert bar_sort((6, 4, 2)) == (6, 4, 2)

    @given(vectors)
    def test_multiset_preserved(self, a):
        assert sorted(bar_sort(a)) == sorted(a)
        out = bar_sort(a)
        assert all(out[i] >= out[i + 1] for i in range(len(out) - 1))


class TestTrivialityClauses:
    """Four closure clauses of the weak/strict orders on sorted vectors."""

    @given(vectors, vectors, vectors, vectors)
    def test_sum_clause(self, a, b, c, d):
        n = min(len(a), len(b), len(c), len(d))
        a, b, c, d = (bar_sort(v[:n]) for v in (a, b, c, d))
        if seq_prec(a, b) and seq_preceq(c, d):
            summed_l = tuple(x + y for x, y in zip(a, c))
            summed_r = tuple(x + y for x, y in zip(b, d))
            assert seq_prec(summed_l, summed_r)

    @given(vectors, vectors, vectors, vectors)
    def test_concat_clause(self, a, b, c, d):
        n = min(len(a), len(b))
        m = min(len(c), len(d))
        a, b = bar_sort(a[:n]), bar_sort(b[:n])
        c, d = bar_sort(c[:m]), bar_sort(d[:m])
        if seq_prec(a, b) and seq_prec(c, d):
            assert seq_prec(bar_sort(a + c), bar_sort(b + d))

    @given(vectors, vectors)
    def test_entrywise_clauses(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        if all(x <= y for x, y in zip(a, b)):
            assert seq_preceq(bar_sort(a), bar_sort(b))
        if all(x < y for x, y in zip(a, b)):
            assert seq_prec(bar_sort(a), bar_sort(b))


class TestDominance:
    def test_minimal_orbit_below_everything(self):
        for n in (4, 6):
            ones = Partition((1,) * n)
            for rows in partitions(n):
                assert dominance_leq(ones, Partition(rows))

    def test_examples(self):
        assert dominance_leq(Partition((2, 2)), Partition((4,))) is True
        assert dominance_leq(Partition((4,)), Partition((2, 2))) is False
        # incomparable: false in both directions
        assert dominance_leq(Partition((3, 3)), Partition((4, 1, 1))) is False
        assert dominance_leq(Partition((4, 1, 1)), Partition((3, 3))) is False
        assert dominance_leq(Partition((3, 1)), Partition((3, 1))) is True

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="incomparable sizes"):
            dominance_leq(Partition((2,)), Partition((3,)))

    def test_partial_order_axioms_exhaustive(self):
        # reflexivity, antisymmetry, transitivity on all partitions of n <= 12
        for n in range(1, 13):
            parts = [Partition(rows) for rows in partitions(n)]
            below = [[dominance_leq(a, b) for b in parts] for a in parts]
            for i, a in enumerate(parts):
                assert below[i][i]
                for j in range(len(parts)):
                    if below[i][j] and below[j][i]:
                        assert i == j
            k = len(parts)
            for i in range(k):
                for j in range(k):
                    if not below[i][j]:
                        continue
                    for l in range(k):
                        if below[j][l]:
                            assert below[i][l]

    def test_agrees_with_box_move_closure(self):
        # single-box moves generate the order; compare on symplectic shapes
        for n in (4, 6, 8):
            parts = [Partition(rows) for rows in partitions(n)]

            def moves(d):
                out = set()
                rows = list(d.rows)
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows) + 1):
                        cand = rows + [0]
                        cand[i] -= 1
                        cand[j] += 1
                        # still weakly decreasing with zeros only at the end
                        if all(cand[t] >= cand[t + 1] for t in range(len(cand) - 1)):
                            out.add(Partition(tuple(r for r in cand if r > 0)))
                return out

            reach = {}
            for d in parts:
                seen = {d}
                frontier = [d]
                while frontier:
                    nxt = []
                    for e in frontier:
                        for f in moves(e):
                            if f not in seen:
                                seen.add(f)
                                nxt.append(f)
                    frontier = nxt
                reach[d] = seen
            symplectic = [
                d for d in parts if validate_partition_kind(d, Kind.SYMPLECTIC)
            ]
            for a in symplectic:
                for b in symplectic:
                    assert dominance_leq(a, b) == (a in reach[b])


class TestSerialization:
    def test_format(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(2)) == "2"
        assert parse_rational("3/2") == Fraction(3, 2)

    def test_bad_rational(self):
        with pytest.raises(ValueError):
            parse_rational("x")

    @given(vectors)
    def test_roundtrip(self, a):
        assert vector_from_json(vector_to_json(a)) == a
