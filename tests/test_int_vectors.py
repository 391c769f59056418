"""The doubled-int half-integer vectors against a plain Fraction reference.

The package holds a half-integer vector as the tuple of twice its entries
and compares partial sums on ints.  Everything below recomputes the same
objects the straightforward way, over ``fractions.Fraction`` with the
entries themselves, and requires the package's doubled vectors to halve to
the reference exactly: segments, transposes, partial-sum orders (padding
and length mismatches included), the bar operation, scaled comparisons,
the rho-type bounds, both character routes and rho itself.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from orbitcalc.diagram_core import Kind, Partition
from orbitcalc.enumeration import partitions
from orbitcalc.infchar import (
    check_bound,
    domino_cover,
    infchar_domino,
    infchar_segments,
    segment,
)
from orbitcalc.vector_order import (
    bar_sort,
    closure_leq,
    scaled_preceq,
    seq_preceq,
    vector_to_json,
)
from oracles import rho, vector_from_json

MAX_SIZE = 14


def halve(a):
    return tuple(Fraction(x, 2) for x in a)


# ---------------------------------------------------------------------------
# the Fraction reference


def ref_segment(kind, m):
    if kind is Kind.SYMPLECTIC:
        count, start = (m + 1) // 2, Fraction(m, 2)
    else:
        count, start = m // 2, Fraction(m, 2) - 1
    return tuple(start - i for i in range(count))


def ref_transpose(rows):
    width = rows[0] if rows else 0
    return tuple(sum(1 for r in rows if r >= k) for k in range(1, width + 1))


def ref_segments(rows, kind):
    first, other = Kind.SYMPLECTIC, Kind.ORTHOGONAL
    if kind is Kind.ORTHOGONAL:
        first, other = other, first
    out = ()
    for j, m in enumerate(ref_transpose(rows)):
        out += ref_segment(first if j % 2 == 0 else other, m)
    return out


def ref_domino(rows, kind):
    """Sorted domino labels by the counting rule: n(DO), plus 1 on the
    matching column parity; horizontal dominoes of a very odd shape carry
    1/2.  None where the route does not apply."""
    heights = ref_transpose(rows)
    very_odd = all(h % 2 == 1 for h in heights)
    if not (very_odd or all(h % 2 == 0 for h in heights)):
        return None
    if kind is Kind.SYMPLECTIC and sum(rows) % 2:
        return None
    labels = []
    for k, h in enumerate(heights, start=1):
        matching = k % 2 == (1 if kind is Kind.SYMPLECTIC else 0)
        for i in range(h // 2):
            labels.append(i + (Fraction(1, 2) if very_odd else 0) + (1 if matching else 0))
    if very_odd and heights:
        labels += [Fraction(1, 2)] * (rows[0] // 2)
    return tuple(sorted(labels, reverse=True))


def ref_preceq(a, b, strict=False, pad=False):
    if len(a) != len(b):
        if not pad:
            raise ValueError("length mismatch")
        n = max(len(a), len(b))
        a = tuple(a) + (Fraction(0),) * (n - len(a))
        b = tuple(b) + (Fraction(0),) * (n - len(b))
    sa = sb = Fraction(0)
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb or (strict and sa == sb):
            return False
    return True


def ref_rho(kind, p, q):
    if kind is Kind.SYMPLECTIC:
        n = (p + q) // 2
        return tuple(Fraction(n - i) for i in range(n))
    return tuple(Fraction(p + q - 2, 2) - i for i in range(min(p, q)))


def ref_bound(rows, kind):
    """(weak, strict) with the scale applied to a Fraction vector, or None
    where the bound is undefined."""
    size = sum(rows)
    if size == 0:
        return (True, True)
    lhs = tuple(sorted(ref_segments(rows, kind), reverse=True))
    if kind is Kind.SYMPLECTIC:
        if size % 2:
            return None
        base, denom = ref_rho(Kind.SYMPLECTIC, size, 0), size
    else:
        base = tuple(Fraction(size, 2) - 1 - i for i in range(size // 2))
        denom = size - 2 if size > 2 else (None if size == 2 else 1)
        if denom is None:
            return None
    if len(lhs) != len(base):
        return None
    m1 = ref_transpose(rows)[0]
    weak = ref_preceq(lhs, tuple(Fraction(m1, denom) * x for x in base))
    strict = ref_preceq(lhs, tuple(Fraction(m1 + 2, denom) * x for x in base), strict=True)
    return (weak, strict)


def all_partitions(max_size=MAX_SIZE):
    for size in range(0, max_size + 1):
        yield from partitions(size)


# ---------------------------------------------------------------------------

doubled = st.integers(-9, 9)
vectors = st.lists(doubled, max_size=6).map(tuple)


class TestSegments:
    def test_every_segment_up_to_60(self):
        for kind in Kind:
            for m in range(0, 61):
                assert halve(segment(kind, m)) == ref_segment(kind, m), (kind, m)

    def test_transpose_every_partition(self):
        for rows in all_partitions():
            t = Partition(rows).transpose()
            assert t.rows == ref_transpose(rows), rows
            assert t.transpose().rows == rows


class TestOrders:
    @given(vectors, vectors, st.booleans())
    def test_seq_orders(self, a, b, pad):
        # padded: closure_leq(t1, t2) says whether t1, zero-padded, dominates t2
        x, y = halve(a), halve(b)
        if len(a) != len(b) and not pad:
            with pytest.raises(ValueError, match="length mismatch"):
                seq_preceq(a, b)
            with pytest.raises(ValueError, match="length mismatch"):
                scaled_preceq(a, b, 1, 1, strict=True)
        else:
            got = closure_leq(b, a) if pad else seq_preceq(a, b)
            assert got == ref_preceq(x, y, False, pad)
            if len(a) == len(b):
                assert scaled_preceq(a, b, 1, 1, strict=True) == ref_preceq(x, y, True)

    def test_seq_orders_exhaustive_short(self):
        # every pair of vectors of length <= 2 over the halves -1 .. 1
        vecs = [v for n in range(3) for v in product(range(-2, 3), repeat=n)]
        for a, b in product(vecs, repeat=2):
            x, y = halve(a), halve(b)
            for pad in (False, True):
                if len(a) != len(b) and not pad:
                    with pytest.raises(ValueError):
                        seq_preceq(a, b)
                    continue
                got = closure_leq(b, a) if pad else seq_preceq(a, b)
                assert got == ref_preceq(x, y, False, pad)
            if len(a) == len(b):
                assert scaled_preceq(a, b, 1, 1, strict=True) == ref_preceq(x, y, True)

    @given(vectors)
    def test_bar_sort(self, a):
        assert halve(bar_sort(a)) == tuple(sorted(halve(a), reverse=True))

    @given(vectors, vectors, st.integers(-12, 12), st.integers(1, 12), st.booleans())
    def test_scaled_against_fraction_scaling(self, a, b, num, den, strict):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        scaled = tuple(Fraction(num, den) * y for y in halve(b))
        assert scaled_preceq(a, b, num, den, strict) == ref_preceq(halve(a), scaled, strict)

    def test_scaled_boundary_cases(self):
        # equality at every prefix: weak holds, strict fails
        assert scaled_preceq((3, 1), (6, 2), 1, 2)
        assert not scaled_preceq((3, 1), (6, 2), 1, 2, strict=True)
        assert not scaled_preceq((3, 2), (6, 2), 1, 2)
        with pytest.raises(ValueError, match="denominator"):
            scaled_preceq((1,), (1,), 1, 0)
        with pytest.raises(ValueError, match="length mismatch"):
            scaled_preceq((1,), (1, 0), 1, 1)


class TestCharacters:
    def test_segment_route_every_partition(self):
        for rows in all_partitions():
            for kind in Kind:
                got = infchar_segments(Partition(rows), kind)
                assert halve(got) == ref_segments(rows, kind), (rows, kind)

    def test_domino_route_every_partition(self):
        applied = 0
        for rows in all_partitions():
            for kind in Kind:
                want = ref_domino(rows, kind)
                if want is None:
                    with pytest.raises(ValueError):
                        infchar_domino(Partition(rows), kind)
                    continue
                applied += 1
                assert halve(infchar_domino(Partition(rows), kind)) == want, (rows, kind)
                tiles = domino_cover(Partition(rows), kind)
                labels = tuple(t.label for t in tiles if t.label is not None)
                assert tuple(sorted(halve(labels), reverse=True)) == want
        assert applied > 100

    def test_check_bound_every_partition(self):
        compared = 0
        for rows in all_partitions():
            for kind in Kind:
                want = ref_bound(rows, kind)
                if want is None:
                    with pytest.raises(ValueError):
                        check_bound(Partition(rows), kind)
                    continue
                compared += 1
                res = check_bound(Partition(rows), kind)
                assert (res.holds_weak, res.holds_strict) == want, (rows, kind)
        assert compared > 500

    def test_rho(self):
        for n in range(0, 9):
            g = (Kind.SYMPLECTIC, 2 * n, 0)
            assert halve(rho(*g)) == ref_rho(*g)
        for p in range(0, 13):
            for q in range(0, 13 - p):
                g = (Kind.ORTHOGONAL, p, q)
                assert halve(rho(*g)) == ref_rho(*g), (p, q)


class TestBoundary:
    @given(vectors)
    def test_json_strings_are_the_halves(self, a):
        halves = halve(a)
        assert vector_to_json(a) == [
            str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
            for x in halves
        ]
        assert vector_from_json(vector_to_json(a)) == a

    def test_from_json_refuses_non_halves(self):
        for bad in ("1/3", "2/4", "1.5", "x"):
            with pytest.raises(ValueError, match="half-integer"):
                vector_from_json([bad])
