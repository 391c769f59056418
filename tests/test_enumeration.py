import random

import pytest

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    Signature,
    canonicalize,
    from_row_spec,
    signature,
    validate_partition_kind,
    validate_signed,
)
from orbitcalc.enumeration import (
    _class_blocks,
    class_count,
    diagrams_for_shape,
    parity_partitions,
    parity_shapes,
    partitions,
    shapes,
    signed_diagrams,
)
from oracles import brute_count, diagrams_for_shape_reference


class TestPartitions:
    def test_counts(self):
        known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 10: 42}
        for n, count in known.items():
            assert sum(1 for _ in partitions(n)) == count

    def test_sorted_and_unique(self):
        for n in range(9):
            seen = list(partitions(n))
            assert len(set(seen)) == len(seen)
            for rows in seen:
                assert all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))

    def test_descending_lex_order(self):
        # brute force: the set of partitions of n is every part k prepended to
        # every partition of n - k, sorted into a row; tuples compare
        # lexicographically, so a reverse sort gives the expected order
        table = [{()}]
        for n in range(1, 21):
            table.append(
                {
                    tuple(sorted((k,) + rest, reverse=True))
                    for k in range(1, n + 1)
                    for rest in table[n - k]
                }
            )
        for n, members in enumerate(table):
            assert list(partitions(n)) == sorted(members, reverse=True)
        assert list(partitions(-1)) == []


class TestParityPartitions:
    """The all-even and all-odd partitions against filtering partitions()."""

    def test_matches_filter_to_30(self):
        for n in range(31):
            got = list(parity_partitions(n))
            want = {
                rows
                for rows in partitions(n)
                if all(r % 2 == 0 for r in rows) or all(r % 2 == 1 for r in rows)
            }
            assert len(got) == len(set(got)), n
            assert got == sorted(got, reverse=True), n
            assert set(got) == want, n
        assert list(parity_partitions(0)) == [()]
        assert list(parity_partitions(-2)) == []

    def test_both_parities_present(self):
        rows = list(parity_partitions(8))
        assert (8,) in rows and (7, 1) in rows and (2,) * 4 in rows and (1,) * 8 in rows

    def test_large_n_does_not_recurse(self):
        assert next(parity_partitions(5000)) == (5000,)
        assert next(parity_partitions(5001)) == (5001,)


class TestParityShapes:
    """The (heights, shape) stream against filtering shapes() by the parity
    of the transpose."""

    @pytest.mark.parametrize("kind", list(Kind))
    def test_matches_filtered_shapes_to_30(self, kind):
        for n in [*range(31), -1, -2]:
            want = []
            for shape in shapes(kind, n):
                columns = shape.transpose()
                if columns.very_even or columns.very_odd:
                    want.append((columns.rows, shape))
            both = parity_shapes(n)
            assert list(both) == [Kind.SYMPLECTIC, Kind.ORTHOGONAL], n  # one call, both kinds
            assert both[kind] == want, (kind, n)
        assert parity_shapes(0)[kind] == [((), Partition(()))]
        assert parity_shapes(-3)[kind] == []


class TestSignedEnumeration:
    def test_symplectic_size_two(self):
        got = list(signed_diagrams(Kind.SYMPLECTIC, size=2))
        assert len(got) == 3
        shapes_seen = {d.shape().rows for d in got}
        assert shapes_seen == {(2,), (1, 1)}

    def test_orthogonal_one_zero(self):
        got = list(signed_diagrams(Kind.ORTHOGONAL, sig=Signature(1, 0)))
        assert len(got) == 1
        assert got[0].rows[0].leading is Sign.PLUS

    def test_all_valid_and_canonical(self):
        for size in range(0, 9):
            for kind in Kind:
                seen = set()
                for d in signed_diagrams(kind, size=size):
                    assert validate_signed(d.kind, d.rows) == []
                    assert canonicalize(d) == d
                    assert d.rows not in seen
                    seen.add(d.rows)

    def test_odd_symplectic_size_empty(self):
        assert list(signed_diagrams(Kind.SYMPLECTIC, size=3)) == []

    def test_signature_filter(self):
        for p in range(4):
            for q in range(4):
                for d in signed_diagrams(Kind.ORTHOGONAL, sig=Signature(p, q)):
                    assert signature(d) == Signature(p, q)


class TestCounts:
    def test_product_formula_matches_enumeration(self):
        for size in range(0, 9):
            for kind in Kind:
                total = sum(class_count(s, kind) for s in shapes(kind, size))
                assert total == sum(1 for _ in signed_diagrams(kind, size=size))

    def test_brute_force_oracle(self):
        for n in range(0, 6):
            formula = sum(
                class_count(s, Kind.SYMPLECTIC) for s in shapes(Kind.SYMPLECTIC, 2 * n)
            )
            assert brute_count(Kind.SYMPLECTIC, 2 * n) == formula
        for size in (9, 10):
            for kind in Kind:
                formula = sum(class_count(s, kind) for s in shapes(kind, size))
                assert brute_count(kind, size) == formula

    def test_brute_force_by_signature(self):
        for p in range(0, 5):
            for q in range(0, 5 - p):
                want = brute_count(Kind.ORTHOGONAL, p + q, Signature(p, q))
                got = sum(1 for _ in signed_diagrams(Kind.ORTHOGONAL, sig=Signature(p, q)))
                assert got == want

    def test_per_shape_count(self):
        shape = Partition((2, 2, 1, 1))
        # symplectic: one free class of two even rows -> 3 classes
        assert class_count(shape, Kind.SYMPLECTIC) == 3
        assert len(list(diagrams_for_shape(shape, Kind.SYMPLECTIC))) == 3

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError, match="valid"):
            list(diagrams_for_shape(Partition((3,)), Kind.SYMPLECTIC))


def random_shape(rng: random.Random, kind: Kind, size: int) -> Partition:
    """A valid shape of the size (even for symplectic), drawn part by part
    without listing the partitions: a constrained length enters as a pair.
    Short parts keep the multiplicities, and so the free choices, large."""
    parts: list[int] = []
    left = size
    while left:
        length = rng.randint(1, min(left, rng.choice((3, 6, 12))))
        count = 2 if kind.constrained(length) else 1
        if count * length <= left:
            parts += [length] * count
            left -= count * length
    return Partition(tuple(sorted(parts, reverse=True)))


class TestBlocksAgainstSpecRoute:
    """diagrams_for_shape, which lays each class's row blocks out once per
    shape, against the spec route of tests/oracles.py: one from_row_spec per
    choice of plus counts."""

    def test_every_shape_to_16(self):
        for size in range(17):
            for kind in Kind:
                for shape in shapes(kind, size):
                    got = list(diagrams_for_shape(shape, kind))
                    assert got == list(diagrams_for_shape_reference(shape, kind)), (kind, shape)
                    assert len(got) == class_count(shape, kind)

    def test_seeded_large_sample(self):
        # sizes 40..100: one random choice per class, laid out from that
        # class's block, never listing the shape's diagrams
        rng = random.Random(1009)
        for _ in range(300):
            kind = rng.choice(list(Kind))
            size = rng.randrange(40, 101, 2 if kind is Kind.SYMPLECTIC else 1)
            shape = random_shape(rng, kind, size)
            assert shape.size == size and validate_partition_kind(shape, kind)
            blocks = _class_blocks(shape, kind)
            rows: tuple = ()
            spec: list = []
            for block, (length, mult) in zip(blocks, shape.classes(), strict=True):
                if kind.constrained(length):
                    assert len(block) == 1
                    rows += block[0]
                    spec += [(length, None)] * mult
                else:
                    assert len(block) == mult + 1
                    k = rng.randint(0, mult)
                    rows += block[k]
                    spec += [(length, Sign.PLUS)] * k + [(length, Sign.MINUS)] * (mult - k)
            rng.shuffle(spec)
            assert rows == from_row_spec(kind, spec).rows, (kind, shape)
            SignedDiagram(kind, rows)  # the checking constructor accepts it
