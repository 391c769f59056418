"""Differential tests: the canonical forms built through ``from_row_spec``
against the earlier per-function implementations kept here as references."""

import random
from collections import Counter
from itertools import groupby

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    canonicalize,
    convention_signs,
    equivalent,
    tau,
    validate_partition_kind,
)
from orbitcalc.enumeration import partitions, signed_diagrams


def canonicalize_reference(d: SignedDiagram) -> SignedDiagram:
    """Group equal lengths in row order; constrained classes take the
    convention pattern, free classes list Plus-leading rows first."""
    rows = []
    for length, group in groupby(d.rows, key=lambda row: row.length):
        leads = [lead for _, lead in group]
        if d.kind.constrained(length):
            ordered = convention_signs(d.kind, len(leads))
        else:
            ordered = sorted(leads, key=lambda s: 0 if s is Sign.PLUS else 1)
        rows.extend(SignedRow(length, s) for s in ordered)
    return SignedDiagram(d.kind, tuple(rows))


def tau_reference(d: SignedDiagram) -> SignedDiagram:
    rows = tuple(
        SignedRow(length, lead.flipped if length % 2 == 0 else lead) for length, lead in d.rows
    )
    return canonicalize_reference(SignedDiagram(d.kind, rows))


def validate_partition_kind_reference(d: Partition, kind: Kind) -> bool:
    bad_parity = 1 if kind is Kind.SYMPLECTIC else 0
    counts: dict[int, int] = {}
    for r in d.rows:
        counts[r] = counts.get(r, 0) + 1
    return all(m % 2 == 0 for length, m in counts.items() if length % 2 == bad_parity)


def free_classes_permuted(d: SignedDiagram, rng: random.Random) -> list[SignedDiagram]:
    """Copies of d with the rows of each free length class reversed (so
    Minus-leading rows come first) and shuffled."""
    reversed_rows, shuffled_rows = [], []
    for length, group in groupby(d.rows, key=lambda row: row.length):
        group = list(group)
        if d.kind.constrained(length):
            reversed_rows += group
            shuffled_rows += group
        else:
            reversed_rows += group[::-1]
            shuffled_rows += rng.sample(group, len(group))
    return [SignedDiagram(d.kind, tuple(rows)) for rows in (reversed_rows, shuffled_rows)]


def all_signed(max_size: int):
    for size in range(max_size + 1):
        for kind in Kind:
            yield from signed_diagrams(kind, size=size)


class TestCanonicalForms:
    def test_canonicalize_matches_reference(self):
        rng = random.Random(7)
        reordered = 0
        for d in all_signed(12):
            copies = free_classes_permuted(d, rng)
            reordered += sum(e != d for e in copies)
            for e in (d, *copies):
                assert canonicalize(e) == canonicalize_reference(e) == d
                assert equivalent(d, e)
        assert reordered > 0

    def test_tau_matches_reference(self):
        rng = random.Random(11)
        for size in range(0, 13, 2):
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                for e in (d, *free_classes_permuted(d, rng)):
                    assert tau(e) == tau_reference(e)

    def test_equivalent_needs_same_kind(self):
        d = SignedDiagram(Kind.ORTHOGONAL, ((1, Sign.PLUS), (1, Sign.PLUS)))
        e = SignedDiagram(Kind.SYMPLECTIC, ((1, Sign.MINUS), (1, Sign.PLUS)))
        assert not equivalent(d, e)


class TestShapeClasses:
    def test_partition_kind_matches_reference(self):
        for n in range(17):
            for rows in partitions(n):
                shape = Partition(rows)
                for kind in Kind:
                    assert validate_partition_kind(shape, kind) == (
                        validate_partition_kind_reference(shape, kind)
                    )

    def test_classes_match_counter(self):
        for n in range(17):
            for rows in partitions(n):
                expected = sorted(Counter(rows).items(), reverse=True)
                assert Partition(rows).classes() == expected
