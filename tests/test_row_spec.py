"""Differential tests: the canonical forms built through ``from_row_spec``
against the earlier per-function implementations kept here as references."""

import random
from collections import Counter
from itertools import groupby, product

import pytest

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    canonicalize,
    equivalent,
    from_row_spec,
    tau,
    validate_partition_kind,
)
from orbitcalc.enumeration import partitions, signed_diagrams
from oracles import from_row_spec_reference


def canonicalize_reference(d: SignedDiagram) -> SignedDiagram:
    """Group equal lengths in row order; constrained classes take the
    convention pattern, free classes list Plus-leading rows first."""
    rows = []
    for length, group in groupby(d.rows, key=lambda row: row.length):
        leads = [lead for _, lead in group]
        if d.kind.constrained(length):
            pattern = (Sign.MINUS, Sign.PLUS)
            if d.kind is Kind.ORTHOGONAL:
                pattern = pattern[::-1]
            ordered = [pattern[i % 2] for i in range(len(leads))]
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


P, M, O, S = Sign.PLUS, Sign.MINUS, Kind.ORTHOGONAL, Kind.SYMPLECTIC

# the from_row_spec refusals of test_optimized_checks.py, as (kind, spec)
MALFORMED = [
    (O, [(0, P)]),
    (O, [(-1, P)]),
    (O, [(2.0, None)]),
    (O, [(True, P)]),
    (S, [(0, None)]),
    (S, [(-1, P)]),
    (S, [(2.0, P)]),
    (S, [(True, None)]),
    (S, [(1, None)]),
    (S, [(1, M), (1, P)]),
    (O, [(1, "+")]),
    ("orthogonal", [(1, P)]),
    (O, [(2, None), (2.0, None)]),
    (O, [(2.0, None), (2, None)]),
    (O, [(1, P), (True, M)]),
    (O, [(True, M), (1, P)]),
]


def outcome(build, kind, spec):
    """(kind, rows) of the built diagram, or the text of its ValueError."""
    try:
        d = build(kind, spec)
    except ValueError as exc:
        return str(exc)
    assert all(type(row) is SignedRow for row in d.rows)
    return d.kind, d.rows


def refusal(got) -> str:
    if not isinstance(got, str):
        return "built"
    if "sign-constrained" in got:
        return "explicit sign"
    return "odd count" if "even multiplicity" in got else "free row without a Sign"


def class_sign_choices(rows):
    """Every choice of None, Plus or Minus per row of ``rows``, up to the
    order of the rows of one length: per length class, every split of its
    multiplicity into None, Plus and Minus counts."""
    per_class = []
    for length, group in groupby(rows):
        mult = len(list(group))
        per_class.append(
            [
                [(length, None)] * none
                + [(length, P)] * plus
                + [(length, M)] * (mult - none - plus)
                for none in range(mult + 1)
                for plus in range(mult - none + 1)
            ]
        )
    for choice in product(*per_class):
        yield [row for part in choice for row in part]


class TestBuilderAgainstReference:
    """The one-pass builder against the class-by-class one it replaced:
    the same kind and rows, or the same ``ValueError`` text."""

    def test_every_spec_up_to_size_10(self):
        rng = random.Random(22)
        seen = Counter()
        for size in range(11):
            for rows in partitions(size):
                for spec in class_sign_choices(rows):
                    rng.shuffle(spec)
                    for kind in Kind:
                        got = outcome(from_row_spec, kind, spec)
                        assert got == outcome(from_row_spec_reference, kind, spec), (kind, spec)
                        seen[refusal(got)] += 1
        # each valid diagram comes from one choice, and every refusal occurs
        assert seen.pop("built") == sum(1 for _ in all_signed(10))
        assert set(seen) == {"explicit sign", "odd count", "free row without a Sign"}

    @pytest.mark.parametrize("kind, spec", MALFORMED)
    def test_malformed_specs(self, kind, spec):
        got = outcome(from_row_spec, kind, spec)
        assert isinstance(got, str)
        assert got == outcome(from_row_spec_reference, kind, spec)


class TestMemberAttributes:
    """The sign and kind algebra, set once as plain member attributes."""

    def test_flipped_and_opposite_are_involutions(self):
        assert (P.flipped, M.flipped) == (M, P)
        assert (S.opposite, O.opposite) == (O, S)

    def test_constrained_lengths_and_conventions(self):
        for length in range(1, 9):
            assert S.constrained(length) == (length % 2 == 1)
            assert O.constrained(length) == (length % 2 == 0)
        assert S.convention == (M, P) and O.convention == (P, M)
