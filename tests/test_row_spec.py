"""Differential tests: the canonical forms built through ``from_row_spec``
and the class-wise column moves against the earlier implementations kept
here and in ``oracles`` as references."""

import ast
import importlib
import random
from collections import Counter
from itertools import groupby, product
from pathlib import Path

import pytest

import orbitcalc
from orbitcalc import diagram_core
from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    canonicalize,
    equivalent,
    from_row_spec,
    moved_rows,
    tau,
    validate_partition_kind,
)
from orbitcalc.enumeration import partitions, signed_diagrams
from orbitcalc.theta_orbits import prepend_column
from oracles import (
    all_signed,
    from_row_spec_reference,
    moved_rows_reference,
    prepend_column_reference,
)


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

    def test_member_names_are_the_members(self):
        assert diagram_core.PLUS is Sign.PLUS and diagram_core.MINUS is Sign.MINUS
        assert diagram_core.SYMPLECTIC is Kind.SYMPLECTIC
        assert diagram_core.ORTHOGONAL is Kind.ORTHOGONAL
        # every package module that binds one of the names binds the member
        for path in sorted(Path(orbitcalc.__file__).resolve().parent.glob("[!_]*.py")):
            module = importlib.import_module(f"orbitcalc.{path.stem}")
            for member in MEMBER_NAMES:
                if hasattr(module, member):
                    assert getattr(module, member) is getattr(diagram_core, member), path.name

    def test_package_reads_members_by_name(self):
        """No module reads ``Kind.<member>`` or ``Sign.<member>`` (also as
        ``dc.Kind.<member>``), except the statements of ``diagram_core`` that
        bind the four names and set the member attributes through them."""
        members = {("Kind", m) for m in Kind.__members__} | {("Sign", m) for m in Sign.__members__}
        reads = []
        for path in sorted(Path(orbitcalc.__file__).resolve().parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            block = set()
            if path.name == "diagram_core.py":
                block = {
                    id(node)
                    for stmt in tree.body
                    if isinstance(stmt, ast.Assign) and _assigns_member_names(stmt)
                    for node in ast.walk(stmt)
                }
                assert block, "diagram_core binds the member names"
            for node in ast.walk(tree):
                owner = getattr(node, "value", None)
                owner = getattr(owner, "id", getattr(owner, "attr", None))
                if (
                    isinstance(node, ast.Attribute)
                    and (owner, node.attr) in members
                    and id(node) not in block
                ):
                    reads.append(f"{path.name}:{node.lineno}: {owner}.{node.attr}")
        assert reads == []

    def test_rows_are_laid_out_in_diagram_core(self):
        """No module but ``diagram_core`` reads ``.convention`` or builds a
        row, by ``SignedRow(...)`` or ``_new(SignedRow, ...)``: every class
        layout goes through ``class_rows``."""
        found = []
        for path in sorted(Path(orbitcalc.__file__).resolve().parent.glob("*.py")):
            if path.name == "diagram_core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "convention":
                    found.append(f"{path.name}:{node.lineno}: .convention")
                elif isinstance(node, ast.Call) and any(
                    _names_signed_row(part) for part in (node.func, *node.args[:1])
                ):
                    found.append(f"{path.name}:{node.lineno}: builds a SignedRow")
        assert found == []


def _names_signed_row(node: ast.AST) -> bool:
    """Is ``node`` the name ``SignedRow`` or an attribute ``x.SignedRow``?"""
    return getattr(node, "id", getattr(node, "attr", None)) == "SignedRow"


MEMBER_NAMES = ("PLUS", "MINUS", "SYMPLECTIC", "ORTHOGONAL")


def _assigns_member_names(stmt: ast.Assign) -> bool:
    """Does every name among the targets of ``stmt`` name a member?"""
    names = [n.id for t in stmt.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return bool(names) and set(names) <= set(MEMBER_NAMES)


def minus_first(d: SignedDiagram) -> SignedDiagram:
    """d with every free class listing its Minus-leading rows first: valid,
    and not canonical when a class holds both leads."""
    return free_classes_permuted(d, random.Random(0))[0]


def prepend_outcome(build, d, ones, plus):
    """(kind, rows) of the prepended diagram, or ``ValueError``."""
    try:
        e = build(d, ones, plus)
    except ValueError:
        return ValueError
    assert all(type(row) is SignedRow for row in e.rows)
    return e.kind, e.rows


class TestColumnMoves:
    """The class-wise column move against the spec route it replaced
    (``flipped_spec`` through ``from_row_spec``, kept in ``oracles``): the
    same rows, row tuple for row tuple, for every move the package makes
    (deletion -1, ``tau`` 0, prepending a column 1, induction 2)."""

    @staticmethod
    def assert_moves_match(d: SignedDiagram) -> None:
        for grow in (-1, 0, 1, 2):
            got = moved_rows(d, grow)
            assert got == moved_rows_reference(d, grow), (d, grow)
            assert all(type(row) is SignedRow for row in got)

    @staticmethod
    def assert_prepends_match(d: SignedDiagram) -> int:
        """Every count of new 1-rows up to 4 and every split of them; the
        odd symplectic counts are refused by both routes.  Returns how many
        lifts were built."""
        built = 0
        for ones in range(5):
            for plus in range(ones + 1):
                got = prepend_outcome(prepend_column, d, ones, plus)
                assert got == prepend_outcome(prepend_column_reference, d, ones, plus)
                built += got is not ValueError
        return built

    @pytest.mark.parametrize(
        "kind, ones, plus",
        # unchecked: three plus-leading 1-rows, three minus-leading ones, no rows
        [(Kind.SYMPLECTIC, 1, 3), (Kind.SYMPLECTIC, 2, -1), (Kind.ORTHOGONAL, -2, 0)],
    )
    def test_prepend_refuses_a_split_out_of_range(self, kind, ones, plus):
        with pytest.raises(ValueError, match="need 0 <= plus <= ones"):
            prepend_column(SignedDiagram(kind, ()), ones, plus)

    def test_every_diagram_up_to_size_12(self):
        built = 0
        for d in all_signed(12):
            self.assert_moves_match(d)
            built += self.assert_prepends_match(d)
        assert built > 5000

    def test_free_classes_listed_minus_first(self):
        reordered = 0
        for d in all_signed(12):
            e = minus_first(d)
            if e.rows != d.rows:
                reordered += 1
                self.assert_moves_match(e)
                self.assert_prepends_match(e)
        assert reordered > 100
