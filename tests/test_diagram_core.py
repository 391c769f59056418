from itertools import product

import pytest
from hypothesis import given, strategies as st

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    Signature,
    canonicalize,
    delete_column_signed,
    equivalent,
    from_json_dict,
    from_row_spec,
    group_of,
    negate,
    render_ascii,
    signature,
    tau,
    to_json_dict,
    validate_partition_kind,
    validate_signed,
)
from orbitcalc.enumeration import partitions, signed_diagrams
from oracles import all_signed, delete_columns, dumps, loads, parse_ascii

M = Sign.MINUS
P = Sign.PLUS


def two_step_deletion(d):
    """The reference route for delete_column_signed: the raw flipped rows,
    checked by the constructor, then canonicalized."""
    rows = tuple(SignedRow(length - 1, lead.flipped) for length, lead in d.rows if length > 1)
    return canonicalize(SignedDiagram(d.kind.opposite, rows))


def diagram_strategy(max_size=8):
    pool = list(all_signed(max_size))
    return st.sampled_from(pool)


class TestPartition:
    def test_transpose_seven_row(self):
        assert Partition((7, 3, 1, 1)).transpose() == Partition((4, 2, 2, 1, 1, 1, 1))

    def test_transpose_empty(self):
        assert Partition().transpose() == Partition()

    def test_transpose_by_hand(self):
        assert Partition((3, 3, 2, 1, 1)).transpose() == Partition((5, 3, 2))

    @given(st.lists(st.integers(1, 9), min_size=0, max_size=9))
    def test_transpose_involutive(self, parts):
        d = Partition(tuple(sorted(parts, reverse=True)))
        assert d.transpose().transpose() == d

    def test_delete_columns(self):
        d = Partition((3, 3, 2, 1, 1))
        assert delete_columns(d, 1) == Partition((2, 2, 1))
        assert delete_columns(d, 2) == Partition((1, 1))
        assert delete_columns(d, 0) == d
        assert delete_columns(d, 3) == Partition()
        assert delete_columns(d, 17) == Partition()

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_kind_validity(self):
        assert validate_partition_kind(Partition((3, 3, 2, 1, 1)), Kind.SYMPLECTIC)
        assert validate_partition_kind(Partition((2, 2, 1)), Kind.ORTHOGONAL)
        assert not validate_partition_kind(Partition((3,)), Kind.SYMPLECTIC)
        assert not validate_partition_kind(Partition((2,)), Kind.ORTHOGONAL)

    def test_deletion_swaps_kind_validity(self):
        # one column off a valid shape gives a valid shape of the other kind
        from orbitcalc.enumeration import partitions

        for n in range(1, 31):
            for rows in partitions(n):
                d = Partition(rows)
                e = delete_columns(d, 1)
                if validate_partition_kind(d, Kind.SYMPLECTIC):
                    assert validate_partition_kind(e, Kind.ORTHOGONAL), d
                if validate_partition_kind(d, Kind.ORTHOGONAL):
                    assert validate_partition_kind(e, Kind.SYMPLECTIC), d


class TestValidation:
    def test_intro_is_valid(self, intro_diagram):
        assert validate_signed(intro_diagram.kind, intro_diagram.rows) == []

    def test_orthogonal_pair_examples(self, yd79_pair):
        for d in yd79_pair:
            assert validate_signed(d.kind, d.rows) == []
            assert signature(d) == Signature(7, 9)

    def test_bad_odd_pair(self):
        rows = (SignedRow(1, M), SignedRow(1, M))
        violations = validate_signed(Kind.SYMPLECTIC, rows)
        assert violations
        assert any("convention" in v for v in violations)

    def test_odd_multiplicity(self):
        assert validate_signed(Kind.SYMPLECTIC, (SignedRow(3, M),))

    def test_empty_valid_both_kinds(self):
        for kind in Kind:
            d = SignedDiagram(kind, ())
            assert validate_signed(d.kind, d.rows) == []


class TestConstructor:
    """A SignedDiagram is valid by construction; a Partition takes only ints."""

    @pytest.mark.parametrize(
        "kind, rows",
        [
            (Kind.SYMPLECTIC, ((1, M), (1, M))),
            (Kind.SYMPLECTIC, ((3, M),)),
            (Kind.SYMPLECTIC, ((3, P), (3, P))),  # signature (4, 2)
        ],
        ids=["odd-pair-convention", "odd-multiplicity", "unbalanced"],
    )
    def test_rules_rejected(self, kind, rows):
        assert validate_signed(kind, rows)
        with pytest.raises(ValueError, match="invalid signed diagram: "):
            SignedDiagram(kind, rows)

    def test_unbalanced_symplectic_refused_exhaustive(self):
        # validate_signed has no signature clause: the conventions alone must
        # refuse every raw symplectic row set of size <= 10 whose + and - box
        # counts differ
        refused = 0
        for size in range(1, 11):
            for shape in partitions(size):
                for leads in product((P, M), repeat=len(shape)):
                    rows = tuple(zip(shape, leads))
                    plus = sum((n + 1) // 2 if s is P else n // 2 for n, s in rows)
                    if 2 * plus == size:
                        continue
                    refused += 1
                    assert validate_signed(Kind.SYMPLECTIC, rows), rows
                    with pytest.raises(ValueError, match="invalid signed diagram: "):
                        SignedDiagram(Kind.SYMPLECTIC, rows)
        assert refused > 1000

    def test_lead_must_be_sign(self):
        with pytest.raises(ValueError, match="invalid signed diagram: "):
            SignedDiagram(Kind.ORTHOGONAL, ((1, "+"),))

    def test_kind_must_be_kind(self):
        with pytest.raises(ValueError, match="invalid signed diagram: "):
            SignedDiagram("orthogonal", ((1, P),))

    @pytest.mark.parametrize("length", [1.0, 1.9, True, "1"], ids=repr)
    def test_length_must_be_int(self, length):
        with pytest.raises(ValueError, match="invalid signed diagram: .*integers"):
            SignedDiagram(Kind.ORTHOGONAL, ((length, P),))

    @pytest.mark.parametrize(
        "kind, spec",
        [
            (Kind.ORTHOGONAL, [(2, None), (2.0, None)]),
            (Kind.ORTHOGONAL, [(2.0, None), (2, None)]),
            (Kind.ORTHOGONAL, [(1, P), (True, M)]),
            (Kind.ORTHOGONAL, [(True, M), (1, P)]),
            (Kind.SYMPLECTIC, [(1, None), (True, None)]),
            (Kind.SYMPLECTIC, [(True, None), (1, None)]),
        ],
        ids=repr,
    )
    def test_row_spec_length_equal_to_an_int_refused(self, kind, spec):
        # 2.0 and True hash equal to 2 and 1, so a per-class check would let
        # them join the class of the int in either order
        with pytest.raises(ValueError, match="invalid signed diagram: .*integers"):
            from_row_spec(kind, spec)

    @pytest.mark.parametrize("rows", [((2,),), (5,), ((2, P, 1),), None], ids=repr)
    def test_row_must_be_a_pair(self, rows):
        with pytest.raises(ValueError, match="invalid signed diagram: .*pairs"):
            SignedDiagram(Kind.SYMPLECTIC, rows)

    @pytest.mark.parametrize("rows", [None, 5], ids=repr)
    def test_partition_rows_must_be_a_sequence(self, rows):
        with pytest.raises(ValueError, match="must be a sequence"):
            Partition(rows)

    @pytest.mark.parametrize(
        "rows", [(2.7, 1), (2.0,), (True, True), ("3",)], ids=repr
    )
    def test_partition_length_must_be_int(self, rows):
        with pytest.raises(ValueError, match="integers"):
            Partition(rows)

    @pytest.mark.parametrize(
        "rows, problem",
        [
            (("x",), "row lengths must be integers: ('x',)"),
            ((0, "x"), "row lengths must be integers: (0, 'x')"),
            ((3, 1.0), "row lengths must be integers: (3, 1.0)"),
            ((2, 0), "row lengths must be positive: (2, 0)"),
            ((2, -1), "row lengths must be positive: (2, -1)"),
            ((0, 2), "row lengths must be positive: (0, 2)"),
            ((1, 2), "row lengths must be weakly decreasing: (1, 2)"),
            ((3, 1, 1, 2), "row lengths must be weakly decreasing: (3, 1, 1, 2)"),
        ],
        ids=repr,
    )
    def test_shape_messages(self, rows, problem):
        # one message per input, checked in the order type, positivity, order
        with pytest.raises(ValueError) as exc:
            Partition(rows)
        assert str(exc.value) == problem
        with pytest.raises(ValueError) as exc:
            SignedDiagram(Kind.ORTHOGONAL, tuple((length, P) for length in rows))
        assert str(exc.value) == "invalid signed diagram: " + problem

    @pytest.mark.parametrize("rows", [(), (1,), (3, 3, 1), (5, 4, 4, 4, 1)], ids=repr)
    def test_shapes_accepted(self, rows):
        assert Partition(rows).rows == rows


class TestSignature:
    def test_intro_signature(self, intro_diagram):
        assert signature(intro_diagram) == Signature(15, 15)

    def test_empty(self):
        assert signature(SignedDiagram(Kind.SYMPLECTIC, ())) == Signature(0, 0)

    def test_after_one_deletion(self, intro_diagram):
        assert signature(delete_column_signed(intro_diagram)) == Signature(10, 11)

    @given(diagram_strategy())
    def test_signature_counts_boxes(self, d):
        sig = signature(d)
        assert sig.plus + sig.minus == d.size
        if d.kind is Kind.SYMPLECTIC:
            assert sig.plus == sig.minus


class TestDeleteColumn:
    def test_intro_iteration(self, intro_diagram):
        expected = [(10, 11), (7, 7), (5, 4), (2, 2), (1, 0)]
        current = intro_diagram
        for want in expected:
            current = delete_column_signed(current)
            assert signature(current) == Signature(*want)
        assert delete_column_signed(current).rows == ()

    def test_single_box(self):
        d = SignedDiagram(Kind.ORTHOGONAL, (SignedRow(1, P),))
        assert delete_column_signed(d).rows == ()

    @given(diagram_strategy())
    def test_lands_in_opposite_kind(self, d):
        e = delete_column_signed(d)
        assert e.kind is d.kind.opposite
        assert validate_signed(e.kind, e.rows) == []
        assert e.shape() == delete_columns(d.shape(), 1)
        assert e == two_step_deletion(d)

    def test_matches_two_step_deletion(self):
        count = 0
        for d in all_signed(12):
            assert delete_column_signed(d) == two_step_deletion(d), d
            count += 1
        assert count == 1094


class TestTau:
    def test_printed_example(self, tau_example):
        before, after = tau_example
        assert equivalent(tau(before), after)

    def test_odd_rows_fixed(self):
        d = from_row_spec(Kind.SYMPLECTIC, [(3, None), (3, None), (1, None), (1, None)])
        assert tau(d) == canonicalize(d)

    def test_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            tau(SignedDiagram(Kind.ORTHOGONAL, (SignedRow(1, P),)))

    @given(diagram_strategy())
    def test_involution(self, d):
        if d.kind is Kind.SYMPLECTIC:
            assert tau(tau(d)) == canonicalize(d)

    def test_involution_exhaustive(self):
        for size in range(0, 11, 2):
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                assert tau(tau(d)) == d  # enumerated diagrams are canonical


class TestNegate:
    @given(diagram_strategy())
    def test_row_rule(self, d):
        n = negate(d)
        if d.kind is Kind.SYMPLECTIC:
            assert n == tau(d)
        else:
            assert equivalent(n, d)

    def test_empty(self):
        d = SignedDiagram(Kind.SYMPLECTIC, ())
        assert negate(d) == d


class TestEquivalence:
    def test_free_rows_interchange(self):
        d1 = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(4, P), SignedRow(4, M)))
        d2 = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(4, M), SignedRow(4, P)))
        assert equivalent(d1, d2)
        assert canonicalize(d1) == canonicalize(d2)
        assert canonicalize(d2).rows[0].leading is P

    def test_intro_not_plus_first(self, intro_diagram):
        # the printed layout has the (4,-) row above (4,+); canonical swaps
        assert canonicalize(intro_diagram) != intro_diagram
        assert equivalent(canonicalize(intro_diagram), intro_diagram)

    @staticmethod
    def counting_canonicalize(monkeypatch):
        calls = []

        def counted(d):
            calls.append(d)
            return canonicalize(d)

        monkeypatch.setattr("orbitcalc.diagram_core.canonicalize", counted)
        return calls

    def test_equal_rows_are_not_canonicalized(self, monkeypatch, intro_diagram):
        calls = self.counting_canonicalize(monkeypatch)
        # the intro layout is not canonical, yet equal rows need no canonical form
        copy = SignedDiagram(Kind.SYMPLECTIC, intro_diagram.rows)
        assert equivalent(intro_diagram, copy)
        assert calls == []
        # equal (empty) rows of different kinds are not equivalent
        assert not equivalent(SignedDiagram(Kind.SYMPLECTIC), SignedDiagram(Kind.ORTHOGONAL))

    def test_reordered_rows_are_canonicalized(self, monkeypatch, intro_diagram):
        calls = self.counting_canonicalize(monkeypatch)
        canonical = canonicalize(intro_diagram)
        assert canonical.rows != intro_diagram.rows
        assert equivalent(intro_diagram, canonical)
        assert calls == [intro_diagram, canonical]

    def test_different_shapes(self):
        d1 = from_row_spec(Kind.SYMPLECTIC, [(2, P)])
        d2 = from_row_spec(Kind.SYMPLECTIC, [(1, None), (1, None)])
        assert not equivalent(d1, d2)

    @given(diagram_strategy())
    def test_canonicalize_idempotent(self, d):
        assert canonicalize(canonicalize(d)) == canonicalize(d)


class TestGroupLabel:
    def test_intro_group(self, intro_diagram):
        assert group_of(intro_diagram) == "Mp(30)"

    def test_orthogonal_group(self, intro_diagram):
        assert group_of(delete_column_signed(intro_diagram)) == "O(10,11)"

    def test_empty_groups(self):
        assert group_of(SignedDiagram(Kind.SYMPLECTIC, ())) == "Mp(0)"
        assert group_of(SignedDiagram(Kind.ORTHOGONAL, ())) == "O(0,0)"


class TestSerialization:
    def test_render_intro(self, intro_diagram):
        text = render_ascii(intro_diagram)
        assert text.splitlines()[0] == "-+-+-+"
        assert text.splitlines()[-1] == "+"

    def test_parse_rejects_bad_alternation(self):
        with pytest.raises(ValueError, match="row 1, column 2"):
            parse_ascii("++", Kind.SYMPLECTIC)

    def test_parse_rejects_bad_char(self):
        with pytest.raises(ValueError, match="column 2"):
            parse_ascii("+x", Kind.SYMPLECTIC)

    def test_parse_rejects_convention_violation(self):
        with pytest.raises(ValueError, match="convention"):
            parse_ascii("-\n-", Kind.SYMPLECTIC)

    def test_roundtrip_all_small(self):
        for d in all_signed(8):
            assert parse_ascii(render_ascii(d), d.kind) == d
            assert loads(dumps(d)) == d
            assert from_json_dict(to_json_dict(d)) == d

    def test_json_schema(self, intro_diagram):
        data = to_json_dict(intro_diagram)
        assert data["kind"] == "symplectic"
        assert data["rows"][0] == {"len": 6, "sign": "-"}

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            loads("not json")
        with pytest.raises(ValueError, match="kind"):
            from_json_dict({"rows": []})
        with pytest.raises(ValueError, match="sign"):
            from_json_dict({"kind": "symplectic", "rows": [{"len": 2, "sign": "x"}]})
