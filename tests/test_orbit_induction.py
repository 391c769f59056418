import pytest

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    Signature,
    equivalent,
    from_row_spec,
    signature,
    tau,
    validate_signed,
)
from orbitcalc.enumeration import signed_diagrams
from orbitcalc.orbit_induction import (
    add_two_columns,
    induce_real,
    induce_real_tau,
    two_n_signed,
    wf_ialpha,
    wf_ialpha_parts,
    wf_theta_trivial,
)
from orbitcalc.theta_orbits import in_moment_image
from oracles import merge

M = Sign.MINUS
P = Sign.PLUS


class TestMerge:
    def test_examples(self):
        assert merge(Partition((2, 1)), Partition((1, 1))) == Partition((3, 2))
        assert merge(Partition((2, 1)), Partition()) == Partition((2, 1))
        two_cols = merge(Partition((1,) * 7), Partition((1,) * 7))
        assert merge(Partition((5, 5, 4, 2, 2)), two_cols) == Partition(
            (7, 7, 6, 4, 4, 2, 2)
        )


class TestAddTwoColumns:
    def test_examples(self):
        assert add_two_columns(Partition((3, 1)), 3) == Partition((5, 3, 2))
        assert add_two_columns(Partition(), 4) == Partition((2, 2, 2, 2))
        assert add_two_columns(Partition((5, 5, 4, 2, 2)), 7) == Partition(
            (7, 7, 6, 4, 4, 2, 2)
        )

    def test_too_many_rows(self):
        with pytest.raises(ValueError, match="row count"):
            add_two_columns(Partition((1, 1, 1)), 2)

    def test_matches_merge(self):
        s = Partition((3, 1))
        cols = merge(Partition((1,) * 5), Partition((1,) * 5))
        assert add_two_columns(s, 5) == merge(s, cols)


class TestInduceReal:
    def test_printed_example(self, induction_source, induction_expected):
        result = induce_real(induction_source, 16)
        assert result.count == 3
        for got, want in zip(result.diagrams, induction_expected):
            assert equivalent(got, want)

    def test_empty_source(self):
        for n in (0, 1, 3):
            result = induce_real(SignedDiagram(Kind.SYMPLECTIC, ()), n)
            assert result.count == n + 1
            assert all(d.shape() == Partition((2,) * n) for d in result.diagrams)

    def test_no_free_rows(self):
        s = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, M),))
        result = induce_real(s, 2)  # n - m = 1 = row count
        assert result.count == 1
        assert result.diagrams[0].shape() == Partition((4,))

    def test_precondition(self):
        s = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(1, M), SignedRow(1, P)))
        with pytest.raises(ValueError, match="row count"):
            induce_real(s, 2)  # n - m = 1 < 2 rows

    def test_count_shape_validity_exhaustive(self):
        for two_m in range(0, 11, 2):
            for s in signed_diagrams(Kind.SYMPLECTIC, size=two_m):
                m = two_m // 2
                for n in range(m, m + 7):
                    if n - m < len(s.rows):
                        continue
                    result = induce_real(s, n)
                    assert result.count == n - m - len(s.rows) + 1
                    want_shape = add_two_columns(s.shape(), n - m)
                    for j, d in enumerate(result.diagrams):
                        assert validate_signed(d.kind, d.rows) == []
                        assert d.shape() == want_shape
                        assert signature(d) == Signature(n, n)
                        minus_twos = sum(
                            1 for r in d.rows if r.length == 2 and r.leading is M
                        )
                        assert minus_twos == j


def induce_real_per_candidate(s, n):
    """The induced family built one candidate at a time: every grown row of s
    and candidate j's length-2 rows go through their own from_row_spec
    call, and every candidate is checked against add_two_columns."""
    m, r = s.size // 2, len(s.rows)
    k = n - m
    extended = [
        (length + 2, None if s.kind.constrained(length) else lead.flipped)
        for length, lead in s.rows
    ]
    diagrams = tuple(
        from_row_spec(Kind.SYMPLECTIC, extended + [(2, M)] * j + [(2, P)] * (k - r - j))
        for j in range(k - r + 1)
    )
    assert all(d.shape() == add_two_columns(s.shape(), k) for d in diagrams)
    return diagrams


class TestInducedPrefix:
    """induce_real appends the length-2 class to one canonical prefix; the
    per-candidate construction and the checking constructor are the
    independent routes."""

    def test_matches_per_candidate_to_16(self):
        families = 0
        for two_m in range(0, 17, 2):
            for s in signed_diagrams(Kind.SYMPLECTIC, size=two_m):
                m, r = two_m // 2, len(s.rows)
                for n in range(m + r, m + r + 4):
                    got = induce_real(s, n).diagrams
                    assert got == induce_real_per_candidate(s, n), (s, n)
                    for d in got:
                        assert SignedDiagram(d.kind, d.rows) == d, (s, n)
                    families += 1
        assert families == 4 * 1153

    def test_tau_matches_per_candidate(self, induction_source):
        for n in range(14, 18):  # m = 9 and 5 rows
            assert induce_real_tau(induction_source, n).diagrams == (
                induce_real_per_candidate(tau(induction_source), n)
            )


class TestInduceRealTau:
    def test_equals_induction_of_flip(self, induction_source):
        n = 16
        assert (
            induce_real_tau(induction_source, n).diagrams
            == induce_real(tau(induction_source), n).diagrams
        )

    def test_double_flip_consistency(self, induction_source):
        n = 16
        assert (
            induce_real_tau(tau(induction_source), n).diagrams
            == induce_real(induction_source, n).diagrams
        )

    def test_empty_source(self):
        a = induce_real_tau(SignedDiagram(Kind.SYMPLECTIC, ()), 3)
        b = induce_real(SignedDiagram(Kind.SYMPLECTIC, ()), 3)
        assert a.diagrams == b.diagrams

    def test_even_row_keeps_sign(self):
        s = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, P),))
        result = induce_real_tau(s, 3)
        assert result.count == 2
        for d in result.diagrams:
            four_rows = [r for r in d.rows if r.length == 4]
            assert four_rows == [SignedRow(4, P)]


class TestTwoNSigned:
    def test_definition(self):
        d = two_n_signed(3, 2)
        assert d.rows == (SignedRow(2, P), SignedRow(2, P), SignedRow(2, M))

    def test_index_outside_range_raises(self):
        for i in (-2, -1, 4, 5):
            with pytest.raises(ValueError, match="outside"):
                two_n_signed(3, i)

    def test_signature_balanced(self):
        for n in range(6):
            for i in range(n + 1):
                assert signature(two_n_signed(n, i)) == Signature(n, n)


class TestWaveFront:
    def test_middle_pair(self):
        assert wf_theta_trivial(2, 2) == (2, 1)

    def test_edges(self):
        assert wf_theta_trivial(0, 4) == (0,)
        assert wf_theta_trivial(4, 0) == (3,)

    def test_ialpha_covers(self):
        assert wf_ialpha(3, 0) == (3, 2, 1, 0)
        assert wf_ialpha(1, 0) == (1, 0)

    def test_parity_mismatch(self):
        with pytest.raises(ValueError, match="parity"):
            wf_ialpha(3, 1)

    def test_coverage_and_disjointness(self):
        for n in range(0, 9):
            for alpha in (0, 2) if n % 2 == 1 else (1, 3):
                union = set()
                for members in wf_ialpha_parts(n, alpha).values():
                    ids = set(members)
                    assert not union & ids
                    union |= ids
                assert union == set(range(n + 1))

    def test_indices_match_the_moment_image(self):
        # the paper's definition, not the index formula: [2^n]^(i) is a
        # component of the lift through (p, q) exactly when the built
        # diagram meets the moment image for (p, q)
        for n in range(1, 25):
            for p in range(n + 2):
                q = n + 1 - p
                meets = [i for i in range(n + 1) if in_moment_image(two_n_signed(n, i), p, q)]
                assert wf_theta_trivial(p, q) == tuple(reversed(meets)), (n, p)

    def test_ialpha_is_the_descending_union_of_its_parts(self):
        for n in range(25):
            for alpha in (0, 2) if n % 2 == 1 else (1, 3):
                union = set().union(*wf_ialpha_parts(n, alpha).values())
                assert wf_ialpha(n, alpha) == tuple(sorted(union, reverse=True)), (n, alpha)
