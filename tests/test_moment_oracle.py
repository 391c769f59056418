import copy
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    equivalent,
    negate,
    signature,
)
from orbitcalc import moment_oracle
from orbitcalc.enumeration import signed_diagrams
from orbitcalc.moment_oracle import (
    FormSpec,
    RationalMatrix,
    build_witness,
    classify_signed,
    conjugate,
    moment_m1,
    moment_m2,
    random_algebra_element,
    random_form_preserving,
    representative,
    symmetric_signature,
    witness_block_part,
)
from orbitcalc.orbit_induction import induce_real
from orbitcalc.verify import _conjugation_pool, run_suite
import oracles
from oracles import (
    apply,
    classify_by_powers,
    delete_columns,
    is_nilpotent,
    is_zero,
    jordan_partition,
    matrix_to_json,
    power,
)

M = Sign.MINUS
P = Sign.PLUS


def _deep_conjugates():
    """(d, form, x): seeded conjugates of [16+], [14-] and [10+, 4-] in sp."""
    rng = random.Random(16)
    for rows in [(16, P)], [(14, M)], [(10, P), (4, M)]:
        d = SignedDiagram(Kind.SYMPLECTIC, tuple(SignedRow(n, lead) for n, lead in rows))
        form = FormSpec.symplectic(d.size)
        yield d, form, conjugate(random_form_preserving(form, rng), representative(d))


def _witnesses(nmax):
    """Every witness of the induce-oracle grid with n <= nmax."""
    for two_m in range(0, 2 * nmax + 1, 2):
        for s in signed_diagrams(Kind.SYMPLECTIC, size=two_m):
            for n in range(two_m // 2 + len(s.rows), nmax + 1):
                for j in range(len(induce_real(s, n).diagrams)):
                    yield build_witness(s, n, j)


class TestMatrix:
    def test_rank_and_kernel(self):
        m = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert m.rank() == 2
        for v in m.kernel_basis():
            assert all(x == 0 for x in apply(m, v))
        assert len(m.kernel_basis()) == 1

    def test_inverse(self):
        m = RationalMatrix.from_rows([[2, 1], [1, 1]])
        assert (m @ m.inverse()).entries == RationalMatrix.identity(2).entries
        with pytest.raises(ValueError, match="singular"):
            RationalMatrix.from_rows([[1, 2], [2, 4]]).inverse()

    def test_json_entries(self):
        m = RationalMatrix.from_json([["1/2", 3], ["-4", "0.25"]])
        assert m.entries == ((Fraction(1, 2), 3), (-4, Fraction(1, 4)))
        for bad in ([[1.5]], [[True]], [[None]], [[[1]]]):
            with pytest.raises(ValueError, match="matrix entry"):
                RationalMatrix.from_json(bad)

    def test_inexact_entries_rejected(self):
        for bad in (0.1, 2.0, True, False, None, [1], {}):
            with pytest.raises(ValueError, match="not an exact rational"):
                RationalMatrix.from_rows([[1, bad]])
        m = RationalMatrix.from_rows([[1, "1/3"], [Fraction(1, 2), -4]])
        assert m.entries == ((1, Fraction(1, 3)), (Fraction(1, 2), -4))

    def test_transpose_without_columns(self):
        # the column count is stored, so it survives a zero row count
        assert RationalMatrix.zeros(0, 4).ncols == 4
        m = RationalMatrix.zeros(2, 0)
        t = m.transpose()
        assert (t.nrows, t.ncols) == (0, 2)
        assert t == RationalMatrix.zeros(0, 2)
        assert m @ t == RationalMatrix.zeros(2, 2)
        assert RationalMatrix.zeros(0, 0).transpose().entries == ()

    def test_json_roundtrip(self):
        m = RationalMatrix.from_rows([[Fraction(1, 2), 0], [-3, Fraction(5, 7)]])
        assert RationalMatrix.from_json(matrix_to_json(m)).entries == m.entries

    def test_symmetric_signature(self):
        assert symmetric_signature([[1, 0], [0, -1]]) == (1, 1)
        assert symmetric_signature([[0, 1], [1, 0]]) == (1, 1)
        assert symmetric_signature([[0, 0], [0, 0]]) == (0, 0)
        g = [
            [Fraction(0), Fraction(2), Fraction(0)],
            [Fraction(2), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(3)],
        ]
        assert symmetric_signature(g) == (2, 1)


class TestMomentMaps:
    def test_zero(self):
        x = RationalMatrix.zeros(2, 2)
        assert is_zero(moment_m1(x, 1, 1))
        assert is_zero(moment_m2(x, 1, 1))

    def test_no_columns(self):
        # 2n = 0: m1 is the zero element of o(p, q), m2 the 0 x 0 matrix
        for p, q in ((0, 0), (1, 0), (2, 1), (0, 3)):
            x = RationalMatrix.zeros(p + q, 0)
            assert moment_m1(x, p, q).entries == RationalMatrix.zeros(p + q, p + q).entries
            assert moment_m2(x, p, q).entries == ()
        # 2n = 4 with p + q = 0: m2 is the zero element of sp(4)
        assert moment_m2(RationalMatrix.zeros(0, 4), 0, 0) == RationalMatrix.zeros(4, 4)
        assert moment_m1(RationalMatrix.zeros(0, 4), 0, 0) == RationalMatrix.zeros(0, 0)

    def test_identity_two_by_two(self):
        x = RationalMatrix.identity(2)
        m1 = moment_m1(x, 1, 1)
        m2 = moment_m2(x, 1, 1)
        assert m1.entries == RationalMatrix.from_rows([[0, 1], [1, 0]]).entries
        assert m2.entries == RationalMatrix.from_rows([[0, -1], [-1, 0]]).entries
        assert not is_nilpotent(m1)
        assert not is_nilpotent(m2)

    def test_power_identity(self):
        # m1(x)^l = I_{p,q} x m2(x)^(l-1) W_n x^t
        rng = random.Random(7)
        for _ in range(10):
            x = RationalMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
            )
            p, q = 2, 2
            m1 = moment_m1(x, p, q)
            m2 = moment_m2(x, p, q)
            ipq = FormSpec.orthogonal(p, q).matrix()
            wn = FormSpec.symplectic(4).matrix()
            for l in range(1, 5):
                lhs = power(m1, l)
                rhs = ipq @ x @ power(m2, l - 1) @ wn @ x.transpose()
                assert lhs.entries == rhs.entries

    def test_nilpotency_transfer(self):
        # m1 nilpotent iff m2 nilpotent, on a deterministic random sweep
        rng = random.Random(11)
        seen = 0
        for _ in range(300):
            p = rng.randint(1, 2)
            q = rng.randint(0, 2)
            two_n = rng.choice((2, 4))
            x = RationalMatrix.from_rows(
                [[rng.randint(-1, 1) for _ in range(two_n)] for _ in range(p + q)]
            )
            n1 = is_nilpotent(moment_m1(x, p, q))
            n2 = is_nilpotent(moment_m2(x, p, q))
            assert n1 == n2
            seen += n1
        assert seen > 10

    def test_rank_exchange_on_full_rank(self):
        # full-rank x with nilpotent maps: the two Jordan types differ by one
        # column deletion
        rng = random.Random(13)
        found = 0
        for _ in range(1200):
            p = rng.randint(1, 2)
            q = rng.randint(0, 4 - p)
            two_n = rng.choice((2, 4))
            x = RationalMatrix.from_rows(
                [[rng.randint(-1, 1) for _ in range(two_n)] for _ in range(p + q)]
            )
            if x.rank() != min(p + q, two_n):
                continue
            m2 = moment_m2(x, p, q)
            if not is_nilpotent(m2):
                continue
            j1 = jordan_partition(moment_m1(x, p, q))
            j2 = jordan_partition(m2)
            if j1.size == 0 and j2.size == 0:
                continue
            found += 1
            assert delete_columns(j1, 1) == j2 or delete_columns(j2, 1) == j1, (
                x.entries,
                j1,
                j2,
            )
        assert found > 20


class TestMomentImageNecessity:
    def test_every_image_label_passes_criterion(self):
        # anything the moment map actually produces must satisfy the
        # membership test, for every signature at 2n = 4
        from orbitcalc.theta_orbits import in_moment_image

        rng = random.Random(29)
        hits = 0
        for _ in range(1500):
            p = rng.randint(0, 3)
            q = rng.randint(0, 3 - p) if p < 3 else 0
            if p + q == 0:
                continue
            x = RationalMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(4)] for _ in range(p + q)]
            )
            m2 = moment_m2(x, p, q)
            if not is_nilpotent(m2):
                continue
            label = classify_signed(m2, FormSpec.symplectic(4))
            if label.size != 4:
                continue
            hits += 1
            assert in_moment_image(label, p, q), (label.rows, p, q)
        assert hits > 100


class TestJordan:
    def test_single_block(self):
        x = RationalMatrix.from_rows(
            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
        )
        assert jordan_partition(x) == Partition((4,))

    def test_zero_matrix(self):
        assert jordan_partition(RationalMatrix.zeros(5, 5)) == Partition((1,) * 5)

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError, match="nilpotent"):
            jordan_partition(RationalMatrix.identity(2))


class TestClassify:
    def test_sl2_anchor(self):
        x = RationalMatrix.from_rows([[0, 1], [0, 0]])
        form = FormSpec.symplectic(2)
        assert classify_signed(x, form).rows == (SignedRow(2, P),)
        assert classify_signed(-x, form).rows == (SignedRow(2, M),)

    def test_zero_in_sp(self):
        got = classify_signed(RationalMatrix.zeros(6, 6), FormSpec.symplectic(6))
        assert got.rows == (
            SignedRow(1, M),
            SignedRow(1, P),
        ) * 3

    def test_zero_in_orthogonal(self):
        got = classify_signed(RationalMatrix.zeros(3, 3), FormSpec.orthogonal(2, 1))
        assert signature(got) == (2, 1)
        assert got.shape() == Partition((1, 1, 1))

    def test_not_in_algebra(self):
        with pytest.raises(ValueError, match="Lie algebra"):
            classify_signed(RationalMatrix.identity(2), FormSpec.symplectic(2))

    def test_representatives_classify_back(self):
        for size in range(0, 11, 2):
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                x = representative(d)
                assert classify_signed(x, FormSpec.symplectic(size)) == d


class TestWitness:
    def test_rank_one_cases(self):
        empty = SignedDiagram(Kind.SYMPLECTIC, ())
        form = FormSpec.symplectic(2)
        plus = build_witness(empty, 1, 0)  # no minus factors
        minus = build_witness(empty, 1, 1)
        assert classify_signed(plus, form).rows == (SignedRow(2, P),)
        assert classify_signed(minus, form).rows == (SignedRow(2, M),)

    def test_empty_source_n2(self):
        empty = SignedDiagram(Kind.SYMPLECTIC, ())
        want = induce_real(empty, 2).diagrams
        for j in range(3):
            got = classify_signed(
                build_witness(empty, 2, j), FormSpec.symplectic(4)
            )
            assert equivalent(got, want[j])

    def test_grid_matches_induction(self):
        for two_m in range(0, 9, 2):
            for s in signed_diagrams(Kind.SYMPLECTIC, size=two_m):
                m = two_m // 2
                for n in range(m, 5):
                    if n - m < len(s.rows):
                        continue
                    want = induce_real(s, n).diagrams
                    for j, expected in enumerate(want):
                        x = build_witness(s, n, j)
                        got = classify_signed(x, FormSpec.symplectic(2 * n))
                        assert equivalent(got, expected)

    def test_negation_rule(self):
        for two_m in (0, 2, 4):
            for s in signed_diagrams(Kind.SYMPLECTIC, size=two_m):
                n = two_m // 2 + len(s.rows) + 1
                if 2 * n > 10:
                    continue
                x = build_witness(s, n, 0)
                form = FormSpec.symplectic(2 * n)
                assert equivalent(
                    classify_signed(-x, form), negate(classify_signed(x, form))
                )

    def test_block_part_is_source(self, induction_source):
        x = build_witness(induction_source, 16, 1)
        block = witness_block_part(x, induction_source.size // 2)
        got = classify_signed(block, FormSpec.symplectic(induction_source.size))
        assert equivalent(got, induction_source)
        # entry for entry: the witness lays out the source's blocks as its
        # representative does, shifted past the accessory coordinates
        cases = 0
        for two_m in range(0, 13, 2):
            for s in signed_diagrams(Kind.SYMPLECTIC, size=two_m):
                m = two_m // 2
                rep = representative(s)
                for n in (m + len(s.rows), m + len(s.rows) + 1):
                    for j in range(n - m - len(s.rows) + 1):
                        assert witness_block_part(build_witness(s, n, j), m) == rep
                        cases += 1
        assert cases == 948

    def test_bad_index(self):
        empty = SignedDiagram(Kind.SYMPLECTIC, ())
        with pytest.raises(ValueError, match="orbit index"):
            build_witness(empty, 2, 3)


class TestConjugation:
    def test_invariance(self):
        rng = random.Random(5)
        s = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, M),))
        x = build_witness(s, 3, 1)
        form = FormSpec.symplectic(6)
        label = classify_signed(x, form)
        for _ in range(5):
            g = random_form_preserving(form, rng)
            assert equivalent(classify_signed(conjugate(g, x), form), label)

    def test_orthogonal_invariance(self):
        rng = random.Random(6)
        x = RationalMatrix.from_rows([[0, 1, 0], [-1, 0, -1], [0, -1, 0]])
        form = FormSpec.orthogonal(2, 1)
        label = classify_signed(x, form)
        assert label.shape() == Partition((3,))
        for _ in range(5):
            g = random_form_preserving(form, rng)
            assert equivalent(classify_signed(conjugate(g, x), form), label)


class TestFlagAgainstPowers:
    """``classify_signed`` (the flag of row spaces, the pairing on a
    complement of ker X^(k-1)) against ``oracles.classify_by_powers`` (full
    powers, the pairing on all of ker X^k, Fraction kernels): the same label
    or the same ``ValueError`` text on every input, and each label's shape
    is the Jordan type that ``oracles.jordan_partition`` reads off the ranks
    of explicit powers."""

    @staticmethod
    def outcome(classify, x, form):
        try:
            return classify(x, form)
        except ValueError as exc:
            return str(exc)

    def check(self, x, form):
        got = self.outcome(classify_signed, x, form)
        assert got == self.outcome(classify_by_powers, x, form)
        if isinstance(got, SignedDiagram):
            assert got.shape() == jordan_partition(x)
        return got

    def test_representatives(self):
        for size in range(0, 13, 2):
            form = FormSpec.symplectic(size)
            for d in signed_diagrams(Kind.SYMPLECTIC, size=size):
                x = representative(d)
                assert self.check(x, form) == d
                assert equivalent(self.check(-x, form), negate(d))

    def test_induce_oracle_witnesses(self):
        # the witness grid of the induce-oracle suite at bound 12: its 80
        # cases are these 78 (S, n) cells and the two sl2 anchors
        cases = 0
        for x in _witnesses(6):
            form = FormSpec.symplectic(x.nrows)
            self.check(x, form)
            self.check(-x, form)
            cases += 1
        assert cases == 161

    @pytest.mark.parametrize("seed", [1, 7, 1009])
    def test_conjugated_pool(self, seed):
        rng = random.Random(seed)
        pool = _conjugation_pool()
        forms = {(form.kind, form.p, form.q) for _, form in pool}
        assert {(Kind.ORTHOGONAL, 2, 1), (Kind.ORTHOGONAL, 2, 2)} <= forms
        for x, form in pool:
            for _ in range(2):
                self.check(conjugate(random_form_preserving(form, rng), x), form)

    def test_deep_conjugates(self):
        # long Jordan blocks, conjugated: the flag runs through 14-16 levels,
        # each multiplying the rows of the level above, so the integers grow
        # unless each level's content is divided out
        for d, form, x in _deep_conjugates():
            assert self.check(x, form) == d

    def test_deep_conjugates_work(self, monkeypatch):
        # a work pin: the Bareiss calls, their pivots and the largest bit
        # length of an entry entering ``_bareiss`` while ``classify_signed``
        # runs on the deep conjugates.  Dividing each level's gcd out of C_k
        # instead of out of the next level's rows keeps every label and
        # only lets the entries grow, to 295 bits
        cases = list(_deep_conjugates())
        bareiss = moment_oracle._bareiss
        work = {"calls": 0, "pivots": 0, "bits": 0}

        def counted(rows, ncols):
            work["calls"] += 1
            bits = [v.bit_length() for row in rows for v in row.values()]
            work["bits"] = max([work["bits"], *bits])
            out = bareiss(rows, ncols)
            work["pivots"] += len(out[1])
            return out

        monkeypatch.setattr(moment_oracle, "_bareiss", counted)
        for d, form, x in cases:
            assert classify_signed(x, form) == d
        assert work == {"calls": 40, "pivots": 262, "bits": 58}

    # nilpotent blocks of o(p, q) on coordinates with these form signs: a
    # length-3 row on (+, +, -) and on (-, -, +), a length-1 row of each
    # sign, and a pair of sign-free length-2 rows on (+, +, -, -)
    ORTHOGONAL_BLOCKS = [
        ([[0, 1, 0], [-1, 0, -1], [0, -1, 0]], (1, 1, -1)),
        ([[0, 1, 0], [-1, 0, -1], [0, -1, 0]], (-1, -1, 1)),
        ([[0]], (1,)),
        ([[0]], (-1,)),
        ([[0, -1, 0, 1], [1, 0, 1, 0], [0, 1, 0, -1], [1, 0, 1, 0]], (1, 1, -1, -1)),
    ]

    @classmethod
    def orthogonal_sums(cls):
        """(x, form) for every direct sum of ORTHOGONAL_BLOCKS with at least
        one length-3 row and p + q <= 8, each block's coordinates taken in
        turn from the + and the - coordinates of the form."""
        for counts in itertools.product(range(3), range(3), range(9), range(9), range(3)):
            chosen = [b for b, n in zip(cls.ORTHOGONAL_BLOCKS, counts) for _ in range(n)]
            p = sum(signs.count(1) for _, signs in chosen)
            q = sum(signs.count(-1) for _, signs in chosen)
            if p + q > 8 or counts[0] + counts[1] == 0:
                continue
            rows = [[0] * (p + q) for _ in range(p + q)]
            at = {1: iter(range(p)), -1: iter(range(p, p + q))}
            for block, signs in chosen:
                coords = [next(at[sign]) for sign in signs]
                for a, row in zip(coords, block):
                    for b, value in zip(coords, row):
                        rows[a][b] = value
            yield RationalMatrix.from_rows(rows), FormSpec.orthogonal(p, q)

    def test_orthogonal_conjugates(self):
        # seeded conjugates of nilpotents in o(p, q), p + q <= 8, whose labels
        # hold free rows of length 1 and 3 with both leads; the pairing reads
        # J^t u, and J^t = J on o(p, q) alone, so the symplectic inputs do not
        # show the orthogonal side of it
        rng = random.Random(21)
        free = set()
        cases = 0
        for x, form in self.orthogonal_sums():
            label = self.check(x, form)
            assert self.check(conjugate(random_form_preserving(form, rng), x), form) == label
            free |= {(r.length, r.leading) for r in label.rows if r.length % 2}
            cases += 1
        assert free == {(1, P), (1, M), (3, P), (3, M)}
        assert cases == 66

    def test_random_algebra_elements(self):
        # entries in -1..1: mostly not nilpotent, and many of those singular,
        # so that the rank drops before it stalls
        rng = random.Random(11)
        forms = [FormSpec.symplectic(2), FormSpec.symplectic(4), FormSpec.symplectic(6)]
        forms += [FormSpec.orthogonal(p, q) for p, q in ((1, 1), (2, 1), (2, 2), (3, 1))]
        labels = stalls = 0
        for i in range(150):
            form = forms[i % len(forms)]
            x = random_algebra_element(form, rng, bound=1)
            got = self.check(x, form)
            if isinstance(got, SignedDiagram):
                labels += 1
            else:
                assert got == "classification requires a nilpotent matrix"
                stalls += x.rank() < x.nrows
        assert 0 < labels < 75 and stalls > 10


class TestAlgebraElementBuilder:
    """``random_algebra_element`` (the rows of J^t S written in place)
    against the dense builder kept in ``oracles``: the same matrix and the
    same generator state after every draw, so the conjugators of the
    conjugation suite and of ``oracle-dense`` stay the same."""

    SEEDS = (1, 7, 1009, 20240311)

    @staticmethod
    def forms() -> list[FormSpec]:
        pool = list(dict.fromkeys(form for _, form in _conjugation_pool()))
        extra = [FormSpec.symplectic(2), FormSpec.symplectic(4)]
        return pool + extra + [FormSpec.orthogonal(1, 3), FormSpec.orthogonal(3, 0)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_draws(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        for form in self.forms():
            for bound in (1, 2):
                x = random_algebra_element(form, ours, bound)
                assert x == oracles.random_algebra_element(form, ref, bound), (form, bound)
                assert ours.getstate() == ref.getstate(), (form, bound)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_conjugators(self, seed, monkeypatch):
        def draw() -> list[RationalMatrix]:
            rng = random.Random(seed)
            return [random_form_preserving(form, rng) for form in self.forms()]

        ours = draw()
        monkeypatch.setattr(moment_oracle, "random_algebra_element", oracles.random_algebra_element)
        assert draw() == ours


class TestFractionFree:
    def test_witness_grid(self, monkeypatch):
        # build_witness -> classify_signed runs on integers alone: with every
        # Fraction construction in the oracle refused, the induce-oracle grid
        # at bound 8 still classifies every witness to its induced label
        class Refused(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("the oracle constructed a Fraction")

        monkeypatch.setattr(moment_oracle, "Fraction", Refused)
        with pytest.raises(AssertionError, match="constructed a Fraction"):
            RationalMatrix.identity(1).entries
        rep = run_suite("induce-oracle", 8)
        assert rep.passed and rep.checked == 24, rep.counterexamples


# ---------------------------------------------------------------------------
# the integer kernel against plain Fraction arithmetic


def _gauss_jordan(rows, ncols):
    """Reduced row echelon form over Fraction, and its pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def _product(a, b, ncols):
    return tuple(
        tuple(sum((row[k] * b[k][j] for k in range(len(row))), Fraction(0)) for j in range(ncols))
        for row in a
    )


def _random_matrix(rng, nrows, ncols, rank=None):
    """Rational entries, about a third of them zero; a product of two random
    factors when a rank bound is given."""

    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [list(row) for row in _product(left, right, ncols)]


def _differential_cases():
    rng = random.Random(1968)
    cases = []
    for _ in range(150):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        rank = rng.choice([None, rng.randint(0, max(0, min(nrows, ncols) - 1))])
        cases.append(RationalMatrix.from_rows(_random_matrix(rng, nrows, ncols, rank)))
    # Cayley-conjugated inputs of the conjugation suite, and their conjugators
    rng = random.Random(20240311)
    for x, form in _conjugation_pool():
        g = random_form_preserving(form, rng)
        cases += [g, conjugate(g, x)]
    return cases


class TestIntegerKernel:
    """rank, kernel_basis, inverse and @ run on sparse integer rows; each
    must agree with plain Fraction Gauss-Jordan elimination."""

    def test_rank_and_kernel(self):
        for m in _differential_cases():
            _, pivots = _gauss_jordan(m.entries, m.ncols)
            assert m.rank() == len(pivots), m.entries
            kernel = m.kernel_basis()
            assert len(kernel) == m.ncols - len(pivots)
            for v in kernel:
                assert all(x == 0 for x in apply(m, v)), m.entries
            # the basis is independent, hence spans the null space
            assert len(_gauss_jordan(kernel, m.ncols)[1]) == len(kernel)

    def test_bareiss_contract(self):
        # the sparse +/-1 inputs of the oracle, where many a pivot is minus
        # the one before it, and their negatives
        pm1 = [representative(d) for size in range(0, 9, 2)
               for d in signed_diagrams(Kind.SYMPLECTIC, size=size)]
        pm1 += list(_witnesses(4))
        assert len(pm1) == 113
        matrices = _differential_cases() + [x for _, _, x in _deep_conjugates()]
        matrices += pm1 + [-x for x in pm1]
        for m in matrices:
            rows = copy.deepcopy(m.rows)
            reduced, pivots, d = moment_oracle._bareiss(m.rows, m.ncols)
            rref, expected = _gauss_jordan(m.entries, m.ncols)
            assert pivots == expected, m.entries
            assert len(reduced) == len(pivots)
            for row, want in zip(reduced, rref):
                assert [Fraction(row.get(j, 0), d) for j in range(m.ncols)] == want
                assert all(row.values()), row
            assert m.rows == rows
        assert len(matrices) > 150

    def test_bareiss_signed_permutations(self):
        # every pivot is +/-1, and one equal to minus the last is negated in
        # the pivot row, so d stays 1 and the reduced form is the identity
        count = 0
        for n in range(1, 6):
            for perm in itertools.permutations(range(n)):
                for signs in itertools.product((1, -1), repeat=n):
                    rows = [{perm[i]: s} for i, s in enumerate(signs)]
                    copies = [dict(row) for row in rows]
                    reduced, pivots, d = moment_oracle._bareiss(rows, n)
                    assert (reduced, pivots, d) == ([{i: 1} for i in range(n)], list(range(n)), 1)
                    assert rows == copies
                    count += 1
        assert count == 4282

    def test_inverse(self):
        singular = 0
        for m in _differential_cases():
            if not m.is_square:
                continue
            n = m.nrows
            aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.entries)]
            reduced, pivots = _gauss_jordan(aug, 2 * n)
            if pivots[:n] != list(range(n)):
                singular += 1
                with pytest.raises(ValueError, match="singular"):
                    m.inverse()
                continue
            assert m.inverse().entries == tuple(tuple(row[n:]) for row in reduced)
        assert singular > 5

    def test_product(self):
        rng = random.Random(7)
        for m in _differential_cases():
            other = RationalMatrix.from_rows(_random_matrix(rng, m.ncols, rng.randint(0, 6)))
            assert (m @ other).entries == _product(m.entries, other.entries, other.ncols)
            t = m.transpose()
            assert (m @ t).entries == _product(m.entries, t.entries, t.ncols)

    def test_sum_difference_negation_transpose(self):
        rng = random.Random(17)
        for m in _differential_cases():
            a = m.entries
            if m.nrows:
                other = RationalMatrix.from_rows(_random_matrix(rng, m.nrows, m.ncols))
            else:  # dense rows cannot say how many columns a 0-row matrix has
                other = RationalMatrix.zeros(0, m.ncols)
            b = other.entries
            assert (m + other).entries == tuple(
                tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b)
            )
            assert (m - other).entries == tuple(
                tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b)
            )
            assert (-m).entries == tuple(tuple(-x for x in r) for r in a)
            assert m + (-m) == RationalMatrix.zeros(m.nrows, m.ncols)
            t = m.transpose()
            assert (t.nrows, t.ncols) == (m.ncols, m.nrows)
            assert t.entries == tuple(
                tuple(a[i][j] for i in range(m.nrows)) for j in range(m.ncols)
            )

    def test_lowest_terms(self):
        for m in _differential_cases():
            if m.nrows:
                assert RationalMatrix.from_rows(m.entries) == m
            assert m.den == lcm(*(x.denominator for row in m.entries for x in row))
        m = RationalMatrix(({0: 2, 1: -4}, {}), 2, -6)
        assert (m.rows, m.den) == (({0: -1, 1: 2}, {}), 3)
        assert m == RationalMatrix.from_rows([[Fraction(-1, 3), Fraction(2, 3)], [0, 0]])
        assert RationalMatrix(({}, {}), 2, -7) == RationalMatrix.zeros(2, 2)
        half = RationalMatrix.from_rows([["1/2"]])
        assert (half + half).rows == ({0: 1},) and (half + half).den == 1
        with pytest.raises(ValueError, match="denominator"):
            RationalMatrix(({0: 1},), 1, 0)

    def test_symmetric_signature_matches_descartes(self):
        # a symmetric matrix has only real eigenvalues, so Descartes' rule of
        # signs counts its positive and negative ones exactly
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(0, 6)
            a = _random_matrix(rng, n, n, rng.choice([None, rng.randint(0, max(0, n - 1))]))
            s = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
            coeffs = _charpoly(s)  # leading coefficient first
            alternated = [c * (-1) ** k for k, c in enumerate(reversed(coeffs))]
            expected = (_sign_changes(coeffs), _sign_changes(alternated))
            assert symmetric_signature(s) == expected
            den = lcm(*(x.denominator for row in s for x in row))
            assert moment_oracle._inertia([[int(x * den) for x in row] for row in s]) == expected


def _charpoly(a):
    """Coefficients of det(tI - a), leading first (Faddeev-LeVerrier)."""
    n = len(a)
    coeffs = [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        shifted = [[mk[i][j] + (coeffs[-1] if i == j else 0) for j in range(n)] for i in range(n)]
        mk = [list(row) for row in _product(a, shifted, n)]
        coeffs.append(-sum(mk[i][i] for i in range(n)) / k)
    return coeffs


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)
