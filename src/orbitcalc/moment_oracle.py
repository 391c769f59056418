"""Exact-arithmetic ground truth for orbit labels.

Everything here runs over fractions.Fraction: moment maps on rectangular
matrices, nilpotency and Jordan type through rank sequences, and the sign
classification of a nilpotent element of sp(2n, R) or o(p, q).

Sign extraction: for a sign-carrying block size k (even in the symplectic
case, odd in the orthogonal one) the pairing B(u, v) = Omega(X^(k-1) u, v)
restricted to ker X^k is symmetric; its radical is spanned by the smaller
blocks and the deeper tails, so its signature counts exactly the +/- rows
of length k.  This is the basis-free form of the generator-pairing rule
(signature of Omega(X^(k-1) e, e) on a cyclic vector e), and the two are
cross-checked by tests on explicit witnesses: in sl2 the raising element
classifies as 2 with a plus, its negative as 2 with a minus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    from_row_spec,
    require_valid,
)
from .vector_order import format_rational, parse_rational

Row = tuple[Fraction, ...]


@dataclass(frozen=True)
class RationalMatrix:
    entries: tuple[Row, ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        zero = Fraction(0)
        return cls(tuple((zero,) * ncols for _ in range(nrows)))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
            )
        )

    # -- shape and access ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entries[key[0]][key[1]]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return RationalMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(-x for x in row) for row in self.entries))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        cols = list(zip(*other.entries)) if other.entries else []
        return RationalMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def scaled(self, c: Fraction) -> "RationalMatrix":
        return RationalMatrix(tuple(tuple(c * x for x in row) for row in self.entries))

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def power(self, k: int) -> "RationalMatrix":
        assert self.is_square and k >= 0
        out = RationalMatrix.identity(self.nrows)
        for _ in range(k):
            out = out @ self
        return out

    def apply(self, v: Row) -> Row:
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    # -- elimination ----------------------------------------------------------

    def _echelon(self) -> tuple[list[list[Fraction]], list[int]]:
        m = [list(row) for row in self.entries]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            sel = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if sel is None:
                continue
            m[r], m[sel] = m[sel], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def kernel_basis(self) -> list[Row]:
        """Basis of the right null space."""
        m, pivots = self._echelon()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][fc]
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "RationalMatrix":
        assert self.is_square
        n = self.nrows
        aug = RationalMatrix(
            tuple(
                tuple(row) + tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i, row in enumerate(self.entries)
            )
        )
        m, pivots = aug._echelon()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix(tuple(tuple(row[n:]) for row in m))

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "RationalMatrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix JSON must be a list of rows")
        return cls.from_rows(
            [[parse_rational(str(x)) for x in row] for row in data]
        )


@dataclass(frozen=True)
class FormSpec:
    """The fixed bilinear form: W_n = [[0, I], [-I, 0]] (symplectic) or the
    diagonal I_{p,q} (orthogonal)."""

    kind: Kind
    p: int
    q: int = 0

    @classmethod
    def symplectic(cls, two_n: int) -> "FormSpec":
        if two_n % 2 != 0 or two_n < 0:
            raise ValueError("symplectic dimension must be even and nonnegative")
        return cls(Kind.SYMPLECTIC, two_n)

    @classmethod
    def orthogonal(cls, p: int, q: int) -> "FormSpec":
        if p < 0 or q < 0:
            raise ValueError("signature entries must be nonnegative")
        return cls(Kind.ORTHOGONAL, p, q)

    @property
    def dim(self) -> int:
        return self.p if self.kind is Kind.SYMPLECTIC else self.p + self.q

    def matrix(self) -> RationalMatrix:
        if self.kind is Kind.SYMPLECTIC:
            n = self.p // 2
            rows = []
            for i in range(n):
                rows.append(
                    tuple(Fraction(1 if j == n + i else 0) for j in range(2 * n))
                )
            for i in range(n):
                rows.append(
                    tuple(Fraction(-1 if j == i else 0) for j in range(2 * n))
                )
            return RationalMatrix(tuple(rows))
        diag = [Fraction(1)] * self.p + [Fraction(-1)] * self.q
        return RationalMatrix(
            tuple(
                tuple(diag[i] if i == j else Fraction(0) for j in range(len(diag)))
                for i in range(len(diag))
            )
        )

    def contains(self, x: RationalMatrix) -> bool:
        """Membership in the Lie algebra: x^t J + J x = 0."""
        if not x.is_square or x.nrows != self.dim:
            return False
        j = self.matrix()
        return (x.transpose() @ j + j @ x).is_zero()


# ---------------------------------------------------------------------------
# moment maps


def moment_m1(x: RationalMatrix, p: int, q: int) -> RationalMatrix:
    """I_{p,q} x W_n x^t, an element of o(p, q); x is (p+q) x 2n."""
    if x.nrows != p + q:
        raise ValueError(f"matrix has {x.nrows} rows, need p + q = {p + q}")
    if x.ncols % 2 != 0:
        raise ValueError("column count must be even")
    ipq = FormSpec.orthogonal(p, q).matrix()
    wn = FormSpec.symplectic(x.ncols).matrix()
    out = ipq @ x @ wn @ x.transpose()
    assert FormSpec.orthogonal(p, q).contains(out)
    return out


def moment_m2(x: RationalMatrix, p: int, q: int) -> RationalMatrix:
    """W_n x^t I_{p,q} x, an element of sp(2n, R); x is (p+q) x 2n."""
    if x.nrows != p + q:
        raise ValueError(f"matrix has {x.nrows} rows, need p + q = {p + q}")
    if x.ncols % 2 != 0:
        raise ValueError("column count must be even")
    ipq = FormSpec.orthogonal(p, q).matrix()
    wn = FormSpec.symplectic(x.ncols).matrix()
    out = wn @ x.transpose() @ ipq @ x
    assert FormSpec.symplectic(x.ncols).contains(out)
    return out


# ---------------------------------------------------------------------------
# Jordan data


def is_nilpotent(x: RationalMatrix) -> bool:
    if not x.is_square:
        raise ValueError("nilpotency applies to square matrices")
    return x.power(x.nrows).is_zero()


def rank_sequence(x: RationalMatrix) -> list[int]:
    """Ranks of successive powers, starting at rank(X^0) = dim, until zero."""
    ranks = [x.nrows]
    power = x
    while True:
        r = power.rank()
        ranks.append(r)
        if r == 0:
            return ranks
        power = power @ x


def jordan_partition(x: RationalMatrix) -> Partition:
    """Jordan type via ranks: blocks of size >= k number rank X^(k-1) - rank X^k."""
    if not is_nilpotent(x):
        raise ValueError("jordan_partition requires a nilpotent matrix")
    ranks = rank_sequence(x)
    heights = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    heights = [h for h in heights if h > 0]
    # heights is the transpose of the Jordan partition
    return Partition(tuple(heights)).transpose() if heights else Partition()


def symmetric_signature(gram: list[list[Fraction]]) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric rational matrix, by
    congruence elimination; the radical contributes to neither count."""
    m = [row[:] for row in gram]
    n = len(m)
    pos = neg = 0
    for i in range(n):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                other = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if other is None:
                    continue  # radical direction
                for c in range(n):
                    m[i][c] += m[other][c]
                for r in range(n):
                    m[r][i] += m[r][other]
        pivot = m[i][i]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] / pivot
                for c in range(n):
                    m[r][c] -= f * m[i][c]
                for c in range(n):
                    m[c][r] -= f * m[c][i]
    return pos, neg


def classify_signed(x: RationalMatrix, form: FormSpec) -> SignedDiagram:
    """Signed orbit label of a nilpotent element of the form's Lie algebra."""
    if not form.contains(x):
        raise ValueError("matrix is not in the Lie algebra of the form")
    dim = form.dim
    # one shared power chain drives nilpotency, shape, and the pairings
    powers = [RationalMatrix.identity(dim)]
    while len(powers) <= dim and not powers[-1].is_zero():
        powers.append(powers[-1] @ x)
    if not powers[-1].is_zero():
        raise ValueError("classification requires a nilpotent matrix")
    ranks = [p.rank() for p in powers]
    heights = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    heights = [h for h in heights if h > 0]
    shape = Partition(tuple(heights)).transpose() if heights else Partition()
    j = form.matrix()
    sign_parity = 0 if form.kind is Kind.SYMPLECTIC else 1  # of sign-carrying lengths

    spec: list[tuple[int, Sign | None]] = []
    lengths = sorted(set(shape.rows), reverse=True)
    for k in lengths:
        count = shape.multiplicity(k)
        if k % 2 != sign_parity:
            assert count % 2 == 0, "sign-free lengths must pair up"
            spec += [(k, None)] * count
            continue
        kernel = powers[k].kernel_basis()
        xk1 = powers[k - 1]
        images = [xk1.apply(v) for v in kernel]
        # B(u, v) = (X^(k-1) u)^t J v; J goes on the right argument, and the
        # pairing must come out symmetric at a sign-carrying k
        paired = [j.apply(v) for v in kernel]
        gram = [
            [sum(a * b for a, b in zip(u, jv)) for jv in paired]
            for u in images
        ]
        assert all(
            gram[a][b] == gram[b][a] for a in range(len(gram)) for b in range(len(gram))
        )
        np_, nm = symmetric_signature(gram)
        assert np_ + nm == count, (
            f"inertia {np_}+{nm} of the length-{k} pairing must count its rows {count}"
        )
        spec += [(k, Sign.PLUS)] * np_ + [(k, Sign.MINUS)] * nm
    out = from_row_spec(form.kind, spec)
    require_valid(out)
    return out


# ---------------------------------------------------------------------------
# witness construction


def _emit_even_block(entries, p, q, a0: int, w: int, lead: Sign) -> None:
    """Jordan block of size 2w on block coordinates a0..a0+w-1 whose form
    sign equals ``lead``: chain q_1 -> -q_2 -> ... -> c p_w -> ... -> p_1."""
    for t in range(w - 1):
        entries[(p(a0 + t), p(a0 + t + 1))] = 1
        entries[(q(a0 + t + 1), q(a0 + t))] = -1
    sign_value = 1 if lead is Sign.PLUS else -1
    entries[(p(a0 + w - 1), q(a0 + w - 1))] = sign_value * (-1) ** (w - 1)


def _emit_odd_pair(entries, p, q, a0: int, length: int) -> None:
    """Dual isotropic Jordan chains of odd size on coordinates a0..a0+length-1:
    one down the positions, one down the momenta."""
    for t in range(length - 1):
        entries[(p(a0 + t), p(a0 + t + 1))] = 1
        entries[(q(a0 + t + 1), q(a0 + t))] = -1


def _emit_blocks(entries, d: SignedDiagram, p, q) -> list[tuple[int, int]]:
    """Standard Jordan blocks of a valid symplectic diagram on block
    coordinates 1..size/2: an even row of length 2w takes w coordinates, a
    pair of equal odd rows (adjacent, by validity) takes its length.
    Returns (first coordinate, row length) per block, top down."""
    blocks = []
    a0 = 1
    idx = 0
    while idx < len(d.rows):
        length, lead = d.rows[idx]
        blocks.append((a0, length))
        if length % 2 == 0:
            _emit_even_block(entries, p, q, a0, length // 2, lead)
            a0 += length // 2
            idx += 1
        else:
            _emit_odd_pair(entries, p, q, a0, length)
            a0 += length
            idx += 2
    return blocks


def _assemble(entries: dict[tuple[int, int], int], dim: int, what: str) -> RationalMatrix:
    """Dense dim x dim matrix from its nonzero entries; it must lie in sp(dim)."""
    matrix = [[0] * dim for _ in range(dim)]
    for (row, col), value in entries.items():
        matrix[row][col] = value
    out = RationalMatrix.from_rows(matrix)
    if not FormSpec.symplectic(dim).contains(out):
        raise ValueError(f"{what} is not in sp({dim})")
    return out


def representative(d: SignedDiagram) -> RationalMatrix:
    """A nilpotent integer matrix in sp(size, R) classifying back to d."""
    if d.kind is not Kind.SYMPLECTIC:
        raise ValueError("representatives are built for symplectic diagrams")
    require_valid(d)
    m = d.size // 2
    entries: dict[tuple[int, int], int] = {}
    _emit_blocks(entries, d, lambda a: a - 1, lambda a: m + a - 1)
    return _assemble(entries, 2 * m, "representative")


def build_witness(s: SignedDiagram, n: int, j: int) -> RationalMatrix:
    """Integer element of sp(2n, R) landing in the j-th induced orbit.

    The symplectic space splits as V0 + V0' + R^(2m) with V0, V0' dual
    isotropic spans of the accessory pairs (e_i, f_i), i = 1..n-m, and the
    2m-block carrying a representative of the orbit of ``s`` assembled from
    standard Jordan blocks.  Corrections then extend each block of ``s`` by
    one vector on each end (f_i at the head, e_i at the tail), which flips
    the form sign of every even block, and the leftover accessory pairs
    become rank-one maps f_i -> +/- e_i: j minus signs, the rest plus.

    Global basis convention: W_n with positions 1..n and momenta n+1..2n;
    accessory pairs sit at indices (i, n+i) for i <= n-m and the 2m-block at
    (n-m+a, n+n-m+a) for a = 1..m.
    """
    if s.kind is not Kind.SYMPLECTIC:
        raise ValueError("witnesses extend symplectic diagrams")
    require_valid(s)
    m = s.size // 2
    r = len(s.rows)
    k0 = n - m
    if k0 < r:
        raise ValueError(f"row count {r} exceeds new column length {k0}")
    if not 0 <= j <= k0 - r:
        raise ValueError(f"orbit index {j} outside [0, {k0 - r}]")

    entries: dict[tuple[int, int], int] = {}

    def e(i: int) -> int:  # V0 accessory, 0-based global index
        return i - 1

    def f(i: int) -> int:  # V0' accessory
        return n + i - 1

    def p(a: int) -> int:  # block position coordinate
        return k0 + a - 1

    def q(a: int) -> int:  # block momentum coordinate
        return n + k0 + a - 1

    accessory = 0
    for a0, length in _emit_blocks(entries, s, p, q):
        if length % 2 == 0:
            accessory += 1
            # extensions: p_1 -> e_i at the tail, f_i -> -q_1 at the head
            entries[(e(accessory), p(a0))] = 1
            entries[(q(a0), f(accessory))] = -1
        else:
            # an odd pair uses two accessory indices
            i1, i2 = accessory + 1, accessory + 2
            accessory += 2
            # chain 1: e_(i2) -> p_last -> ... -> p_1 -> e_(i1)
            entries[(e(i1), p(a0))] = 1
            entries[(p(a0 + length - 1), e(i2))] = 1
            # chain 2: f_(i1) -> -q_1 -> ... -> -f_(i2)
            entries[(q(a0), f(i1))] = -1
            entries[(f(i2), q(a0 + length - 1))] = -1

    # leftover accessory pairs: rank-one 2-chains f_i -> +/- e_i
    for t in range(k0 - r):
        i = r + 1 + t
        entries[(e(i), f(i))] = -1 if t < j else 1
    return _assemble(entries, 2 * n, "witness")


def witness_block_part(x: RationalMatrix, m: int) -> RationalMatrix:
    """Compression of a witness to its trailing 2m-block; equals the embedded
    representative of the source orbit, which pins down membership in
    source-orbit plus corrections."""
    n = x.nrows // 2
    k0 = n - m
    keep = list(range(k0, n)) + list(range(n + k0, 2 * n))
    rows = tuple(tuple(x.entries[a][b] for b in keep) for a in keep)
    return RationalMatrix(rows)


# ---------------------------------------------------------------------------
# form-preserving conjugation (for invariance tests)


def random_algebra_element(form: FormSpec, rng: random.Random, bound: int = 2) -> RationalMatrix:
    """Random integer element of the form's Lie algebra: W^-1 S with S
    symmetric (symplectic) or I_{p,q} K with K antisymmetric (orthogonal)."""
    d = form.dim
    if form.kind is Kind.SYMPLECTIC:
        s = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for jj in range(i, d):
                v = Fraction(rng.randint(-bound, bound))
                s[i][jj] = v
                s[jj][i] = v
        core = RationalMatrix.from_rows(s)
        w = form.matrix()
        out = w.inverse() @ core
    else:
        kmat = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for jj in range(i + 1, d):
                v = Fraction(rng.randint(-bound, bound))
                kmat[i][jj] = v
                kmat[jj][i] = -v
        out = form.matrix() @ RationalMatrix.from_rows(kmat)
    assert form.contains(out)
    return out


def random_form_preserving(form: FormSpec, rng: random.Random) -> RationalMatrix:
    """Cayley transform (I - A)(I + A)^-1 of a random algebra element; exact
    rational and preserves the form."""
    d = form.dim
    ident = RationalMatrix.identity(d)
    while True:
        a = random_algebra_element(form, rng)
        try:
            inv = (ident + a).inverse()
        except ValueError:
            continue
        g = (ident - a) @ inv
        j = form.matrix()
        assert (g.transpose() @ j @ g).entries == j.entries
        return g


def conjugate(g: RationalMatrix, x: RationalMatrix) -> RationalMatrix:
    return g @ x @ g.inverse()
