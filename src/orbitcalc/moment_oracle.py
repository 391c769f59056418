"""Exact-arithmetic ground truth for orbit labels.

``RationalMatrix`` holds a matrix as sparse integer rows over one positive
denominator: ``rows[i]`` maps each column of a nonzero entry of row i to an
integer, and ``den`` is the lcm of the entries' denominators, so the value
rows / den is in lowest terms and equal matrices compare equal.  Every
operation runs on those integers; ``Fraction`` appears only where entries
are read in and in the dense ``entries`` view.  A product is the product
of the integer rows over the product of the two denominators.  Scaling by
den > 0 changes neither rank nor kernel, and it multiplies each Gram
matrix of a pairing below by a positive constant, so it keeps the inertia
too.  Rank, kernel and inverse come from Bareiss's fraction-free
Gauss-Jordan elimination, whose every division is exact; the inertia of a
symmetric matrix from congruence on integers; and membership in a Lie
algebra from comparing entries through the form J, which is a signed
permutation.  Nothing is rounded.

Jordan type comes from the flag of row spaces of the powers, each in the
image's coordinates: rowspace X^k lies in rowspace X^(k-1), which the
pivot columns P_(k-1) of its reduced form see injectively.  Level k reduces
X acting on rowspace X^(k-1), written at P_(k-1); its reduced basis C_k
times that, at the pivots of C_k, is level k+1's.  The ranks r_k reach 0
exactly when X is nilpotent.  Signs: at a sign-carrying block size k (even
for sp, odd for o(p, q)) B(u, v) = Omega(X^(k-1) u, v) on ker X^k is
symmetric with ker X^(k-1), the smaller blocks and the deeper tails in its
radical, so on the complement spanned by the kernel vectors of C_k at its
free positions, mapped back through P_(k-1), its signature counts the +/-
rows of length k.  As x^t J = -J x, it is (-1)^(k-1) (J^t u)^t X^(k-1) v,
row vectors times x: the basis-free form of the generator-pairing rule
(signature of Omega(X^(k-1) e, e) on a cyclic vector e).  In sl2 the
raising element classifies as 2 with a plus, its negative with a minus.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    Value,
    from_row_spec,
)

Row = tuple[Fraction, ...]
IntRows = Sequence[dict[int, int]]  # sparse integer rows: column -> nonzero entry


# ---------------------------------------------------------------------------
# the integer kernel


def _product(a: IntRows, b: IntRows) -> IntRows:
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for k, v in row.items():
            for j, w in b[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: s for j, s in acc.items() if s})
    return out


def _bareiss(rows: IntRows, ncols: int) -> tuple[IntRows, list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968).

    Returns the nonzero rows of the reduced form, their pivot columns and
    the last pivot d: row r holds d in column pivots[r] and 0 in every other
    pivot column, so the reduced form over d is the reduced row echelon
    form.  Every entry stays a minor of the input, so each division by the
    previous pivot is exact.  The input rows are not modified.
    """
    m = [row for row in rows if row]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(m)) if c in m[i]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            a = row.get(c)
            if a is None:
                if p != prev:
                    m[i] = {j: v * p // prev for j, v in row.items()}
                continue
            acc = {j: v * p for j, v in row.items()}
            for j, w in prow.items():
                acc[j] = acc.get(j, 0) - a * w
            m[i] = {j: v // prev for j, v in acc.items() if v}
        pivots.append(c)
        prev = p
    return m[: len(pivots)], pivots, prev


def _kernel(reduced: IntRows, pivots: list[int], d: int, free) -> list[dict[int, int]]:
    """Null-space vectors from a ``_bareiss`` result, one per free column f
    in ``free``: d times the reduced-echelon kernel vector of f."""
    basis = []
    for f in free:
        v = {f: d}
        for row, pc in zip(reduced, pivots):
            if f in row:
                v[pc] = -row[f]
        basis.append(v)
    return basis


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}: {exc}") from None


def _exact(x) -> Fraction | int:
    """A matrix entry: a Fraction, an int or a rational string ("-3/4").
    Floats, bools and anything else are refused rather than read as their
    binary expansion or as 0/1."""
    if isinstance(x, Fraction) or (isinstance(x, int) and not isinstance(x, bool)):
        return x
    if isinstance(x, str):
        return parse_rational(x)
    raise ValueError(f"matrix entry {x!r} is not an exact rational")


class RationalMatrix(Value):
    """The matrix rows / den, nrows x ncols.  ``rows`` holds one dict per row
    from column to nonzero integer; the constructor reduces the value to
    lowest terms with den > 0, so den is the lcm of the entries'
    denominators and equality is value equality."""

    __slots__ = ("rows", "ncols", "den")

    def __init__(self, rows: tuple[dict[int, int], ...], ncols: int, den: int = 1) -> None:
        rows = tuple(rows)
        if den != 1:
            if den == 0:
                raise ValueError("matrix denominator must be nonzero")
            g = gcd(den, *(v for row in rows for v in row.values()))
            g = -g if den < 0 else g
            if g != 1:
                rows = tuple({j: v // g for j, v in row.items()} for row in rows)
                den //= g
        self._set(rows, ncols, den)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        """The matrix of a sequence of equal-length rows of exact entries."""
        dense = [[_exact(x) for x in row] for row in rows]
        ncols = len(dense[0]) if dense else 0
        if any(len(row) != ncols for row in dense):
            raise ValueError("ragged matrix")
        den = lcm(*(x.denominator for row in dense for x in row))
        rows = ({j: x.numerator * (den // x.denominator) for j, x in enumerate(row) if x}
                for row in dense)
        return cls(tuple(rows), ncols, den)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls(tuple({} for _ in range(nrows)), ncols)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(tuple({i: 1} for i in range(n)), n)

    # -- shape and access ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[Row, ...]:
        """Dense view: one tuple of ``Fraction`` entries per row."""
        return tuple(
            tuple(Fraction(row.get(j, 0), self.den) for j in range(self.ncols))
            for row in self.rows
        )

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = []
        for ra, rb in zip(self.rows, other.rows):
            acc = {j: v * fa for j, v in ra.items()}
            for j, v in rb.items():
                acc[j] = acc.get(j, 0) + v * fb
            out.append({j: v for j, v in acc.items() if v})
        return RationalMatrix(tuple(out), self.ncols, den)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + (-other)

    def __neg__(self) -> "RationalMatrix":
        rows = tuple({j: -v for j, v in row.items()} for row in self.rows)
        return RationalMatrix(rows, self.ncols, self.den)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        return RationalMatrix(_product(self.rows, other.rows), other.ncols, self.den * other.den)

    def transpose(self) -> "RationalMatrix":
        out: list[dict[int, int]] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                out[j][i] = v
        return RationalMatrix(tuple(out), self.nrows, self.den)

    # -- elimination ----------------------------------------------------------

    def rank(self) -> int:
        return len(_bareiss(self.rows, self.ncols)[1])

    def kernel_basis(self) -> list[Row]:
        """Basis of the right null space: for each free column f, the vector
        with 1 at f that the reduced row echelon form leaves."""
        reduced, pivots, d = _bareiss(self.rows, self.ncols)
        free = sorted(set(range(self.ncols)).difference(pivots))
        return list(RationalMatrix(_kernel(reduced, pivots, d, free), self.ncols, d).entries)

    def inverse(self) -> "RationalMatrix":
        if not self.is_square:
            raise ValueError("only a square matrix has an inverse")
        n = self.nrows
        reduced, pivots, d = _bareiss(
            [{**row, n + i: 1} for i, row in enumerate(self.rows)], 2 * n
        )
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        # (den * self)^-1 is the right half over d, and self^-1 = den (den * self)^-1
        right = [{j - n: self.den * v for j, v in row.items() if j >= n} for row in reduced]
        return RationalMatrix(right, n, d)

    # -- serialization ----------------------------------------------------------

    @classmethod
    def from_json(cls, data) -> "RationalMatrix":
        """Rows of integers or rational strings ("-3/4"); a JSON float is an
        error, not a rational."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix JSON must be a list of rows")
        return cls.from_rows(data)


class FormSpec(Value):
    """The fixed bilinear form: W_n = [[0, I], [-I, 0]] (symplectic) or the
    diagonal I_{p,q} (orthogonal)."""

    __slots__ = ("kind", "p", "q")

    def __init__(self, kind: Kind, p: int, q: int = 0) -> None:
        self._set(kind, p, q)

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

    def _signed_permutation(self) -> tuple[list[int], list[int]]:
        """(perm, signs): the nonzero entries of J are J[i][perm[i]] = signs[i]."""
        if self.kind is Kind.SYMPLECTIC:
            n = self.p // 2
            return [n + i for i in range(n)] + list(range(n)), [1] * n + [-1] * n
        return list(range(self.dim)), [1] * self.p + [-1] * self.q

    def matrix(self) -> RationalMatrix:
        perm, signs = self._signed_permutation()
        return RationalMatrix(tuple({perm[i]: s} for i, s in enumerate(signs)), self.dim)

    def contains(self, x: RationalMatrix) -> bool:
        """Membership in the Lie algebra: x^t J + J x = 0.  Its entry
        (i, perm[l]) is signs[l] x[l][i] + signs[i] x[perm[i]][perm[l]], and
        (l, i) -> (perm[i], perm[l]) permutes the positions, so it suffices
        that each nonzero entry x[l][i] finds its partner."""
        if not x.is_square or x.nrows != self.dim:
            return False
        perm, signs = self._signed_permutation()
        rows = x.rows
        for l, row in enumerate(rows):
            for i, a in row.items():
                if rows[perm[i]].get(perm[l]) != (-a if signs[i] == signs[l] else a):
                    return False
        return True


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
    if not FormSpec.orthogonal(p, q).contains(out):
        raise ValueError(f"moment map m1 left o({p}, {q})")
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
    if not FormSpec.symplectic(x.ncols).contains(out):
        raise ValueError(f"moment map m2 left sp({x.ncols})")
    return out


# ---------------------------------------------------------------------------
# Jordan data


def _jordan_shape(ranks: list[int]) -> Partition:
    """Jordan type from the strictly falling ranks of X^0, X^1, ... down to 0:
    blocks of size >= k number rank X^(k-1) - rank X^k, so these heights are
    the transpose of the Jordan partition."""
    return Partition(tuple(a - b for a, b in zip(ranks, ranks[1:]))).transpose()


def symmetric_signature(gram: list[list[Fraction]]) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric rational matrix; the
    radical contributes to neither count.

    Congruence on integers: the matrix is scaled by the lcm of its
    denominators, then a nonzero diagonal pivot p splits off as the sign of
    p and the rest becomes |p| times its Schur complement, divided by the
    gcd of its entries.  With a zero diagonal, e_i + e_j for an entry
    (i, j) != 0 makes a pivot 2 (i, j).
    """
    den = lcm(*{x.denominator for row in gram for x in row})
    m = [[x.numerator * (den // x.denominator) for x in row] for row in gram]
    pos = neg = 0
    while m:
        n = len(m)
        i = next((i for i in range(n) if m[i][i]), None)
        if i is None:
            pair = next(((a, b) for a in range(n) for b in range(a + 1, n) if m[a][b]), None)
            if pair is None:
                break  # the rest is the radical
            i, j = pair
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
        p = m[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        s = 1 if p > 0 else -1
        rest = [r for r in range(n) if r != i]
        m = [[s * (p * m[r][c] - m[r][i] * m[i][c]) for c in rest] for r in rest]
        g = gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return pos, neg


def classify_signed(x: RationalMatrix, form: FormSpec) -> SignedDiagram:
    """Signed orbit label of a nilpotent element of the form's Lie algebra."""
    if not form.contains(x):
        raise ValueError("matrix is not in the Lie algebra of the form")
    dim = form.dim
    # level k: C_k, its pivots and pivot value over the columns ``cols`` =
    # P_(k-1).  Dividing out each level's content keeps the integers at the
    # size of a reduced form; without it they grow with every earlier pivot
    # along a long Jordan block
    rows, cols, flag = x.rows, list(range(dim)), []
    while cols:
        reduced, pivots, d = _bareiss(rows, len(cols))
        if len(pivots) == len(cols):
            raise ValueError("classification requires a nilpotent matrix")
        flag.append((reduced, pivots, d, cols))
        at = {c: i for i, c in enumerate(pivots)}  # level k+1: X on rowspace X^k, at P_k
        rows = _product(reduced, [{at[j]: v for j, v in row.items() if j in at} for row in rows])
        g = gcd(*chain.from_iterable(map(dict.values, rows)))
        rows = [{j: v // g for j, v in row.items()} for row in rows] if g > 1 else rows
        cols = [cols[c] for c in pivots]
    shape = _jordan_shape([dim] + [len(pivots) for _, pivots, _, _ in flag])
    perm, signs = form._signed_permutation()

    spec: list[tuple[int, Sign | None]] = []
    for k, count in shape.classes():
        if form.kind.constrained(k):
            if count % 2 != 0:
                raise ValueError(f"{count} rows of sign-free length {k} do not pair up")
            spec += [(k, None)] * count
            continue
        # the complement of ker X^(k-1) in ker X^k, back in dim coordinates
        reduced, pivots, d, cols = flag[k - 1]
        free = sorted(set(range(len(cols))).difference(pivots))
        kernel = [{cols[j]: v for j, v in u.items()} for u in _kernel(reduced, pivots, d, free)]
        # B(u, v) = (X^(k-1) u)^t J v = (-1)^(k-1) (J^t u)^t X^(k-1) v
        images = [{perm[i]: (-1) ** (k - 1) * signs[i] * a for i, a in u.items()} for u in kernel]
        for _ in range(k - 1):
            images = _product(images, x.rows)
        gram = [[sum(a * v[i] for i, a in w.items() if i in v) for v in kernel] for w in images]
        # B must come out symmetric at a sign-carrying k.  As x is in the
        # algebra, B(v, u) = +/-B(u, v), which vanishes for u in ker X^(k-1);
        # so symmetry on the complement is symmetry on all of ker X^k
        if any(gram[a][b] != gram[b][a] for a in range(len(gram)) for b in range(a)):
            raise ValueError(f"the length-{k} pairing is not symmetric")
        np_, nm = symmetric_signature(gram)
        if np_ + nm != count:
            raise ValueError(
                f"inertia {np_}+{nm} of the length-{k} pairing must count its rows {count}"
            )
        spec += [(k, Sign.PLUS)] * np_ + [(k, Sign.MINUS)] * nm
    return from_row_spec(form.kind, spec)


# ---------------------------------------------------------------------------
# witness construction


def _emit_chains(entries, p, q, a0: int, length: int) -> None:
    """Dual isotropic Jordan chains of size ``length`` on coordinates
    a0..a0+length-1: one down the positions, one down the momenta."""
    for t in range(length - 1):
        entries[(p(a0 + t), p(a0 + t + 1))] = 1
        entries[(q(a0 + t + 1), q(a0 + t))] = -1


def _emit_even_block(entries, p, q, a0: int, w: int, lead: Sign) -> None:
    """Jordan block of size 2w on block coordinates a0..a0+w-1 whose form
    sign equals ``lead``: chain q_1 -> -q_2 -> ... -> c p_w -> ... -> p_1,
    the two chains of size w joined by the middle entry c."""
    _emit_chains(entries, p, q, a0, w)
    sign_value = 1 if lead is Sign.PLUS else -1
    entries[(p(a0 + w - 1), q(a0 + w - 1))] = sign_value * (-1) ** (w - 1)


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
            _emit_chains(entries, p, q, a0, length)
            a0 += length
            idx += 2
    return blocks


def _assemble(entries: dict[tuple[int, int], int], dim: int, what: str) -> RationalMatrix:
    """The dim x dim matrix of these nonzero entries; it must lie in sp(dim)."""
    rows: list[dict[int, int]] = [{} for _ in range(dim)]
    for (row, col), value in entries.items():
        rows[row][col] = value
    out = RationalMatrix(tuple(rows), dim)
    if not FormSpec.symplectic(dim).contains(out):
        raise ValueError(f"{what} is not in sp({dim})")
    return out


def representative(d: SignedDiagram) -> RationalMatrix:
    """A nilpotent integer matrix in sp(size, R) classifying back to d."""
    if d.kind is not Kind.SYMPLECTIC:
        raise ValueError("representatives are built for symplectic diagrams")
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
    column = {b: c for c, b in enumerate(keep)}
    rows = tuple({column[b]: v for b, v in x.rows[a].items() if b in column} for a in keep)
    return RationalMatrix(rows, len(keep), x.den)


# ---------------------------------------------------------------------------
# form-preserving conjugation (for invariance tests)


def random_algebra_element(form: FormSpec, rng: random.Random, bound: int = 2) -> RationalMatrix:
    """Random integer element of the form's Lie algebra: W^-1 S with S
    symmetric (symplectic) or I_{p,q} K with K antisymmetric (orthogonal)."""
    d = form.dim
    if form.kind is Kind.SYMPLECTIC:
        s = [[0] * d for _ in range(d)]
        for i in range(d):
            for jj in range(i, d):
                v = rng.randint(-bound, bound)
                s[i][jj] = v
                s[jj][i] = v
        # W is a signed permutation matrix, so W^-1 = W^t
        out = form.matrix().transpose() @ RationalMatrix.from_rows(s)
    else:
        kmat = [[0] * d for _ in range(d)]
        for i in range(d):
            for jj in range(i + 1, d):
                v = rng.randint(-bound, bound)
                kmat[i][jj] = v
                kmat[jj][i] = -v
        out = form.matrix() @ RationalMatrix.from_rows(kmat)
    if not form.contains(out):
        raise ValueError("random algebra element is not in the Lie algebra")
    return out


def random_form_preserving(form: FormSpec, rng: random.Random) -> RationalMatrix:
    """Cayley transform (I - A)(I + A)^-1 of a random algebra element; exact
    rational and preserves the form."""
    d = form.dim
    ident = RationalMatrix.identity(d)
    j = form.matrix()
    while True:
        a = random_algebra_element(form, rng)
        try:
            inv = (ident + a).inverse()
        except ValueError:
            continue
        g = (ident - a) @ inv
        if g.transpose() @ j @ g != j:
            raise ValueError("Cayley transform does not preserve the form")
        return g


def conjugate(g: RationalMatrix, x: RationalMatrix) -> RationalMatrix:
    return g @ x @ g.inverse()
