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
Gauss-Jordan elimination, whose every division is exact, and which negates
the pivot row at a pivot equal to minus the last, not the other rows; the
inertia of a symmetric integer matrix (a pairing's Gram matrix as built)
from congruence; and membership in a Lie algebra from comparing entries
through the form J, which is a signed permutation.  Nothing is rounded.

Jordan type comes from the flag of row spaces of the powers, each in the
image's coordinates: rowspace X^k lies in rowspace X^(k-1), which the pivot
columns P_(k-1) of its reduced form see injectively.  Level k reduces X
acting on rowspace X^(k-1), written at P_(k-1); its reduced basis C_k times
that, read at the pivots of C_k, is level k+1's.  The ranks r_k reach 0
exactly when X is nilpotent; r_(k-1) - 2 r_k + r_(k+1) rows have length k.
Signs: at a sign-carrying length k (even for sp, odd for o(p, q)), B(u, v) =
Omega(X^(k-1) u, v) on ker X^k is symmetric with ker X^(k-1), the smaller
blocks and the deeper tails in its radical, so on the complement spanned by
the kernel vectors of C_k at its free positions, mapped back through
P_(k-1), its signature counts the +/- rows of length k.  As x^t J = -J x, it
is (-1)^(k-1) (J^t u)^t X^(k-1) v, row vectors times x: the basis-free form
of the generator-pairing rule (signature of Omega(X^(k-1) e, e) on a cyclic
vector e).  In sl2 the raising element classifies as 2 with a plus, its
negative with a minus.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .diagram_core import (
    MINUS,
    ORTHOGONAL,
    PLUS,
    SYMPLECTIC,
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
    previous pivot is exact.  A row with an entry a in the pivot column is
    rebuilt in one pass, as row[j] p / prev (never 0) off the pivot row and
    (row[j] p - a w) / prev, kept when nonzero, at each of its entries w.
    At a pivot p = -prev the pivot row, the only one holding its input row,
    is negated rather than every other row: that is the run on the input
    with that row negated, so only the signs of d and of the rows change.
    A zero input scans no column.  The input rows are not modified.
    """
    m = [row for row in rows if row]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols if m else 0):
        r = len(pivots)
        for sel in range(r, len(m)):
            if c in m[sel]:
                break
        else:
            continue
        prow = m[sel]
        p = prow[c]
        if p == -prev:
            prow = {j: -v for j, v in prow.items()}
            p = prev
        m[sel], m[r] = m[r], prow  # m[r] last, so that sel == r keeps prow
        for i, row in enumerate(m):
            if i == r:
                continue
            a = row.get(c)
            if a is None:
                if p != prev:
                    m[i] = {j: v * p // prev for j, v in row.items()}
                continue
            new = {j: v * p // prev for j, v in row.items() if j not in prow}
            for j, w in prow.items():
                v = (row.get(j, 0) * p - a * w) // prev
                if v:
                    new[j] = v
            m[i] = new
        pivots.append(c)
        prev = p
    return m[: len(pivots)], pivots, prev


def _kernel(reduced: IntRows, pivots: list[int], d: int, ncols: int) -> list[dict[int, int]]:
    """Null-space vectors from a ``_bareiss`` result on ``ncols`` columns,
    one per free (non-pivot) column f, in increasing f: d times the
    reduced-echelon kernel vector of f."""
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
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
        Value.__init__(self, rows, ncols, den)

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
        return list(RationalMatrix(_kernel(reduced, pivots, d, self.ncols), self.ncols, d).entries)

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

    @classmethod
    def symplectic(cls, two_n: int) -> "FormSpec":
        if two_n % 2 != 0 or two_n < 0:
            raise ValueError("symplectic dimension must be even and nonnegative")
        return cls(SYMPLECTIC, two_n, 0)

    @classmethod
    def orthogonal(cls, p: int, q: int) -> "FormSpec":
        if p < 0 or q < 0:
            raise ValueError("signature entries must be nonnegative")
        return cls(ORTHOGONAL, p, q)

    @property
    def dim(self) -> int:
        return self.p if self.kind is SYMPLECTIC else self.p + self.q

    def _signed_permutation(self) -> tuple[list[int], list[int]]:
        """(perm, signs): the nonzero entries of J are J[i][perm[i]] = signs[i]."""
        if self.kind is SYMPLECTIC:
            n = self.p // 2
            return [n + i for i in range(n)] + list(range(n)), [1] * n + [-1] * n
        return list(range(self.dim)), [1] * self.p + [-1] * self.q

    def matrix(self) -> RationalMatrix:
        perm, signs = self._signed_permutation()
        return RationalMatrix(tuple({perm[i]: s} for i, s in enumerate(signs)), self.dim)

    def contains(self, x: RationalMatrix) -> bool:
        """Membership in the form's Lie algebra (see ``_in_algebra``)."""
        return _in_algebra(x, *self._signed_permutation())


def _in_algebra(x: RationalMatrix, perm: list[int], signs: list[int]) -> bool:
    """Membership in the Lie algebra of J = (perm, signs): x^t J + J x = 0.
    Its entry (i, perm[l]) is signs[l] x[l][i] + signs[i] x[perm[i]][perm[l]],
    and (l, i) -> (perm[i], perm[l]) permutes the positions, so it suffices
    that each nonzero entry x[l][i] finds its partner."""
    if x.ncols != len(perm) or x.nrows != len(perm):
        return False
    rows = x.rows
    for l, row in enumerate(rows):
        for i, a in row.items():
            if rows[perm[i]].get(perm[l]) != (-a if signs[i] == signs[l] else a):
                return False
    return True


# ---------------------------------------------------------------------------
# moment maps


def _pair_forms(x: RationalMatrix, p: int, q: int) -> tuple[FormSpec, FormSpec]:
    """The forms of O(p, q) and Sp(2n) for a (p+q) x 2n matrix x."""
    if x.nrows != p + q:
        raise ValueError(f"matrix has {x.nrows} rows, need p + q = {p + q}")
    if x.ncols % 2 != 0:
        raise ValueError("column count must be even")
    return FormSpec.orthogonal(p, q), FormSpec.symplectic(x.ncols)


def moment_m1(x: RationalMatrix, p: int, q: int) -> RationalMatrix:
    """I_{p,q} x W_n x^t, an element of o(p, q); x is (p+q) x 2n."""
    ipq, wn = _pair_forms(x, p, q)
    out = ipq.matrix() @ x @ wn.matrix() @ x.transpose()
    if not ipq.contains(out):
        raise ValueError(f"moment map m1 left o({p}, {q})")
    return out


def moment_m2(x: RationalMatrix, p: int, q: int) -> RationalMatrix:
    """W_n x^t I_{p,q} x, an element of sp(2n, R); x is (p+q) x 2n."""
    ipq, wn = _pair_forms(x, p, q)
    out = wn.matrix() @ x.transpose() @ ipq.matrix() @ x
    if not wn.contains(out):
        raise ValueError(f"moment map m2 left sp({x.ncols})")
    return out


# ---------------------------------------------------------------------------
# Jordan data


def symmetric_signature(gram: list[list[Fraction]]) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric rational matrix, the
    radical in neither: ``_inertia`` of it times the lcm of its denominators."""
    den = lcm(*{x.denominator for row in gram for x in row})
    return _inertia([[x.numerator * (den // x.denominator) for x in row] for row in gram])


def _inertia(m: list[list[int]]) -> tuple[int, int]:
    """(positive, negative) inertia of a symmetric integer matrix, by
    congruence: a nonzero diagonal pivot p splits off as the sign of p and
    the rest becomes |p| times its Schur complement over the gcd of its
    entries.  With a zero diagonal, e_i + e_j for an entry (i, j) != 0 makes
    a pivot 2 (i, j), added in place: it modifies ``m``, so
    ``symmetric_signature`` and ``classify_signed`` each pass a fresh matrix."""
    found: list[int] = []  # the sign of each pivot split off
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
        s = 1 if p > 0 else -1
        found.append(s)
        rest = [r for r in range(n) if r != i]
        m = [[s * (p * m[r][c] - m[r][i] * m[i][c]) for c in rest] for r in rest]
        g = gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return found.count(1), found.count(-1)


def classify_signed(x: RationalMatrix, form: FormSpec) -> SignedDiagram:
    """Signed orbit label of a nilpotent element of the form's Lie algebra."""
    perm, signs = form._signed_permutation()
    if not _in_algebra(x, perm, signs):
        raise ValueError("matrix is not in the Lie algebra of the form")
    # level k: C_k, its pivots and pivot value over the columns ``cols`` =
    # P_(k-1).  Level k+1 is C_k times the rows, read at P_k and renumbered,
    # over their gcd, without which they grow with each pivot of a long block
    rows, cols, flag = x.rows, list(range(form.dim)), []
    while cols:
        reduced, pivots, d = _bareiss(rows, len(cols))
        if len(pivots) == len(cols):
            raise ValueError("classification requires a nilpotent matrix")
        flag.append((reduced, pivots, d, cols))
        product = []
        for row in reduced:
            acc: dict[int, int] = {}
            for t, v in row.items():
                for j, w in rows[t].items():
                    acc[j] = acc.get(j, 0) + v * w
            product.append({i: acc[c] for i, c in enumerate(pivots) if acc.get(c)})
        g = gcd(*chain.from_iterable(map(dict.values, product)))
        rows = [{j: v // g for j, v in row.items()} for row in product] if g > 1 else product
        cols = [cols[c] for c in pivots]
    ranks = [form.dim] + [len(pivots) for _, pivots, _, _ in flag] + [0]

    spec: list[tuple[int, Sign | None]] = []
    for k in range(len(flag), 0, -1):
        count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]  # the Jordan blocks of length k
        if count < 0:
            raise ValueError(f"the ranks {ranks} of the powers give {count} blocks of length {k}")
        if not count:
            continue
        if form.kind.constrained(k):
            if count % 2 != 0:
                raise ValueError(f"{count} rows of sign-free length {k} do not pair up")
            spec += [(k, None)] * count
            continue
        # the complement of ker X^(k-1) in ker X^k, back in dim coordinates,
        # and B(u, v) = (X^(k-1) u)^t J v = (-1)^(k-1) (J^t u)^t X^(k-1) v
        reduced, pivots, d, cols = flag[k - 1]
        signed = signs if k % 2 else [-s for s in signs]
        kernel, images = [], []
        for u in _kernel(reduced, pivots, d, len(cols)):
            v, w = {}, {}
            for j, a in u.items():
                i = cols[j]
                v[i] = a
                w[perm[i]] = signed[i] * a
            kernel.append(v)
            images.append(w)
        for _ in range(k - 1):
            images = _product(images, x.rows)
        gram = [[sum(a * v[i] for i, a in w.items() if i in v) for v in kernel] for w in images]
        # B must come out symmetric at a sign-carrying k.  As x is in the
        # algebra, B(v, u) = +/-B(u, v), which vanishes for u in ker X^(k-1);
        # so symmetry on the complement is symmetry on all of ker X^k
        if any(gram[a][b] != gram[b][a] for a in range(len(gram)) for b in range(a)):
            raise ValueError(f"the length-{k} pairing is not symmetric")
        np_, nm = _inertia(gram)
        if np_ + nm != count:
            raise ValueError(
                f"inertia {np_}+{nm} of the length-{k} pairing must count its rows {count}"
            )
        spec += [(k, PLUS)] * np_ + [(k, MINUS)] * nm
    return from_row_spec(form.kind, spec)


# ---------------------------------------------------------------------------
# witness construction


def _emit_blocks(rows: IntRows, d: SignedDiagram, n: int, a: int) -> list[tuple[int, int]]:
    """Write the standard Jordan blocks of a valid symplectic diagram into the
    rows of a 2n x 2n matrix, from coordinate a on, in the coordinates of
    ``FormSpec.symplectic(2n)``: coordinate i is position i and momentum
    n + i.  A block on c..c+w-1 holds two dual chains, the positions
    c+w-1 -> ... -> c and the momenta n+c -> -(n+c+1) -> ...  An even row of
    length 2w takes w coordinates, joined by sigma (-1)^(w-1) from momentum
    to position at c+w-1, so that its form sign is its lead sigma; a pair of
    equal odd rows (adjacent, by validity) takes its length.  Returns (first
    coordinate, row length) per block, top down."""
    blocks = []
    spec = iter(d.rows)
    for length, lead in spec:
        w = length if length % 2 else length // 2
        blocks.append((a, length))
        for i in range(a, a + w - 1):
            rows[i][i + 1] = 1
            rows[n + i + 1][n + i] = -1
        if length % 2:
            next(spec)  # the odd row's partner
        else:
            last = a + w - 1
            rows[last][n + last] = (1 if lead is PLUS else -1) * (-1) ** (w - 1)
        a += w
    return blocks


def _assemble(rows: IntRows, what: str) -> RationalMatrix:
    """The matrix of these rows; it must lie in sp(len(rows))."""
    dim = len(rows)
    out = RationalMatrix(tuple(rows), dim)
    if not FormSpec.symplectic(dim).contains(out):
        raise ValueError(f"{what} is not in sp({dim})")
    return out


def representative(d: SignedDiagram) -> RationalMatrix:
    """A nilpotent integer matrix in sp(size, R) classifying back to d."""
    if d.kind is not SYMPLECTIC:
        raise ValueError("representatives are built for symplectic diagrams")
    m = d.size // 2
    rows: list[dict[int, int]] = [{} for _ in range(2 * m)]
    _emit_blocks(rows, d, m, 0)
    return _assemble(rows, "representative")


def build_witness(s: SignedDiagram, n: int, j: int) -> RationalMatrix:
    """Integer element of sp(2n, R) landing in the j-th induced orbit.

    Coordinates as in ``_emit_blocks``: the first k0 = n - m are the
    accessory pairs e_i = i, f_i = n + i (dual isotropic V0 and V0'), and
    k0..n-1 carry ``representative(s)``, laid out by the same call shifted by
    k0.  Corrections extend each block by one vector on each end (f_i at the
    head, e_i at the tail; an odd pair takes two indices), which flips the
    form sign of every even block, and the leftover accessory pairs become
    rank-one maps f_i -> +/- e_i: j minus signs, the rest plus.
    """
    if s.kind is not SYMPLECTIC:
        raise ValueError("witnesses extend symplectic diagrams")
    m = s.size // 2
    r = len(s.rows)
    k0 = n - m
    if k0 < r:
        raise ValueError(f"row count {r} exceeds new column length {k0}")
    if not 0 <= j <= k0 - r:
        raise ValueError(f"orbit index {j} outside [0, {k0 - r}]")

    rows: list[dict[int, int]] = [{} for _ in range(2 * n)]
    i = 0  # the next accessory index
    for c, length in _emit_blocks(rows, s, n, k0):
        rows[i][c] = 1  # the positions end c -> e_i, the momenta start f_i -> -(n+c)
        rows[n + c][n + i] = -1
        if length % 2:  # an odd pair also starts e_(i+1) -> last, ends n+last -> -f_(i+1)
            last = c + length - 1
            rows[last][i + 1] = 1
            rows[n + i + 1][n + last] = -1
        i += 1 + length % 2

    # leftover accessory pairs: rank-one 2-chains f_i -> +/- e_i
    for i in range(r, k0):
        rows[i][n + i] = -1 if i < r + j else 1
    return _assemble(rows, "witness")


def witness_block_part(x: RationalMatrix, m: int) -> RationalMatrix:
    """Compression of a witness to its trailing 2m-block, coordinates
    k0..n-1 and their momenta.  ``build_witness`` lays out the source's
    blocks there as ``representative`` does, and every correction has an
    accessory end, so this is the source's representative, which pins down
    membership in source-orbit plus corrections."""
    n = x.nrows // 2
    k0 = n - m
    keep = list(range(k0, n)) + list(range(n + k0, 2 * n))
    column = {b: c for c, b in enumerate(keep)}
    rows = tuple({column[b]: v for b, v in x.rows[a].items() if b in column} for a in keep)
    return RationalMatrix(rows, len(keep), x.den)


# ---------------------------------------------------------------------------
# form-preserving conjugation (for invariance tests)


def random_algebra_element(form: FormSpec, rng: random.Random, bound: int = 2) -> RationalMatrix:
    """Random integer element of the form's Lie algebra: J^t S with S
    symmetric (symplectic) or antisymmetric (orthogonal, where J^t = J).
    S is drawn row by row, from the diagonal on for a symmetric S and from
    just above it for an antisymmetric one.  J is a signed permutation, so
    row i of S is row perm[i] of J^t S, times signs[i]."""
    d = form.dim
    perm, signs = form._signed_permutation()
    symmetric = form.kind is SYMPLECTIC
    rows: list[dict[int, int]] = [{} for _ in range(d)]
    for i in range(d):
        for j in range(i if symmetric else i + 1, d):
            v = rng.randint(-bound, bound)
            if v:
                rows[perm[i]][j] = signs[i] * v
                rows[perm[j]][i] = signs[j] * (v if symmetric else -v)
    out = RationalMatrix(tuple(rows), d)
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
