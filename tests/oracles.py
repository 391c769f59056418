"""Reference routes that the tests check the package against.

Each function is a second, plainer way to reach a result the package
computes, a reader for what the package writes, or a writer for what it
reads; the package itself never calls them.  A brute-force count next to
the product formula, the class-by-class diagram builder next to the
one-pass one, the diagrams of a shape by one spec per sign choice next to
the per-class blocks, a lift by target signature next to the column-prepend
forest, the row-wise merge of partitions next to the two-column merge, the
dominance order as a predicate, parsers for the ASCII picture and the
vector strings, diagram and matrix JSON writers, Jordan types from the
ranks of explicit matrix powers, signed labels from the pairings on the
whole kernels of those powers, random Lie-algebra elements as dense
products with the form matrix, and the column moves by the spec route
(``flipped_spec`` through ``from_row_spec``) next to the class-wise one.
Last, a check record whose verdict is forced to fail, for the tests that
break a certificate or a suite by hand, and ``all_signed``, the diagrams
that the exhaustive tests sweep.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import product

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
    signature,
    to_json_dict,
    validate_partition_kind,
    validate_signed,
)
from orbitcalc.enumeration import partitions, signed_diagrams
from orbitcalc.infchar import characters_reverse, segment, segments_of_transpose
from orbitcalc.moment_oracle import FormSpec, RationalMatrix, symmetric_signature
from orbitcalc.theta_orbits import prepend_column
from orbitcalc.tower import CheckRecord
from orbitcalc.vector_order import HalfIntVector, bar_sort, dominance_leq

# ---------------------------------------------------------------------------
# diagrams


def all_signed(max_size: int):
    """Every valid signed diagram of size at most ``max_size``: by size,
    symplectic before orthogonal, each in enumeration order."""
    for size in range(max_size + 1):
        for kind in Kind:
            yield from signed_diagrams(kind, size=size)


def brute_count(kind: Kind, size: int, sig: Signature | None = None) -> int:
    """Equivalence classes of valid diagrams by raw per-row sign vectors, the
    validity filter and a canonical dedupe.  Exponential; small sizes only."""
    seen = set()
    for rows in partitions(size):
        if not validate_partition_kind(Partition(rows), kind):
            continue
        for leads in product((Sign.PLUS, Sign.MINUS), repeat=len(rows)):
            raw = tuple(zip(rows, leads))
            if validate_signed(kind, raw):
                continue
            d = SignedDiagram(kind, raw)
            if sig is not None and signature(d) != Signature(*sig):
                continue
            seen.add(canonicalize(d).rows)
    return len(seen)


def from_row_spec_reference(kind: Kind, spec) -> SignedDiagram:
    """``diagram_core.from_row_spec`` as it was before its one-pass
    rewrite: the same checks and error texts, the classes laid out through
    a convention list and one ``SignedRow`` call per row.  The kind's
    constrained parity and convention pattern are spelled out here, so a
    fault in the member attributes does not reach the reference."""
    if not isinstance(kind, Kind):
        raise ValueError(f"invalid signed diagram: kind must be a Kind, got {kind!r}")
    by_length: dict[int, list[Sign | None]] = {}
    for length, sign in spec:
        if type(length) is not int or length <= 0:
            raise ValueError(
                f"invalid signed diagram: row lengths must be positive integers: {length!r}"
            )
        by_length.setdefault(length, []).append(sign)
    symplectic = kind is Kind.SYMPLECTIC
    pattern = (Sign.MINUS, Sign.PLUS) if symplectic else (Sign.PLUS, Sign.MINUS)
    rows: list[SignedRow] = []
    for length in sorted(by_length, reverse=True):
        signs = by_length[length]
        count = len(signs)
        if length % 2 == (1 if symplectic else 0):
            if any(s is not None for s in signs):
                raise ValueError(f"length-{length} rows are sign-constrained for {kind.value}")
            if count % 2 != 0:
                raise ValueError(
                    f"invalid signed diagram: rows of length {length} occur {count} times; "
                    f"even multiplicity required for {kind.value} diagrams"
                )
            rows.extend(SignedRow(length, pattern[i % 2]) for i in range(count))
        else:
            plus = signs.count(Sign.PLUS)
            minus = signs.count(Sign.MINUS)
            if plus + minus != count:
                raise ValueError(
                    f"length-{length} rows need explicit Sign leads for {kind.value}: {signs!r}"
                )
            rows += [SignedRow(length, Sign.PLUS)] * plus + [SignedRow(length, Sign.MINUS)] * minus
    return SignedDiagram._trusted(kind, tuple(rows))


def diagrams_for_shape_reference(shape: Partition, kind: Kind):
    """``enumeration.diagrams_for_shape`` by the spec route it took before
    its per-class blocks: one ``from_row_spec`` call per choice of plus
    counts on the free classes, in ``product`` order, the constrained rows
    given as None."""
    free = [(length, m) for length, m in shape.classes() if not kind.constrained(length)]
    constrained = [(length, None) for length in shape.rows if kind.constrained(length)]
    for plus_counts in product(*(range(m + 1) for _, m in free)):
        spec = list(constrained)
        for (length, m), k in zip(free, plus_counts):
            spec += [(length, Sign.PLUS)] * k + [(length, Sign.MINUS)] * (m - k)
        yield from_row_spec(kind, spec)


def flipped_spec(d: SignedDiagram, grow: int) -> list[tuple[int, Sign | None]]:
    """The re-signing step of a column move as a ``from_row_spec`` spec, the
    route the package took before its class-wise ``moved_rows``: each row of
    d grows by ``grow`` boxes (rows left empty are dropped), a row
    constrained in d takes None, and a free row flips its lead."""
    parity = d.kind.parity
    return [
        (n + grow, None if n % 2 == parity else lead.flipped) for n, lead in d.rows if n + grow > 0
    ]


def moved_rows_reference(d: SignedDiagram, grow: int) -> tuple[SignedRow, ...]:
    """``diagram_core.moved_rows`` by the spec route: ``flipped_spec``
    regrouped and re-sorted by ``from_row_spec``, in d's kind for an even
    ``grow`` and the opposite kind for an odd one."""
    kind = d.kind.opposite if grow % 2 else d.kind
    return from_row_spec(kind, flipped_spec(d, grow)).rows


def prepend_column_reference(d: SignedDiagram, ones: int, plus: int = 0) -> SignedDiagram:
    """``theta_orbits.prepend_column`` by the spec route: the new 1-rows
    join ``flipped_spec(d, 1)`` and one ``from_row_spec`` call lays out and
    checks them (an odd count of symplectic 1-rows raises ``ValueError``)."""
    kind = d.kind.opposite
    spec = flipped_spec(d, 1)
    if kind is Kind.SYMPLECTIC:
        spec += [(1, None)] * ones
    else:
        spec += [(1, Sign.PLUS)] * plus + [(1, Sign.MINUS)] * (ones - plus)
    return from_row_spec(kind, spec)


def theta_lift_real(d: SignedDiagram, target: Signature) -> SignedDiagram:
    """The unique valid column-prepend lift of d with the given signature.

    Only the new 1-rows have any freedom (for an orthogonal lift), and the
    target fixes their split, so there is at most one candidate; no valid
    one raises ``ValueError``."""
    target = Signature(*target)
    new_col = sum(target) - d.size
    if new_col < len(d.rows):
        raise ValueError("no column-prepend lift of this size")
    # the new box of a forced row is a plus box when its row of d leads with -
    forced_plus = signature(d).plus + sum(1 for _, lead in d.rows if lead is Sign.MINUS)
    try:
        lift = prepend_column(d, new_col - len(d.rows), target.plus - forced_plus)
    except ValueError:  # an odd count of symplectic 1-rows, or a split out of range
        lift = None
    if (
        lift is None
        or signature(lift) != target
        or not equivalent(delete_column_signed(lift), d)
    ):
        raise ValueError(f"no valid lift of signature {tuple(target)}")
    return lift


class FailedRecord(CheckRecord):
    """A check record with its fields and clauses as computed and its
    verdict ``ok`` forced to False."""

    __slots__ = ()
    ok = False


def failed_record(rec: CheckRecord) -> FailedRecord:
    return FailedRecord(rec.k, rec.fields, rec.clauses)


def dumps(d: SignedDiagram) -> str:
    """The diagram file the CLI reads, as the tests write it."""
    return json.dumps(to_json_dict(d), indent=2, sort_keys=True)


def loads(text: str) -> SignedDiagram:
    """Inverse of ``dumps``; text that is not JSON raises ``ValueError``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    return from_json_dict(data)


def merge(s: Partition, t: Partition) -> Partition:
    """Row-wise sum with zero padding (induction for GL blocks)."""
    n = max(s.height, t.height)
    rows = tuple(
        (s.rows[j] if j < s.height else 0) + (t.rows[j] if j < t.height else 0)
        for j in range(n)
    )
    return Partition(tuple(r for r in rows if r > 0))


def delete_columns(p: Partition, i: int) -> Partition:
    """p without its leftmost i columns: rows shrink by i, empties drop."""
    if i < 0:
        raise ValueError("column count must be nonnegative")
    return Partition(tuple(r - i for r in p.rows if r > i))


def parse_ascii(text: str, kind: Kind) -> SignedDiagram:
    """Inverse of ``render_ascii``; a row whose signs do not alternate, or a
    character other than + or -, raises with its position."""
    rows: list[SignedRow] = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line:
            raise ValueError(f"row {i}: empty line")
        lead = Sign.PLUS if line[0] == "+" else Sign.MINUS
        for j, ch in enumerate(line, start=1):
            if ch not in "+-":
                raise ValueError(f"row {i}, column {j}: expected '+' or '-', got {ch!r}")
            if Sign(ch) is not (lead if j % 2 == 1 else lead.flipped):
                raise ValueError(f"row {i}, column {j}: signs must alternate across the row")
        rows.append(SignedRow(len(line), lead))
    return SignedDiagram(kind, tuple(rows))


# ---------------------------------------------------------------------------
# orders and characters


def reversal_check(d1: Partition, d2: Partition, kind: Kind) -> bool:
    """Order reversal for one pair: d1 below d2 implies that the sorted
    character of d1 dominates that of d2.  Both transposes must be very
    even, or both very odd."""
    t1, t2 = d1.transpose(), d2.transpose()
    if not ((t1.very_even and t2.very_even) or (t1.very_odd and t2.very_odd)):
        raise ValueError("reversal check requires transposes of matching parity")
    b1 = bar_sort(segments_of_transpose(t1.rows, kind))
    b2 = bar_sort(segments_of_transpose(t2.rows, kind))
    return characters_reverse(dominance_leq(d1, d2), b1, b2) is not False


def rho(kind: Kind, p: int, q: int) -> HalfIntVector:
    """Half sum of positive restricted roots, doubled: the symplectic
    segment of 2n = p + q for Mp(2n), the first min(p, q) entries of the
    orthogonal segment of p + q for O(p, q)."""
    if kind is Kind.SYMPLECTIC and (p + q) % 2 != 0:
        raise ValueError("Mp parameter must be even")
    full = segment(kind, p + q)
    return tuple(full if kind is Kind.SYMPLECTIC else full[: min(p, q)])


_HALF = re.compile(r"(-?\d+)(/2)?")


def vector_from_json(data: list[str]) -> HalfIntVector:
    """Inverse of ``vector_to_json``: "n" reads as 2n and "n/2", n odd, as n.
    Any other string, "1.5" and "2/4" included, raises."""
    out = []
    for s in data:
        match = _HALF.fullmatch(s)
        if match is None or (match[2] and int(match[1]) % 2 == 0):
            raise ValueError(f"not a half-integer string: {s!r}")
        out.append(int(match[1]) if match[2] else 2 * int(match[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# matrices


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def matrix_to_json(x: RationalMatrix) -> list[list[str]]:
    """Rows of rational strings, the matrix file format the CLI reads."""
    return [[format_rational(e) for e in row] for row in x.entries]


def power(x: RationalMatrix, k: int) -> RationalMatrix:
    if not x.is_square or k < 0:
        raise ValueError("powers are taken of square matrices, with exponent >= 0")
    out = RationalMatrix.identity(x.nrows)
    for _ in range(k):
        out = out @ x
    return out


def apply(x: RationalMatrix, v) -> tuple:
    """x times the column vector v."""
    return tuple(e for (e,) in (x @ RationalMatrix.from_rows([v]).transpose()).entries)


def is_zero(x: RationalMatrix) -> bool:
    return not any(x.rows)


def is_nilpotent(x: RationalMatrix) -> bool:
    return is_zero(power(x, x.nrows))


def jordan_partition(x: RationalMatrix) -> Partition:
    """Jordan type of a nilpotent matrix from the ranks of its powers: the
    blocks of size >= k number rank x^(k-1) - rank x^k."""
    if not is_nilpotent(x):
        raise ValueError("the Jordan type is read off a nilpotent matrix")
    ranks = [x.nrows]
    xk = RationalMatrix.identity(x.nrows)
    while ranks[-1]:
        xk = xk @ x
        ranks.append(xk.rank())
    return Partition(tuple(a - b for a, b in zip(ranks, ranks[1:]))).transpose()


def classify_by_powers(x: RationalMatrix, form: FormSpec) -> SignedDiagram:
    """``classify_signed`` by the full power chain: nilpotency from X^dim,
    the Jordan type from the ranks of every power, and at each
    sign-carrying length k the inertia of B(u, v) = (X^(k-1) u)^t J v on all
    of ker X^k, from a Fraction kernel basis and matrix products.  Raises
    the same ``ValueError`` texts."""
    if not form.contains(x):
        raise ValueError("matrix is not in the Lie algebra of the form")
    powers = [RationalMatrix.identity(x.nrows)]
    while len(powers) <= x.nrows and not is_zero(powers[-1]):
        powers.append(powers[-1] @ x)
    if not is_zero(powers[-1]):
        raise ValueError("classification requires a nilpotent matrix")
    ranks = [p.rank() for p in powers]
    heights = [a - b for a, b in zip(ranks, ranks[1:]) if a > b]
    shape = Partition(tuple(heights)).transpose() if heights else Partition()
    spec: list[tuple[int, Sign | None]] = []
    for k, count in shape.classes():
        if form.kind.constrained(k):
            if count % 2 != 0:
                raise ValueError(f"{count} rows of sign-free length {k} do not pair up")
            spec += [(k, None)] * count
            continue
        kernel = RationalMatrix.from_rows(powers[k].kernel_basis())
        gram = (kernel @ powers[k - 1].transpose() @ form.matrix() @ kernel.transpose()).entries
        if any(gram[a][b] != gram[b][a] for a in range(len(gram)) for b in range(a)):
            raise ValueError(f"the length-{k} pairing is not symmetric")
        np_, nm = symmetric_signature([list(row) for row in gram])
        if np_ + nm != count:
            raise ValueError(
                f"inertia {np_}+{nm} of the length-{k} pairing must count its rows {count}"
            )
        spec += [(k, Sign.PLUS)] * np_ + [(k, Sign.MINUS)] * nm
    return from_row_spec(form.kind, spec)


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
