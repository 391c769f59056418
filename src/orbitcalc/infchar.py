"""Infinitesimal characters attached to a partition, two ways.

The segment route concatenates rho-like arithmetic segments over the
transpose entries, alternating between the symplectic segment (starts at
m/2) and the orthogonal segment (starts at m/2 - 1), both stepping by 1.
The domino route tiles the diagram with vertical and horizontal dominoes
and labels each one; it applies whenever the transpose is very even or
very odd and must reproduce the segment multiset.  Since the two
computations share nothing beyond the diagram, they serve as mutual
oracles.

Segment step note: both segments descend in steps of 1.  The symplectic
segment of an even m must equal the half-sum of positive roots of
sp(m, C) = (m/2, m/2 - 1, ..., 1), which pins the step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .diagram_core import GroupLabel, Kind, Partition
from .vector_order import (
    HalfIntVector,
    OrderResult,
    bar_sort,
    dominance_leq,
    scale,
    seq_prec,
    seq_preceq,
)


class SegmentKind(enum.Enum):
    ORTHOGONAL_PLUS = "+"
    SYMPLECTIC_MINUS = "-"


def segment(kind: SegmentKind, m: int) -> HalfIntVector:
    """The plus segment has floor(m/2) entries from m/2 - 1 down; the minus
    segment has floor((m+1)/2) entries from m/2 down; both step by 1."""
    if m < 0:
        raise ValueError("segment length must be nonnegative")
    if kind is SegmentKind.SYMPLECTIC_MINUS:
        count = (m + 1) // 2
        start = Fraction(m, 2)
    else:
        count = m // 2
        start = Fraction(m, 2) - 1
    return tuple(start - i for i in range(count))


def segment_list(d: Partition, kind: Kind) -> list[HalfIntVector]:
    """Alternating segments over the transpose, first segment matching kind."""
    first = (
        SegmentKind.SYMPLECTIC_MINUS if kind is Kind.SYMPLECTIC else SegmentKind.ORTHOGONAL_PLUS
    )
    other = (
        SegmentKind.ORTHOGONAL_PLUS if kind is Kind.SYMPLECTIC else SegmentKind.SYMPLECTIC_MINUS
    )
    out = []
    for j, m in enumerate(d.transpose().rows):
        out.append(segment(first if j % 2 == 0 else other, m))
    return out


def infchar_segments(d: Partition, kind: Kind) -> HalfIntVector:
    """Concatenation of the alternating segments (empty for the empty shape)."""
    flat: list[Fraction] = []
    for seg in segment_list(d, kind):
        flat.extend(seg)
    return tuple(flat)


# ---------------------------------------------------------------------------
# domino route


@dataclass(frozen=True)
class Domino:
    """One tile: vertical dominoes live in a single column (top_row is the
    upper box), horizontal ones cover (columns, columns+1) of row 1, and the
    open domino sticks out of column 1 when the first row has odd length."""

    orientation: str  # "vertical" | "horizontal" | "open"
    column: int
    top_row: int | None = None
    label: Fraction | None = None


@dataclass(frozen=True)
class DominoCover:
    shape: Partition
    dominoes: tuple[Domino, ...]

    def labels(self) -> HalfIntVector:
        return tuple(d.label for d in self.dominoes if d.label is not None)


def domino_cover(d: Partition, kind: Kind) -> DominoCover:
    """Tile ``d`` and label the tiles.

    Columns are tiled bottom-up with vertical dominoes.  With a very odd
    transpose every column height is odd, so row 1 survives and is tiled
    right-to-left with horizontal dominoes, the leftover leftmost box (odd
    width) taken by an unlabeled open domino.  A vertical domino in column k
    is labeled n(DO) + 1 when k has the parity matching ``kind`` (odd k for
    symplectic, even k for orthogonal) and n(DO) otherwise, where n(DO)
    counts dominoes above it in its own column: each vertical one as 1, a
    covering horizontal or open domino as 1/2.  Labeled horizontal dominoes
    carry 1/2.
    """
    heights = d.transpose().rows
    if not heights:
        return DominoCover(d, ())
    very_even = all(h % 2 == 0 for h in heights)
    very_odd = all(h % 2 == 1 for h in heights)
    if not (very_even or very_odd):
        raise ValueError("domino algorithm requires very even or very odd transpose")
    if kind is Kind.SYMPLECTIC and d.size % 2 != 0:
        # odd size leaves an unlabeled open domino where the symplectic
        # segment would put its final 1/2; only even sizes carry the label set
        raise ValueError("symplectic domino labels require an even-size diagram")

    dominoes: list[Domino] = []
    row1_cover = Fraction(1, 2) if very_odd else Fraction(0)
    for k, h in enumerate(heights, start=1):
        vertical_count = h // 2
        first_top = 1 if h % 2 == 0 else 2
        for i in range(vertical_count):
            above = Fraction(i) + row1_cover
            if kind is Kind.SYMPLECTIC:
                bump = 1 if k % 2 == 1 else 0
            else:
                bump = 1 if k % 2 == 0 else 0
            dominoes.append(
                Domino("vertical", k, first_top + 2 * i, above + bump)
            )
    if very_odd:
        width = d.width
        col = width - 1
        while col >= 1:
            dominoes.append(Domino("horizontal", col, 1, Fraction(1, 2)))
            col -= 2
        if width % 2 == 1:
            dominoes.append(Domino("open", 1, 1, None))

    cover = DominoCover(d, tuple(dominoes))
    covered = 2 * sum(1 for t in cover.dominoes if t.orientation != "open") + sum(
        1 for t in cover.dominoes if t.orientation == "open"
    )
    if covered != d.size:
        raise ValueError(f"domino cover of {covered} boxes does not tile {d.rows}")
    return cover


def infchar_domino(d: Partition, kind: Kind) -> HalfIntVector:
    """Multiset of domino labels, reported weakly decreasing."""
    return bar_sort(domino_cover(d, kind).labels())


# ---------------------------------------------------------------------------
# rho vectors and bounds


def rho(g: GroupLabel) -> HalfIntVector:
    """Half sum of positive restricted roots: (n, ..., 1) for Mp(2n) and
    ((p+q-2)/2, (p+q-4)/2, ..., |q-p|/2) of length min(p, q) for O(p, q)."""
    if g.family == "Mp":
        if g.p % 2 != 0:
            raise ValueError("Mp parameter must be even")
        n = g.p // 2
        return tuple(Fraction(n - i) for i in range(n))
    p, q = g.p, g.q
    return tuple(Fraction(p + q - 2, 2) - i for i in range(min(p, q)))


@dataclass(frozen=True)
class BoundReport:
    holds_weak: bool
    holds_strict: bool


def check_bound(d: Partition, kind: Kind) -> BoundReport:
    """Compare the sorted infinitesimal character against its rho-type bound.

    Symplectic: bar(I(d)) preceq (m1/2n) (n, ..., 1), strictly prec against
    the (m1+2)/2n multiple.  Orthogonal: same with the comparison vector
    ((N/2)-1, ..., (N/2)-floor(N/2)) of length floor(N/2) and denominator
    N-2, N the size.  Undefined for orthogonal size 2 (zero denominator).
    """
    if d.size == 0:
        return BoundReport(True, True)
    m1 = d.transpose().rows[0]
    lhs = bar_sort(infchar_segments(d, kind))
    if kind is Kind.SYMPLECTIC:
        if d.size % 2 != 0:
            raise ValueError("symplectic shapes have even size")
        n = d.size // 2
        base = tuple(Fraction(n - i) for i in range(n))
        denom = d.size
    else:
        N = d.size
        base = tuple(Fraction(N, 2) - 1 - i for i in range(N // 2))
        denom = N - 2
        if denom == 0:
            raise ValueError("bound undefined for orthogonal size 2: denominator p+q-2 = 0")
        if denom < 0:  # size 1: both vectors empty, vacuous
            base = ()
            denom = 1
    if len(lhs) != len(base):
        raise ValueError(
            f"character length {len(lhs)} and bound vector length {len(base)} must agree"
        )
    weak = seq_preceq(lhs, scale(Fraction(m1, denom), base))
    strict = seq_prec(lhs, scale(Fraction(m1 + 2, denom), base))
    return BoundReport(weak, strict)


def reversal_check(d1: Partition, d2: Partition, kind: Kind) -> bool:
    """Order reversal: smaller orbit closure, larger sorted character.

    Returns whether [d1 below d2 implies bar(I(d1)) dominates bar(I(d2))]
    holds for the pair; requires both transposes very even or both very odd.
    """
    t1, t2 = d1.transpose(), d2.transpose()
    same_parity = (t1.very_even and t2.very_even) or (t1.very_odd and t2.very_odd)
    if not same_parity:
        raise ValueError("reversal check requires transposes of matching parity")
    rel = dominance_leq(d1, d2)
    if rel not in (OrderResult.EQUAL, OrderResult.LESS_EQ):
        return True
    b1 = bar_sort(infchar_segments(d1, kind))
    b2 = bar_sort(infchar_segments(d2, kind))
    return seq_preceq(b2, b1)
