"""Infinitesimal characters attached to a partition, two ways.

The segment route concatenates rho-like arithmetic segments over the
transpose entries, alternating between the symplectic segment (starts at
m/2) and the orthogonal segment (starts at m/2 - 1), both stepping by 1.
The domino route tiles the diagram with vertical and horizontal dominoes
and labels each one; it applies whenever the transpose is very even or
very odd and must reproduce the segment multiset.  Since the two
computations share nothing beyond the diagram, they serve as mutual
oracles.

Every vector here holds doubled ints (see ``vector_order``): a segment is
a ``range`` stepping by -2, and the domino labels and the bound vectors
are doubled alike.  The scale factors of ``check_bound`` enter only
through ``scaled_preceq``; no ``Fraction``, no floats.

Segment step note: both segments descend in steps of 1.  The symplectic
segment of an even m must equal the half-sum of positive roots of
sp(m, C) = (m/2, m/2 - 1, ..., 1), which pins the step.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram_core import SYMPLECTIC, Kind, Partition, Value
from .vector_order import HalfIntVector, bar_sort, scaled_preceq, seq_preceq

_new = tuple.__new__  # builds a Domino without the NamedTuple's Python-level __new__


def segment(kind: Kind, m: int) -> range:
    """The orthogonal segment has floor(m/2) entries from m/2 - 1 down, the
    symplectic one floor((m+1)/2) entries from m/2 down; both step by 1, so
    the doubled entries step by 2 and stop above -1 resp. 0."""
    if m < 0:
        raise ValueError("segment length must be nonnegative")
    if kind is SYMPLECTIC:
        return range(m, 0, -2)
    return range(m - 2, -1, -2)


def segments_of_transpose(heights: tuple[int, ...], kind: Kind) -> HalfIntVector:
    """Concatenation of the alternating segments over the column heights,
    the first segment matching kind (empty for the empty shape)."""
    kinds = (kind, kind.opposite)
    flat: list[int] = []
    for j, m in enumerate(heights):
        flat.extend(segment(kinds[j % 2], m))
    return tuple(flat)


def infchar_segments(d: Partition, kind: Kind) -> HalfIntVector:
    """The segment route: alternating segments over the transpose of d."""
    return segments_of_transpose(d.transpose().rows, kind)


# ---------------------------------------------------------------------------
# domino route


class Domino(NamedTuple):
    """One tile: vertical dominoes live in a single column (top_row is the
    upper box), horizontal ones cover (columns, columns+1) of row 1, and the
    open domino sticks out of column 1 when the first row has odd length.
    A named tuple, the cheapest record to build (a tiling builds one per
    tile): :func:`domino_cover` builds it through ``tuple.__new__``, with
    all four fields; no tile is ever compared with a plain tuple."""

    orientation: str  # "vertical" | "horizontal" | "open"
    column: int
    top_row: int | None = None
    label: int | None = None  # doubled, as in HalfIntVector


def domino_cover(d: Partition, kind: Kind) -> tuple[Domino, ...]:
    """Tile ``d`` and label the tiles.

    Columns are tiled bottom-up with vertical dominoes.  With a very odd
    transpose every column height is odd, so row 1 survives and is tiled
    right-to-left with horizontal dominoes, the leftover leftmost box (odd
    width) taken by an unlabeled open domino.  A vertical domino in column k
    is labeled n(DO) + 1 when k has the parity matching ``kind`` (odd k for
    symplectic, even k for orthogonal) and n(DO) otherwise, where n(DO)
    counts dominoes above it in its own column: each vertical one as 1, a
    covering horizontal or open domino as 1/2.  Labeled horizontal dominoes
    carry 1/2.  Doubled, the i-th vertical domino of a column carries
    2i + row1_cover + bump, and a horizontal one carries 1.
    """
    columns = d.transpose()
    heights, very_odd = columns.rows, columns.very_odd
    if not heights:
        return ()
    if not (columns.very_even or very_odd):
        raise ValueError("domino algorithm requires very even or very odd transpose")
    if kind is SYMPLECTIC and d.size % 2 != 0:
        # odd size leaves an unlabeled open domino where the symplectic
        # segment would put its final 1/2; only even sizes carry the label set
        raise ValueError("symplectic domino labels require an even-size diagram")

    dominoes: list[Domino] = []
    row1_cover = 1 if very_odd else 0
    bump_parity = kind.parity
    for k, h in enumerate(heights, start=1):
        first_top = 1 if h % 2 == 0 else 2
        bump = 2 if k % 2 == bump_parity else 0
        for i in range(h // 2):
            dominoes.append(
                _new(Domino, ("vertical", k, first_top + 2 * i, 2 * i + row1_cover + bump))
            )
    if very_odd:
        width = d.width
        col = width - 1
        while col >= 1:
            dominoes.append(_new(Domino, ("horizontal", col, 1, 1)))
            col -= 2
        if width % 2 == 1:
            dominoes.append(_new(Domino, ("open", 1, 1, None)))

    covered = sum(1 if t.orientation == "open" else 2 for t in dominoes)
    if covered != d.size:
        raise ValueError(f"domino cover of {covered} boxes does not tile {d.rows}")
    return tuple(dominoes)


def infchar_domino(d: Partition, kind: Kind) -> HalfIntVector:
    """Multiset of domino labels, reported weakly decreasing."""
    return bar_sort(tuple(t.label for t in domino_cover(d, kind) if t.label is not None))


# ---------------------------------------------------------------------------
# bounds and order reversal


class BoundReport(Value):
    __slots__ = ("holds_weak", "holds_strict")


def check_bound(d: Partition, kind: Kind) -> BoundReport:
    """Compare the sorted infinitesimal character against its rho-type bound.

    Symplectic: bar(I(d)) preceq (m1/2n) (n, ..., 1), strictly prec against
    the (m1+2)/2n multiple.  Orthogonal: same with the comparison vector
    ((N/2)-1, ..., (N/2)-floor(N/2)) of length floor(N/2) and denominator
    N-2, N the size.  Undefined for orthogonal size 2 (zero denominator).
    The comparison vector is the segment of the kind and the size; a
    character of another length raises the length-mismatch ValueError.
    """
    if d.size == 0:
        return BoundReport(True, True)
    t = d.transpose().rows
    lhs = bar_sort(segments_of_transpose(t, kind))
    base = segment(kind, d.size)
    if kind is SYMPLECTIC:
        if d.size % 2 != 0:
            raise ValueError("symplectic shapes have even size")
        denom = d.size
    else:
        denom = d.size - 2
        if denom == 0:
            raise ValueError("bound undefined for orthogonal size 2: denominator p+q-2 = 0")
        if denom < 0:  # size 1: both vectors empty, vacuous
            denom = 1
    weak = scaled_preceq(lhs, base, t[0], denom)
    strict = scaled_preceq(lhs, base, t[0] + 2, denom, strict=True)
    return BoundReport(weak, strict)


def characters_reverse(below: bool, b1: HalfIntVector, b2: HalfIntVector) -> bool | None:
    """The pair test of order reversal.  Given whether d1 lies below d2 in
    the closure order and their sorted characters b1 and b2: when d1 lies
    below d2, whether b1 dominates b2; None when it does not."""
    return seq_preceq(b2, b1) if below else None
