"""Exact half-integer vectors and the partial-sum orders on them.

Inside the package a half-integer vector is a tuple of ints, each twice the
entry it stands for: (3/2, 1, 0) is held as (3, 2, 0).  Doubling keeps every
sum and comparison exact, so the orders run on int partial sums;
``Fraction`` appears only at the JSON boundary.  No floats anywhere.

A vector ``a`` precedes ``b`` weakly (a <= b here written preceq) when every
partial sum of ``a`` is at most the matching partial sum of ``b``; the
strict variant requires strict inequality at every index.  The closure
(dominance) order on equal-size partitions compares transposes the other
way around: d1 below d2 exactly when the transpose of d1 dominates the
transpose of d2.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Iterable, Sequence

from .diagram_core import Partition

HalfIntVector = tuple[int, ...]  # twice each entry


class OrderResult(enum.Enum):
    EQUAL = "equal"
    LESS_STRICT = "less-strict"
    LESS_EQ = "less-eq"
    GREATER_EQ = "greater-eq"
    GREATER_STRICT = "greater-strict"
    INCOMPARABLE = "incomparable"


def _pad_pair(
    a: Sequence[int], b: Sequence[int], pad: bool
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if len(a) == len(b):
        return tuple(a), tuple(b)
    if not pad:
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)} (pass pad=True to zero-pad)")
    n = max(len(a), len(b))
    return tuple(a) + (0,) * (n - len(a)), tuple(b) + (0,) * (n - len(b))


def scaled_preceq(
    a: Sequence[int], b: Sequence[int], num: int, den: int, strict: bool = False
) -> bool:
    """Every partial sum of a is at most num/den times the matching partial
    sum of b (strictly below when ``strict``), decided as den*sum(a) <=
    num*sum(b) on ints, so no rational vector is built."""
    if den <= 0:
        raise ValueError(f"scale denominator must be positive, got {den}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    floor = 1 if strict else 0
    gap = 0  # num*sum(b) - den*sum(a) over the prefix read so far
    for x, y in zip(a, b):
        gap += num * y - den * x
        if gap < floor:
            return False
    return True


def seq_preceq(a: Sequence[int], b: Sequence[int], pad: bool = False) -> bool:
    """Every partial sum of a is <= the matching partial sum of b."""
    return scaled_preceq(*_pad_pair(a, b, pad), 1, 1)


def seq_prec(a: Sequence[int], b: Sequence[int], pad: bool = False) -> bool:
    """Strict at every partial sum (vacuously true for empty vectors)."""
    return scaled_preceq(*_pad_pair(a, b, pad), 1, 1, strict=True)


def seq_compare(a: Sequence[int], b: Sequence[int], pad: bool = False) -> OrderResult:
    a, b = _pad_pair(a, b, pad)
    if a == b:
        return OrderResult.EQUAL
    if seq_prec(a, b):
        return OrderResult.LESS_STRICT
    if seq_preceq(a, b):
        return OrderResult.LESS_EQ
    if seq_prec(b, a):
        return OrderResult.GREATER_STRICT
    if seq_preceq(b, a):
        return OrderResult.GREATER_EQ
    return OrderResult.INCOMPARABLE


def bar_sort(a: Iterable[int]) -> HalfIntVector:
    """Reorder weakly decreasing (the bar operation); multiset preserved."""
    return tuple(sorted(a, reverse=True))


def closure_order(t1: Sequence[int], t2: Sequence[int]) -> OrderResult:
    """Closure order of two same-size partitions given by their transposes:
    d1 lies below d2 iff t1 dominates t2."""
    if t1 == t2:
        return OrderResult.EQUAL
    if seq_preceq(t2, t1, pad=True):
        return OrderResult.LESS_EQ
    if seq_preceq(t1, t2, pad=True):
        return OrderResult.GREATER_EQ
    return OrderResult.INCOMPARABLE


def dominance_leq(d1: Partition, d2: Partition) -> OrderResult:
    """Closure order on same-size partitions via transposes."""
    if d1.size != d2.size:
        raise ValueError("incomparable sizes")
    return closure_order(d1.transpose().rows, d2.transpose().rows)


def dominated(d1: Partition, d2: Partition) -> bool:
    """d1 lies in the closure of d2 (weakly)."""
    return dominance_leq(d1, d2) in (OrderResult.EQUAL, OrderResult.LESS_EQ)


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {s!r}: {exc}") from None


def vector_to_json(a: Sequence[int]) -> list[str]:
    """Doubled entries as the strings of the halves: 3 -> "3/2", 4 -> "2"."""
    return [str(x // 2) if x % 2 == 0 else f"{x}/2" for x in a]


def vector_from_json(data: Sequence[str]) -> HalfIntVector:
    """Inverse of vector_to_json; entries that are not half-integers raise."""
    doubled = [2 * parse_rational(s) for s in data]
    if any(x.denominator != 1 for x in doubled):
        raise ValueError(f"not a half-integer vector: {list(data)}")
    return tuple(x.numerator for x in doubled)
