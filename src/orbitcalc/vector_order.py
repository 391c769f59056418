"""Exact half-integer vectors and the partial-sum orders on them.

Inside the package a half-integer vector is a tuple of ints, each twice the
entry it stands for: (3/2, 1, 0) is held as (3, 2, 0).  Doubling keeps every
sum and comparison exact, so the orders run on int partial sums, and the
JSON strings of the halves ("3/2", "2") are written from the ints.  No
floats and no ``Fraction`` anywhere.

A vector ``a`` precedes ``b`` weakly (a <= b here written preceq) when every
partial sum of ``a`` is at most the matching partial sum of ``b``; the
strict variant (``scaled_preceq(..., strict=True)``) requires strict
inequality at every index.  The closure
(dominance) order on equal-size partitions compares transposes the other
way around: d1 below d2 exactly when the transpose of d1 dominates the
transpose of d2.
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

from .diagram_core import Partition

HalfIntVector = tuple[int, ...]  # twice each entry


class OrderResult(enum.Enum):
    EQUAL = "equal"
    LESS_EQ = "less-eq"
    GREATER_EQ = "greater-eq"
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


def vector_to_json(a: Sequence[int]) -> list[str]:
    """Doubled entries as the strings of the halves: 3 -> "3/2", 4 -> "2"."""
    return [str(x // 2) if x % 2 == 0 else f"{x}/2" for x in a]
