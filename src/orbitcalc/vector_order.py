"""Exact half-integer vectors and the partial-sum orders on them.

Inside the package a half-integer vector is a tuple of ints, each twice the
entry it stands for: (3/2, 1, 0) is held as (3, 2, 0).  Doubling keeps every
sum and comparison exact, so the orders run on int partial sums, and the
JSON strings of the halves ("3/2", "2") are written from the ints.  No
floats and no ``Fraction`` anywhere.

A vector ``a`` precedes ``b`` weakly (a <= b here written preceq) when every
partial sum of ``a`` is at most the matching partial sum of ``b``; the
strict variant (``scaled_preceq(..., strict=True)``) requires strict
inequality at every index.  Both sides must have one length.  The closure
(dominance) order on equal-size partitions is a yes/no test on transposes,
read the other way around: d1 lies below d2 exactly when the transpose of
d1, zero-padded to the longer length, dominates the transpose of d2
(``closure_leq``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .diagram_core import Partition

HalfIntVector = tuple[int, ...]  # twice each entry


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


def seq_preceq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Every partial sum of a is <= the matching partial sum of b."""
    return scaled_preceq(a, b, 1, 1)


def bar_sort(a: Iterable[int]) -> HalfIntVector:
    """Reorder weakly decreasing (the bar operation); multiset preserved."""
    return tuple(sorted(a, reverse=True))


def closure_leq(t1: Sequence[int], t2: Sequence[int]) -> bool:
    """Closure order of two same-size partitions given by their transposes:
    d1 lies below d2 iff t1, zero-padded, dominates t2."""
    n = max(len(t1), len(t2))
    return seq_preceq(tuple(t2) + (0,) * (n - len(t2)), tuple(t1) + (0,) * (n - len(t1)))


def dominance_leq(d1: Partition, d2: Partition) -> bool:
    """d1 lies (weakly) in the closure of d2: ``closure_leq`` of transposes."""
    if d1.size != d2.size:
        raise ValueError("incomparable sizes")
    return closure_leq(d1.transpose().rows, d2.transpose().rows)


def vector_to_json(a: Sequence[int]) -> list[str]:
    """Doubled entries as the strings of the halves: 3 -> "3/2", 4 -> "2"."""
    return [str(x // 2) if x % 2 == 0 else f"{x}/2" for x in a]
