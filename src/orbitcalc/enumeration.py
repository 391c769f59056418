"""Streaming enumeration of partitions and signed diagrams.

Partitions come from one successor rule, run with parts of any size or
with odd parts only: drop the trailing 1s and the last part p > 1, and
refill those boxes greedily with parts p - step (see :func:`_descending`).
Diagrams come out once per equivalence class, in a fixed deterministic
order, by choosing how many rows of each free length class lead with plus;
the class count for a shape is the product of (multiplicity + 1) over its
free length classes.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator

from .diagram_core import (
    MINUS,
    PLUS,
    SYMPLECTIC,
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    Signature,
    from_row_spec,
    signature,
    validate_partition_kind,
)


def _descending(n: int, step: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n > 0 into parts of the form 1 + step * i, largest
    part first, in descending lex order.

    The successor of a partition removes its trailing 1s and its last part
    p > 1 and refills those boxes greedily with parts p - step, then the
    remainder r; a remainder not of the form becomes r - 1 and 1."""
    parts = [n] if (n - 1) % step == 0 else [n - 1, 1]
    while True:
        yield tuple(parts)
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        k = parts.pop() - step
        count, rest = divmod(ones + k + step, k)
        parts += [k] * count
        if rest:
            parts += [rest] if (rest - 1) % step == 0 else [rest - 1, 1]


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """All partitions of n, largest part first, in descending lex order; a
    negative n has none."""
    if n == 0:
        yield ()
    elif n > 0:
        yield from _descending(n, 1)


def parity_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n whose parts are all even or all odd, in
    descending lex order: the all-even ones are the partitions of n / 2
    doubled, merged with the all-odd ones.  As column heights, these are the
    very even and very odd shapes of size n."""
    if n <= 0:
        yield from partitions(n)  # the empty partition, or none
        return
    odd = _descending(n, 2)
    if n % 2:
        yield from odd
        return
    even = (tuple(2 * part for part in half) for half in partitions(n // 2))
    yield from heapq.merge(even, odd, reverse=True)


def shapes(kind: Kind, size: int) -> Iterator[Partition]:
    """Valid shapes of the given size for the kind; symplectic shapes have
    odd rows in pairs, so their size is even."""
    if kind is SYMPLECTIC and size % 2 != 0:
        return
    for rows in partitions(size):
        d = Partition._trusted(rows)
        if validate_partition_kind(d, kind):
            yield d


def parity_shapes(kind: Kind, size: int) -> list[tuple[tuple[int, ...], Partition]]:
    """(column heights, shape) for the valid shapes of the kind and size
    whose column heights are all even or all odd, in :func:`shapes` order;
    each shape is transposed once from its heights."""
    found = []
    for heights in parity_partitions(size):
        shape = Partition._trusted(heights).transpose()
        if validate_partition_kind(shape, kind):
            found.append((heights, shape))
    found.sort(key=lambda pair: pair[1].rows, reverse=True)
    return found


def free_classes(shape: Partition, kind: Kind) -> list[tuple[int, int]]:
    """(length, multiplicity) of the sign-free length classes."""
    return [(length, mult) for length, mult in shape.classes() if not kind.constrained(length)]


def class_count(shape: Partition, kind: Kind) -> int:
    """Number of equivalence classes on the shape: prod of (mult + 1)."""
    count = 1
    for _, mult in free_classes(shape, kind):
        count *= mult + 1
    return count


def diagrams_for_shape(shape: Partition, kind: Kind) -> Iterator[SignedDiagram]:
    if not validate_partition_kind(shape, kind):
        raise ValueError(f"{shape} is not a valid {kind.value} shape")
    free = free_classes(shape, kind)
    constrained: list[tuple[int, Sign | None]] = [
        (length, None) for length in shape.rows if kind.constrained(length)
    ]
    for plus_counts in product(*(range(mult + 1) for _, mult in free)):
        spec = list(constrained)
        for (length, mult), k in zip(free, plus_counts):
            spec += [(length, PLUS)] * k + [(length, MINUS)] * (mult - k)
        yield from_row_spec(kind, spec)


def signed_diagrams(
    kind: Kind,
    size: int | None = None,
    sig: Signature | None = None,
) -> Iterator[SignedDiagram]:
    """Every valid canonical diagram exactly once; filter by size or by
    signature (the signature fixes the size)."""
    if sig is not None:
        sig = Signature(*sig)
        if size is not None and size != sig.plus + sig.minus:
            raise ValueError("size and signature disagree")
        size = sig.plus + sig.minus
        if kind is SYMPLECTIC and sig.plus != sig.minus:
            return
    if size is None:
        raise ValueError("need a size or a signature")
    for shape in shapes(kind, size):
        for d in diagrams_for_shape(shape, kind):
            if sig is None or signature(d) == sig:
                yield d
