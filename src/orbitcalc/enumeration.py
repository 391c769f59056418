"""Streaming enumeration of partitions and signed diagrams.

Partitions come from one successor rule, run with parts of any size or
with odd parts only: drop the trailing 1s and the last part p > 1, and
refill those boxes greedily with parts p - step (see :func:`_descending`).
Diagrams come out once per equivalence class, in a fixed deterministic
order, by choosing how many rows of each free length class lead with plus;
the class count for a shape is the product of (multiplicity + 1) over its
free length classes.  Each class's row blocks are laid out once per shape,
and each choice of one per class is built by ``SignedDiagram._trusted``.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Iterator

from .diagram_core import (
    MINUS,
    ORTHOGONAL,
    PLUS,
    SYMPLECTIC,
    Kind,
    Partition,
    SignedDiagram,
    SignedRow,
    Signature,
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


def parity_shapes(size: int) -> dict[Kind, list[tuple[tuple[int, ...], Partition]]]:
    """(column heights, shape) for the valid shapes of the size whose column
    heights are all even or all odd, by kind (symplectic first), each list in
    :func:`shapes` order.  One pass serves both kinds: each shape is
    transposed once from its heights and its classes are read once."""
    found: dict[Kind, list[tuple[tuple[int, ...], Partition]]] = {SYMPLECTIC: [], ORTHOGONAL: []}
    for heights in parity_partitions(size):
        shape = Partition._trusted(heights).transpose()
        unpaired = {length % 2 for length, mult in shape.classes() if mult % 2}
        for kind, pairs in found.items():
            if kind.parity not in unpaired:
                pairs.append((heights, shape))
    for pairs in found.values():
        pairs.sort(key=lambda pair: pair[1].rows, reverse=True)
    return found


def class_count(shape: Partition, kind: Kind) -> int:
    """Number of equivalence classes on the shape: prod of (mult + 1)."""
    count = 1
    for length, mult in shape.classes():
        if not kind.constrained(length):
            count *= mult + 1
    return count


def _class_blocks(shape: Partition, kind: Kind) -> list[tuple[tuple[SignedRow, ...], ...]]:
    """Per length class of a valid shape, longest first, the row blocks it
    can take: a constrained class of c rows has one, c/2 convention pairs; a
    free class of m rows has m + 1, k plus-leading rows then m - k
    minus-leading ones for k = 0..m."""
    blocks = []
    for length, mult in shape.classes():
        if kind.constrained(length):
            pair = tuple(SignedRow(length, lead) for lead in kind.convention)
            blocks.append((pair * (mult >> 1),))
        else:
            plus, minus = SignedRow(length, PLUS), SignedRow(length, MINUS)
            blocks.append(tuple((plus,) * k + (minus,) * (mult - k) for k in range(mult + 1)))
    return blocks


def diagrams_for_shape(shape: Partition, kind: Kind) -> Iterator[SignedDiagram]:
    """The canonical diagrams on a valid shape, one per choice of a block per
    class (:func:`_class_blocks`) in ``product`` order; else ``ValueError``."""
    if not validate_partition_kind(shape, kind):
        raise ValueError(f"{shape} is not a valid {kind.value} shape")
    for choice in product(*_class_blocks(shape, kind)):
        yield SignedDiagram._trusted(kind, sum(choice, ()))


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
