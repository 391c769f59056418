"""Orbit-level theta correspondence along the column-prepend regime.

Between consecutive members of a dual pair the correspondence acts on the
orbit labels of interest by deleting or prepending one column, so a
diagram determines a full alternating chain of orbits and groups down to
a single column.  The pairing inertia of a symplectic diagram decides
which of its orbits meet the image of the moment map.
"""

from __future__ import annotations

from .diagram_core import (
    PLUS,
    SYMPLECTIC,
    Partition,
    SignedDiagram,
    Signature,
    canonicalize,
    class_rows,
    delete_column_signed,
    moved_rows,
)


def prepend_column(d: SignedDiagram, ones: int, plus: int = 0) -> SignedDiagram:
    """The diagram of the opposite kind whose first-column deletion is d:
    the :func:`moved_rows` of d with ``grow`` 1, then the :func:`class_rows`
    of ``ones`` new 1-rows (``plus`` counts only for an orthogonal result),
    built through ``SignedDiagram._trusted``.  Explicit checks, which
    ``python -O`` keeps, raise ``ValueError`` for an odd symplectic count or
    ``plus`` outside 0..ones."""
    if not 0 <= plus <= ones:
        raise ValueError(f"need 0 <= plus <= ones, got plus={plus}, ones={ones}")
    kind = d.kind.opposite
    if kind is SYMPLECTIC and ones & 1:
        raise ValueError(f"{ones} new 1-rows; even multiplicity required for symplectic")
    return SignedDiagram._trusted(kind, moved_rows(d, 1) + class_rows(kind, 1, ones, plus))


def deletion_inertia(d: SignedDiagram) -> Signature:
    """Inertia (r, s) of the symmetric pairing Omega(X., .) attached to any
    X in the orbit of a symplectic diagram.

    Any element of sp(2n) factors as X = W S with S = -W X symmetric, and
    Omega(Xu, v) has Gram matrix S; on a Jordan block the nonzero part of
    that pairing is an alternating antidiagonal, so an even row of length
    2w leading with sigma contributes (w-1, w-1) plus one middle sign
    sigma (-1)^(w-1), while a row of an odd pair of length 2l+1 contributes
    (l, l).  This is the signature written on the one-column deletion when
    it is read as the orbit label of the orthogonal side of the moment
    maps; it differs from naive box counting of the deletion by the middle
    flip on even rows of odd half-length.  The middle sign is that of box w,
    ``sigma.alternation[w % 2]``.
    """
    if d.kind is not SYMPLECTIC:
        raise ValueError("the pairing inertia applies to symplectic diagrams")
    r = s = 0
    for length, lead in d.rows:
        half = length >> 1
        r += half
        s += half
        if not length & 1:
            if lead.alternation[half & 1] is PLUS:
                s -= 1
            else:
                r -= 1
    return Signature(r, s)


def inertia_companions(shape: Partition, target: Signature) -> tuple[SignedDiagram | None, int]:
    """The first diagram of ``diagrams_for_shape(shape, SYMPLECTIC)``
    whose :func:`deletion_inertia` is ``target``, and the number of such
    diagrams; (None, 0) when there is none.

    The inertia adds up over the rows: every row gives its half length to
    both sides, except that an even row keeps its middle sign on one side
    only.  A free class of multiplicity m with k plus-leading rows puts k or
    m - k middles on the positive side, so the target fixes how many
    positive middles the free classes must share: the count is the
    coefficient of x^need in the product of (1 + x + ... + x^m), and the
    first diagram, in the order of the plus counts class by class, gives
    each class (longest first) the least k the later classes can make up,
    laid out by :func:`class_rows`.  Odd rows in odd count raise ValueError.
    """
    classes = shape.classes()
    free = [mult for length, mult in classes if not SYMPLECTIC.constrained(length)]
    base = sum((length - 1) // 2 * mult for length, mult in classes)  # each side, before middles
    middles = sum(free)
    need = target.plus - base  # middles the target puts on the positive side
    if target.minus - base != middles - need or not 0 <= need <= middles:
        return None, 0
    ways = [1]  # ways[j]: sign choices on the classes so far with j positive middles
    for mult in free:
        ways = [sum(ways[max(0, j - mult) : j + 1]) for j in range(len(ways) + mult)]
    count = ways[need]
    later = middles  # the middles of the classes not placed yet
    rows = []
    for length, mult in classes:
        k = 0
        if not SYMPLECTIC.constrained(length):
            later -= mult
            plus_middle = PLUS.alternation[length // 2 % 2] is PLUS
            for k in range(mult + 1):
                placed = k if plus_middle else mult - k
                if 0 <= need - placed <= later:
                    break
            need -= placed
        elif mult & 1:
            raise ValueError(f"{shape} is not a valid {SYMPLECTIC.value} shape")
        rows += class_rows(SYMPLECTIC, length, mult, k)
    return SignedDiagram._trusted(SYMPLECTIC, tuple(rows)), count


def inertia_fits(inertia: Signature, p: int, q: int) -> bool:
    """Sylvester: a symmetric form of inertia (r, s) is x^t I_{p,q} x for
    some x exactly when r <= p and s <= q."""
    return inertia.plus <= p and inertia.minus <= q


def in_moment_image(d: SignedDiagram, p: int, q: int) -> bool:
    """Does the orbit of a symplectic diagram for Sp(2n) meet the image of
    the symplectic-side moment map of the pair (O(p,q), Sp(2n))?

    X = m2(x) = W x^t I_{p,q} x exactly when the symmetric matrix -W X
    equals x^t I_{p,q} x, which is possible precisely when its inertia, the
    :func:`deletion_inertia` of d, fits under (p, q) (:func:`inertia_fits`).
    Requires p + q <= 2n.
    """
    if p + q > d.size:
        raise ValueError(f"need p + q <= {d.size}")
    return inertia_fits(deletion_inertia(d), p, q)


def chain(d: SignedDiagram) -> tuple[SignedDiagram, ...]:
    """The canonical diagrams d, d-1, ..., d-(width-1), each the column
    deletion of the one before; () for the empty diagram."""
    if not d.rows:
        return ()
    steps = [canonicalize(d)]
    while steps[-1].width > 1:
        steps.append(delete_column_signed(steps[-1]))
    return tuple(steps)
