"""Induced orbits: the real induction recipe for a GL block on a
symplectic orbit, its tau variant, and the rank-one tower of shapes [2^n]
with the wave-front decompositions built from them, each component held
as its index i, the plus-row count of [2^n]^(i).

Real induction from a symplectic diagram S with n - m at least the row
count r produces n - m - r + 1 orbit labels D^(j): the shape gains two
columns (every row grows by 2 and n - m - r new rows of length 2 appear),
even rows of S keep their boxes so their leading sign flips, odd rows
stay convention-bound, and the new length-2 rows split into j copies of
-+ and n - m - r - j copies of +-.
"""

from __future__ import annotations

from .diagram_core import (
    SYMPLECTIC,
    Partition,
    SignedDiagram,
    Value,
    brief,
    class_rows,
    moved_rows,
    tau,
)


def add_two_columns(s: Partition, k: int) -> Partition:
    """Merge two columns of length k from the left: rows grow by 2 and k - r
    rows of length 2 appear.  Requires the row count of s to be at most k."""
    if s.height > k:
        raise ValueError("row count exceeds column length")
    return Partition._trusted(tuple(r + 2 for r in s.rows) + (2,) * (k - s.height))


class InducedOrbitSet(Value):
    """All orbit labels of one real induction, indexed by the count j of
    minus-leading length-2 rows; diagrams are canonical and share a shape.
    ``new_columns`` is n - m."""

    __slots__ = ("diagrams", "new_columns")

    @property
    def count(self) -> int:
        return len(self.diagrams)


def induce_real(s: SignedDiagram, n: int) -> InducedOrbitSet:
    """Real orbits induced from the zero GL(n-m) orbit times the orbit of s.

    Every row of s grows by 2 to a length of 3 or more, so the candidates
    share those rows and differ only in the new length-2 class, which sorts
    last.  The grown rows are built once, as :func:`moved_rows` of s with
    ``grow`` 2, and checked once against :func:`add_two_columns`; candidate
    j appends the :func:`class_rows` of that class with j minus-leading rows,
    through ``SignedDiagram._trusted``."""
    if s.kind is not SYMPLECTIC:
        raise ValueError("real induction starts from a symplectic diagram")
    m = s.size // 2
    r = len(s.rows)
    k = n - m
    if k < r:
        raise ValueError(f"row count {r} exceeds new column length {k}")

    prefix = moved_rows(s, 2)
    twos = k - r
    expected_shape = add_two_columns(s.shape(), k)
    if tuple(length for length, _ in prefix) + (2,) * twos != expected_shape.rows:
        raise ValueError(f"induction from {s.rows} left the shape {expected_shape}")
    diagrams = tuple(
        SignedDiagram._trusted(SYMPLECTIC, prefix + class_rows(SYMPLECTIC, 2, twos, twos - j))
        for j in range(twos + 1)
    )
    return InducedOrbitSet(diagrams, k)


def induce_real_tau(s: SignedDiagram, n: int) -> InducedOrbitSet:
    """Variant induced from tau of the orbit: two columns merge from the left
    and even rows keep the leading signs of s; equals induce_real(tau(s), n).
    Odd-row signs are re-derived last, as always."""
    return induce_real(tau(s), n)


def two_n_signed(n: int, i: int) -> SignedDiagram:
    """The wave-front component [2^n]^(i): [2^n] with i rows leading +."""
    if not 0 <= i <= n:
        raise ValueError(f"index {i} outside [0, {n}]")
    return SignedDiagram._trusted(SYMPLECTIC, class_rows(SYMPLECTIC, 2, n, i))


def wf_theta_trivial(p: int, q: int) -> tuple[int, ...]:
    """Wave-front components of the lift of the trivial character through the
    pair (O(p,q), Sp(2n)) with p + q = n + 1, by their index: [2^n]^(p) and
    [2^n]^(p-1), as the indices p and p - 1 that lie in [0, n]."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    n = p + q - 1
    return tuple(i for i in (p, p - 1) if 0 <= i <= n)


def wf_ialpha(n: int, alpha: int) -> tuple[int, ...]:
    """Union of wf_theta_trivial(p, q) over p + q = n + 1 with p - q = alpha
    mod 4.  Admissible alpha has the parity of n + 1.  Within the class p
    steps down by 2, so the parts (p, p - 1) are disjoint and their
    concatenation descends."""
    return tuple(i for part in wf_ialpha_parts(n, alpha).values() for i in part)


def wf_ialpha_parts(n: int, alpha: int) -> dict[tuple[int, int], tuple[int, ...]]:
    """Per-(p, q) components entering wf_ialpha, for coverage checks."""
    if (alpha - (n + 1)) % 2 != 0:
        raise ValueError(
            f"alpha = {brief(str(alpha))} must have the parity of n + 1 = {brief(str(n + 1))}"
        )
    parts = {}
    for p in range(n + 1, -1, -1):
        q = n + 1 - p
        if (p - q - alpha) % 4 == 0:
            parts[(p, q)] = wf_theta_trivial(p, q)
    return parts
