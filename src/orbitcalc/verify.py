"""Exhaustive verification suites, runnable from the command line.

Each suite sweeps an enumeration space up to a size bound and checks one
family of identities.  A suite is a generator: a case is what it yields,
the tuple of that case's counterexample texts, empty when the case holds;
a ``str`` it yields is a remark, not a case.  ``run_suite`` alone counts
the cases (``checked`` is how many the suite yielded), joins their
counterexamples in order and keeps the remarks as notes.  Suites are
deterministic given (name, bound); the one randomized suite draws from a
fixed seed.  The matrix oracle is imported only inside the suites that
call it, so the diagram-side suites never load it.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .diagram_core import (
    MINUS,
    ORTHOGONAL,
    PLUS,
    SYMPLECTIC,
    Partition,
    SignedDiagram,
    Value,
    delete_column_signed,
    equivalent,
    negate,
    signature,
    validate_signed,
)
from .enumeration import parity_partitions, parity_shapes, signed_diagrams
from .infchar import (
    characters_reverse,
    check_bound,
    infchar_domino,
    segment,
    segments_of_transpose,
)
from .orbit_induction import induce_real, wf_ialpha_parts
from .tower import (
    admissible_shapes,
    admissible_towers,
    check_lemma_pm,
    check_non3,
    check_range,
)
from .vector_order import bar_sort, closure_leq, scaled_preceq, vector_to_json


class SuiteReport(Value):
    """A suite's result, built by ``run_suite`` once the suite has run."""

    __slots__ = ("name", "bound", "checked", "counterexamples", "notes")

    def __init__(self, name: str, bound: int, checked: int, counterexamples, notes) -> None:
        Value.__init__(self, name, bound, checked, tuple(counterexamples), tuple(notes))

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "suite": self.name,
            "bound": self.bound,
            "checked": self.checked,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
            "notes": list(self.notes),
        }


def _all_signed(max_size: int):
    for size in range(0, max_size + 1):
        for kind in (SYMPLECTIC, ORTHOGONAL):
            yield from signed_diagrams(kind, size=size)


# ---------------------------------------------------------------------------


def suite_reasonss(bound: int) -> Iterator[tuple[str, ...]]:
    """One-column deletion lands in the opposite classification with the
    stated signature bounds, exhaustively up to the size bound."""
    for d in _all_signed(bound):
        if not d.rows:
            continue
        # the lemma behind delete_column_signed, checked on its own: the raw
        # flipped rows already obey the conventions of the opposite kind
        flipped = tuple((length - 1, lead.flipped) for length, lead in d.rows if length > 1)
        if validate_signed(d.kind.opposite, flipped):
            yield (f"{d} deletes to an invalid diagram",)
            continue
        e = delete_column_signed(d)
        ds, es = signature(d), signature(e)
        if d.kind is ORTHOGONAL:
            ok = es.plus == es.minus and es.plus <= min(ds.plus, ds.minus)
        else:
            ok = max(es.plus, es.minus) <= ds.plus
        yield () if ok else (f"deletion signature {tuple(es)} breaks the bound for {tuple(ds)}",)


def suite_lemma_pm(bound: int) -> Iterator[tuple[str, ...]]:
    for t in admissible_towers(bound):
        bad = []
        for rec in check_lemma_pm(t):
            if not rec.ok:
                bad.append(f"{t.steps[-1]}: step {rec.k}: {rec.clauses}")
        yield tuple(bad)


def suite_reversal(bound: int) -> Iterator[tuple[str, ...]]:
    """Order reversal between closure order and sorted characters, over all
    same-size valid pairs with transposes of one parity.  The shapes come
    from their very even and very odd column heights (``parity_shapes``),
    with one sorted character per shape, shared by all its pairs."""
    for size in range(1, bound + 1):
        for kind, found in parity_shapes(size).items():
            # (shape, column heights, sorted character), split by height parity
            families: tuple[list, list] = ([], [])
            for heights, s in found:
                char = bar_sort(segments_of_transpose(heights, kind))
                families[heights[0] % 2].append((s, heights, char))
            for family in families:
                for d1, t1, b1 in family:
                    for d2, t2, b2 in family:
                        ok = characters_reverse(closure_leq(t1, t2), b1, b2)
                        if ok is None:
                            continue
                        yield () if ok else (
                            f"{kind.value}: {d1} below {d2} but characters do not reverse",
                        )


def suite_bounds(bound: int) -> Iterator[tuple[str, ...] | str]:
    """Weak and strict character bounds over the shapes of all admissible
    diagrams; the orthogonal size-2 case has a vanishing denominator and is
    skipped, with a remark."""
    for kind, shape in admissible_shapes(bound):  # the bound only sees the shape
        if kind is ORTHOGONAL and shape.size == 2:
            yield f"skipped {shape} orthogonal: bound denominator is zero"
            continue
        res = check_bound(shape, kind)
        bad = []
        if not res.holds_weak:
            bad.append(f"{kind.value} {shape}: weak bound fails")
        if not res.holds_strict:
            bad.append(f"{kind.value} {shape}: strict bound fails")
        yield tuple(bad)


def suite_domino_oracle(bound: int) -> Iterator[tuple[str, ...]]:
    """The domino labels agree with the segment concatenation as multisets
    for every partition with very even or very odd transpose, both kinds.
    The cases are built from their column heights: the domino route tiles
    the rows, the segment route reads the heights."""
    for size in range(1, bound + 1):
        for heights in parity_partitions(size):
            d = Partition._trusted(heights).transpose()
            for kind in (SYMPLECTIC, ORTHOGONAL):
                if kind is SYMPLECTIC and size % 2 != 0:
                    continue  # symplectic labels exist for even sizes only
                got = infchar_domino(d, kind)
                want = bar_sort(segments_of_transpose(heights, kind))
                yield () if got == want else (
                    f"{kind.value} {d}: domino {vector_to_json(got)} "
                    f"vs segments {vector_to_json(want)}",
                )


def suite_twocom(bound: int) -> Iterator[tuple[str, ...]]:
    """Wave-front coverage: for every n <= bound and admissible parity class,
    the union over the class covers all n + 1 labels and the per-pair sets
    within one class are pairwise disjoint."""
    for n in range(0, bound + 1):
        for alpha in ((0, 2) if n % 2 == 1 else (1, 3)):
            parts = wf_ialpha_parts(n, alpha)
            union: set[int] = set()
            overlap = False
            for members in parts.values():
                ids = set(members)
                overlap = overlap or bool(union & ids)
                union |= ids
            bad = []
            if union != set(range(n + 1)):
                bad.append(f"n={n} alpha={alpha}: union covers {sorted(union)}")
            if overlap:
                bad.append(f"n={n} alpha={alpha}: classes overlap")
            yield tuple(bad)


def _induce_oracle_case(s: SignedDiagram, n: int) -> tuple[str, ...]:
    """One (S, n) cell of the witness sweep: its counterexample texts."""
    from . import moment_oracle as mo

    bad = []
    induced = induce_real(s, n)
    form, block_form = mo.FormSpec.symplectic(2 * n), mo.FormSpec.symplectic(s.size)
    for j, expected in enumerate(induced.diagrams):
        x = mo.build_witness(s, n, j)
        got = mo.classify_signed(x, form)
        if not equivalent(got, expected):
            bad.append(f"witness (S={s.rows}, n={n}, j={j}) classifies to {got.rows}")
        neg = mo.classify_signed(-x, form)
        if not equivalent(neg, negate(got)):
            bad.append(f"negation rule fails on (S={s.rows}, n={n}, j={j})")
        block = mo.witness_block_part(x, s.size // 2)
        if s.rows and not equivalent(mo.classify_signed(block, block_form), s):
            bad.append(f"witness block part leaves the source orbit (S={s.rows}, n={n})")
    return tuple(bad)


def suite_induce_oracle(bound: int) -> Iterator[tuple[str, ...]]:
    """Witness matrices classify to the induced labels, their negatives to
    the negated labels, and the sl2 anchors hold; grid capped by 2n <= bound."""
    from . import moment_oracle as mo

    nmax = bound // 2

    # sl2 anchor: the raising element is a plus row, its negative a minus row
    x = mo.RationalMatrix.from_rows([[0, 1], [0, 0]])
    form = mo.FormSpec.symplectic(2)
    plus = mo.classify_signed(x, form)
    minus = mo.classify_signed(-x, form)
    yield () if plus.rows == ((2, PLUS),) else (
        "sl2 anchor: raising element is not a plus row",
    )
    yield () if minus.rows == ((2, MINUS),) else (
        "sl2 anchor: lowered element is not a minus row",
    )

    for two_m in range(0, 2 * nmax + 1, 2):
        for s in signed_diagrams(SYMPLECTIC, size=two_m):
            for n in range(two_m // 2, nmax + 1):
                if n - two_m // 2 >= len(s.rows):
                    yield _induce_oracle_case(s, n)


def _conjugation_pool() -> list[tuple]:
    """The (matrix, form) pairs that the conjugation suite cycles through."""
    from . import moment_oracle as mo

    pool = []
    for s in signed_diagrams(SYMPLECTIC, size=4):
        for n in (3, 4):
            if n - 2 >= len(s.rows):
                for j in range(n - 2 - len(s.rows) + 1):
                    pool.append(
                        (mo.build_witness(s, n, j), mo.FormSpec.symplectic(2 * n))
                    )
    # a single regular block of o(2, 1), its negative, and the zero orbit
    block = mo.RationalMatrix.from_rows([[0, 1, 0], [-1, 0, -1], [0, -1, 0]])
    pool.append((block, mo.FormSpec.orthogonal(2, 1)))
    pool.append((-block, mo.FormSpec.orthogonal(2, 1)))
    pool.append((mo.RationalMatrix.zeros(4, 4), mo.FormSpec.orthogonal(2, 2)))
    return pool


def suite_conjugation(samples: int) -> Iterator[tuple[str, ...]]:
    """Classification is invariant under form-preserving conjugation; the
    sample count plays the bound role, drawn from a fixed seed."""
    from . import moment_oracle as mo

    rng = random.Random(20240311)
    pool = _conjugation_pool()
    for i in range(samples):
        x, form = pool[i % len(pool)]
        g = mo.random_form_preserving(form, rng)
        before = mo.classify_signed(x, form)
        after = mo.classify_signed(mo.conjugate(g, x), form)
        yield () if equivalent(before, after) else (f"conjugation moved the label of case {i}",)


def suite_non3(bound: int) -> Iterator[tuple[str, ...]]:
    """Full tower ledger over admissible diagrams: range conditions and the
    uniqueness record at every interior metaplectic step."""
    for t in admissible_towers(bound):
        d = t.steps[-1]
        bad = []
        for rec in check_range(t):
            if not rec.ok:
                bad.append(f"{d}: range at step {rec.k}: {rec.clauses}")
        for k in t.metaplectic:
            rec = check_non3(t, k)
            if not rec.ok:
                bad.append(f"{d}: uniqueness at step {k}: {rec.clauses}")
        yield tuple(bad)


def suite_appendix(bound: int) -> Iterator[tuple[str, ...]]:
    """Exact segment-sum identities and the two appendix inequalities on
    scaled segments, over their stated parameter grids.  Segments are
    doubled, so a sum (m+1)^2/8 reads (m+1)^2/4, and each scaled bound is
    one cross-multiplied comparison."""
    for m in range(1, 100, 2):
        bad = []
        if 4 * sum(segment(SYMPLECTIC, m)) != (m + 1) ** 2:
            bad.append(f"minus-segment sum fails at m={m}")
        if 4 * sum(segment(ORTHOGONAL, m)) != (m - 1) ** 2:
            bad.append(f"plus-segment sum fails at m={m}")
        yield tuple(bad)
    # merged pair of segments against the scaled full segment
    for m in range(0, bound + 1):
        for r in range(0, m + 1):
            if (m - r) % 2 != 0 or m + r == 0:
                continue
            lhs = bar_sort([*segment(SYMPLECTIC, m), *segment(ORTHOGONAL, r)])
            rhs = segment(SYMPLECTIC, m + r)
            yield () if scaled_preceq(lhs, rhs, m, m + r) else (
                f"segment-pair bound fails at (m={m}, r={r})",
            )
    # staircase family against the scaled full segment
    two_n_cap = (3 * bound) // 2
    for m in range(2, two_n_cap + 3):
        for j in range(0, m // 2 + 1):
            for m0 in range(0, m - 2 * j - 1):
                if (m - m0) % 2 != 0:
                    continue
                for r in range(m0 % 2, m0 + 1, 2):
                    two_n = m0 + r + (2 * m - 2 * j + 2) * j
                    if two_n > two_n_cap or two_n == 0:
                        continue
                    heights = tuple(
                        h for t in range(j) for h in (m - 2 * t, m - 2 * t)
                    )
                    heights += tuple(h for h in (m0, r) if h > 0)
                    # the staircase shape is the transpose of these heights
                    lhs = bar_sort(segments_of_transpose(heights, SYMPLECTIC))
                    rhs = segment(SYMPLECTIC, two_n)
                    yield () if scaled_preceq(lhs, rhs, m, two_n) else (
                        f"staircase bound fails at (m={m}, j={j}, m0={m0}, r={r})",
                    )


SUITES = {
    "reasonss": suite_reasonss,
    "lemma-pm": suite_lemma_pm,
    "reversal": suite_reversal,
    "bounds": suite_bounds,
    "domino-oracle": suite_domino_oracle,
    "twocom": suite_twocom,
    "induce-oracle": suite_induce_oracle,
    "conjugation": suite_conjugation,
    "non3": suite_non3,
    "appendix": suite_appendix,
}


def run_suite(name: str, bound: int) -> SuiteReport:
    """Run one suite: count the cases it yields, join their counterexamples
    in order and keep its remarks as notes."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checked = 0
    counterexamples: list[str] = []
    notes: list[str] = []
    for case in SUITES[name](bound):
        if isinstance(case, str):
            notes.append(case)
        else:
            checked += 1
            counterexamples += case
    return SuiteReport(name, bound, checked, counterexamples, notes)
