"""Admissible diagrams and the arithmetic ledger of their induction towers.

A signed diagram is admissible (class U here, decided by
``diagram_core.class_u``) when its transpose is very even or very odd,
satisfies the interlacing conditions of its kind, and avoids the excluded
tail: last two columns of equal length whose rows all carry the same
two-box pattern.  For admissible diagrams the whole alternating tower of
column deletions satisfies a battery of signature inequalities (the
five-clause column lemma), the range conditions each lift step needs, and
a uniqueness property of the orbit that certifies the nonvanishing step;
a certificate is the tower with all of these records attached to its
steps, together with the infinitesimal character.

A :class:`Tower` holds its steps and their signatures; groups, sizes and
the metaplectic steps are read off those.  Every nonempty tower is built by
:meth:`Tower.lift` from :data:`EMPTY`, one step at a time.  Class U is
hereditary under deleting the first column, so the suites grow it top-down:
:func:`admissible_towers` lifts every member by prepending one column and
extends the member's tower by that step, while :func:`tower` lifts through
the deletion chain of a single diagram.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator

from .diagram_core import (
    ORTHOGONAL,
    PLUS,
    SYMPLECTIC,
    ClassUReport,
    Kind,
    Partition,
    SignedDiagram,
    Signature,
    Value,
    _excluded_pattern,
    _interlacing_failures,
    class_u,
    group_label,
    signature,
    to_json_dict,
)
from .enumeration import parity_shapes
from .infchar import infchar_segments
from .orbit_induction import induce_real
from .theta_orbits import (
    chain,
    deletion_inertia,
    inertia_companions,
    inertia_fits,
    prepend_column,
)
from .vector_order import vector_to_json


# ---------------------------------------------------------------------------
# class U by shape: the column heights decide whether a shape carries a member


def admissible_shapes(max_size: int) -> Iterator[tuple[Kind, Partition]]:
    """(kind, shape) for every nonempty valid shape of size <= max_size that
    carries a class-U diagram; by size, symplectic before orthogonal, then
    partition order.

    The heights must be very even or very odd and interlace.  The excluded
    tail then rules out every sign assignment exactly when the last two
    heights are both 1: the one row reaching the last column is free (a
    constrained class has an even count), so either lead makes the tail
    uniform.  Two or more such rows alternate by convention or can take
    mixed leads, and unequal last heights leave no tail to exclude."""
    for size in range(1, max_size + 1):
        for kind, found in parity_shapes(size).items():
            for heights, shape in found:
                if heights[-2:] != (1, 1) and not _interlacing_failures(heights, kind):
                    yield kind, shape


# ---------------------------------------------------------------------------
# towers; step k carries the diagram with k columns


class Tower(Value):
    """The column-deletion tower of an admissible diagram.

    ``steps[k - 1]`` is D(k), the diagram keeping the last k columns, and
    ``sig`` is zero-padded so that ``sig[k]`` is the signature of step k.
    The size of step k is ``sum(sig[k])``.  Everything else is derived on
    read: ``groups`` (``groups[k - 1]`` is the group of step k, as printed)
    and ``metaplectic``, the interior steps 2 <= k <= d1 - 1 that carry a
    symplectic diagram.  Every tower is a class-U member by construction, so
    it carries no report; its report is :data:`MEMBER`.
    """

    __slots__ = ("steps", "sig")

    @property
    def d1(self) -> int:
        return len(self.steps)

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(group_label(s.kind, sig) for s, sig in zip(self.steps, self.sig[1:]))

    @property
    def metaplectic(self) -> tuple[int, ...]:
        return tuple(
            k for k in range(2, self.d1) if self.steps[k - 1].kind is SYMPLECTIC
        )

    def lift(self, child: SignedDiagram) -> Tower:
        """This tower extended by ``child``, the diagram one column wider
        than its top step."""
        return Tower(self.steps + (child,), self.sig + (signature(child),))


EMPTY = Tower((), (Signature(0, 0),))  # the tower of either empty diagram
MEMBER = ClassUReport(True, True, False, ())  # class_u of every diagram with a Tower


class NotAdmissible(ValueError):
    """Raised for a diagram outside class U; ``report`` says why."""

    def __init__(self, report: ClassUReport) -> None:
        super().__init__("not an admissible diagram: " + "; ".join(report.reasons))
        self.report = report


def tower(d: SignedDiagram) -> Tower:
    """[D(1), ..., D(d1)] with their signatures, lifted from :data:`EMPTY`
    through the deletion chain; raises :class:`NotAdmissible` for
    non-admissible input."""
    report = class_u(d)
    if not report.member:
        raise NotAdmissible(report)
    return reduce(Tower.lift, chain(d)[::-1], EMPTY)


# ---------------------------------------------------------------------------
# class U grown as a forest of column-prepend lifts: deleting the first
# column of an admissible diagram leaves an admissible diagram, so every
# member is a lift of a member one column narrower, and its tower is that
# member's tower plus one step


def _prepend_heights(d: SignedDiagram, room: int) -> range:
    """Heights h <= room of the columns worth prepending to d.  A column on
    the empty diagram is admissible at every height its kind allows.  On a
    nonempty d, whose first column has m1 boxes, class U needs h of the
    parity of m1, and h > m1 for an orthogonal result (its first comparison
    is strict); the other parity and interlacing clauses of the lift are
    those of d.  So every lift at these heights is very even or very odd and
    interlaces, and only the excluded tail is left to :func:`_lift`."""
    m1 = len(d.rows)
    if d.kind is ORTHOGONAL:  # symplectic result
        return range(m1 or 2, room + 1, 2)
    return range(m1 + 2, room + 1, 2) if m1 else range(1, room + 1)


def _lift(t: Tower, d: SignedDiagram, max_size: int) -> Iterator[tuple[Tower, SignedDiagram]]:
    """The admissible one-column lifts of size <= max_size of d, whose tower
    is t, each with its tower: t extended by one step.

    The heights come from :func:`_prepend_heights`, so a lift is admissible
    exactly when it avoids the excluded tail.  A lift of a d of width 2 or
    more keeps d's last two column heights, and the rows reaching its last
    column are d's full-width rows grown by one: a free class flips every
    lead, so it keeps one lead exactly when it had one, and a constrained
    class keeps the alternating convention.  Such a lift shows the tail
    exactly when d does, and d is admissible.  A lift of the empty diagram
    has one column and no tail.  So only a two-column lift, of a d of width
    1, is tested for the tail."""
    m1 = len(d.rows)
    for h in _prepend_heights(d, max_size - sum(t.sig[-1])):
        ones = h - m1
        splits = range(ones + 1) if d.kind is SYMPLECTIC else (0,)
        for plus in splits:
            child = prepend_column(d, ones, plus)
            if d.width != 1 or not _excluded_pattern(child, (h, m1)):
                yield t.lift(child), child


def _stream_key(t: Tower) -> tuple:
    """Size, symplectic before orthogonal, shape in descending lex order,
    then per free length class its plus count: plus-leading rows come first
    in a canonical class (``diagram_core.class_rows``), so comparing leads
    (+ above -) row by row orders the counts class by class, as the
    enumeration does."""
    d = t.steps[-1]
    return (
        sum(t.sig[-1]),
        d.kind is ORTHOGONAL,
        [-length for length, _ in d.rows],
        [lead is PLUS for _, lead in d.rows],
    )


def admissible_towers(max_size: int) -> list[Tower]:
    """The tower of every nonempty class-U diagram of size <= max_size,
    grown level by level from the two empty diagrams; in the order of
    filtering ``signed_diagrams`` by size and kind with :func:`class_u`."""
    level = [(EMPTY, SignedDiagram(SYMPLECTIC)), (EMPTY, SignedDiagram(ORTHOGONAL))]
    towers: list[Tower] = []
    while level:
        level = [lifted for t, d in level for lifted in _lift(t, d, max_size)]
        towers += (t for t, _ in level)
    towers.sort(key=_stream_key)
    return towers


class CheckRecord(Value):
    """A check's record at step k: its other ``fields`` in order and its named
    ``clauses`` (their repr is the counterexample text); ``ok`` when all hold.
    Its JSON names the clauses "clauses" if it has no fields, else "checks"."""

    __slots__ = ("k", "fields", "clauses")

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())

    def to_json_dict(self) -> dict:
        key = "checks" if self.fields else "clauses"
        return {"k": self.k, **self.fields, key: self.clauses, "ok": self.ok}


def check_lemma_pm(t: Tower) -> list[CheckRecord]:
    """Five signature clauses at every interior step of the tower."""
    sig = t.sig
    out = []
    for k in range(1, t.d1):
        clauses = {
            "plus_gain": sig[k + 1].plus - sig[k].plus >= sig[k].minus - sig[k - 1].minus,
            "minus_gain": sig[k + 1].minus - sig[k].minus >= sig[k].plus - sig[k - 1].plus,
            "plus_covers": sig[k + 1].plus >= sig[k].minus,
            "minus_covers": sig[k + 1].minus >= sig[k].plus,
        }
        if t.steps[k - 1].kind is SYMPLECTIC:
            clauses["convexity"] = sum(sig[k + 1]) + sum(sig[k - 1]) >= 2 * sum(sig[k]) + 2
        else:
            clauses["convexity"] = sum(sig[k + 1]) + sum(sig[k - 1]) >= 2 * sum(sig[k])
        if k + 2 <= t.d1:
            clauses["size_parity"] = (sum(sig[k + 2]) - sum(sig[k])) % 2 == 0
        out.append(CheckRecord(k, {}, clauses))
    return out


def check_range(t: Tower) -> list[CheckRecord]:
    """Per-step range conditions of the two lift theorems, plus the base-step
    inequalities at k = 1; the field ``step`` names which."""
    sig = t.sig
    out = []
    if t.d1 >= 2:
        if t.steps[0].kind is SYMPLECTIC:
            checks = {
                "balanced": sig[1].plus == sig[1].minus,
                "plus_doubles": sig[2].plus >= 2 * sig[1].minus,
                "minus_doubles": sig[2].minus >= 2 * sig[1].plus,
                "size_margin": sum(sig[2]) >= 4 * sig[1].minus + 2,
            }
        else:
            checks = {
                "balanced": sig[2].plus == sig[2].minus,
                "size_covers": sig[2].plus >= sig[1].plus + sig[1].minus,
            }
        out.append(CheckRecord(1, {"step": "base"}, checks))
    for k in range(2, t.d1):
        if t.steps[k - 1].kind is SYMPLECTIC:
            p, q = sig[k - 1]
            two_n = sum(sig[k])
            pp, qq = sig[k + 1]
            n = two_n // 2
            checks = {
                "gap": pp + qq - two_n >= two_n - (p + q) + 2,
                "gap_positive": two_n - (p + q) + 2 >= 1,
                "min_ge_n": min(pp, qq) >= n,
                "min_ne_n": min(pp, qq) != n,
                "parity": (p + q - pp - qq) % 2 == 0,
            }
            step = "mp_middle"
        else:
            two_n = sum(sig[k - 1])
            p, q = sig[k]
            two_n2 = sum(sig[k + 1])
            n = two_n // 2
            checks = {
                "gap": two_n2 - (p + q) >= (p + q) - two_n - 2,
                "min_ge_n": min(p, q) >= n,
                "min_ne_n": min(p, q) != n,
            }
            step = "o_middle"
        out.append(CheckRecord(k, {"step": step}, checks))
    return out


def check_non3(t: Tower, k: int) -> CheckRecord:
    """Uniqueness record for the orthogonal-metaplectic-orthogonal triple at
    steps (k-1, k, k+1) of the tower t.

    Writes (p0, q0) for the step-(k-1) signature, 2n1 for the step-k size,
    (p, q) for the step-(k+1) signature and (m1, m2) for the leading column
    heights of steps k+1 and k.  Candidate orbits come from inducing a
    step-k companion whose pairing inertia is exactly (p0, q0).  The
    wave-front bookkeeping names the even-row flip ``tau`` of a companion of
    inertia (q0, p0) instead; ``tau`` moves the middle sign of every even row
    to the other side and permutes the diagrams of a shape, so that is the
    same inertia with the same companion count, and the candidates'
    inertias depend only on the companion's.  Candidate j (the count of
    minus-leading new length-2 rows) then has pairing inertia
    (p0 + m1 - 1 - j, q0 + m2 + j); these sum to p + q - 1, so only
    j* = p0 + m1 - 1 - p with inertia exactly (p, q-1) and its neighbor
    j* + 1 with (p-1, q) can meet the moment image for (p, q), and each is
    the unique hit in its parity class (its other moment slot differs from
    (p, q) in the parity of the first entry).  The record certifies that
    the window is nonempty in range, that the moment-image hits are exactly
    its in-range part, and the per-class uniqueness.  Past the width margin
    its fields add ``j_star`` and, for a candidate j*, ``j_star_signature``.

    The seven clauses past ``width_margin`` (``signature_formula``,
    ``signature_sum``, ``window``, ``exists``, ``unique_in_class``,
    ``j_star_signature``, ``j_star_in_image``) check ``induce_real`` and
    ``deletion_inertia`` against the closed formulas above, not the input
    tower, which reaches them only as (p0, q0), (p, q), m1, m2 and d0.
    """
    if not 2 <= k <= t.d1 - 1:
        raise ValueError(f"step {k} has no neighbors on both sides")
    steps = t.steps
    if steps[k - 1].kind is not SYMPLECTIC:
        raise ValueError(f"step {k} is not metaplectic")
    p0, q0 = t.sig[k - 1]
    n1 = sum(t.sig[k]) // 2
    p, q = t.sig[k + 1]
    m1 = len(steps[k].rows)
    m2 = len(steps[k - 1].rows)
    n2 = p + q - n1 - 1

    # companions: valid sign assignments on the step-k shape whose pairing
    # inertia is exactly (p0, q0), counted, with the first one built; this
    # is the constructive substitute for the wave-front existence argument.
    d0, companions = inertia_companions(steps[k - 1].shape(), Signature(p0, q0))
    if d0 is None:
        raise ValueError("no companion with the required pairing inertia")

    fields: dict = {
        "p0q0": (p0, q0),
        "n1": n1,
        "pq": (p, q),
        "m1": m1,
        "m2": m2,
        "n2": n2,
        "companions": companions,
    }
    checks = {"width_margin": n2 - n1 == m1 - 1 and m1 - 1 >= m2}
    candidate_count = m1 - m2
    if not checks["width_margin"]:
        return CheckRecord(k, fields, checks)

    induced = induce_real(d0, n2)
    if induced.count != candidate_count:
        raise ValueError(
            f"induction from {d0.rows} gives {induced.count} orbits, expected {candidate_count}"
        )
    sigs = [deletion_inertia(s) for s in induced.diagrams]
    checks["signature_formula"] = all(
        sigs[j] == Signature(p0 + m1 - 1 - j, q0 + m2 + j) for j in range(candidate_count)
    )
    checks["signature_sum"] = all(r + s == p + q - 1 for r, s in sigs)
    # the candidates are for Sp(2 n2), and by the width margin
    # p + q = 2 n1 + m1 <= 2 n2 (m1 - 1 >= m2 >= 1), as in_moment_image needs
    hits = [j for j, inertia in enumerate(sigs) if inertia_fits(inertia, p, q)]
    j_star = p0 + m1 - 1 - p  # the (p, q-1) slot; j* + 1 carries (p-1, q)
    window = [j for j in (j_star, j_star + 1) if 0 <= j <= candidate_count - 1]
    checks["window"] = hits == window
    checks["exists"] = bool(hits)
    checks["unique_in_class"] = all(
        sum(1 for j2 in hits if (j2 - j) % 2 == 0) == 1 for j in hits
    )
    fields["j_star"] = j_star
    if 0 <= j_star <= candidate_count - 1:
        fields["j_star_signature"] = tuple(sigs[j_star])
        checks["j_star_signature"] = sigs[j_star] == Signature(p, q - 1)
        checks["j_star_in_image"] = j_star in hits
    return CheckRecord(k, fields, checks)


# ---------------------------------------------------------------------------
# certificates


ANNOTATIONS = (
    "character twists, the even-row sign flip, and duals act on the "
    "wave-front bookkeeping only; no further structure is certified",
)


class TowerCertificate(Value):
    """The tower of ``diagram`` with its checks: ``records[k - 1]`` is the
    (lemma_pm, range, non3) triple of :class:`CheckRecord` values of step k,
    None where a check does not apply.  The certificate is ``valid`` when
    every record it holds is ``ok``."""

    __slots__ = ("diagram", "tower", "records", "infchar")

    @property
    def valid(self) -> bool:
        return all(rec is None or rec.ok for step in self.records for rec in step)

    def to_json_dict(self) -> dict:
        sig = self.tower.sig
        groups = self.tower.groups
        return {
            "valid": self.valid,
            "diagram": to_json_dict(self.diagram),
            "group": group_label(self.diagram.kind, sig[-1]),
            "class_u": MEMBER.to_json_dict(),
            "groups": list(groups),
            "signatures": [list(s) for s in sig[1:]],
            "steps": [
                {
                    "k": k,
                    "group": groups[k - 1],
                    "signature": list(sig[k]),
                    "lemma_pm": pm and pm.to_json_dict(),
                    "range": rng and rng.to_json_dict(),
                    "non3": non3 and non3.to_json_dict(),
                }
                for k, (pm, rng, non3) in enumerate(self.records, start=1)
            ],
            "infchar": vector_to_json(self.infchar),
            "associated_variety": self.diagram.shape().to_json(),
            "annotations": list(ANNOTATIONS),
        }


def certificate(d: SignedDiagram) -> TowerCertificate:
    """The tower with every feasibility check and the infinitesimal
    character; raises for non-admissible input."""
    t = tower(d)
    metaplectic = t.metaplectic
    # each check gives one record per step 1..d1-1, in order; the top step has none
    non3 = [check_non3(t, k) if k in metaplectic else None for k in range(1, t.d1)]
    records = (*zip(check_lemma_pm(t), check_range(t), non3), (None, None, None))[: t.d1]
    return TowerCertificate(d, t, records, infchar_segments(d.shape(), d.kind))
