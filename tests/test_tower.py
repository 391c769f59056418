import hashlib
import json
from functools import reduce

import pytest

from orbitcalc import tower as tower_module
from orbitcalc.cli import main
from orbitcalc.diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    Signature,
    delete_column_signed,
    from_row_spec,
    group_of,
    signature,
)
from orbitcalc.enumeration import diagrams_for_shape, partitions, shapes, signed_diagrams
from orbitcalc.infchar import check_bound
from orbitcalc.theta_orbits import (
    chain,
    deletion_inertia,
    inertia_companions,
    prepend_column,
)
from orbitcalc.tower import (
    EMPTY,
    MEMBER,
    Tower,
    _interlacing_failures,
    _lift,
    _prepend_heights,
    admissible_shapes,
    admissible_towers,
    certificate,
    check_lemma_pm,
    check_non3,
    check_range,
    class_u,
    tower,
)
from orbitcalc.verify import run_suite
from orbitcalc.vector_order import vector_to_json
from oracles import all_signed, dumps, failed_record, theta_lift_real

M = Sign.MINUS
P = Sign.PLUS


def two_comparison_interlacing(heights, kind):
    """Reference: every chained comparison, strict at the kind's positions
    and weak elsewhere."""

    def m(i):
        return heights[i - 1] if i <= len(heights) else 0

    strict_parity = 0 if kind is Kind.SYMPLECTIC else 1
    reasons = []
    for pos in range(1, len(heights) + 1):
        if pos % 2 == strict_parity:
            if not m(pos) > m(pos + 1):
                reasons.append(f"need m{pos} > m{pos + 1}: {m(pos)} vs {m(pos + 1)}")
        elif not m(pos) >= m(pos + 1):
            reasons.append(f"need m{pos} >= m{pos + 1}: {m(pos)} vs {m(pos + 1)}")
    return reasons


def admissible(max_size):
    for size in range(1, max_size + 1):
        for kind in Kind:
            for d in signed_diagrams(kind, size=size):
                if class_u(d).member:
                    yield d


def transposed_shape_filter(max_size):
    """Reference for admissible_shapes: every valid shape, transposed, kept
    when its column heights are very even or very odd and interlace and some
    sign assignment on it passes class_u."""
    for size in range(1, max_size + 1):
        for kind in (Kind.SYMPLECTIC, Kind.ORTHOGONAL):
            for shape in shapes(kind, size):
                columns = shape.transpose()
                parity_ok = columns.very_even or columns.very_odd
                if parity_ok and not _interlacing_failures(columns.rows, kind):
                    if any(class_u(d).member for d in diagrams_for_shape(shape, kind)):
                        yield kind, shape


def companion_search(shape):
    """Reference for inertia_companions: every sign assignment on a
    symplectic shape, in diagrams_for_shape order, grouped by its pairing
    inertia as (first diagram, count)."""
    found = {}
    for d in diagrams_for_shape(shape, Kind.SYMPLECTIC):
        first, count = found.get(deletion_inertia(d), (d, 0))
        found[deletion_inertia(d)] = (first, count + 1)
    return found


def shape_first(max_size):
    """Class U by shape: the shapes that carry a member, then the sign
    assignments on each that pass class_u."""
    for kind, shape in admissible_shapes(max_size):
        yield from (d for d in diagrams_for_shape(shape, kind) if class_u(d).member)


class TestRigiditySpeciality:
    def test_special_rigid_members(self):
        # pre-rigid (no column height repeats) and special (odd heights in
        # even multiplicity) shapes with parity heights: admissible under
        # every sign assignment, and every column height is even
        for size in range(2, 15, 2):
            for shape in shapes(Kind.SYMPLECTIC, size):
                t = shape.transpose()
                pre_rigid = len(set(t.rows)) == len(t.rows)
                special = all(m % 2 == 0 for h, m in t.classes() if h % 2 == 1)
                if not (pre_rigid and special):
                    continue
                if not (t.very_even or t.very_odd):
                    continue
                assert t.very_even  # speciality and rigidity force even heights
                for d in diagrams_for_shape(shape, Kind.SYMPLECTIC):
                    assert class_u(d).member, d


class TestClassU:
    def test_intro_member(self, intro_diagram):
        report = class_u(intro_diagram)
        assert report.member
        assert report.very_even_or_odd and report.interlacing_ok
        assert not report.excluded_pattern

    def test_uniform_tail_excluded(self):
        for n in (2, 3, 5):
            all_plus = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, P),) * n)
            all_minus = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, M),) * n)
            mixed = SignedDiagram(
                Kind.SYMPLECTIC, (SignedRow(2, P),) + (SignedRow(2, M),) * (n - 1)
            )
            assert class_u(all_plus).excluded_pattern
            assert not class_u(all_plus).member
            assert class_u(all_minus).excluded_pattern
            assert class_u(mixed).member

    def test_single_two_row_excluded(self):
        # the one-row uniform strip collides with the middle rank two steps
        # up a tower, so it is excluded along with the taller strips
        for lead in (P, M):
            d = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, lead),))
            assert class_u(d).excluded_pattern
            assert not class_u(d).member

    def test_strip_of_height_one_excluded(self):
        # multi-row diagram whose two-column strip has a single uniform row
        d = from_row_spec(Kind.SYMPLECTIC, [(4, P), (2, P), (2, P)])
        assert class_u(d).excluded_pattern
        # a strip with mixed leading signs is kept
        mixed = from_row_spec(Kind.SYMPLECTIC, [(4, P), (4, M), (2, P), (2, P)])
        assert not class_u(mixed).excluded_pattern
        assert class_u(mixed).member

    def test_mixed_parity_heights_rejected(self):
        # the second admissibility example with heights (9,7,7,6,6,2) mixes
        # parities; treated as out of the family
        d = from_row_spec(
            Kind.ORTHOGONAL,
            [(6, None), (6, None), (5, M), (5, M), (5, M), (5, M), (3, M), (1, M), (1, M)],
        )
        assert signature(d) == Signature(15, 22)
        report = class_u(d)
        assert report.interlacing_ok  # heights 9 > 7 = 7 > 6 = 6 > 2
        assert not report.very_even_or_odd
        assert not report.member

    def test_interlacing_failure(self):
        # heights (2, 2, 2): the second height must strictly exceed the third
        d = from_row_spec(Kind.SYMPLECTIC, [(3, None), (3, None)])
        assert not class_u(d).interlacing_ok
        # heights (1, 1, 1): orthogonal diagrams need m1 > m2
        e = from_row_spec(Kind.ORTHOGONAL, [(3, M)])
        assert not class_u(e).interlacing_ok

    def test_deletion_stays_admissible(self):
        for d in admissible(16):
            e = delete_column_signed(d)
            if e.rows:
                assert class_u(e).member, (d, e)

    def test_deletion_closure_to_20(self):
        # the premise of growing the admissible class by column-prepend
        # lifts, checked on the shape-first route, which never lifts
        count = 0
        for d in shape_first(20):
            count += 1
            e = delete_column_signed(d)
            assert not e.rows or class_u(e).member, (d, e)
        assert count == 1624

    def test_interlacing_matches_two_comparison_loop(self):
        for size in range(0, 17):
            for rows in partitions(size):
                heights = Partition(rows).transpose().rows
                for kind in Kind:
                    assert _interlacing_failures(heights, kind) == two_comparison_interlacing(
                        heights, kind
                    ), (heights, kind)


class TestGenerator:
    """The forest stream against filtering every diagram with class_u."""

    def test_stream_matches_filter(self):
        filtered = list(admissible(16))
        for bound in range(0, 17):
            want = [d for d in filtered if d.size <= bound]
            assert [t.steps[-1] for t in admissible_towers(bound)] == want, bound
        assert len(filtered) == len(admissible_towers(16)) > 0

    def test_bounds_suite_matches_deduplicated_shapes(self):
        # the suite walks admissible shapes; the reference dedupes the
        # shapes of the filtered members in order
        filtered = list(admissible(16))
        for bound in range(0, 17):
            checked, notes, counterexamples = 0, [], []
            seen = set()
            for d in filtered:
                key = (d.kind, d.shape())
                if d.size > bound or key in seen:
                    continue
                seen.add(key)
                if d.kind is Kind.ORTHOGONAL and d.size == 2:
                    notes.append(f"skipped {d.shape()} orthogonal: bound denominator is zero")
                    continue
                checked += 1
                res = check_bound(d.shape(), d.kind)
                if not res.holds_weak:
                    counterexamples.append(f"{d.kind.value} {d.shape()}: weak bound fails")
                if not res.holds_strict:
                    counterexamples.append(f"{d.kind.value} {d.shape()}: strict bound fails")
            rep = run_suite("bounds", bound)
            assert (rep.checked, list(rep.notes), list(rep.counterexamples)) == (
                checked, notes, counterexamples,
            ), bound


class TestAdmissibleShapes:
    """admissible_shapes, decided by column heights, against transposing
    every valid shape and asking class_u of its sign assignments."""

    def test_matches_transposed_filter_to_24(self):
        reference = list(transposed_shape_filter(24))
        for bound in range(0, 25):
            want = [(kind, shape) for kind, shape in reference if shape.size <= bound]
            assert list(admissible_shapes(bound)) == want, bound
        assert len(reference) == 338

    def test_transposes_each_parity_partition_once(self, monkeypatch):
        # a work count, pinned exactly: one pass per size serves both kinds,
        # so each of the 153 parity partitions of size 1..14 is transposed once
        calls = 0
        real = Partition.transpose

        def counted(self):
            nonlocal calls
            calls += 1
            return real(self)

        monkeypatch.setattr(Partition, "transpose", counted)
        assert len(list(admissible_shapes(14))) == 77
        assert calls == 153


class TestForest:
    """admissible_towers, which lifts members one column at a time, against
    the shape-first generator, tower(d) on the deletion chain and
    theta_lift_real step by step; TestGenerator holds the class_u filter."""

    def test_stream_matches_shape_first_to_18(self):
        reference = list(shape_first(18))
        for bound in range(0, 19):
            want = [d for d in reference if d.size <= bound]
            assert [t.steps[-1] for t in admissible_towers(bound)] == want, bound

    def test_towers_match_tower_field_by_field(self):
        fields = ("steps", "groups", "sig", "metaplectic")
        for t in admissible_towers(16):
            want = tower(t.steps[-1])
            for name in fields:
                assert getattr(t, name) == getattr(want, name), (t.steps[-1], name)
            assert class_u(t.steps[-1]).member, t.steps[-1]

    def test_derived_ledger_to_16(self):
        # the derived fields against rules that do not read them: the kinds
        # alternate, so the interior metaplectic steps are those an even
        # distance below a symplectic top, or an odd distance below an
        # orthogonal one; sizes and groups step by step
        assert Tower.__slots__ == ("steps", "sig")
        for t in admissible_towers(16):
            top = t.steps[-1]
            parity = 0 if top.kind is Kind.SYMPLECTIC else 1
            assert t.metaplectic == tuple(
                k for k in range(2, t.d1) if (t.d1 - k) % 2 == parity
            ), top
            assert sum(t.sig[0]) == 0 and len(t.sig) == t.d1 + 1, top
            for k in range(1, t.d1 + 1):
                assert sum(t.sig[k]) == t.steps[k - 1].size, (top, k)
                assert t.groups[k - 1] == group_of(t.steps[k - 1]), (top, k)
            assert class_u(top) == MEMBER, top

    def test_steps_are_theta_lifts(self):
        # D(1) lifts the empty diagram of the other kind, D(k) lifts D(k-1)
        for t in admissible_towers(14):
            below = SignedDiagram(t.steps[0].kind.opposite)
            for k, step in enumerate(t.steps, start=1):
                assert theta_lift_real(below, t.sig[k]) == step, (t.steps[-1], k)
                below = step

    def test_lifts_kept_exactly_when_class_u_to_22(self):
        # _lift tests only the two-column tail; class_u runs every clause on
        # every lift a node at bound 22 tries
        nodes = [(EMPTY, SignedDiagram(kind)) for kind in Kind]
        nodes += [(t, t.steps[-1]) for t in admissible_towers(22)]
        tried = rejected = 0
        for t, d in nodes:
            m1 = len(d.rows)
            lifts = [
                prepend_column(d, h - m1, plus)
                for h in _prepend_heights(d, 22 - d.size)
                for plus in (range(h - m1 + 1) if d.kind is Kind.SYMPLECTIC else (0,))
            ]
            members = [child for child in lifts if class_u(child).member]
            assert [child for _, child in _lift(t, d, 22)] == members, d
            tried += len(lifts)
            rejected += len(lifts) - len(members)
        assert (tried, rejected) == (2489, 22)

    def test_count_at_20(self):
        towers = admissible_towers(20)
        assert len(towers) == 1624
        assert all(class_u(t.steps[-1]).member for t in towers)

    @pytest.mark.parametrize("bound", [0, -3])
    def test_empty_bounds(self, bound):
        assert admissible_towers(bound) == []


class TestLemmaPm:
    def test_intro_all_clauses(self, intro_diagram):
        records = check_lemma_pm(tower(intro_diagram))
        assert len(records) == 5
        assert all(rec.ok for rec in records)

    def test_single_box_vacuous(self):
        d = SignedDiagram(Kind.ORTHOGONAL, (SignedRow(1, P),))
        assert check_lemma_pm(tower(d)) == []

    def test_intro_convexity_numbers(self, intro_diagram):
        # sizes 1, 4, 9, 14, 21, 30: symplectic steps meet equality + 2
        records = {rec.k: rec for rec in check_lemma_pm(tower(intro_diagram))}
        assert records[2].clauses["convexity"]  # 9 + 1 >= 2*4 + 2
        assert records[4].clauses["convexity"]  # 21 + 9 >= 2*14 + 2

    def test_exhaustive_small(self):
        for d in admissible(12):
            assert all(rec.ok for rec in check_lemma_pm(tower(d))), d


class TestRange:
    def test_intro_steps(self, intro_diagram):
        records = {rec.k: rec for rec in check_range(tower(intro_diagram))}
        assert records[1].fields == {"step": "base"}
        mp_step = records[4]
        assert mp_step.fields == {"step": "mp_middle"}
        assert all(mp_step.clauses.values())
        o_step = records[5]
        assert o_step.fields == {"step": "o_middle"}
        assert all(o_step.clauses.values())
        assert all(rec.ok for rec in records.values())

    def test_exhaustive_no_min_equality(self):
        for d in admissible(12):
            for rec in check_range(tower(d)):
                assert rec.ok, (d, rec)
                if "min_ne_n" in rec.clauses:
                    assert rec.clauses["min_ne_n"]


O, S = Kind.ORTHOGONAL, Kind.SYMPLECTIC

# One hand-written tower for each lemma-pm and range clause that no deletion
# tower of a valid diagram fails (to size 18): the steps are the deletion
# chain of ``top``, and ``sig`` lists the signatures of steps 1..d1: the
# chain's, with one of them moved by at most 2 in each entry.  ``failing``
# is every (check, k, clause) that fails on the tower; the clause fails alone
# in its record (at step k, of the kind of step ``where``), so a version of
# it that always holds turns that record ok, and a swapped kind branch
# changes which clauses run.
SILENT_CLAUSES = [
    # check_lemma_pm
    ("lemma_pm", "plus_gain", 2, O, ((3, P), (3, M), (1, M), (1, M)), [(2, 0), (2, 2), (3, 5)],
     [("lemma_pm", 2, "plus_gain")]),
    ("lemma_pm", "minus_gain", 2, O, ((3, M), (3, M), (1, P), (1, P)), [(0, 2), (2, 2), (5, 3)],
     [("lemma_pm", 2, "minus_gain")]),
    ("lemma_pm", "plus_covers", 4, O, ((5, M), (3, P), (3, M), (1, M), (1, M)),
     [(0, 1), (1, 1), (2, 3), (2, 6), (5, 8)],
     [("lemma_pm", 3, "plus_gain"), ("lemma_pm", 3, "plus_covers"),
      ("lemma_pm", 4, "plus_covers")]),
    ("lemma_pm", "minus_covers", 4, O, ((5, M), (3, P), (3, P), (1, P), (1, P)),
     [(0, 1), (1, 1), (3, 2), (6, 2), (8, 5)],
     [("lemma_pm", 3, "minus_gain"), ("lemma_pm", 3, "minus_covers"),
      ("lemma_pm", 4, "minus_covers")]),
    # check_range, base step: an orthogonal step 1, then a symplectic one
    ("base", "balanced", 1, S, ((2, M),), [(1, 0), (1, 2)], [("range", 1, "balanced")]),
    ("base", "size_covers", 1, S, ((2, M),), [(1, 1), (1, 1)],
     [("lemma_pm", 1, "plus_gain"), ("lemma_pm", 1, "minus_gain"), ("lemma_pm", 1, "convexity"),
      ("range", 1, "size_covers")]),
    ("base", "balanced", 1, O, ((2, P), (2, M), (1, M), (1, M)), [(0, 1), (2, 4)],
     [("range", 1, "balanced")]),
    ("base", "plus_doubles", 1, O, ((2, P), (2, M), (1, M), (1, M)), [(1, 1), (1, 5)],
     [("lemma_pm", 1, "plus_gain"), ("range", 1, "plus_doubles")]),
    ("base", "minus_doubles", 1, O, ((2, P), (2, M), (1, P), (1, P)), [(1, 1), (5, 1)],
     [("lemma_pm", 1, "minus_gain"), ("range", 1, "minus_doubles")]),
    # check_range, a metaplectic middle step
    ("mp_middle", "gap_positive", 2, O, ((3, M), (3, M), (1, P), (1, M)),
     [(2, 4), (2, 2), (3, 5)],
     [("lemma_pm", 1, "plus_gain"), ("lemma_pm", 1, "minus_gain"),
      ("lemma_pm", 1, "plus_covers"), ("lemma_pm", 1, "convexity"),
      ("range", 1, "size_covers"), ("range", 2, "gap_positive")]),
    ("mp_middle", "min_ge_n", 2, O, ((3, M), (1, P), (1, M)), [(0, 1), (1, 1), (0, 5)],
     [("lemma_pm", 2, "plus_gain"), ("lemma_pm", 2, "plus_covers"), ("range", 2, "min_ge_n")]),
    # check_range, an orthogonal middle step
    ("o_middle", "gap", 2, S, ((3, M), (3, P), (2, M), (2, M)), [(1, 1), (4, 4), (5, 5)],
     [("lemma_pm", 2, "plus_gain"), ("lemma_pm", 2, "minus_gain"), ("lemma_pm", 2, "convexity"),
      ("range", 2, "gap")]),
    ("o_middle", "min_ge_n", 2, S, ((3, M), (3, P), (2, M), (2, M), (2, M)),
     [(1, 1), (6, 0), (6, 6)],
     [("lemma_pm", 1, "minus_gain"), ("lemma_pm", 1, "minus_covers"),
      ("range", 1, "minus_doubles"), ("range", 2, "min_ge_n")]),
]


def failures(t: Tower) -> list[tuple[str, int, str]]:
    """(check, k, clause) of every clause that fails on t, in record order."""
    out = []
    for check, records in (("lemma_pm", check_lemma_pm(t)), ("range", check_range(t))):
        for rec in records:
            out += [(check, rec.k, name) for name, ok in rec.clauses.items() if not ok]
    return out


class TestSilentClauses:
    @pytest.mark.parametrize(
        "where, clause, k, kind, top, sig, failing",
        SILENT_CLAUSES,
        ids=[f"{entry[0]}-{entry[1]}-{entry[3].value}" for entry in SILENT_CLAUSES],
    )
    def test_fails_alone_in_its_record(self, where, clause, k, kind, top, sig, failing):
        steps = chain(SignedDiagram(kind, top))[::-1]
        real = [tuple(signature(step)) for step in steps]
        moved = [(was, now) for was, now in zip(real, sig) if was != now]
        assert len(sig) == len(steps) and len(moved) == 1
        (was, now), = moved
        assert max(abs(was[0] - now[0]), abs(was[1] - now[1])) <= 2
        t = Tower(steps, (Signature(0, 0), *(Signature(*s) for s in sig)))
        assert failures(t) == failing
        check = "lemma_pm" if where == "lemma_pm" else "range"
        assert [name for c, kk, name in failing if (c, kk) == (check, k)] == [clause]
        if check == "range":
            assert {rec.k: rec.fields["step"] for rec in check_range(t)}[k] == where
        # the verdict: False in each record holding a failing clause, True elsewhere
        failed = {(c, kk) for c, kk, _ in failing}
        for c, records in (("lemma_pm", check_lemma_pm(t)), ("range", check_range(t))):
            for rec in records:
                assert rec.ok is ((c, rec.k) not in failed), (c, rec.k)

    def test_one_tower_per_silent_clause(self):
        # both base-step branches check "balanced"; each gets a tower
        assert sorted({(entry[0], entry[1]) for entry in SILENT_CLAUSES}) == sorted(
            [("lemma_pm", c) for c in ("plus_gain", "minus_gain", "plus_covers", "minus_covers")]
            + [("base", c) for c in ("balanced", "plus_doubles", "minus_doubles", "size_covers")]
            + [("mp_middle", "gap_positive"), ("mp_middle", "min_ge_n")]
            + [("o_middle", "gap"), ("o_middle", "min_ge_n")]
        )


# (record, clause) -> (records failing the clause, records failing it
# alone), over the deletion towers of the 2,194 nonempty valid signed
# diagrams up to size 14; a range record is named by its ``step`` field
CLAUSE_CENSUS = {
    ("lemma_pm", "plus_gain"): (0, 0),
    ("lemma_pm", "minus_gain"): (0, 0),
    ("lemma_pm", "plus_covers"): (0, 0),
    ("lemma_pm", "minus_covers"): (0, 0),
    ("lemma_pm", "convexity"): (2138, 2138),
    ("lemma_pm", "size_parity"): (1220, 1220),
    ("base", "balanced"): (0, 0),
    ("base", "plus_doubles"): (0, 0),
    ("base", "minus_doubles"): (0, 0),
    ("base", "size_margin"): (99, 99),
    ("base", "size_covers"): (0, 0),
    ("mp_middle", "gap"): (2039, 181),
    ("mp_middle", "gap_positive"): (0, 0),
    ("mp_middle", "min_ge_n"): (0, 0),
    ("mp_middle", "min_ne_n"): (1644, 124),
    ("mp_middle", "parity"): (1220, 500),
    ("o_middle", "gap"): (0, 0),
    ("o_middle", "min_ge_n"): (0, 0),
    ("o_middle", "min_ne_n"): (1454, 1454),
    ("non3", "width_margin"): (1387, 1387),
    ("non3", "signature_formula"): (0, 0),
    ("non3", "signature_sum"): (0, 0),
    ("non3", "window"): (0, 0),
    ("non3", "exists"): (0, 0),
    ("non3", "unique_in_class"): (0, 0),
    ("non3", "j_star_signature"): (0, 0),
    ("non3", "j_star_in_image"): (0, 0),
}


def test_clause_census_to_14():
    # every check on the deletion tower of every valid diagram, admissible
    # or not: the clauses that never fail here are the silent ones, and a
    # failing record belongs to a diagram outside class U
    census = dict.fromkeys(CLAUSE_CENSUS, (0, 0))
    records = {"lemma_pm": 0, "base": 0, "mp_middle": 0, "o_middle": 0, "non3": 0}
    towers = 0
    for d in all_signed(14):
        if not d.rows:
            continue
        t = reduce(Tower.lift, chain(d)[::-1], EMPTY)
        towers += 1
        checked = [("lemma_pm", rec) for rec in check_lemma_pm(t)]
        checked += [(rec.fields["step"], rec) for rec in check_range(t)]
        checked += [("non3", check_non3(t, k)) for k in t.metaplectic]
        member = class_u(d).member
        for where, rec in checked:
            records[where] += 1
            failed = [clause for clause, holds in rec.clauses.items() if not holds]
            assert rec.ok is (not failed) and not (failed and member), (d, where, rec)
            for clause in rec.clauses:
                fails, alone = census[where, clause]
                census[where, clause] = (fails + (clause in failed), alone + (failed == [clause]))
    assert towers == 2194
    assert records == {
        "lemma_pm": 7598, "base": 2068, "mp_middle": 3388, "o_middle": 2142, "non3": 3388
    }
    assert census == CLAUSE_CENSUS


class TestTowerValue:
    def test_intro(self, intro_diagram):
        t = tower(intro_diagram)
        assert t.d1 == 6
        assert t.groups == ("O(1,0)", "Mp(4)", "O(5,4)", "Mp(14)", "O(10,11)", "Mp(30)")
        assert t.sig[0] == Signature(0, 0) and sum(t.sig[0]) == 0
        assert t.sig[6] == signature(intro_diagram) and sum(t.sig[6]) == 30
        assert t.metaplectic == (2, 4)
        assert class_u(t.steps[-1]).member

    def test_steps_delete_one_column(self):
        for d in admissible(12):
            t = tower(d)
            assert t.steps[-1].shape() == d.shape()
            for k in range(1, t.d1):
                assert delete_column_signed(t.steps[k]) == t.steps[k - 1]
                assert sum(t.sig[k]) == t.steps[k - 1].size

    def test_inadmissible_rejected(self):
        d = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, P), SignedRow(2, P)))
        with pytest.raises(ValueError, match="not an admissible diagram: uniform"):
            tower(d)

    def test_empty_diagram(self):
        # the empty diagram is admissible and has a tower with no steps
        for kind, group in ((Kind.SYMPLECTIC, "Mp(0)"), (Kind.ORTHOGONAL, "O(0,0)")):
            d = SignedDiagram(kind, ())
            t = tower(d)
            assert t.d1 == 0 and t.metaplectic == ()
            data = certificate(d).to_json_dict()
            assert data["group"] == group and data["steps"] == [] and data["valid"]


class TestNon3:
    def test_intro_step(self, intro_diagram):
        rec = check_non3(tower(intro_diagram), 4)
        assert rec.fields["p0q0"] == (5, 4)
        assert rec.fields["m1"] == 7 and rec.fields["m2"] == 5
        assert rec.fields["n2"] == 13
        assert rec.ok
        # the distinguished candidate realizes the slot just below (p, q)
        assert rec.fields["j_star_signature"] == (10, 10)

    def test_signature_sum_identity(self, intro_diagram):
        rec = check_non3(tower(intro_diagram), 2)
        assert rec.clauses["signature_sum"]
        assert rec.ok
        # (p, q) = (5, 4) here, and the slot comes out as (p, q-1) exactly
        assert rec.fields["j_star_signature"] == (5, 3)

    def test_width_margin_failure_ends_the_record(self):
        # [3-] in O(1,2) is not class U; the step-2 record of its deletion
        # tower fails the width margin and checks nothing past it
        d = SignedDiagram(Kind.ORTHOGONAL, (SignedRow(3, M),))
        assert not class_u(d).member
        steps = chain(d)[::-1]
        t = Tower(steps, (Signature(0, 0), *(signature(step) for step in steps)))
        assert check_non3(t, 2).to_json_dict() == {
            "k": 2,
            "p0q0": (0, 1),
            "n1": 1,
            "pq": (1, 2),
            "m1": 1,
            "m2": 1,
            "n2": 1,
            "companions": 1,
            "checks": {"width_margin": False},
            "ok": False,
        }

    def test_bad_step_rejected(self, intro_diagram):
        t = tower(intro_diagram)
        with pytest.raises(ValueError, match="neighbors"):
            check_non3(t, 6)
        with pytest.raises(ValueError, match="metaplectic"):
            check_non3(t, 3)

    def test_exhaustive_small(self):
        for d in admissible(12):
            t = tower(d)
            for k in t.metaplectic:
                assert check_non3(t, k).ok, (d, k)

    def test_companions_match_search_to_14(self):
        # every target (r, s) with r + s <= size, most of which no sign
        # assignment reaches
        cases = found = 0
        for size in range(0, 15, 2):
            for shape in shapes(Kind.SYMPLECTIC, size):
                search = companion_search(shape)
                for r in range(size + 1):
                    for s in range(size + 1 - r):
                        want = search.get(Signature(r, s), (None, 0))
                        assert inertia_companions(shape, Signature(r, s)) == want, (shape, r, s)
                        cases += 1
                        found += want[1] > 0
        assert cases == 13831
        assert 0 < found < cases

    def test_records_digest_to_20(self):
        # sha256 of every check_non3 record of every admissible tower up to
        # size 20; the records must stay byte-identical under refactoring
        digest = hashlib.sha256()
        count = 0
        for t in admissible_towers(20):
            for k in t.metaplectic:
                text = json.dumps(check_non3(t, k).to_json_dict(), sort_keys=True)
                digest.update((text + "\n").encode())
                count += 1
        assert count == 927
        assert digest.hexdigest() == (
            "3607e7d7471e519c23fe21e7b24ab5a6755ed20c3f4dbf3c5701a5d3ebbeb800"
        )


class TestCertificate:
    def test_intro(self, intro_diagram):
        cert = certificate(intro_diagram)
        assert cert.valid
        assert cert.tower.groups == ("O(1,0)", "Mp(4)", "O(5,4)", "Mp(14)", "O(10,11)", "Mp(30)")
        assert vector_to_json(cert.infchar) == [
            "9/2", "7/2", "5/2", "3/2", "1/2",
            "5/2", "3/2", "1/2",
            "5/2", "3/2", "1/2",
            "3/2", "1/2",
            "3/2", "1/2",
        ]
        assert cert.to_json_dict()["associated_variety"] == [6, 5, 5, 4, 4, 2, 2, 1, 1]

    def test_column_diagram(self):
        d = from_row_spec(Kind.SYMPLECTIC, [(1, None)] * 6)
        cert = certificate(d)
        assert cert.valid
        assert vector_to_json(cert.infchar) == ["3", "2", "1"]

    def test_excluded_rejected(self):
        d = SignedDiagram(Kind.SYMPLECTIC, (SignedRow(2, P), SignedRow(2, P)))
        with pytest.raises(ValueError, match="admissible"):
            certificate(d)

    def test_json_deterministic(self, intro_diagram):
        a = json.dumps(certificate(intro_diagram).to_json_dict(), sort_keys=True)
        b = json.dumps(certificate(intro_diagram).to_json_dict(), sort_keys=True)
        assert a == b

    def test_all_members_certify(self):
        for d in admissible(12):
            assert certificate(d).valid, d

    def test_golden_json(self):
        # sha256 of the certificate JSON of every admissible diagram of size
        # 1..12; certificates must stay byte-identical under refactoring
        digest = hashlib.sha256()
        count = 0
        for d in admissible(12):
            text = json.dumps(certificate(d).to_json_dict(), indent=2, sort_keys=True)
            digest.update((text + "\n").encode())
            count += 1
        assert count == 248
        assert digest.hexdigest() == (
            "d05e8b41508215f63dbbaac7bfbfd9669fa0622fb73cef41e8b0eadcc1c42910"
        )

    @pytest.mark.parametrize(
        "check, label, step",
        [("check_lemma_pm", "pm", 3), ("check_range", "range", 1), ("check_non3", "non3", 4)],
    )
    def test_one_failing_record_invalidates(
        self, monkeypatch, capsys, tmp_path, intro_diagram, check, label, step
    ):
        # every admissible diagram certifies, so fail one record by hand:
        # the verdict must read all three slots of every step
        original = getattr(tower_module, check)

        def failing(t, *k):
            out = original(t, *k)
            if check == "check_non3":
                return failed_record(out) if k == (step,) else out
            return [failed_record(rec) if i == step else rec for i, rec in enumerate(out, 1)]

        monkeypatch.setattr(tower_module, check, failing)
        cert = certificate(intro_diagram)
        assert cert.valid is False
        assert cert.to_json_dict()["valid"] is False
        path = tmp_path / "intro.json"
        path.write_text(dumps(intro_diagram))
        assert main(["tower", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if "FAIL" in line]
        assert failed == [line for line in lines if line.startswith(f"  step {step}: ")]
        assert f"{label}:FAIL" in failed[0]
        assert lines[-1] == "  certificate: INVALID"
