"""Partitions and signed Young diagrams.

A partition (weakly decreasing positive row lengths) labels a complex
nilpotent orbit of Sp(2n, C) or O(n, C).  A signed Young diagram adds a
+/- label to every box, alternating across each row, and labels a real
nilpotent orbit of Mp(2n, R) or O(p, q).  Because signs alternate, a row
is stored as (length, leading sign) and the full box grid is derived on
demand.  The group of a diagram is the label ``group_of(d)``, read off its
kind and signature by ``group_label``.  ``class_u`` decides admissibility
from the column heights and the rows reaching the last column.

Sign conventions for the rows whose lengths are forced by the group type
(odd lengths for symplectic diagrams, even lengths for orthogonal ones)
are fixed: within each such length class the leading signs read
-,+,-,+,... (symplectic) resp. +,-,+,-,... (orthogonal) from the highest
row down.  Rows of the opposite parity are free, and two diagrams are
equivalent when they differ only by reordering rows of equal length.
``class_rows`` is the one layout of a canonical class (a free one lists
its plus-leading rows first); ``validate_signed`` only checks the rule.

Diagrams and partitions are ``Value``s.  Input is checked once, where it
enters: ``Partition(...)``, ``SignedDiagram(...)`` (and ``from_json_dict``)
and ``from_row_spec`` raise ``ValueError``.  ``Value._trusted`` sets the
fields unchecked: the package builds so each diagram it computes, from rows
``class_rows`` laid out, and the partitions of transposes and shapes.

The package reads the members by the names ``PLUS``, ``MINUS``,
``SYMPLECTIC`` and ``ORTHOGONAL`` bound here, and the sign and kind algebra
is plain member attributes set once at import (see ``Kind`` and ``Sign``);
the hot loops build their ``NamedTuple`` records through ``tuple.__new__``.
"""

from __future__ import annotations

import enum
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple


class Value:
    """Base of the package's immutable values, frozen as dataclasses are:
    class-strict equality, the hash of the field tuple, the repr and the
    ``AttributeError`` on assignment.  A subclass names its fields once, in
    ``__slots__`` (``()`` keeps its base's).  ``cls(*fields)`` sets them in
    order; a wrong count raises ``TypeError``.  ``_trusted`` skips a
    subclass's checking ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._field_names = getattr(cls, "_field_names", ()) + cls.__dict__.get("__slots__", ())
        # the slots' own setters, looked up once; they bypass __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._field_names)

    def __init__(self, *fields) -> None:
        if len(fields) != len(self._setters):
            cls = type(self)
            raise TypeError(f"{cls.__qualname__} takes {cls._field_names}, got {len(fields)}")
        for set_field, field in zip(self._setters, fields):
            set_field(self, field)

    @classmethod
    def _trusted(cls, *fields):
        """``cls(*fields)`` without the subclass's own ``__init__``."""
        if len(fields) != len(cls._setters):
            raise TypeError(f"{cls.__qualname__} takes {cls._field_names}, got {len(fields)}")
        value = object.__new__(cls)
        i = 0  # the hot path; indexing costs about 150 ns less than zip (Python 3.11)
        for set_field in cls._setters:
            set_field(value, fields[i])
            i += 1
        return value

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_names)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return type(self), self._fields()


class Kind(enum.Enum):
    """Which bilinear form the diagram's group preserves, read by the names
    bound below (on Python 3.11 a read through the class takes about 130 ns,
    several times a name read).  Set once below: ``opposite``, the other
    kind; ``parity``, that of the sign-constrained row lengths;
    ``convention``, the leads of a constrained class's first two rows."""

    SYMPLECTIC = "symplectic"
    ORTHOGONAL = "orthogonal"

    def constrained(self, length: int) -> bool:
        """Is a row of this length sign-constrained for this kind?"""
        return length % 2 == self.parity


class Sign(enum.Enum):
    """A box sign, read as ``PLUS`` and ``MINUS`` (see ``Kind``).  Set once
    below: ``flipped``, the other sign, and ``alternation``, indexed by
    k % 2: the sign s * (-1)^(k - 1) of box k of a row leading with s."""

    PLUS = "+"
    MINUS = "-"

    @property
    def char(self) -> str:
        return self.value

    def __repr__(self) -> str:  # keeps test output compact
        return f"Sign({self.value!r})"


# the members by name, which the package reads instead of Kind.X or Sign.X;
# then plain member attributes: a read costs a dict lookup, not a property call
PLUS, MINUS = Sign.PLUS, Sign.MINUS
SYMPLECTIC, ORTHOGONAL = Kind.SYMPLECTIC, Kind.ORTHOGONAL
PLUS.flipped, MINUS.flipped = MINUS, PLUS
PLUS.alternation, MINUS.alternation = (MINUS, PLUS), (PLUS, MINUS)
SYMPLECTIC.opposite, ORTHOGONAL.opposite = ORTHOGONAL, SYMPLECTIC
SYMPLECTIC.parity, ORTHOGONAL.parity = 1, 0
SYMPLECTIC.convention, ORTHOGONAL.convention = (MINUS, PLUS), (PLUS, MINUS)

_new = tuple.__new__  # builds a NamedTuple record without its Python-level __new__


class Signature(NamedTuple):
    plus: int
    minus: int


class SignedRow(NamedTuple):
    length: int
    leading: Sign


def _shape_problem(lengths: tuple) -> str | None:
    """Why ``lengths`` are not the rows of a Young diagram, or None: each
    must be a positive int (not a bool, float or str), weakly decreasing."""
    if any(type(r) is not int for r in lengths):
        return f"row lengths must be integers: {lengths!r}"
    if lengths and min(lengths) <= 0:
        return f"row lengths must be positive: {lengths}"
    if list(lengths) != sorted(lengths, reverse=True):
        return f"row lengths must be weakly decreasing: {lengths}"
    return None


class Partition(Value):
    """Young diagram: weakly decreasing positive row lengths.  The
    constructor checks its input and raises ``ValueError``; ``_trusted``
    skips the check for rows the package computed in that form."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[int, ...] = ()) -> None:
        try:
            checked = tuple(rows)
        except TypeError:
            raise ValueError(f"row lengths must be a sequence: {rows!r}") from None
        problem = _shape_problem(checked)
        if problem is not None:
            raise ValueError(problem)
        Value.__init__(self, checked)

    @property
    def size(self) -> int:
        return sum(self.rows)

    @property
    def width(self) -> int:
        """Length of the first row (number of columns)."""
        return self.rows[0] if self.rows else 0

    @property
    def height(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Partition":
        """Column heights; entry k counts the rows of length >= k.  One pass:
        the count of long-enough rows only falls as k grows."""
        rows = self.rows
        count = len(rows)
        heights = []
        for k in range(1, self.width + 1):
            while rows[count - 1] < k:
                count -= 1
            heights.append(count)
        return Partition._trusted(tuple(heights))

    def classes(self) -> list[tuple[int, int]]:
        """(length, multiplicity) of each distinct row length, longest first."""
        return [(length, sum(1 for _ in group)) for length, group in groupby(self.rows)]

    @property
    def very_even(self) -> bool:
        return all(r % 2 == 0 for r in self.rows)

    @property
    def very_odd(self) -> bool:
        return all(r % 2 == 1 for r in self.rows)

    def to_json(self) -> list[int]:
        return list(self.rows)

    def __str__(self) -> str:
        return "(" + ",".join(str(r) for r in self.rows) + ")"


def validate_partition_kind(d: Partition, kind: Kind) -> bool:
    """Multiplicity parity rule: symplectic diagrams need odd rows in even
    multiplicity, orthogonal diagrams need even rows in even multiplicity."""
    return all(m % 2 == 0 for length, m in d.classes() if kind.constrained(length))


class SignedDiagram(Value):
    """Signed Young diagram, valid by construction: a kind that is not a
    ``Kind``, a row that is not a (length, sign) pair, a lead that is not a
    ``Sign``, a bad shape or a violation of :func:`validate_signed` raises
    ``ValueError``.  ``_trusted`` skips the check, for rows laid out by
    :func:`class_rows` only."""

    __slots__ = ("kind", "rows")

    def __init__(self, kind: Kind, rows: tuple[SignedRow, ...] = ()) -> None:
        try:
            checked = tuple(SignedRow(*row) for row in rows)
        except TypeError:
            raise ValueError(
                f"invalid signed diagram: rows must be (length, sign) pairs: {rows!r}"
            ) from None
        if not isinstance(kind, Kind):
            problems = [f"kind must be a Kind, got {kind!r}"]
        elif not all(isinstance(lead, Sign) for _, lead in checked):
            problems = [f"leading signs must be Sign values: {checked!r}"]
        else:
            shape = _shape_problem(tuple(length for length, _ in checked))
            problems = [shape] if shape else validate_signed(kind, checked)
        if problems:
            raise ValueError("invalid signed diagram: " + "; ".join(problems))
        Value.__init__(self, kind, checked)

    @property
    def size(self) -> int:
        return sum(r.length for r in self.rows)

    @property
    def width(self) -> int:
        return self.rows[0].length if self.rows else 0

    def shape(self) -> Partition:
        return Partition._trusted(tuple(r.length for r in self.rows))

    def box_sign(self, row: int, col: int) -> Sign:
        """Sign of box (row, col), both 1-based; signs alternate across rows."""
        return self.rows[row - 1].leading.alternation[col % 2]


def signature(d: SignedDiagram) -> Signature:
    """Counts of + and - boxes under across-row alternation."""
    plus = minus = 0
    for length, lead in d.rows:
        lead_count = (length + 1) // 2
        other = length // 2
        if lead is PLUS:
            plus += lead_count
            minus += other
        else:
            minus += lead_count
            plus += other
    return _new(Signature, (plus, minus))


def validate_signed(kind: Kind, rows: tuple[tuple[int, Sign], ...]) -> list[str]:
    """The sign-convention violations of raw (length, leading sign) rows of a
    valid shape, reported, never raised; none means valid.  A symplectic
    signature needs no clause of its own: even rows hold as many + as -
    boxes, and the conventions pair each class of odd rows into (-, +)
    leads, which balance."""
    violations: list[str] = []
    for length, group in groupby(rows, key=itemgetter(0)):
        if not kind.constrained(length):
            continue
        leads = [lead for _, lead in group]
        if len(leads) % 2 != 0:
            violations.append(
                f"rows of length {length} occur {len(leads)} times; "
                f"even multiplicity required for {kind.value} diagrams"
            )
        for i, got in enumerate(leads):
            want = kind.convention[i % 2]
            if got is not want:
                violations.append(
                    f"row {i + 1} of the length-{length} class leads with "
                    f"'{got.char}', convention requires '{want.char}'"
                )
    return violations


def canonicalize(d: SignedDiagram) -> SignedDiagram:
    """Canonical representative of the equivalence class: constrained classes
    carry the convention pattern, free classes list Plus-leading rows first
    (:func:`class_rows` of each class's plus count)."""
    rows: list[SignedRow] = []
    for length, group in groupby(d.rows, key=itemgetter(0)):
        leads = [lead for _, lead in group]
        rows += class_rows(d.kind, length, len(leads), leads.count(PLUS))
    return SignedDiagram._trusted(d.kind, tuple(rows))


def equivalent(d1: SignedDiagram, d2: SignedDiagram) -> bool:
    """Same kind and the same canonical rows; equal rows are the same
    diagram, so only unequal ones are canonicalized."""
    if d1.kind is not d2.kind:
        return False
    return d1.rows == d2.rows or canonicalize(d1).rows == canonicalize(d2).rows


def class_rows(kind: Kind, length: int, count: int, plus: int) -> tuple[SignedRow, ...]:
    """The canonical ``count`` rows of a length class of a ``kind`` diagram:
    count // 2 convention pairs if the length is constrained (``plus`` is
    ignored), else ``plus`` plus-leading rows, then minus-leading ones."""
    if length % 2 == kind.parity:
        first, second = kind.convention
        return (_new(SignedRow, (length, first)), _new(SignedRow, (length, second))) * (count >> 1)
    lead_plus, lead_minus = _new(SignedRow, (length, PLUS)), _new(SignedRow, (length, MINUS))
    return (lead_plus,) * plus + (lead_minus,) * (count - plus)


def from_row_spec(kind: Kind, spec: Iterable[tuple[int, Sign | None]]) -> SignedDiagram:
    """The canonical diagram of a spec from outside the package, checked as
    ``SignedDiagram(...)`` checks rows: (length, sign) pairs, sign None on a
    constrained row and a ``Sign`` on a free one.  One pass groups the spec
    by length, each a positive int; each class is checked by its counts (no
    explicit sign and an even count if constrained, else a ``Sign`` on every
    row; ``ValueError`` if not) and laid out by :func:`class_rows`."""
    if not isinstance(kind, Kind):
        raise ValueError(f"invalid signed diagram: kind must be a Kind, got {kind!r}")
    by_length: dict[int, list[Sign | None]] = {}
    for length, sign in spec:
        # checked per row: 2.0 or True would join the class of an equal int
        if type(length) is not int or length <= 0:
            raise ValueError(
                f"invalid signed diagram: row lengths must be positive integers: {length!r}"
            )
        by_length.setdefault(length, []).append(sign)
    parity = kind.parity
    rows: list[SignedRow] = []
    for length in sorted(by_length, reverse=True):
        signs = by_length[length]
        count = len(signs)
        plus = signs.count(PLUS)
        if length % 2 == parity:
            if signs.count(None) != count:
                raise ValueError(f"length-{length} rows are sign-constrained for {kind.value}")
            if count % 2:
                raise ValueError(
                    f"invalid signed diagram: rows of length {length} occur {count} times; "
                    f"even multiplicity required for {kind.value} diagrams"
                )
        elif plus + signs.count(MINUS) != count:
            raise ValueError(
                f"length-{length} rows need explicit Sign leads for {kind.value}: {signs!r}"
            )
        rows += class_rows(kind, length, count, plus)
    return SignedDiagram._trusted(kind, tuple(rows))


def moved_rows(d: SignedDiagram, grow: int) -> tuple[SignedRow, ...]:
    """The canonical rows of a column move: every row of d grows by ``grow``
    boxes (rows left empty drop), in d's kind for an even ``grow``, else in
    the opposite kind.  A row keeps its boxes, so its lead flips, and it
    stays constrained or free.  Class by class, longest first, the result
    kind's :func:`class_rows` with the class's minus-leading rows as its
    plus-leading ones."""
    kind = d.kind.opposite if grow & 1 else d.kind
    rows = d.rows
    moved: list[SignedRow] = []
    start, end = 0, len(rows)
    while start < end and rows[start][0] + grow > 0:  # classes descend
        length = rows[start][0]
        stop = start + 1
        while stop < end and rows[stop][0] == length:
            stop += 1
        minus = rows[start:stop].count((length, MINUS))
        moved += class_rows(kind, length + grow, stop - start, minus)
        start = stop
    return tuple(moved)


def delete_column_signed(d: SignedDiagram) -> SignedDiagram:
    """Delete the leftmost column: the :func:`moved_rows` of d with ``grow`` -1."""
    return SignedDiagram._trusted(d.kind.opposite, moved_rows(d, -1))


def tau(d: SignedDiagram) -> SignedDiagram:
    """Sign flip on even-length rows, induced by conjugation by diag(I, -I);
    the :func:`moved_rows` of d with ``grow`` 0."""
    if d.kind is not SYMPLECTIC:
        raise ValueError("tau defined only on symplectic diagrams")
    return SignedDiagram._trusted(SYMPLECTIC, moved_rows(d, 0))


def negate(d: SignedDiagram) -> SignedDiagram:
    """Label of the orbit of -x.  A row of length l transforms its sign by
    (-1)**(l-1): even rows flip, odd rows are untouched.  For symplectic
    diagrams this is tau; for orthogonal ones it fixes every class (the
    flipped constrained classes stay balanced and fold back to convention
    order)."""
    return tau(d) if d.kind is SYMPLECTIC else canonicalize(d)


def group_label(kind: Kind, sig: Signature) -> str:
    """The real group as printed: ``Mp(2n)`` for a symplectic diagram of
    size 2n, ``O(p,q)`` for an orthogonal one of signature (p, q)."""
    plus, minus = sig
    if kind is SYMPLECTIC:
        return f"Mp({plus + minus})"
    return f"O({plus},{minus})"


def group_of(d: SignedDiagram) -> str:
    """The printed group of d: ``group_label`` of its kind and signature."""
    return group_label(d.kind, signature(d))


# ---------------------------------------------------------------------------
# class U: admissibility


class ClassUReport(Value):
    __slots__ = ("very_even_or_odd", "interlacing_ok", "excluded_pattern", "reasons")

    @property
    def member(self) -> bool:
        return self.very_even_or_odd and self.interlacing_ok and not self.excluded_pattern

    def to_json_dict(self) -> dict:
        return {
            "member": self.member,
            "very_even_or_odd": self.very_even_or_odd,
            "interlacing_ok": self.interlacing_ok,
            "excluded_pattern": self.excluded_pattern,
            "reasons": list(self.reasons),
        }


def _interlacing_failures(heights: tuple[int, ...], kind: Kind) -> list[str]:
    """The failed comparisons among the chained inequalities on the column
    heights m_1 >= m_2 >= ...: strict descent at every even position for
    symplectic diagrams, at every odd position (including the first) for
    orthogonal ones.  Together with one height parity this is exactly what
    makes every deletion step of a tower gain at least two boxes over the
    previous gain when it needs to.  Only the strict comparisons can fail,
    since column heights never increase; heights past the end count as
    zero."""

    def m(i: int) -> int:
        return heights[i - 1] if i <= len(heights) else 0

    first = 2 if kind is SYMPLECTIC else 1
    return [
        f"need m{pos} > m{pos + 1}: {m(pos)} vs {m(pos + 1)}"
        for pos in range(first, len(heights) + 1, 2)
        if not m(pos) > m(pos + 1)
    ]


def _excluded_pattern(d: SignedDiagram, heights: tuple[int, ...]) -> bool:
    """Last two columns of equal length whose rows all show the same two-box
    pattern (-+ throughout or +- throughout); ``heights`` are the column
    heights of d.

    The uniform strip is excluded at every height including one: a tower
    step consisting of evenly paired, uniformly signed columns is exactly
    what makes a lift's target group parameter collide with the middle rank,
    and the single-row strip produces the same collision two steps up.
    Excluding it keeps admissibility hereditary under column deletion and
    makes the collision provably impossible.
    """
    width = len(heights)
    if width < 2 or heights[-1] != heights[-2]:
        return False
    tail_leads = {lead for length, lead in d.rows if length == width}
    return len(tail_leads) == 1


def class_u(d: SignedDiagram) -> ClassUReport:
    columns = d.shape().transpose()
    parity_ok = columns.very_even or columns.very_odd
    reasons = _interlacing_failures(columns.rows, d.kind)
    interlace_ok = not reasons
    if not parity_ok:
        reasons.append("column heights must be all even or all odd")
    excluded = _excluded_pattern(d, columns.rows)
    if excluded:
        reasons.append("uniform sign pattern on the equal last two columns")
    return ClassUReport(parity_ok, interlace_ok, excluded, tuple(reasons))


# ---------------------------------------------------------------------------
# serialization


def render_ascii(d: SignedDiagram) -> str:
    """One row per line, '+'/'-' per box, mirroring printed box pictures."""
    lines = []
    for i, row in enumerate(d.rows, start=1):
        lines.append("".join(d.box_sign(i, j).char for j in range(1, row.length + 1)))
    return "\n".join(lines)


def to_json_dict(d: SignedDiagram) -> dict:
    return {
        "kind": d.kind.value,
        "rows": [{"len": r.length, "sign": r.leading.char} for r in d.rows],
    }


def parse_json_rows(data: dict) -> tuple[Kind, tuple[SignedRow, ...]]:
    """The kind and the rows of the JSON schema, as given: the schema is
    checked here, the shape and the sign conventions are not."""
    if not isinstance(data, dict) or "kind" not in data or "rows" not in data:
        raise ValueError("diagram JSON needs 'kind' and 'rows' fields")
    try:
        kind = Kind(data["kind"])
    except ValueError:
        raise ValueError(f"unknown kind {data['kind']!r}") from None
    if not isinstance(data["rows"], list):
        raise ValueError("diagram 'rows' must be a list")
    rows: list[SignedRow] = []
    for i, entry in enumerate(data["rows"], start=1):
        if not isinstance(entry, dict) or "len" not in entry or "sign" not in entry:
            raise ValueError(f"row {i}: needs 'len' and 'sign' fields")
        if entry["sign"] not in ("+", "-"):
            raise ValueError(f"row {i}: sign must be '+' or '-'")
        rows.append(SignedRow(entry["len"], Sign(entry["sign"])))
    return kind, tuple(rows)


def from_json_dict(data: dict) -> SignedDiagram:
    """Parse the JSON schema; bad shapes and sign convention violations are
    rejected by the constructor rather than silently fixed."""
    return SignedDiagram(*parse_json_rows(data))


def brief(text: str, show=str) -> str:
    """``show(text)``, or for a text past 24 characters its first 12 shown so
    and its length: a refused value as an error message quotes it."""
    if len(text) <= 24:
        return show(text)
    return f"{show(text[:12])}... ({len(text)} characters)"
