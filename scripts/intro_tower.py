#!/usr/bin/env python3
"""End-to-end demo on the running Mp(30) example.

Builds the diagram, prints its picture, walks the induction tower with
every feasibility check, and cross-checks the infinitesimal character
through both algorithms.  Writes intro.json into the working directory so
the CLI can be pointed at the same diagram:

    orbitcalc tower intro.json
"""

from pathlib import Path

from orbitcalc import diagram_core as dc
from orbitcalc.diagram_core import Kind, Sign, SignedDiagram, SignedRow
from orbitcalc.infchar import infchar_domino, infchar_segments
from orbitcalc.tower import certificate
from orbitcalc.vector_order import bar_sort, vector_to_json

M, P = Sign.MINUS, Sign.PLUS

intro = SignedDiagram(
    Kind.SYMPLECTIC,
    (
        SignedRow(6, M),
        SignedRow(5, M),
        SignedRow(5, P),
        SignedRow(4, M),
        SignedRow(4, P),
        SignedRow(2, P),
        SignedRow(2, P),
        SignedRow(1, M),
        SignedRow(1, P),
    ),
)


def main() -> None:
    print(dc.render_ascii(intro))
    print()
    cert = certificate(intro)
    groups = cert.tower.groups
    print("tower:", " -> ".join(str(g) for g in groups))
    print("signatures:", " ".join(f"({s.plus},{s.minus})" for s in cert.tower.sig[1:]))
    for k, records in enumerate(cert.records, start=1):
        checks = [
            f"{label}={'ok' if rec['ok'] else 'FAIL'}"
            for label, rec in zip(("pm", "range", "non3"), records)
            if rec is not None
        ]
        print(f"  step {k}: {str(groups[k - 1]):<9} {' '.join(checks)}")
    print("certificate:", "VALID" if cert.valid else "INVALID")
    print()
    shape = intro.shape()
    segments = infchar_segments(shape, intro.kind)
    print("character (segments):", " ".join(vector_to_json(segments)))
    print("character (dominoes):", " ".join(vector_to_json(infchar_domino(shape, intro.kind))))
    print("agree:", infchar_domino(shape, intro.kind) == bar_sort(segments))

    out = Path("intro.json")
    out.write_text(dc.dumps(intro) + "\n")
    print(f"\nwrote {out}")


if __name__ == "__main__":
    main()
