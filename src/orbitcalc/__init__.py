"""Signed Young diagram calculus for real nilpotent orbits of the
metaplectic and orthogonal groups: classification, induction towers,
orbit-level theta correspondence, infinitesimal characters, and an
exact-arithmetic matrix oracle."""

from .diagram_core import (
    Kind,
    Partition,
    Sign,
    SignedDiagram,
    SignedRow,
    Signature,
)

__all__ = [
    "Kind",
    "Partition",
    "Sign",
    "SignedDiagram",
    "SignedRow",
    "Signature",
]

__version__ = "0.1.0"
