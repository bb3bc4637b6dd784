"""Exact linear rational arithmetic: satisfiability, projection,
convex hulls and widening; kernel.refutation refutes a conjunction with
one multiplier per row."""

from hornsafe.lra.solver import (
    Polyhedron,
    eliminate,
    entails,
    hull,
    is_sat,
    minimise,
    widen,
)

__all__ = [
    "Polyhedron",
    "eliminate",
    "entails",
    "hull",
    "is_sat",
    "minimise",
    "widen",
]
