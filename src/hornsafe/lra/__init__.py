"""Exact linear rational arithmetic: satisfiability, projection,
convex hulls and widening; refutation refutes a conjunction of rows with
one multiplier per row."""

from hornsafe.lra.solver import (
    Polyhedron,
    eliminate,
    entails,
    hull,
    is_sat,
    minimise,
    refutation,
    widen,
)

__all__ = [
    "Polyhedron",
    "eliminate",
    "entails",
    "hull",
    "is_sat",
    "minimise",
    "refutation",
    "widen",
]
