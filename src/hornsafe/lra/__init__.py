"""Exact linear rational arithmetic: satisfiability, projection,
convex hulls, widening, and Craig interpolation."""

from hornsafe.lra.solver import (
    JointlySatisfiableError,
    Memo,
    Polyhedron,
    eliminate,
    entails,
    hull,
    interpolate,
    is_sat,
    memoised,
    minimise,
    project,
    widen,
)

__all__ = [
    "JointlySatisfiableError",
    "Memo",
    "Polyhedron",
    "eliminate",
    "entails",
    "hull",
    "interpolate",
    "is_sat",
    "memoised",
    "minimise",
    "project",
    "widen",
]
