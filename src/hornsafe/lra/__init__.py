"""Exact linear rational arithmetic: satisfiability, projection,
convex hulls, widening, and Craig interpolation."""

from hornsafe.lra.solver import (
    DeltaRational,
    JointlySatisfiableError,
    Memo,
    Polyhedron,
    Witness,
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
    "DeltaRational",
    "JointlySatisfiableError",
    "Memo",
    "Polyhedron",
    "Witness",
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
