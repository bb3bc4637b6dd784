"""Exact linear rational arithmetic: satisfiability, projection,
convex hulls, widening, and Craig interpolation."""

from hornsafe.lra.solver import (
    DeltaRational,
    JointlySatisfiableError,
    Polyhedron,
    Witness,
    entails,
    equivalent,
    hull,
    interpolate,
    is_sat,
    memo,
    minimise,
    project,
    widen,
)

__all__ = [
    "DeltaRational",
    "JointlySatisfiableError",
    "Polyhedron",
    "Witness",
    "entails",
    "equivalent",
    "hull",
    "interpolate",
    "is_sat",
    "memo",
    "minimise",
    "project",
    "widen",
]
