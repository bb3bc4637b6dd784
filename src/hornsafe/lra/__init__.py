"""Exact linear rational arithmetic: satisfiability, projection,
convex hulls, widening, and Craig interpolation."""

from hornsafe.lra.solver import (
    JointlySatisfiableError,
    Polyhedron,
    eliminate,
    entails,
    hull,
    interpolate,
    is_sat,
    minimise,
    project,
    widen,
)

__all__ = [
    "JointlySatisfiableError",
    "Polyhedron",
    "eliminate",
    "entails",
    "hull",
    "interpolate",
    "is_sat",
    "minimise",
    "project",
    "widen",
]
