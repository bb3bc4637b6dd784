"""Predicate interpretations: one polyhedron per predicate, over a
canonical argument tuple X1..Xn.

A missing or empty entry means the predicate has no constrained fact,
i.e. it is interpreted as unsatisfiable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping

from hornsafe.chc_core import (
    FALSE,
    FALSE_PRED,
    Atom,
    Clause,
    LinConstraint,
    Program,
    Variable,
)
from hornsafe.lra import Polyhedron, entails

_BOTTOM = Polyhedron.bottom()


@functools.cache
def canonical_args(n: int) -> tuple[Variable, ...]:
    return tuple(Variable(f"X{i}") for i in range(1, n + 1))


def instantiate(poly: Polyhedron, args: tuple[Variable, ...]) -> LinConstraint:
    """poly's constraint over the canonical arguments, renamed onto the
    given tuple; false when poly is empty."""
    if poly.empty:
        return FALSE
    return poly.constraint.rename(dict(zip(canonical_args(len(args)), args)))


@dataclass(frozen=True)
class InterpretationModel:
    entries: Mapping[str, Polyhedron] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            {p: poly for p, poly in self.entries.items() if not poly.empty},
        )

    def polyhedron(self, pred: str) -> Polyhedron:
        return self.entries.get(pred, _BOTTOM)

    def fact(self, pred: str, args: tuple[Variable, ...]) -> LinConstraint:
        """The predicate's constraint instantiated on the given tuple."""
        return instantiate(self.polyhedron(pred), args)

    def body_constraint(self, clause: Clause) -> LinConstraint:
        """The clause constraint conjoined with the interpreted facts of
        its body atoms, in body order."""
        return clause.constraint.conjoin(
            *[self.fact(a.pred, a.args) for a in clause.body]
        )

    @property
    def has_false(self) -> bool:
        return FALSE_PRED in self.entries

    def pretty(self, arities: Mapping[str, int]) -> str:
        lines = []
        for pred in sorted(self.entries):
            n = 0 if pred == FALSE_PRED else arities[pred]
            clause = Clause(
                "m", Atom(pred, canonical_args(n)), self.entries[pred].constraint, ()
            )
            lines.append(clause.pretty())
        return "\n".join(lines) + ("\n" if lines else "")


def is_model(program: Program, model: InterpretationModel) -> bool:
    """Does every clause hold under the interpretation?

    The reserved head is treated like any 0-ary predicate, so a clause
    `false :- body` holds exactly when the interpreted body is
    unsatisfiable or the model makes false true.  Safety additionally
    needs `not model.has_false`.
    """
    for clause in program:
        # an unsatisfiable body entails anything
        if not entails(model.body_constraint(clause), model.fact(clause.head.pred, clause.head.args)):
            return False
    return True
