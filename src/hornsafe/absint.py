"""Abstract interpretation of clause programs over convex polyhedra.

Computes, per predicate, a polyhedron over the canonical argument
tuple that over-approximates the predicate's least model: a chaotic
iteration joins clause-wise abstract posts with convex hulls, widens
each predicate after a configurable number of joins so ascending
chains stop, then runs one descending pass to claw back some of the
precision widening threw away.  The result is always a pre-fixpoint:
every clause's abstract post is contained in its head's entry.

Widening keeps the rows of the old entry that the join of old and post
entails (lra.widen), and it is computed without that join.  A closed
(non-strict or equality) row of old holds on the closed hull exactly
when it holds on post, because old already lies inside it.  A strict
row never holds on the closed hull: old is irredundant (a minimised
hull, a minimised post, top, or a subset of the rows of one of those),
so each strict row is tight on old's closure, which the hull contains.
widen(old without its strict rows, post) therefore keeps the same rows
in the same order as widen(old, hull(old, post)), and a widening step
builds no hull.  Dropping a row is always sound, so the identity bears
on precision and output, never on soundness.

A clause's post is the step the refinement loop repeats most, so this
module memoises it as the step clause_post (see hornsafe.run).
body_post takes it under one polyhedron per body atom, and clause_post
under one per predicate.  That one step serves the analysis,
fta.model_fta, which keeps a clause whose post is not empty, and
derivations.feasible, which decides a trace from the posts of its
subtrees.  The key is made of objects that already exist: the clause
constraint, the head tuple, and each body atom's arguments with its
polyhedron.  Atom arguments are pairwise distinct (chc_core.Atom
rejects a repeat), so renaming a polyhedron onto them is injective and
the key tells posts apart exactly as the interpreted body would.  A
miss never builds that body: it reads the stored integer rows of the
clause constraint and of each body polyhedron, renaming X1..Xn onto
the atom's arguments as it goes, and hands them to lra.eliminate; an
empty body polyhedron makes the post bottom before any elimination.
"""

from __future__ import annotations

import heapq
from typing import Mapping

from hornsafe.chc_core import REL_LT, Clause, LinConstraint, Program, Variable
from hornsafe.lra import Polyhedron, eliminate, hull, widen
from hornsafe.model import InterpretationModel, canonical_args
from hornsafe.run import memoised

_BOTTOM = Polyhedron.bottom()
_TOP = Polyhedron.top()


def body_post(clause: Clause, polys: tuple[Polyhedron, ...]) -> Polyhedron:
    """Abstract consequence of one clause when its i-th body atom is
    interpreted by polys[i], a polyhedron over canonical arguments:
    conjoin the interpreted body atoms with the clause constraint,
    eliminate every variable outside the head tuple, and rename onto
    canonical arguments.
    Empty exactly when the interpreted body is unsatisfiable."""
    body = tuple(zip([atom.args for atom in clause.body], polys))
    return _post(clause.constraint, clause.head.args, body)


def clause_post(clause: Clause, entries: Mapping[str, Polyhedron]) -> Polyhedron:
    """body_post under the interpretation that maps each predicate to
    its nonempty polyhedron in entries, and a missing one to bottom.
    It builds the same key itself rather than call body_post: the
    analysis and model_fta look up about 4,900 posts per refine-rahft
    benchmark pass, nearly all hits, and the extra call made a hit
    about 28% slower."""
    body = tuple([(atom.args, entries.get(atom.pred, _BOTTOM)) for atom in clause.body])
    return _post(clause.constraint, clause.head.args, body)


@memoised("clause_post")
def _post(constraint: LinConstraint, head_args: tuple[Variable, ...], body: tuple) -> Polyhedron:
    rows = [(dict(zip(row.names, row.ints)), row.rel, row.num, row.den) for row in constraint.rows]
    for args, poly in body:
        if poly.empty:
            return _BOTTOM
        # canonical X1..Xn onto the atom's pairwise distinct arguments
        rename = dict(zip(canonical_args(len(args)), args))
        rows += [
            ({rename[v]: c for v, c in zip(row.names, row.ints)}, row.rel, row.num, row.den)
            for row in poly.constraint.rows
        ]
    shadow = eliminate(rows, head_args)
    if not head_args:
        # eliminating every variable decides satisfiability: FALSE or TRUE
        return _BOTTOM if shadow.rows else _TOP
    poly = Polyhedron.of(shadow)
    if poly.empty:
        return poly
    return poly.rename(dict(zip(head_args, canonical_args(len(head_args)))))


def analyze(program: Program, widen_delay: int = 3) -> InterpretationModel:
    """Over-approximate the least model.

    Worklist iteration over clauses in source order: the smallest
    pending clause index is popped from a heap, and the pending set
    keeps each index on the heap at most once, so each pop costs a log
    of the clause count rather than a scan of the pending clauses.  An
    entry that keeps growing is widened once its join count passes
    widen_delay, which bounds every chain because widening can only
    keep rows the previous entry already had.
    """
    clauses = list(program)
    dependents: dict[str, list[int]] = {}
    for i, clause in enumerate(clauses):
        for atom in clause.body:
            dependents.setdefault(atom.pred, []).append(i)

    state: dict[str, Polyhedron] = {}
    joins: dict[str, int] = {}
    pending = set(range(len(clauses)))
    heap = list(range(len(clauses)))
    while heap:
        i = heapq.heappop(heap)
        pending.discard(i)
        clause = clauses[i]
        pred = clause.head.pred
        post = clause_post(clause, state)
        if post.empty:
            continue
        old = state.get(pred, _BOTTOM)
        if post.entails_poly(old):
            continue
        joins[pred] = joins.get(pred, 0) + 1
        if joins[pred] > widen_delay and not old.empty:
            # widen(old, hull(old, post)) without the hull; see above
            closed = LinConstraint(tuple([row for row in old.constraint.rows if row.rel != REL_LT]))
            state[pred] = widen(Polyhedron(closed), post)
        else:
            state[pred] = hull(old, post)
        for j in dependents.get(pred, ()):
            if j not in pending:
                pending.add(j)
                heapq.heappush(heap, j)

    # one descending pass: posts under a pre-fixpoint stay inside it,
    # and their join is itself a pre-fixpoint again
    narrowed: dict[str, Polyhedron] = {}
    for clause in clauses:
        post = clause_post(clause, state)
        if post.empty:
            continue
        pred = clause.head.pred
        narrowed[pred] = hull(narrowed.get(pred, _BOTTOM), post)
    return InterpretationModel(narrowed)
