"""Derivation trees for trace terms.

A trace term picks one clause per node; the derivation tree (AND-tree)
instantiates each clause with fresh variables, identifies every head
tuple with the body-atom occurrence above it, and labels each node with
the instantiated constraint.  A trace is feasible exactly when the
conjunction of all node labels is satisfiable.  and_tree returns the
tree as a plain tuple of its nodes in preorder, node i at tree[i - 1].

feasible decides that without building the tree: it takes each node's
clause post (absint.body_post) under its children's posts, from the
leaves up.  A post is the exact projection of its subtree's formula
onto the node's head tuple, because eliminate and Polyhedron.of are
exact, so the root's post is empty exactly when the formula is
unsatisfiable.  Inside verify the posts go through the memo the
analysis fills, where most subtrees of a spurious trace already are.

and_tree and feasible both walk a trace through its preorder listing
(TraceTerm.preorder) and check each node against the clause it names
in that order, so a malformed trace raises the same DerivationError
in either.
"""

from __future__ import annotations

from dataclasses import dataclass

from hornsafe.absint import body_post
from hornsafe.chc_core import TRUE, Atom, Clause, LinConstraint, Program, Variable
from hornsafe.fta import TraceTerm
from hornsafe.lra import Polyhedron


class DerivationError(Exception):
    pass


@dataclass(frozen=True)
class Node:
    """One clause instance.  Indices are preorder positions starting at
    1, so a subtree occupies a contiguous range of them."""

    index: int
    atom: Atom
    cid: str
    constraint: LinConstraint
    children: tuple[int, ...]


def _clause(program: Program, term: TraceTerm, expected: str | None) -> Clause:
    """The clause a trace node names, checked against its subterm count
    and the predicate its parent's body atom expects (None at the root,
    which must be an integrity clause)."""
    try:
        clause = program.clause_by_id(term.sym)
    except KeyError:
        raise DerivationError(f"{term.sym!r} is not a clause of the program")
    if len(clause.body) != len(term.children):
        raise DerivationError(
            f"{term.sym} has {len(term.children)} subterms, clause body has {len(clause.body)} atoms"
        )
    if expected is None:
        if not clause.head.is_false:
            raise DerivationError("trace root must be an integrity clause")
    elif clause.head.pred != expected:
        raise DerivationError(
            f"clause {term.sym} concludes {clause.head.pred}, expected {expected}"
        )
    return clause


def and_tree(program: Program, trace: TraceTerm) -> tuple[Node, ...]:
    """Build the derivation tree for a trace, as its nodes in preorder:
    node i is tree[i - 1].

    Clause variables get a per-node suffix _n<i>, then the head tuple is
    identified with the atom inherited from the parent, so each node's
    local variables stay inside its subtree.  Nodes are numbered in the
    order of the trace's preorder listing.
    """
    # per node in preorder: its atom, clause id and renamed constraint,
    # its renamed body atoms, and its children as they are numbered
    parts: list[tuple[Atom, str, LinConstraint]] = []
    bodies: list[list[Atom]] = []
    children: list[list[int]] = []
    for index, (term, parent, slot) in enumerate(trace.preorder(), 1):
        inherited = bodies[parent][slot] if parent >= 0 else None
        clause = _clause(program, term, None if inherited is None else inherited.pred)
        rename = {v: Variable(f"{v}_n{index}") for v in clause.vars()}
        if inherited is None:
            atom = clause.head.rename(rename)
        else:
            rename.update(zip(clause.head.args, inherited.args))
            atom = inherited
            children[parent].append(index)
        parts.append((atom, term.sym, clause.constraint.rename(rename)))
        bodies.append([a.rename(rename) for a in clause.body])
        children.append([])
    return tuple(
        Node(i, atom, cid, constraint, tuple(children[i - 1]))
        for i, (atom, cid, constraint) in enumerate(parts, 1)
    )


def formula(tree: tuple[Node, ...]) -> LinConstraint:
    return TRUE.conjoin(*[n.constraint for n in tree])


def feasible(program: Program, trace: TraceTerm) -> Polyhedron | None:
    """The post of the trace's root clause, or None when it is empty,
    that is, when the trace is infeasible.  Raises the DerivationError
    and_tree raises on a malformed trace.

    The nodes of the trace's preorder listing are checked in order, as
    and_tree checks them; then, in reverse preorder, each node's post
    is taken under its children's posts, which are all final by then.
    A node is a preorder position, as in fta.singleton_fta, so a subterm
    object that occurs twice is checked and read at each occurrence.
    The first empty post ends the walk."""
    listing = trace.preorder()
    clauses: list[Clause] = []
    for term, parent, slot in listing:
        expected = clauses[parent].body[slot].pred if parent >= 0 else None
        clauses.append(_clause(program, term, expected))

    # per node, its children's posts, each put in its slot
    posts: list[list[Polyhedron | None]] = [[None] * len(c.body) for c in clauses]
    for index in range(len(listing) - 1, -1, -1):
        post = body_post(clauses[index], tuple(posts[index]))
        if post.empty:
            return None
        _, parent, slot = listing[index]
        if parent < 0:
            return post
        posts[parent][slot] = post
    raise AssertionError("unreachable")
