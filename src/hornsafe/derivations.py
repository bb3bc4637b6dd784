"""Derivation trees for trace terms.

A trace term picks one clause per node; the derivation tree (AND-tree)
instantiates each clause with fresh variables, identifies every head
tuple with the body-atom occurrence above it, and labels each node with
the instantiated constraint.  A trace is feasible exactly when the
conjunction of all node labels is satisfiable.

feasible decides that without building the tree: it takes each node's
clause post (absint.body_post) under its children's posts, from the
leaves up.  A post is the exact projection of its subtree's formula
onto the node's head tuple, because project and Polyhedron.of are
exact, so the root's post is empty exactly when the formula is
unsatisfiable.  Inside verify the posts go through the memo the
analysis fills, where most subtrees of a spurious trace already are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from hornsafe.absint import body_post
from hornsafe.chc_core import TRUE, Atom, Clause, LinConstraint, Program, Variable
from hornsafe.fta import TraceTerm
from hornsafe.lra import Polyhedron


class DerivationError(Exception):
    pass


@dataclass(frozen=True)
class Node:
    """One clause instance.  Indices are preorder positions starting at
    1; a subtree occupies the contiguous range [index, index + size)."""

    index: int
    atom: Atom
    cid: str
    constraint: LinConstraint
    children: tuple[int, ...]
    parent: int
    size: int


@dataclass(frozen=True)
class AndTree:
    nodes: tuple[Node, ...]

    def node(self, i: int) -> Node:
        if not 1 <= i <= len(self.nodes):
            raise DerivationError(f"no node {i}")
        return self.nodes[i - 1]

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)


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


def and_tree(program: Program, trace: TraceTerm) -> AndTree:
    """Build the derivation tree for a trace.

    Clause variables get a per-node suffix _n<i>, then the head tuple is
    identified with the atom inherited from the parent, so each node's
    local variables stay inside its subtree.  Nodes are numbered with
    a stack, not by recursion, so a deep trace costs no Python stack.
    """
    # per node in preorder: its atom, clause id, renamed constraint and
    # parent, and its children as they are numbered
    parts: list[tuple[Atom, str, LinConstraint, int]] = []
    children: list[list[int]] = []
    stack: list[tuple[TraceTerm, Atom | None, int]] = [(trace, None, 0)]
    while stack:
        term, inherited, parent = stack.pop()
        index = len(parts) + 1
        clause = _clause(program, term, None if inherited is None else inherited.pred)
        if inherited is None:
            inherited = clause.head
        rename = {v: Variable(f"{v}_n{index}") for v in clause.vars()}
        if inherited is not clause.head:
            rename.update(zip(clause.head.args, inherited.args))
            atom = inherited
        else:
            atom = clause.head.rename(rename)
        parts.append((atom, term.sym, clause.constraint.rename(rename), parent))
        children.append([])
        if parent:
            children[parent - 1].append(index)
        # the first subterm on top, so nodes are numbered in preorder
        for sub, body_atom in reversed(list(zip(term.children, clause.body))):
            stack.append((sub, body_atom.rename(rename), index))

    # a node's subtree size, summed in reverse preorder into its parent
    sizes = [1] * len(parts)
    for i in range(len(parts) - 1, 0, -1):
        sizes[parts[i][3] - 1] += sizes[i]
    return AndTree(
        tuple(
            Node(i, atom, cid, constraint, tuple(children[i - 1]), parent, sizes[i - 1])
            for i, (atom, cid, constraint, parent) in enumerate(parts, 1)
        )
    )


def formula(tree: AndTree) -> LinConstraint:
    return TRUE.conjoin(*[n.constraint for n in tree])


def feasible(program: Program, trace: TraceTerm) -> Polyhedron | None:
    """The post of the trace's root clause, or None when it is empty,
    that is, when the trace is infeasible.  Raises the DerivationError
    and_tree raises on a malformed trace.

    The nodes are checked and listed in preorder with a stack, as
    and_tree numbers them; then, in reverse preorder, each node's post
    is taken under its children's posts, which are all final by then.
    A subterm object that occurs twice is checked and read at each of
    its occurrences.  The first empty post ends the walk."""
    # per node in preorder: its clause and its parent's position
    nodes: list[tuple[Clause, int]] = []
    stack: list[tuple[TraceTerm, str | None, int]] = [(trace, None, -1)]
    while stack:
        term, expected, parent = stack.pop()
        clause = _clause(program, term, expected)
        index = len(nodes)
        nodes.append((clause, parent))
        for sub, atom in reversed(list(zip(term.children, clause.body))):
            stack.append((sub, atom.pred, index))

    # per node, its children's posts, which reverse preorder hands it
    # from the last child to the first
    posts: list[list[Polyhedron]] = [[] for _ in nodes]
    for index in range(len(nodes) - 1, -1, -1):
        clause, parent = nodes[index]
        post = body_post(clause, tuple(reversed(posts[index])))
        if post.empty:
            return None
        if parent < 0:
            return post
        posts[parent].append(post)
    raise AssertionError("unreachable")
