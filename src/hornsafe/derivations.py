"""Derivation trees for trace terms.

A trace term picks one clause per node; the derivation tree (AND-tree)
instantiates each clause with fresh variables, identifies every head
tuple with the body-atom occurrence above it, and labels each node with
the instantiated constraint.  A trace is feasible exactly when the
conjunction of all node labels is satisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from hornsafe.chc_core import TRUE, Atom, LinConstraint, Program, Variable
from hornsafe.fta import TraceTerm


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
        try:
            clause = program.clause_by_id(term.sym)
        except KeyError:
            raise DerivationError(f"{term.sym!r} is not a clause of the program")
        if len(clause.body) != len(term.children):
            raise DerivationError(
                f"{term.sym} has {len(term.children)} subterms, clause body has {len(clause.body)} atoms"
            )
        if inherited is None:
            if not clause.head.is_false:
                raise DerivationError("trace root must be an integrity clause")
            inherited = clause.head
        elif clause.head.pred != inherited.pred:
            raise DerivationError(
                f"clause {term.sym} concludes {clause.head.pred}, expected {inherited.pred}"
            )
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
