"""Tree interpolants for infeasible derivation trees, and the automata
they induce.

A tree interpolant labels every node with a formula over that node's
atom tuple such that the root is false and each node's label follows
from its clause constraint plus its children's labels.  Such a
labelling proves every derivation sharing the tree's shape infeasible,
and lifting the labels to automaton states yields a tree automaton that
accepts only infeasible traces: exactly the language the refinement
loop wants to remove.

tree_interpolant takes the tree as and_tree gives it, a tuple of nodes
in preorder, and returns a tuple of labels in the same order, label i
at labels[i - 1]; interpolant_automaton reads each label's atom from
the tree's node at the same position.

Labels are found one binary interpolation per node, bottom-up in
reverse preorder.  The second argument handed to the interpolator is
not the plain context formula but the current rewritten tree: clause
constraints for not-yet-processed nodes, computed labels for the
maximal already-processed subtrees outside the node.  Substituting
labels as they are found keeps every binary interpolation's
precondition (joint unsatisfiability) true and is what makes the
per-node conditions compose; interpolating every node against its raw
context independently can produce labels that are only pairwise
justified and fail the root condition.  The first interpolation, at
the last node in preorder (a leaf), conjoins the whole tree, so it
fails exactly on a feasible tree, which is then refused; only a
one-node tree is checked with is_sat first.

The contexts are assembled incrementally.  The node rows are laid out
once in preorder, so the constraints of the nodes before a node are one
slice; the roots of the maximal subtrees after each node are found
top-down, as its later siblings followed by its parent's; and the
variables a context shares with the node are read off each variable's
first node, so no context is scanned again.  Each context holds the same
rows in the same order as one rebuilt from the whole tree.

The interpolant automaton checks the labelling through its own steps:
a node's entailment is the automaton's transition for that node, so it
holds exactly when that transition was built.  Nodes whose labels
coincide on the canonical tuple share one state, named after the
first of them.  Each such representative's canonical label is placed
on a clause atom's arguments once per argument tuple, which is its
node's label renamed onto them since renaming is injective, and each
premise is built once per clause and body combination and checked
against every head state.

Under rahit each round's spurious tree is one node deeper than the
last and repeats its contexts, so the projection of a context onto the
node's interface is the memo step context (see hornsafe.run), keyed on
the context and the interface as a frozenset.
"""

from __future__ import annotations

import itertools

from hornsafe.chc_core import FALSE, FALSE_PRED, LinConstraint, Program, Row, Variable
from hornsafe.derivations import Node, formula
from hornsafe.fta import TreeAutomaton
from hornsafe.lra import JointlySatisfiableError, entails, interpolate, is_sat, project
from hornsafe.model import canonical_args
from hornsafe.run import memoised


class FeasibleTreeError(ValueError):
    """Tree interpolation needs an infeasible tree."""


@memoised("context")
def _context(second: LinConstraint, shared: frozenset[Variable]) -> LinConstraint:
    return project(second, shared)


def tree_interpolant(tree: tuple[Node, ...]) -> tuple[LinConstraint, ...]:
    """One label per node of an infeasible tree, in preorder."""
    n = len(tree)
    if n == 1 and is_sat(formula(tree)) is not None:
        raise FeasibleTreeError("derivation tree is feasible")
    # every node's rows once, in preorder, so the rows of nodes 1..i
    # are rows[:ends[i]]; the first node whose rows name each variable,
    # and named[i], how many variables nodes 1..i name
    rows: list[Row] = []
    ends = [0]
    first_node: dict[Variable, int] = {}
    for node in tree:
        for row in node.constraint.rows:
            for v in row.names:
                first_node.setdefault(v, node.index)
        rows.extend(node.constraint.rows)
        ends.append(len(rows))
    named = [0] * (n + 1)
    for i in first_node.values():
        named[i] += 1
    named = list(itertools.accumulate(named))
    # the roots of the maximal subtrees after node i's, in preorder:
    # its later siblings, then those after its parent's
    after: list[tuple[int, ...]] = [()] * (n + 1)
    for node in tree:
        for k, c in enumerate(node.children):
            after[c] = node.children[k + 1 :] + after[node.index]
    labels = [FALSE] * (n + 1)
    for i in range(n, 1, -1):
        node = tree[i - 1]
        first = node.constraint.conjoin(*[labels[c] for c in node.children])
        closing = [labels[j] for j in after[i]]
        second = LinConstraint(
            tuple(itertools.chain(rows[: ends[i - 1]], *[c.rows for c in closing]))
        )
        # the halves only talk through the node's interface variables,
        # so the context can be projected onto them first; that keeps
        # the multiplier system small on deep trees and changes neither
        # joint infeasibility nor the admissible labels.  A variable is
        # in the context if a node before i or a closing label names it.
        closing_vars = set().union(*[c.vars() for c in closing])
        shared = {
            v for v in first.vars() if first_node.get(v, i) < i or v in closing_vars
        }
        context_vars = named[i - 1] + sum(
            1 for v in closing_vars if first_node.get(v, i) >= i
        )
        if context_vars > len(shared):
            second = _context(second, frozenset(shared))
        try:
            labels[i] = interpolate(first, second)
        except JointlySatisfiableError:
            # node n, the last in preorder, is a leaf: its halves conjoin
            # the whole tree, and the projected context keeps that
            # satisfiable exactly when the tree is feasible
            if i < n:
                raise
            raise FeasibleTreeError("derivation tree is feasible") from None
    return tuple(labels[1:])


ERROR_STATE = "error"


def _state_name(pred: str, index: int) -> str:
    return ERROR_STATE if pred == FALSE_PRED else f"{pred}^{index}"


def interpolant_automaton(
    program: Program, tree: tuple[Node, ...], labels: tuple[LinConstraint, ...]
) -> TreeAutomaton:
    """States are the labelled tree nodes; a clause moves some nodes to
    a node exactly when the labels justify the step, so every accepted
    trace carries an inductive proof of infeasibility down to the
    final (root) state.

    The labelling must be a tree interpolant of the tree, else
    ValueError.  The root and variable conditions are checked first.
    A node's constraint is its clause's renamed injectively onto the
    node's variables, so the node's own entailment holds exactly when
    its step is one of the transitions, and is checked that way."""
    if len(tree) != len(labels):
        raise ValueError("tree and labelling differ in shape")
    if is_sat(labels[0]) is not None or any(
        not label.vars() <= set(node.atom.args) for node, label in zip(tree, labels)
    ):
        raise ValueError("labelling is not a tree interpolant")
    # nodes whose labels coincide after renaming onto the canonical
    # tuple are interchangeable; keeping one representative per class
    # keeps the state count at the number of distinct proofs, not the
    # tree size
    rep: dict[int, int] = {}
    classes: dict[tuple[str, LinConstraint], int] = {}
    for node, label in zip(tree, labels):
        atom = node.atom
        canon = label.rename(dict(zip(atom.args, canonical_args(len(atom.args)))))
        rep[node.index] = classes.setdefault((atom.pred, canon), node.index)
    canon_label = {i: canon for (_, canon), i in classes.items()}
    name = {i: _state_name(tree[i - 1].atom.pred, i) for i in canon_label}

    by_pred: dict[str, list[int]] = {}
    for i in sorted(canon_label):
        by_pred.setdefault(tree[i - 1].atom.pred, []).append(i)

    # a representative's label placed on an atom's arguments: renaming
    # is injective, so this is its node's label renamed onto them
    placed: dict[tuple[int, tuple[Variable, ...]], LinConstraint] = {}

    def place(i: int, args: tuple[Variable, ...]) -> LinConstraint:
        label = placed.get((i, args))
        if label is None:
            label = placed[i, args] = canon_label[i].rename(
                dict(zip(canonical_args(len(args)), args))
            )
        return label

    transitions = set()
    for clause in program:
        head_nodes = by_pred.get(clause.head.pred, ())
        if not head_nodes:
            continue
        body_nodes = [by_pred.get(a.pred, ()) for a in clause.body]
        for combo in itertools.product(*body_nodes):
            premise = clause.constraint.conjoin(
                *[place(jm, a.args) for jm, a in zip(combo, clause.body)]
            )
            children = tuple(name[jm] for jm in combo)
            for j in head_nodes:
                if entails(premise, place(j, clause.head.args)):
                    transitions.add((clause.cid, children, name[j]))
    for node in tree:
        step = (
            node.cid,
            tuple(name[rep[c]] for c in node.children),
            name[rep[node.index]],
        )
        if step not in transitions:
            raise ValueError("labelling is not a tree interpolant")
    return TreeAutomaton(
        frozenset(name.values()),
        frozenset({name[rep[1]]}),
        {c.cid: len(c.body) for c in program},
        frozenset(transitions),
    )
