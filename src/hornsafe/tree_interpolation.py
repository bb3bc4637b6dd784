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

The labels come from one refutation of the whole tree formula
(Gupta, Popeea and Rybalchenko, APLAS 2011; Ruemmer, Hojjat and Kuncak,
CAV 2013).  Every node's rows go to kernel.refutation once, in
preorder, over the tree's variables; None means the tree is feasible,
and it is refused.  Otherwise each row has an int multiplier, and the
rows weighted by them add up to a ground row that fails.  A node's
label is the weighted sum of the rows of its subtree, taken in reverse
preorder as the node's own sum plus its children's:

* a variable local to the subtree occurs in no row outside it, so its
  coefficients cancel inside it, and the label is over the node's atom;
* the node's constraint and its children's labels entail its label,
  which is their weighted sum (each child's label is its sum over a
  positive gcd);
* the root's sum is the whole refutation, a ground row that fails.

The label is that sum over the gcd of its coefficients, strict when a
strict row of the subtree is weighted; a ground sum is TRUE when it
holds and FALSE when it fails, so a valid refutation labels the root
FALSE.  A corrupted one labels the root TRUE or over variables, or
breaks a node's entailment, and interpolant_automaton refuses it.

The interpolant automaton checks the labelling through its own steps:
a node's entailment is the automaton's transition for that node, so it
holds exactly when that transition was built.  Nodes whose labels
coincide on the canonical tuple share one state, named after the
first of them.  Each such representative's canonical label is placed
on a clause atom's arguments once per argument tuple, which is its
node's label renamed onto them since renaming is injective, and each
premise is built once per clause and body combination and checked
against every head state.
"""

from __future__ import annotations

import itertools
from math import gcd

from hornsafe.chc_core import (
    FALSE,
    FALSE_PRED,
    REL_LE,
    REL_LT,
    TRUE,
    LinConstraint,
    Program,
    Row,
    Variable,
)
from hornsafe.derivations import Node
from hornsafe.fta import TreeAutomaton
from hornsafe.lra import entails, is_sat, kernel
from hornsafe.lra.solver import _dense
from hornsafe.model import canonical_args


class FeasibleTreeError(ValueError):
    """Tree interpolation needs an infeasible tree."""


def tree_interpolant(tree: tuple[Node, ...]) -> tuple[LinConstraint, ...]:
    """One label per node of an infeasible tree, in preorder."""
    rows = [row for node in tree for row in node.constraint.rows]
    columns = sorted(set().union(*[row.names for row in rows]))
    y = kernel.refutation(len(columns), _dense(rows, columns))
    if y is None:
        raise FeasibleTreeError("derivation tree is feasible")
    # each subtree's weighted rows, summed in reverse preorder as the
    # node's own rows plus its children's sums: (coefficients, rhs,
    # whether a strict row is weighted)
    sums: list = [None] * len(tree)
    labels = [TRUE] * len(tree)
    end = len(rows)
    for node in reversed(tree):
        own = node.constraint.rows
        end -= len(own)
        coeffs: dict[Variable, int] = {}
        rhs = 0
        strict = False
        for row, w in zip(own, y[end : end + len(own)]):
            if w:
                for v, c in zip(row.names, row.ints):
                    coeffs[v] = coeffs.get(v, 0) + w * c
                rhs += w * row.num
                strict = strict or row.rel == REL_LT
        for child in node.children:
            ccoeffs, crhs, cstrict = sums[child - 1]
            for v, c in ccoeffs.items():
                coeffs[v] = coeffs.get(v, 0) + c
            rhs += crhs
            strict = strict or cstrict
        # a variable local to the subtree cancels inside it
        coeffs = {v: c for v, c in coeffs.items() if c}
        sums[node.index - 1] = (coeffs, rhs, strict)
        if not coeffs:
            if not (rhs > 0 if strict else rhs >= 0):
                labels[node.index - 1] = FALSE
            continue
        names = tuple(sorted(coeffs))
        g = gcd(*coeffs.values())
        h = gcd(g, rhs)
        ints = tuple([coeffs[v] // h for v in names])
        rel = REL_LT if strict else REL_LE
        labels[node.index - 1] = LinConstraint((Row(names, ints, rel, rhs // h, g // h),))
    return tuple(labels)


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
