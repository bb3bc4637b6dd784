"""Derivation trees: construction, decomposition, feasibility."""

from fractions import Fraction

import pytest

from hornsafe.chc_core import TRUE, Variable, parse_program
from hornsafe.derivations import (
    AndTree,
    DerivationError,
    and_tree,
    formula,
)
from hornsafe.fta import trace_fta
from oracles import (
    context_formula,
    enumerate_terms,
    equivalent,
    feasible,
    fm_satisfiable,
    parse_trace,
    subtree_formula,
    subtree_indices,
    tree_pretty,
)
from programs import FIB, UNSAFE_LOOP, UNSAFE_SIMPLE

T = parse_trace
FIB_TRACE = T("c3(c2(c1,c1))")


def fib_tree() -> AndTree:
    return and_tree(parse_program(FIB), FIB_TRACE)


class TestAndTree:
    def test_preorder_layout(self):
        tree = fib_tree()
        assert len(tree) == 4
        assert [n.index for n in tree] == [1, 2, 3, 4]
        assert [n.cid for n in tree] == ["c3", "c2", "c1", "c1"]
        assert [n.parent for n in tree] == [0, 1, 2, 2]
        assert [n.children for n in tree] == [(2,), (3, 4), (), ()]
        assert [n.size for n in tree] == [4, 3, 1, 1]

    def test_subtree_ranges_contiguous(self):
        tree = fib_tree()
        assert list(subtree_indices(tree, 2)) == [2, 3, 4]
        for node in tree:
            covered = {node.index}
            for c in node.children:
                covered |= set(subtree_indices(tree, c))
            assert covered == set(subtree_indices(tree, node.index))

    def test_head_tuple_identified_with_parent_occurrence(self):
        tree = fib_tree()
        # the root's body atom and its child node talk about one tuple
        assert tree.node(2).atom.args == (
            Variable("A_n1"),
            Variable("B_n1"),
        )
        assert tree.node(3).atom.args == (
            Variable("A1_n2"),
            Variable("B1_n2"),
        )

    def test_variables_stay_inside_subtree(self):
        # a sibling must never leak variables into the other branch
        tree = fib_tree()
        left = subtree_formula(tree, 3).vars()
        right = subtree_formula(tree, 4).vars()
        interface = set(tree.node(3).atom.args) | set(tree.node(4).atom.args)
        assert (left & right) <= interface

    def test_node_bounds_checked(self):
        tree = fib_tree()
        with pytest.raises(DerivationError):
            tree.node(0)
        with pytest.raises(DerivationError):
            tree.node(5)

    def test_pretty_mentions_every_node(self):
        text = tree_pretty(fib_tree())
        for i in (1, 2, 3, 4):
            assert f"{i}. " in text


class TestAndTreeErrors:
    def test_unknown_clause(self):
        with pytest.raises(DerivationError):
            and_tree(parse_program(FIB), T("c9"))

    def test_arity_mismatch(self):
        with pytest.raises(DerivationError):
            and_tree(parse_program(FIB), T("c3(c1,c1)"))

    def test_root_must_be_integrity_clause(self):
        with pytest.raises(DerivationError):
            and_tree(parse_program(FIB), T("c1"))

    def test_predicate_mismatch_inside(self):
        prog = parse_program("p(X) :- X=1.\nq(X) :- X=2.\nfalse :- q(X).\n")
        with pytest.raises(DerivationError):
            and_tree(prog, T("c3(c1)"))


class TestFormulas:
    def test_formula_is_conjunction_of_nodes(self):
        tree = fib_tree()
        assert equivalent(
            formula(tree),
            subtree_formula(tree, 2).conjoin(tree.node(1).constraint),
        )

    def test_subtree_plus_context_is_whole(self):
        tree = fib_tree()
        for i in range(1, len(tree) + 1):
            assert equivalent(
                formula(tree),
                subtree_formula(tree, i).conjoin(context_formula(tree, i)),
            )

    def test_root_subtree_is_whole_tree(self):
        tree = fib_tree()
        assert equivalent(subtree_formula(tree, 1), formula(tree))
        assert context_formula(tree, 1) == TRUE


class TestFeasible:
    def test_fib_counterexample_candidates_infeasible(self):
        prog = parse_program(FIB)
        assert feasible(prog, T("c3(c1)")) is None
        assert feasible(prog, FIB_TRACE) is None

    def test_unsafe_simple_witness(self):
        prog = parse_program(UNSAFE_SIMPLE)
        w = feasible(prog, T("c2(c1)"))
        assert w is not None
        values = w.concretise(formula(and_tree(prog, T("c2(c1)"))))
        assert values[Variable("X_n1")] == Fraction(1)

    def test_unsafe_loop_depths(self):
        # only the length-3 unrolling reaches the forbidden value
        prog = parse_program(UNSAFE_LOOP)
        assert feasible(prog, T("c3(c1)")) is None
        assert feasible(prog, T("c3(c2(c1))")) is None
        assert feasible(prog, T("c3(c2(c2(c2(c1))))")) is not None

    def test_matches_oracle_on_shallow_traces(self):
        for text in (FIB, UNSAFE_SIMPLE, UNSAFE_LOOP):
            prog = parse_program(text)
            for t in enumerate_terms(trace_fta(prog), 5):
                got = feasible(prog, t) is not None
                want = fm_satisfiable(formula(and_tree(prog, t)))
                assert got == want, f"disagree on {t}"
