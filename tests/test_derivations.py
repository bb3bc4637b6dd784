"""Derivation trees: construction, decomposition, feasibility."""

import random
from fractions import Fraction

import pytest

from hornsafe import derivations
from hornsafe.chc_core import TRUE, Variable, parse_program
from hornsafe.derivations import DerivationError, Node, and_tree, formula
from hornsafe.fta import TraceTerm
from gen import fib_k_text, random_program_text
from oracles import (
    context_formula,
    enumerate_terms,
    equivalent,
    feasible,
    fm_satisfiable,
    parse_trace,
    subtree_formula,
    subtree_indices,
    trace_fta,
    tree_parents,
    tree_pretty,
    tree_sizes,
)
from programs import FIB, UNSAFE_LOOP, UNSAFE_SIMPLE

T = parse_trace
FIB_TRACE = T("c3(c2(c1,c1))")


def fib_tree() -> tuple[Node, ...]:
    return and_tree(parse_program(FIB), FIB_TRACE)


class TestAndTree:
    def test_preorder_layout(self):
        tree = fib_tree()
        assert type(tree) is tuple
        assert len(tree) == 4
        assert [n.index for n in tree] == [1, 2, 3, 4]
        assert [n.cid for n in tree] == ["c3", "c2", "c1", "c1"]
        assert tree_parents(tree) == [0, 1, 2, 2]
        assert [n.children for n in tree] == [(2,), (3, 4), (), ()]
        assert tree_sizes(tree) == [4, 3, 1, 1]

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
        assert tree[1].atom.args == (
            Variable("A_n1"),
            Variable("B_n1"),
        )
        assert tree[2].atom.args == (
            Variable("A1_n2"),
            Variable("B1_n2"),
        )

    def test_variables_stay_inside_subtree(self):
        # a sibling must never leak variables into the other branch
        tree = fib_tree()
        left = subtree_formula(tree, 3).vars()
        right = subtree_formula(tree, 4).vars()
        interface = set(tree[2].atom.args) | set(tree[3].atom.args)
        assert (left & right) <= interface

    def test_pretty_mentions_every_node(self):
        text = tree_pretty(fib_tree())
        for i in (1, 2, 3, 4):
            assert f"{i}. " in text


P_AND_Q = "p(X) :- X=1.\nq(X) :- X=2.\nfalse :- q(X).\n"

# program, trace: the four malformed shapes
MALFORMED = {
    "unknown_clause": (FIB, "c9"),
    "arity_mismatch": (FIB, "c3(c1,c1)"),
    "root_must_be_integrity_clause": (FIB, "c1"),
    "predicate_mismatch_inside": (P_AND_Q, "c3(c1)"),
}


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
        prog = parse_program(P_AND_Q)
        with pytest.raises(DerivationError):
            and_tree(prog, T("c3(c1)"))

    @pytest.mark.parametrize("shape", MALFORMED)
    def test_feasible_raises_the_same_error(self, shape):
        text, trace = MALFORMED[shape]
        prog = parse_program(text)
        with pytest.raises(DerivationError) as tree_error:
            and_tree(prog, T(trace))
        with pytest.raises(DerivationError) as feasible_error:
            derivations.feasible(prog, T(trace))
        assert str(feasible_error.value) == str(tree_error.value)


class TestFormulas:
    def test_formula_is_conjunction_of_nodes(self):
        tree = fib_tree()
        assert equivalent(
            formula(tree),
            subtree_formula(tree, 2).conjoin(tree[0].constraint),
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
        assert w[Variable("X_n1")] == Fraction(1)

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


# two body atoms of different predicates: c1 concludes p, c2 q
PAIR = """p(X) :- X=1.
q(X) :- X=2.
r(X,Y) :- p(X), q(Y).
false :- X+Y>=3, r(X,Y).
false :- X+Y>=4, r(X,Y).
"""


def agree(prog, traces) -> int:
    """Check derivations.feasible against the kernel on each trace and
    return how many are feasible."""
    feasible_count = 0
    for t in traces:
        want = feasible(prog, t) is None
        assert (derivations.feasible(prog, t) is None) == want, f"disagree on {t}"
        feasible_count += not want
    return feasible_count


class TestFeasibleFromPosts:
    """derivations.feasible, which takes clause posts bottom-up, against
    oracles.feasible, which solves the whole derivation formula."""

    def test_random_programs(self):
        traces = feasible_count = 0
        for seed in range(40):
            prog = parse_program(random_program_text(random.Random(seed)))
            terms = sorted(enumerate_terms(trace_fta(prog), 5), key=str)
            feasible_count += agree(prog, terms)
            traces += len(terms)
        # both answers occur often
        assert traces > 500 and 100 < feasible_count < traces - 100

    @pytest.mark.parametrize("k, depth", [(2, 5), (3, 4)])
    def test_branching_fib(self, k, depth):
        # every atom of the recursive clause is fib, so siblings share a
        # predicate and only their order tells their posts apart
        for seed in range(5):
            prog = parse_program(fib_k_text(random.Random(seed), k))
            terms = sorted(enumerate_terms(trace_fta(prog), depth), key=str)
            assert len(terms) > k
            agree(prog, terms)

    def test_last_child_counts(self):
        prog = parse_program(PAIR)
        assert agree(prog, [T("c4(c3(c1,c2))"), T("c5(c3(c1,c2))")]) == 1

    def test_shared_subterm_read_at_each_occurrence(self):
        prog = parse_program(PAIR)
        # one c1 object at two positions; the second expects q
        leaf = T("c1")
        shared = TraceTerm("c4", (TraceTerm("c3", (leaf, leaf)),))
        with pytest.raises(DerivationError) as tree_error:
            and_tree(prog, shared)
        with pytest.raises(DerivationError) as feasible_error:
            derivations.feasible(prog, shared)
        assert str(feasible_error.value) == str(tree_error.value)

        fib3 = parse_program(fib_k_text(random.Random(0), 3))
        inner = T("c2(c1,c1,c1)")
        for trace in (
            TraceTerm("c3", (TraceTerm("c2", (inner, inner, inner)),)),
            TraceTerm("c3", (TraceTerm("c2", (inner, T("c1"), inner)),)),
        ):
            agree(fib3, [trace])
