"""Tree interpolants, their validity check, and the induced automata."""

import pytest

from hornsafe.chc_core import FALSE, FALSE_PRED, TRUE, parse_constraint, parse_program
from hornsafe.derivations import and_tree, formula
from hornsafe.fta import trace_fta
from hornsafe.fta import model_fta
from hornsafe.lra import is_sat
from hornsafe.tree_interpolation import (
    ERROR_STATE,
    FeasibleTreeError,
    TreeInterpolant,
    check_tree_interpolant,
    interpolant_automaton,
    tree_interpolant,
)
from oracles import (
    accepts,
    check_soundness,
    conjunctive_mapping,
    enumerate_terms,
    equivalent,
    feasible,
    interpolant_mapping,
    parse_trace,
)
from programs import DECREMENT, FIB, SPLIT_RANGE, UNSAFE_LOOP, UNSAFE_SIMPLE

T = parse_trace
FIB_TRACE = T("c3(c2(c1,c1))")


def fib_setup():
    prog = parse_program(FIB)
    return prog, and_tree(prog, FIB_TRACE)


def handwritten_fib_labels(tree) -> TreeInterpolant:
    """A small valid labelling of the depth-3 candidate, for goldens
    that should not depend on what the interpolator happens to emit."""
    texts = {2: "A_n1 =< 3", 3: "A1_n2 =< 1", 4: ""}
    labels = [FALSE] + [
        parse_constraint(texts[i]) if texts[i] else TRUE for i in (2, 3, 4)
    ]
    return TreeInterpolant(
        atoms=tuple(n.atom for n in tree), labels=tuple(labels)
    )


class TestTreeInterpolant:
    def test_computed_labelling_is_valid(self):
        prog, tree = fib_setup()
        ti = tree_interpolant(tree)
        assert len(ti) == len(tree)
        assert ti.atoms == tuple(n.atom for n in tree)
        assert is_sat(ti.label(1)) is None
        assert check_tree_interpolant(tree, ti)

    def test_feasible_tree_refused(self):
        prog = parse_program(UNSAFE_SIMPLE)
        tree = and_tree(prog, T("c2(c1)"))
        with pytest.raises(FeasibleTreeError):
            tree_interpolant(tree)

    # a one-node tree has no interpolation to fail, a deeper one is
    # refused by its first
    @pytest.mark.parametrize(
        "text, trace",
        [("false :- X=1.\n", "c1"), (UNSAFE_LOOP, "c3(c2(c2(c2(c1))))")],
    )
    def test_feasible_tree_of_any_size_refused(self, text, trace):
        tree = and_tree(parse_program(text), T(trace))
        assert is_sat(formula(tree)) is not None
        with pytest.raises(FeasibleTreeError):
            tree_interpolant(tree)

    def test_handwritten_labelling_passes_check(self):
        prog, tree = fib_setup()
        assert check_tree_interpolant(tree, handwritten_fib_labels(tree))

    def test_check_rejects_sloppy_labelling(self):
        prog, tree = fib_setup()
        ti = handwritten_fib_labels(tree)
        # weakening an inner label to true breaks the root condition
        broken = TreeInterpolant(
            atoms=ti.atoms, labels=(ti.labels[0], TRUE) + ti.labels[2:]
        )
        assert not check_tree_interpolant(tree, broken)

    def test_check_rejects_wrong_shape(self):
        prog, tree = fib_setup()
        ti = handwritten_fib_labels(tree)
        with pytest.raises(ValueError):
            check_tree_interpolant(tree, TreeInterpolant(ti.atoms[:2], ti.labels[:2]))

    def test_instantiated_label_uses_target_variables(self):
        prog, tree = fib_setup()
        ti = handwritten_fib_labels(tree)
        from hornsafe.chc_core import Variable

        inst = ti.instantiated(2, (Variable("P"), Variable("Q")))
        assert equivalent(inst, parse_constraint("P =< 3"))

    @pytest.mark.parametrize("text", [FIB, UNSAFE_LOOP, DECREMENT, SPLIT_RANGE])
    def test_every_shallow_infeasible_trace_interpolates(self, text):
        prog = parse_program(text)
        checked = 0
        for t in enumerate_terms(trace_fta(prog), 4):
            tree = and_tree(prog, t)
            if feasible(prog, t) is not None:
                continue
            assert check_tree_interpolant(tree, tree_interpolant(tree)), str(t)
            checked += 1
        assert checked > 0


class TestConjunctiveMapping:
    def test_fib_entry(self):
        prog, tree = fib_setup()
        m = conjunctive_mapping(tree_interpolant(tree))
        assert m.predicates() == {"fib"}
        got = m.entries["fib"].constraint
        assert equivalent(got, parse_constraint("X1 =< 1"))

    def test_root_conjunction_dropped(self):
        prog, tree = fib_setup()
        m = conjunctive_mapping(tree_interpolant(tree))
        assert FALSE_PRED not in m.predicates()
        assert not m.has_false

    def test_mapping_refutes_the_trace(self):
        # filtering by the mapping must reject the interpolated trace
        prog, tree = fib_setup()
        m = conjunctive_mapping(tree_interpolant(tree))
        filtered = model_fta(prog, m)
        assert not accepts(filtered, FIB_TRACE)

    def test_mapping_entries_positional(self):
        prog, tree = fib_setup()
        ti = tree_interpolant(tree)
        entries = list(interpolant_mapping(ti))
        assert len(entries) == len(tree)
        assert [(a.pred, i) for a, i, _ in entries] == [
            (FALSE_PRED, 1),
            ("fib", 2),
            ("fib", 3),
            ("fib", 4),
        ]


class TestInterpolantAutomaton:
    def test_handwritten_labelling_automaton(self):
        prog, tree = fib_setup()
        ia = interpolant_automaton(prog, tree, handwritten_fib_labels(tree))
        assert ia.finals == {ERROR_STATE}
        assert ia.states == {"fib^2", "fib^3", "fib^4", ERROR_STATE}
        expected = {
            ("c1", (), "fib^2"),
            ("c1", (), "fib^3"),
            ("c1", (), "fib^4"),
            ("c3", ("fib^2",), ERROR_STATE),
            ("c3", ("fib^3",), ERROR_STATE),
        }
        for pair in (
            ("fib^2", "fib^2"), ("fib^2", "fib^3"), ("fib^2", "fib^4"),
            ("fib^3", "fib^2"), ("fib^3", "fib^3"), ("fib^3", "fib^4"),
            ("fib^4", "fib^2"), ("fib^4", "fib^3"), ("fib^4", "fib^4"),
        ):
            expected.add(("c2", pair, "fib^4"))
        for pair in (
            ("fib^2", "fib^3"), ("fib^3", "fib^2"), ("fib^3", "fib^3"),
            ("fib^3", "fib^4"), ("fib^4", "fib^3"),
        ):
            expected.add(("c2", pair, "fib^2"))
        assert ia.transitions == expected
        assert len(ia.transitions) == 19

    def test_computed_labelling_accepts_its_trace(self):
        prog, tree = fib_setup()
        ia = interpolant_automaton(prog, tree, tree_interpolant(tree))
        assert accepts(ia, FIB_TRACE)

    def test_computed_labelling_sound(self):
        prog, tree = fib_setup()
        ia = interpolant_automaton(prog, tree, tree_interpolant(tree))
        assert check_soundness(prog, ia, 4)

    def test_invalid_labelling_rejected(self):
        prog, tree = fib_setup()
        ti = handwritten_fib_labels(tree)
        broken = TreeInterpolant(
            atoms=ti.atoms, labels=(ti.labels[0], TRUE) + ti.labels[2:]
        )
        with pytest.raises(ValueError):
            interpolant_automaton(prog, tree, broken)

    def test_soundness_check_flags_overbroad_automaton(self):
        # the unfiltered trace automaton accepts feasible traces
        prog = parse_program(UNSAFE_SIMPLE)
        assert not check_soundness(prog, trace_fta(prog), 3)
