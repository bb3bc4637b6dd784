"""Tree interpolants, their validity check, and the induced automata."""

import functools
import random
from pathlib import Path

import pytest

import hornsafe.driver as driver
import hornsafe.tree_interpolation as tree_interpolation
from hornsafe.chc_core import (
    FALSE,
    FALSE_PRED,
    REL_EQ,
    REL_LE,
    TRUE,
    LinConstraint,
    Row,
    Variable,
    parse_constraint,
    parse_program,
)
from hornsafe.derivations import and_tree, formula
from hornsafe.fta import model_fta
from hornsafe.lra import is_sat
from hornsafe.tree_interpolation import (
    ERROR_STATE,
    FeasibleTreeError,
    interpolant_automaton,
    tree_interpolant,
)
from oracles import (
    accepts,
    check_soundness,
    check_tree_interpolant,
    conjunctive_mapping,
    enumerate_terms,
    equivalent,
    feasible,
    interpolant_automaton_reference,
    interpolant_mapping,
    model_predicates,
    parse_trace,
    row_coeffs,
    trace_fta,
    tree_pretty,
)
from gen import counter_text, fib_k_text, split_text
from programs import DECREMENT, FIB, SPLIT_RANGE, UNSAFE_LOOP, UNSAFE_SIMPLE

T = parse_trace
FIB_TRACE = T("c3(c2(c1,c1))")
CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"


def rahit_labellings(programs) -> tuple:
    """(program, tree, labelling) for every tree verify interpolates on
    the programs under rahit."""
    found = []
    real = tree_interpolation.interpolant_automaton

    def recording(program, tree, labels):
        found.append((program, tree, labels))
        return real(program, tree, labels)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_interpolation, "interpolant_automaton", recording)
        for program in programs:
            driver.verify(program, engine="rahit")
    return tuple(found)


@functools.cache
def corpus_labellings() -> tuple:
    """The labellings rahit interpolates on the corpus."""
    return rahit_labellings(
        parse_program(path.read_text()) for path in sorted(CORPUS_DIR.glob("*.chc"))
    )


@functools.cache
def seeded_labellings() -> tuple:
    """The labellings rahit interpolates on seeded counters, which
    refute one chain per round, and split programs, which refute one
    band per round."""
    rng = random.Random(2501)
    texts = [counter_text(rng, rng.randint(3, 8)) for _ in range(6)]
    texts += [split_text(rng, rng.randint(3, 6)) for _ in range(6)]
    return rahit_labellings(parse_program(text) for text in texts)


@functools.cache
def branching_trees() -> tuple:
    """(program, tree) for seeded infeasible traces of Fibonacci
    programs with 2 and 3 recursive calls, up to depth 5 and 4."""
    rng = random.Random(1802)
    found = []
    for k, depth in ((2, 5), (3, 4), (2, 5), (3, 4)):
        prog = parse_program(fib_k_text(rng, k))
        terms = sorted(enumerate_terms(trace_fta(prog), depth), key=str)
        for t in rng.sample(terms, min(6, len(terms))):
            tree = and_tree(prog, t)
            if is_sat(formula(tree)) is None:
                found.append((prog, tree))
    return tuple(found)


def fib_setup():
    prog = parse_program(FIB)
    return prog, and_tree(prog, FIB_TRACE)


def handwritten_fib_labels() -> tuple[LinConstraint, ...]:
    """A small valid labelling of the depth-3 candidate, for goldens
    that should not depend on what the interpolator happens to emit."""
    texts = {2: "A_n1 =< 3", 3: "A1_n2 =< 1", 4: ""}
    return (FALSE,) + tuple(
        parse_constraint(texts[i]) if texts[i] else TRUE for i in (2, 3, 4)
    )


class TestTreeInterpolant:
    def test_computed_labelling_is_valid(self):
        prog, tree = fib_setup()
        labels = tree_interpolant(tree)
        assert type(labels) is tuple
        assert len(labels) == len(tree)
        assert is_sat(labels[0]) is None
        assert check_tree_interpolant(tree, labels)

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
        assert check_tree_interpolant(tree, handwritten_fib_labels())

    def test_check_rejects_sloppy_labelling(self):
        prog, tree = fib_setup()
        labels = handwritten_fib_labels()
        # weakening an inner label to true breaks the root condition
        broken = (labels[0], TRUE) + labels[2:]
        assert not check_tree_interpolant(tree, broken)

    def test_check_rejects_wrong_shape(self):
        prog, tree = fib_setup()
        with pytest.raises(ValueError):
            check_tree_interpolant(tree, handwritten_fib_labels()[:2])

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
        m = conjunctive_mapping(tree, tree_interpolant(tree))
        assert model_predicates(m) == {"fib"}
        got = m.entries["fib"].constraint
        assert equivalent(got, parse_constraint("X1 =< 1"))

    def test_root_conjunction_dropped(self):
        prog, tree = fib_setup()
        m = conjunctive_mapping(tree, tree_interpolant(tree))
        assert FALSE_PRED not in model_predicates(m)
        assert not m.has_false

    def test_mapping_refutes_the_trace(self):
        # filtering by the mapping must reject the interpolated trace
        prog, tree = fib_setup()
        m = conjunctive_mapping(tree, tree_interpolant(tree))
        filtered = model_fta(prog, m)
        assert not accepts(filtered, FIB_TRACE)

    def test_mapping_entries_positional(self):
        prog, tree = fib_setup()
        entries = list(interpolant_mapping(tree, tree_interpolant(tree)))
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
        ia = interpolant_automaton(prog, tree, handwritten_fib_labels())
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
        labels = handwritten_fib_labels()
        broken = (labels[0], TRUE) + labels[2:]
        with pytest.raises(ValueError):
            interpolant_automaton(prog, tree, broken)
        # the labels name no atoms, so only their count ties them to the tree
        with pytest.raises(ValueError, match="differ in shape"):
            interpolant_automaton(prog, tree, labels[:2])

    def test_root_label_must_be_unsatisfiable(self):
        # the root check refutes the root label's rows: any failing
        # ground row passes as FALSE does, and a holding one is refused
        prog = parse_program((CORPUS_DIR / "unsafe_loop.chc").read_text())
        tree = and_tree(prog, T("c3(c2(c1))"))
        labels = tree_interpolant(tree)
        assert labels[0] == FALSE
        ia = interpolant_automaton(prog, tree, labels)
        unsat = LinConstraint((Row.make({}, REL_LE, -2),))
        assert interpolant_automaton(prog, tree, (unsat, *labels[1:])) == ia
        sat = LinConstraint((Row.make({}, REL_LE, 1),))
        with pytest.raises(ValueError, match="not a tree interpolant"):
            interpolant_automaton(prog, tree, (sat, *labels[1:]))

    def test_soundness_check_flags_overbroad_automaton(self):
        # the unfiltered trace automaton accepts feasible traces
        prog = parse_program(UNSAFE_SIMPLE)
        assert not check_soundness(prog, trace_fta(prog), 3)


class TestAutomatonMatchesReference:
    """interpolant_automaton places each class representative's
    canonical label once per argument tuple; its automaton must be the
    reference's, which renames every node's label directly."""

    @staticmethod
    def check(cases):
        merged = 0
        for prog, tree, labels in cases:
            got = interpolant_automaton(prog, tree, labels)
            assert got == interpolant_automaton_reference(prog, tree, labels), tree_pretty(tree)
            merged += len(got.states) < len(tree)
        return merged

    def test_rahit_labellings(self):
        cases = corpus_labellings() + seeded_labellings()
        assert len(cases) >= 50, len(cases)
        self.check(cases)

    def test_branching_labellings(self):
        # nodes that share a state, so a wrong representative's label shows
        merged = self.check(
            [(prog, tree, tree_interpolant(tree)) for prog, tree in branching_trees()]
        )
        assert merged >= 20, merged


def mutations(tree, labels, rng):
    """Seeded (kind, labelling) changes of a tree interpolant: an inner
    label made true, an inner label's bound tightened (which can break
    only that node's own entailment), and a label naming a variable
    from outside its atom."""
    n = len(labels)

    def with_label(i, label):
        return labels[: i - 1] + (label,) + labels[i:]

    inner = range(2, n + 1)
    for i in rng.sample(inner, min(2, len(inner))):
        yield "true", with_label(i, TRUE)
    bounded = [
        i for i in inner if any(r.names and r.rel != REL_EQ for r in labels[i - 1].rows)
    ]
    for i in rng.sample(bounded, min(2, len(bounded))):
        rows = labels[i - 1].rows
        k = rng.choice([k for k, r in enumerate(rows) if r.names and r.rel != REL_EQ])
        tight = Row.make(row_coeffs(rows[k]), rows[k].rel, rows[k].rhs - 1)
        yield "tightened", with_label(
            i, LinConstraint(rows[:k] + (tight,) + rows[k + 1 :])
        )
    i = rng.randint(1, n)
    outside = sorted(formula(tree).vars() - set(tree[i - 1].atom.args), key=str)
    v = rng.choice(outside) if outside else Variable("W_outside")
    foreign = LinConstraint((Row.make({v: 1}, ">=", 0),))
    yield "foreign", with_label(i, labels[i - 1].conjoin(foreign))


class TestAutomatonChecksLabelling:
    """interpolant_automaton checks a node's entailment through the
    node's own step among its transitions; it must refuse a labelling
    exactly when the oracle's three conditions do."""

    @staticmethod
    def agree(cases):
        rng = random.Random(18)
        refused = {"true": 0, "tightened": 0, "foreign": 0}
        for prog, tree, labels in cases:
            interpolant_automaton(prog, tree, labels)
            for kind, changed in mutations(tree, labels, rng):
                valid = check_tree_interpolant(tree, changed)
                shown = (kind, [str(label) for label in changed])
                try:
                    interpolant_automaton(prog, tree, changed)
                except ValueError:
                    assert not valid, shown
                    refused[kind] += 1
                else:
                    assert valid, shown
        return refused

    def test_corpus_labellings(self):
        refused = self.agree(corpus_labellings())
        assert all(count > 0 for count in refused.values()), refused

    def test_branching_labellings(self):
        refused = self.agree(
            [(prog, tree, tree_interpolant(tree)) for prog, tree in branching_trees()]
        )
        assert all(count > 0 for count in refused.values()), refused
