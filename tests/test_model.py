"""Predicate interpretations: construction, clause checking, round trip."""

from fractions import Fraction

import pytest

from hornsafe.chc_core import FALSE, FALSE_PRED, Variable, parse_constraint, parse_program
from hornsafe.lra import Polyhedron, is_sat
from hornsafe.model import InterpretationModel, canonical_args, is_model
from oracles import equivalent, load_model, model_predicates
from programs import FIB, FIB_MODEL, UNSAFE_SIMPLE


def poly(text: str) -> Polyhedron:
    return Polyhedron.of(parse_constraint(text))


class TestCanonicalArgs:
    def test_names(self):
        assert canonical_args(3) == (Variable("X1"), Variable("X2"), Variable("X3"))

    def test_zero(self):
        assert canonical_args(0) == ()


class TestInterpretationModel:
    def test_empty_entries_dropped(self):
        m = InterpretationModel({"p": poly("X1>=0"), "q": Polyhedron.bottom()})
        assert model_predicates(m) == {"p"}

    def test_missing_predicate_is_bottom(self):
        m = InterpretationModel()
        assert m.polyhedron("p").empty
        assert m.fact("p", (Variable("A"),)) == FALSE

    def test_fact_renames_canonical_args(self):
        m = InterpretationModel({"p": poly("X1 >= X2")})
        fact = m.fact("p", (Variable("A"), Variable("B")))
        assert equivalent(fact, parse_constraint("A >= B"))
        assert fact.vars() == {Variable("A"), Variable("B")}

    def test_has_false(self):
        assert not InterpretationModel({"p": poly("X1>=0")}).has_false
        assert InterpretationModel({FALSE_PRED: Polyhedron.top()}).has_false

    def test_iteration(self):
        m = InterpretationModel({"p": poly("X1>=0"), "q": poly("X1=<0")})
        assert set(m.entries) == {"p", "q"}


class TestIsModel:
    def test_known_fib_model_accepted(self):
        prog = parse_program(FIB)
        assert is_model(prog, load_model(FIB_MODEL))

    def test_top_interpretation_rejected(self):
        # with fib unconstrained the integrity clause body is satisfiable
        prog = parse_program(FIB)
        m = InterpretationModel({"fib": Polyhedron.top()})
        assert not is_model(prog, m)

    def test_false_entry_repairs_integrity_clause(self):
        prog = parse_program(UNSAFE_SIMPLE)
        honest = InterpretationModel(
            {"p": poly("X1=1"), FALSE_PRED: Polyhedron.top()}
        )
        assert is_model(prog, honest)
        assert honest.has_false

    def test_too_narrow_rejected(self):
        prog = parse_program(UNSAFE_SIMPLE)
        m = InterpretationModel({"p": poly("X1=2")})
        assert not is_model(prog, m)

    def test_bottom_for_unreachable_is_fine(self):
        prog = parse_program("p(X) :- X=1, q(X).\n")
        assert is_model(prog, InterpretationModel())

    def test_contradictory_rows_hold_under_bottom(self):
        # the body is unsatisfiable without any false row in it
        prog = parse_program("p(X) :- X >= 1, X =< 0.\n")
        assert is_model(prog, InterpretationModel())
        assert not is_model(parse_program("p(X) :- X >= 1.\n"), InterpretationModel())


class TestLoadModel:
    def test_round_trip(self):
        m = InterpretationModel({"p": poly("X1 >= X2"), "q": poly("X1 < 7/2")})
        text = m.pretty({"p": 2, "q": 1})
        back = load_model(text)
        assert model_predicates(back) == {"p", "q"}
        for pred in ("p", "q"):
            assert equivalent(
                back.entries[pred].constraint, m.entries[pred].constraint
            )

    def test_body_atoms_rejected(self):
        with pytest.raises(ValueError):
            load_model("p(X) :- X>=0, q(X).\n")

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError):
            load_model("p(X) :- X>=0.\np(X) :- X=<0.\n")

    def test_canonical_name_clash_not_captured(self):
        # X1 appears as an auxiliary; renaming A to X1 must not merge them
        m = load_model("p(A) :- A >= X1, X1 >= 3.\n")
        got = m.entries["p"].constraint
        assert equivalent(got, parse_constraint("X1 >= 3"))

    def test_extra_variables_projected(self):
        m = load_model("p(A) :- A = B + 1, B >= 0.\n")
        assert equivalent(m.entries["p"].constraint, parse_constraint("X1 >= 1"))

    def test_witness_value(self):
        m = load_model("p(A) :- A = 7/2.\n")
        fact = m.fact("p", (Variable("A"),))
        w = is_sat(fact)
        assert w is not None
        assert w[Variable("A")] == Fraction(7, 2)
