"""Polyhedral clause analysis: posts, fixpoints, widening behaviour."""

import random

import pytest

import oracles
from gen import fib_k_text, post_case, random_program_text, split_text
from hornsafe import absint, driver
from hornsafe.absint import analyze, body_post, clause_post
from hornsafe.chc_core import FALSE_PRED, parse_constraint, parse_program
from hornsafe.lra import Polyhedron, entails
from hornsafe.model import is_model
from oracles import load_model, model_predicates, poly_pretty
from programs import (
    COUNT_UP,
    DECREMENT,
    FIB,
    FIB_MODEL,
    SPLIT_RANGE,
    UNSAFE_LOOP,
    UNSAFE_SIMPLE,
    doubling,
)

SAFE = [FIB, DECREMENT, COUNT_UP]
UNSAFE = [UNSAFE_SIMPLE, UNSAFE_LOOP]


def poly(text: str) -> Polyhedron:
    return Polyhedron.of(parse_constraint(text))


class TestClausePost:
    def test_fact_clause(self):
        prog = parse_program("p(X) :- X=1.\n")
        post = clause_post(prog.clauses[0], {})
        assert not post.empty
        assert post.constraint.pretty() == "X1 = 1"

    def test_body_atom_lookup(self):
        prog = parse_program("p(Y) :- Y=X+1, q(X).\n")
        state = {"q": poly("X1 >= 0")}
        post = clause_post(prog.clauses[0], state)
        assert entails(post.constraint, parse_constraint("X1 >= 1"))
        assert entails(parse_constraint("X1 >= 1"), post.constraint)

    def test_missing_body_predicate_gives_bottom(self):
        prog = parse_program("p(Y) :- Y=X+1, q(X).\n")
        assert clause_post(prog.clauses[0], {}).empty

    def test_projection_drops_locals(self):
        prog = parse_program("p(Y) :- Y=A+B, A>=0, B>=2.\n")
        post = clause_post(prog.clauses[0], {})
        assert {v.name for v in post.constraint.vars()} <= {"X1"}
        assert entails(post.constraint, parse_constraint("X1 >= 2"))


class TestPostOracle:
    def test_posts_print_as_the_interpreted_body(self):
        # body_post renames each polyhedron's integer rows onto the
        # atom's arguments as it reads them; the reference builds the
        # interpreted body and projects it over Fractions
        rng = random.Random(21)
        empty = bodies = 0
        for _ in range(400):
            clause, polys = post_case(rng)
            got = body_post(clause, polys)
            ref = oracles.post_reference(clause, polys)
            assert poly_pretty(got) == poly_pretty(ref), (clause.pretty(), [poly_pretty(p) for p in polys])
            assert got.empty == ref.empty
            empty += got.empty
            bodies += any(len(atom.args) > 1 and not p.empty for atom, p in zip(clause.body, polys))
        # empty and nonempty posts occur, and many bodies rename two or
        # more arguments
        assert 100 < empty < 300
        assert bodies > 100


class TestAnalyze:
    @pytest.mark.parametrize("text", SAFE)
    def test_result_is_model(self, text):
        prog = parse_program(text)
        m = analyze(prog)
        assert is_model(prog, m)
        assert not m.has_false

    @pytest.mark.parametrize("text", UNSAFE)
    def test_unsafe_programs_flag_false(self, text):
        prog = parse_program(text)
        m = analyze(prog)
        assert is_model(prog, m)
        assert m.has_false

    def test_fib_tighter_than_handwritten_model(self):
        prog = parse_program(FIB)
        computed = analyze(prog)
        known = load_model(FIB_MODEL)
        assert entails(
            computed.entries["fib"].constraint, known.entries["fib"].constraint
        )

    def test_count_up_invariant(self):
        # widening must generalise 0, 1, 2, ... to X >= 0
        prog = parse_program(COUNT_UP)
        m = analyze(prog)
        got = m.entries["n"].constraint
        assert entails(got, parse_constraint("X1 >= 0"))
        assert entails(parse_constraint("X1 >= 0"), got)

    def test_split_range_hull_covers_gap(self):
        # the two facts 0 and 3 hull to the interval, so the forbidden
        # band [1,2] looks reachable and false gets an entry
        prog = parse_program(SPLIT_RANGE)
        m = analyze(prog)
        assert m.has_false
        assert entails(parse_constraint("X1 >= 0, X1 =< 3"), m.entries["p"].constraint)

    def test_widen_delay_zero_still_model(self):
        for text in SAFE + UNSAFE:
            prog = parse_program(text)
            assert is_model(prog, analyze(prog, widen_delay=0))

    def test_widen_delay_large_more_precise(self):
        prog = parse_program(COUNT_UP)
        eager = analyze(prog, widen_delay=0)
        patient = analyze(prog, widen_delay=6)
        assert entails(
            patient.entries["n"].constraint, eager.entries["n"].constraint
        )

    def test_widening_drops_strict_rows_of_the_entry(self):
        # the post 1 < X1 < 2 lies inside the entry's row X1 > 0, but the
        # closed hull of entry and post does not, so the widening keeps
        # no row, as widen(entry, hull(entry, post)) would
        prog = parse_program("p(X) :- X>0, X<1.\np(Y) :- Y=X+1, p(X).\n")
        assert analyze(prog, widen_delay=0).entries["p"].is_top()

    def test_empty_program(self):
        m = analyze(parse_program(""))
        assert model_predicates(m) == set()

    def test_unreachable_predicate_absent(self):
        prog = parse_program("p(Y) :- Y=X, q(X).\nr(X) :- X=0.\n")
        m = analyze(prog)
        assert model_predicates(m) == {"r"}

    def test_deterministic(self):
        for text in SAFE + UNSAFE:
            prog = parse_program(text)
            a = analyze(prog)
            b = analyze(prog)
            assert a.entries.keys() == b.entries.keys()
            for pred in a.entries:
                assert a.entries[pred].constraint == b.entries[pred].constraint


class TestWorklistOrder:
    """The heap pops the smallest pending clause index, as the scan of
    the pending set it replaced did, so the posts come in the same
    order and every entry, widening point and memo count stays."""

    @staticmethod
    def _post_order(monkeypatch, program, widen_delay):
        index = {id(clause): i for i, clause in enumerate(program)}
        order = []
        real = absint.clause_post

        def recording(clause, entries):
            order.append(index[id(clause)])
            return real(clause, entries)

        monkeypatch.setattr(absint, "clause_post", recording)
        analyze(program, widen_delay)
        monkeypatch.undo()
        return order

    @pytest.mark.parametrize("widen_delay", [0, 3])
    def test_same_order_as_the_scan_on_generated_programs(self, monkeypatch, widen_delay):
        rng = random.Random(3401)
        texts = [random_program_text(rng) for _ in range(30)]
        texts += [fib_k_text(rng, k) for k in (2, 3)] + [split_text(rng, 3)]
        for text in texts:
            program = parse_program(text)
            order = self._post_order(monkeypatch, program, widen_delay)
            assert order == oracles.analyze_order_reference(program, widen_delay), text

    def test_same_order_as_the_scan_on_a_grown_program(self, monkeypatch):
        # the doubling program's last refined program, whose two-atom
        # clause has become one clause per pair of automaton states
        programs = []
        real = driver.analyze

        def recording(program, widen_delay):
            programs.append(program)
            return real(program, widen_delay)

        monkeypatch.setattr(driver, "analyze", recording)
        v = driver.verify(parse_program(doubling(8)), engine="rahit", max_iter=30)
        monkeypatch.undo()
        assert v.status == "unsafe"
        program = programs[-1]
        assert len(list(program)) > 100
        order = self._post_order(monkeypatch, program, 3)
        assert order == oracles.analyze_order_reference(program)


class TestDescendingPass:
    def test_decrement_keeps_upper_bound(self):
        # ascending iteration with widening loses X =< 0's stability
        # only if the descending pass cannot recover it; it can here
        prog = parse_program(DECREMENT)
        m = analyze(prog)
        assert entails(m.entries["q"].constraint, parse_constraint("X1 =< 0"))

    def test_false_entry_never_resurrected(self):
        for text in SAFE:
            m = analyze(parse_program(text))
            assert FALSE_PRED not in model_predicates(m)
