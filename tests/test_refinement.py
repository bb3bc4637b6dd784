"""Clause regeneration from a trace automaton, and trace translation."""

import pytest

import hornsafe.refinement as refinement
from hornsafe.chc_core import FALSE_PRED, _collect_arities, parse_program
from hornsafe.derivations import and_tree
from hornsafe.driver import verify
from hornsafe.fta import (
    TraceTerm,
    difference,
    singleton_fta,
)
from hornsafe.refinement import (
    RefinementError,
    erase_trace,
    generate_clauses,
    origin_lines,
)
from hornsafe.tree_interpolation import interpolant_automaton, tree_interpolant
from oracles import (
    determinise,
    enumerate_terms,
    erase_trace_reference,
    feasible,
    parse_trace,
    trace_fta,
)
from programs import FIB, GOPAN_REPS, SPLIT_RANGE, UNSAFE_LOOP, doubling

T = parse_trace


def fib_minus(trace: str):
    """Fib's trace automaton with one trace removed, determinised."""
    prog = parse_program(FIB)
    a = determinise(difference(trace_fta(prog), singleton_fta(T(trace))))
    return prog, a


class TestGenerateClauses:
    def test_nondeterministic_rejected(self):
        prog = parse_program(FIB)
        from hornsafe.fta import TreeAutomaton

        aut = TreeAutomaton(
            frozenset({"s", "t"}),
            frozenset({"s"}),
            {"c1": 0, "c2": 2, "c3": 1},
            frozenset({("c1", (), "s"), ("c1", (), "t")}),
        )
        with pytest.raises(RefinementError):
            generate_clauses(prog, aut)

    def test_unknown_symbol_rejected(self):
        prog = parse_program(FIB)
        other = parse_program(UNSAFE_LOOP)
        aut = determinise(trace_fta(other))
        # c4 exists only in the four-clause program
        with pytest.raises(RefinementError):
            generate_clauses(prog, determinise(trace_fta(parse_program(SPLIT_RANGE))))

    def test_ids_renumbered_densely(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        assert list(out.clause_ids()) == [f"c{i}" for i in range(1, len(out.clauses) + 1)]

    def test_constraints_copied_untouched(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        sources = {c.cid: c for c in prog}
        for clause in out:
            assert clause.constraint == sources[clause.origin].constraint
            assert clause.head.args == sources[clause.origin].head.args

    def test_predicate_state_naming(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        for clause in out:
            for atom in [clause.head, *clause.body]:
                assert atom.pred == FALSE_PRED or "__q" in atom.pred

    def test_false_only_at_accepting_states(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        heads = {c.head.pred for c in out}
        assert FALSE_PRED in heads
        for clause in out:
            for atom in clause.body:
                assert atom.pred != FALSE_PRED

    def test_useless_predicates_dropped(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        # every predicate must reach a derivation of false
        useful = {FALSE_PRED}
        changed = True
        while changed:
            changed = False
            for c in out:
                if c.head.pred in useful:
                    for a in c.body:
                        if a.pred not in useful:
                            useful.add(a.pred)
                            changed = True
        assert {c.head.pred for c in out} <= useful

    @pytest.mark.parametrize("removed", ["c3(c1)", "c3(c2(c1,c1))", "c2(c1,c1)"])
    def test_arities_are_the_collected_ones(self, removed):
        # generate_clauses hands Program its arity map; it must be the
        # one Program would collect from the clauses, in the same order
        prog, aut = fib_minus(removed)
        out = generate_clauses(prog, aut)
        assert list(out.arities.items()) == list(_collect_arities(out.clauses).items())
        assert out.arities

    @pytest.mark.parametrize("removed", ["c3(c1)", "c3(c2(c1,c1))"])
    def test_language_is_difference(self, removed):
        # erased traces of the product are the kept traces of the source
        prog, aut = fib_minus(removed)
        out = generate_clauses(prog, aut)
        source = {c.cid: c.origin for c in out}
        got = {erase_trace(source, t) for t in enumerate_terms(trace_fta(out), 4)}
        want = enumerate_terms(trace_fta(parse_program(FIB)), 4) - {T(removed)}
        assert got == want

    def test_interpolant_automaton_removal(self):
        # removing the induced language erases the spurious trace and
        # everything sharing its proof, while feasible traces survive
        prog = parse_program(UNSAFE_LOOP)
        spurious = T("c3(c2(c1))")
        tree = and_tree(prog, spurious)
        ia = interpolant_automaton(prog, tree, tree_interpolant(tree))
        kept = determinise(difference(trace_fta(prog), ia))
        out = generate_clauses(prog, kept)
        source = {c.cid: c.origin for c in out}
        erased = {erase_trace(source, t) for t in enumerate_terms(trace_fta(out), 5)}
        assert spurious not in erased
        real = T("c3(c2(c2(c2(c1))))")
        assert real in erased
        assert feasible(prog, real) is not None


class TestOriginTracking:
    def test_origin_map_covers_all_clauses(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        om = {c.cid: c.origin for c in out}
        assert set(om.keys()) == set(out.clause_ids())
        assert set(om.values()) <= set(prog.clause_ids())

    def test_origin_lines_format(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        lines = origin_lines(out).splitlines()
        assert len(lines) == len(out.clauses)
        for line in lines:
            cid, _, origin = line.partition("=")
            assert {c.cid: c.origin for c in out}[cid] == origin

    def test_erase_trace_maps_symbols(self):
        prog, aut = fib_minus("c3(c1)")
        out = generate_clauses(prog, aut)
        t = enumerate_terms(trace_fta(out), 4).pop()
        om = {c.cid: c.origin for c in out}
        erased = erase_trace(om, t)

        def check(orig: TraceTerm, mapped: TraceTerm):
            assert om[orig.sym] == mapped.sym
            assert len(orig.children) == len(mapped.children)
            for o, m in zip(orig.children, mapped.children):
                check(o, m)

        check(t, erased)

    def test_source_program_has_no_origins(self):
        prog = parse_program(FIB)
        assert {c.cid: c.origin for c in prog} == dict.fromkeys(prog.clause_ids())
        assert origin_lines(prog) == ""

    @pytest.mark.parametrize("text", [FIB, GOPAN_REPS], ids=["fib", "gopan_reps"])
    def test_erase_through_composed_map(self, text):
        # three rounds, each removing the first trace of the last
        # program; the map is composed as verify composes it
        programs = [parse_program(text)]
        source = {}
        for _ in range(3):
            current = programs[-1]
            removed = min(enumerate_terms(trace_fta(current), 4), key=str)
            kept = determinise(difference(trace_fta(current), singleton_fta(removed)))
            programs.append(generate_clauses(current, kept))
            source = {c.cid: source.get(c.origin, c.origin) for c in programs[-1]}
        assert set(source.values()) <= set(programs[0].clause_ids())
        traces = enumerate_terms(trace_fta(programs[-1]), 4)
        assert traces
        for t in traces:
            folded = t
            for generated in reversed(programs[1:]):
                folded = erase_trace_reference(generated, folded)
            assert erase_trace(source, t) == folded


def test_generated_predicate_names_are_shared(monkeypatch):
    # each round's names extend the last round's by a state suffix; the
    # atoms that name one predicate hold one string, not a copy each
    programs = []
    real = refinement.generate_clauses

    def recording(program, automaton):
        programs.append(real(program, automaton))
        return programs[-1]

    monkeypatch.setattr(refinement, "generate_clauses", recording)
    v = verify(parse_program(doubling(8)), engine="rahit", max_iter=30)
    assert v.status == "unsafe"
    last = programs[-1]
    assert len(last.clauses) == 123
    atoms = [a for c in last for a in (c.head, *c.body)]
    names = {a.pred for a in atoms}
    assert len({id(a.pred) for a in atoms}) == len(names)
