"""Tree automata: constructions, determinisation, difference, emptiness."""

import pickle
import random
from pathlib import Path

import pytest

import hornsafe.driver as driver
import hornsafe.fta as fta
from hornsafe.absint import analyze
from hornsafe.chc_core import FALSE_PRED, parse_program
from hornsafe.driver import ENGINES, verify
from hornsafe.fta import (
    AutomatonError,
    TraceTerm,
    TreeAutomaton,
    difference,
    find_accepted,
    model_fta,
    singleton_fta,
)
from hornsafe.model import InterpretationModel
from hornsafe.refinement import erase_trace, generate_clauses
from gen import random_automaton, random_trace_term
from oracles import (
    accepts,
    all_terms,
    determinise,
    difference_reference,
    enumerate_terms,
    erase_trace_reference,
    feasible,
    least_accepted,
    load_model,
    model_fta_reference,
    parse_trace,
    preorder_reference,
    term_depth,
    trace_fta,
)
from programs import COUNT_UP, FIB, FIB_MODEL, SPLIT_RANGE, UNSAFE_LOOP, UNSAFE_SIMPLE

T = parse_trace

CORPUS = [FIB, UNSAFE_SIMPLE, SPLIT_RANGE, COUNT_UP, UNSAFE_LOOP]
CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"


class TestTraceTerm:
    def test_round_trip(self):
        t = T("c3(c2(c1,c1))")
        assert t.pretty() == "c3(c2(c1,c1))"
        assert str(t) == t.pretty()
        assert term_depth(t) == 3

    def test_nullary(self):
        assert T("c1") == TraceTerm("c1")
        assert term_depth(T("c1")) == 1

    def test_whitespace(self):
        assert T(" c3 ( c1 ) ") == T("c3(c1)")

    def test_structural_equality(self):
        assert T("c2(c1,c1)") == T("c2(c1,c1)")
        assert hash(T("c2(c1,c1)")) == hash(T("c2(c1,c1)"))

    @staticmethod
    def chain(depth: int, leaf: str = "c1") -> TraceTerm:
        t = TraceTerm(leaf)
        for _ in range(depth):
            t = TraceTerm("c2", (t,))
        return t

    def test_deep_terms_compare_and_hash_without_recursion(self):
        # built separately, so no subterm object is shared
        a, b = self.chain(5000), self.chain(5000)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        other = self.chain(5000, leaf="c3")
        assert a != other
        assert not a == other
        assert hash(other) == hash(self.chain(5000, leaf="c3"))

    def test_kept_hash_is_not_pickled(self):
        # a string hashes differently in another process
        t = T("c3(c2(c1,c1))")
        hash(t)
        copy = pickle.loads(pickle.dumps(t))
        assert "_hash" not in copy.__dict__
        assert copy == t and hash(copy) == hash(t)

    def test_repr_is_the_dataclass_text(self):
        leaf = "TraceTerm(sym='c1', children=())"
        assert repr(T("c1")) == leaf
        assert repr(T("c3(c1)")) == f"TraceTerm(sym='c3', children=({leaf},))"
        assert repr(T("c2(c1,c1)")) == f"TraceTerm(sym='c2', children=({leaf}, {leaf}))"
        t = T("c5(c1,c2(c3),c4(c1,c1,c1))")
        assert eval(repr(t), {"TraceTerm": TraceTerm}) == t

    def test_deep_terms_print_and_pickle_without_recursion(self):
        t = self.chain(5000)
        text = repr(t)
        assert text.count("TraceTerm(") == 5001
        assert text.endswith("children=())" + ",))" * 5000)
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t and copy.pretty() == t.pretty()

    def test_pickle_keeps_shape_and_order(self):
        shared = T("c2(c1,c3)")
        t = TraceTerm("c5", (shared, T("c4"), shared, TraceTerm("c6", (shared,))))
        copy = pickle.loads(pickle.dumps(t))
        assert copy == t
        assert copy.pretty() == "c5(c2(c1,c3),c4,c2(c1,c3),c6(c2(c1,c3)))"

    @pytest.mark.parametrize("bad", ["", "c3(c1", "c3(c1))", "(", "c3()"])
    def test_parse_errors(self, bad):
        with pytest.raises(AutomatonError):
            T(bad)

    @staticmethod
    def random_terms(seed: int, count: int = 60) -> list[TraceTerm]:
        rng = random.Random(seed)
        return [
            random_trace_term(rng, ["c1", "c2", "c3"], nodes=rng.randint(1, 14))
            for _ in range(count)
        ]

    @staticmethod
    def listed(listing) -> list[tuple[int, int, int]]:
        # the subterm objects themselves, not terms equal to them
        return [(id(t), parent, slot) for t, parent, slot in listing]

    def test_preorder_matches_reference(self):
        terms = self.random_terms(31)
        # some terms list one subterm object at several occurrences
        assert any(len(t.preorder()) > len({id(s) for s, _, _ in t.preorder()}) for t in terms)
        for t in terms:
            assert self.listed(t.preorder()) == self.listed(preorder_reference(t))
            assert t.shape() == tuple((s.sym, len(s.children)) for s, _, _ in preorder_reference(t))

    def test_from_shape_rebuilds_the_term(self):
        for t in self.random_terms(32):
            copy = TraceTerm.from_shape(t.shape())
            assert copy == t and copy.pretty() == t.pretty()
            assert copy.shape() == t.shape()

    def test_equal_exactly_when_shapes_are(self):
        # pairs drawn from two lists built from one seed: equal terms
        # that share no object, and unequal ones
        left, right = self.random_terms(33), self.random_terms(33)
        rng = random.Random(34)
        pairs = list(zip(left, right)) + [(rng.choice(left), rng.choice(right)) for _ in range(200)]
        assert any(a == b for a, b in pairs[60:]) and any(a != b for a, b in pairs)
        for a, b in pairs:
            assert (a == b) == (a.shape() == b.shape()) == (a.pretty() == b.pretty())
            assert (a != b) == (a.shape() != b.shape())
            if a == b:
                assert hash(a) == hash(b)

    @staticmethod
    def generated():
        # FIB without one trace: its clauses renumbered, several per
        # source clause
        prog = parse_program(FIB)
        return generate_clauses(
            prog, determinise(difference(trace_fta(prog), singleton_fta(T("c3(c1)"))))
        )

    def test_erase_trace_matches_reference(self):
        out = self.generated()
        assert any(c.cid != c.origin for c in out)
        rng = random.Random(35)
        # the generated ids and one that is not a clause of out
        symbols = [c.cid for c in out] + ["c99"]
        source = {c.cid: c.origin for c in out}
        for _ in range(60):
            t = random_trace_term(rng, symbols, nodes=rng.randint(1, 14))
            erased = erase_trace(source, t)
            assert erased == erase_trace_reference(out, t)
            assert erased.pretty() == erase_trace_reference(out, t).pretty()

    def test_deep_chain_listing(self):
        t = self.chain(5000)
        listing = t.preorder()
        assert len(listing) == 5001
        assert listing[0] == (t, -1, 0) and listing[0][0] is t
        for i, (s, parent, slot) in enumerate(listing[1:], 1):
            assert s is listing[i - 1][0].children[0]
            assert (parent, slot) == (i - 1, 0)
        assert t.shape() == (("c2", 1),) * 5000 + (("c1", 0),)
        assert TraceTerm.from_shape(t.shape()) == t
        out = self.generated()
        cid = next(c.cid for c in out if c.cid != c.origin)
        origin = out.clause_by_id(cid).origin
        source = {c.cid: c.origin for c in out}
        erased = erase_trace(source, TraceTerm.from_shape(((cid, 1),) * 5000 + (("c9", 0),)))
        assert erased.shape() == ((origin, 1),) * 5000 + (("c9", 0),)


class TestTreeAutomaton:
    def good(self):
        return TreeAutomaton(
            frozenset({"q"}),
            frozenset({"q"}),
            {"a": 0, "b": 1},
            frozenset({("a", (), "q"), ("b", ("q",), "q")}),
        )

    def test_final_must_be_state(self):
        with pytest.raises(AutomatonError):
            TreeAutomaton(frozenset({"q"}), frozenset({"r"}), {}, frozenset())

    def test_unknown_symbol(self):
        with pytest.raises(AutomatonError):
            TreeAutomaton(
                frozenset({"q"}), frozenset(), {}, frozenset({("a", (), "q")})
            )

    def test_arity_mismatch(self):
        with pytest.raises(AutomatonError):
            TreeAutomaton(
                frozenset({"q"}),
                frozenset(),
                {"a": 2},
                frozenset({("a", ("q",), "q")}),
            )

    def test_unknown_state_in_transition(self):
        with pytest.raises(AutomatonError):
            TreeAutomaton(
                frozenset({"q"}),
                frozenset(),
                {"b": 1},
                frozenset({("b", ("r",), "q")}),
            )

    def test_is_deterministic(self):
        assert self.good().is_deterministic()
        a = TreeAutomaton(
            frozenset({"q", "r"}),
            frozenset(),
            {"a": 0},
            frozenset({("a", (), "q"), ("a", (), "r")}),
        )
        assert not a.is_deterministic()

    def test_dump(self):
        assert self.good().dump() == "finals: q\na -> q\nb(q) -> q\n"


class TestTraceFta:
    def test_fib_shape(self):
        a = trace_fta(parse_program(FIB))
        assert a.states == {"fib", FALSE_PRED}
        assert a.finals == {FALSE_PRED}
        assert a.alphabet == {"c1": 0, "c2": 2, "c3": 1}
        assert a.transitions == {
            ("c1", (), "fib"),
            ("c2", ("fib", "fib"), "fib"),
            ("c3", ("fib",), FALSE_PRED),
        }

    def test_fib_shallow_traces(self):
        a = trace_fta(parse_program(FIB))
        assert enumerate_terms(a, 3) == {T("c3(c1)"), T("c3(c2(c1,c1))")}


class TestSingletonFta:
    def test_preorder_numbering(self):
        a = singleton_fta(T("c3(c2(c1,c1))"))
        assert a.states == {"e1", "e2", "e3", "e4"}
        assert a.finals == {"e1"}
        assert a.transitions == {
            ("c3", ("e2",), "e1"),
            ("c2", ("e3", "e4"), "e2"),
            ("c1", (), "e3"),
            ("c1", (), "e4"),
        }

    def test_language_is_singleton(self):
        t = T("c3(c2(c1,c1))")
        assert enumerate_terms(singleton_fta(t), term_depth(t) + 2) == {t}

    def test_arity_conflict(self):
        with pytest.raises(AutomatonError):
            singleton_fta(T("c1(c1)"))


class TestModelFta:
    def test_fib_model_drops_integrity_transition(self):
        prog = parse_program(FIB)
        a = model_fta(prog, load_model(FIB_MODEL))
        assert a.transitions == {
            ("c1", (), "fib"),
            ("c2", ("fib", "fib"), "fib"),
        }

    def test_empty_model_keeps_only_ground_facts(self):
        prog = parse_program(UNSAFE_SIMPLE)
        a = model_fta(prog, InterpretationModel())
        assert a.transitions == {("c1", (), "p")}

    @pytest.mark.parametrize("text", CORPUS)
    def test_feasible_traces_survive_filtering(self, text):
        # filtering by any analysis result may only cut infeasible traces
        prog = parse_program(text)
        filtered = model_fta(prog, analyze(prog))
        for t in enumerate_terms(trace_fta(prog), 4):
            if feasible(prog, t) is not None:
                assert accepts(filtered, t), f"feasible trace {t} lost"

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.chc")), ids=lambda p: p.stem
    )
    def test_corpus_models_match_satisfiability_filter(self, monkeypatch, path, engine):
        # an empty clause post is exactly an unsatisfiable interpreted
        # body, on every model the refinement loop builds, asked inside
        # verify where the posts come from its memo
        built = []
        real = driver.analyze

        def checking_analyze(program, widen_delay):
            model = real(program, widen_delay)
            built.append((model_fta(program, model), model_fta_reference(program, model)))
            return model

        monkeypatch.setattr(driver, "analyze", checking_analyze)
        verify(parse_program(path.read_text()), engine=engine)
        assert built
        for got, want in built:
            assert got == want


class TestDeterminise:
    def test_subset_state_names(self):
        a = TreeAutomaton(
            frozenset({"q1", "q2"}),
            frozenset({"q2"}),
            {"a": 0, "b": 1},
            frozenset({("a", (), "q1"), ("a", (), "q2"), ("b", ("q1",), "q2")}),
        )
        d = determinise(a)
        assert d.states == {"{q1,q2}", "{q2}"}
        assert d.finals == {"{q1,q2}", "{q2}"}
        assert d.is_deterministic()

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus_language_preserved(self, text):
        a = trace_fta(parse_program(text))
        d = determinise(a)
        assert d.is_deterministic()
        assert enumerate_terms(d, 4) == enumerate_terms(a, 4)

    def test_random_language_preserved(self):
        rng = random.Random(20)
        for _ in range(30):
            a = random_automaton(rng)
            d = determinise(a)
            assert d.is_deterministic()
            for t in all_terms(a.alphabet, 3):
                assert accepts(a, t) == accepts(d, t)


class TestDifference:
    def test_removes_exactly_one_trace(self):
        a = trace_fta(parse_program(FIB))
        t = T("c3(c1)")
        diff = difference(a, singleton_fta(t))
        assert enumerate_terms(diff, 4) == enumerate_terms(a, 4) - {t}

    def test_random_set_difference(self):
        rng = random.Random(21)
        for _ in range(25):
            a = random_automaton(rng)
            b = random_automaton(rng, alphabet=dict(a.alphabet))
            diff = difference(a, b)
            for t in all_terms(a.alphabet, 3):
                assert accepts(diff, t) == (accepts(a, t) and not accepts(b, t))

    def test_alphabet_arity_clash(self):
        a = trace_fta(parse_program(FIB))
        b = TreeAutomaton(
            frozenset({"q"}), frozenset(), {"c2": 1}, frozenset({("c2", ("q",), "q")})
        )
        with pytest.raises(AutomatonError):
            difference(a, b)


class TestDifferenceOfDeterministic:
    """The refinement loop hands difference(a, b) to clause generation
    as it stands: with a deterministic, the product is deterministic
    already, and determinising it only renames each state S to {S}."""

    @staticmethod
    def check(a, b):
        assert a.is_deterministic()
        diff = difference(a, b)
        assert diff.is_deterministic()
        d = determinise(diff)
        assert len(d.states) == len(diff.states)
        assert len(d.transitions) == len(diff.transitions)
        braced = {q: "{" + q + "}" for q in diff.states}
        assert d.finals == {braced[q] for q in diff.finals}
        assert d.transitions == {
            (sym, tuple(braced[q] for q in args), braced[target])
            for sym, args, target in diff.transitions
        }
        # clause generation numbers states in sorted order
        assert [braced[q] for q in sorted(diff.states)] == sorted(d.states)

    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.chc")), ids=lambda p: p.stem
    )
    def test_corpus_trace_automata(self, path):
        prog = parse_program(path.read_text())
        a = trace_fta(prog)
        self.check(a, singleton_fta(find_accepted(a)))
        rng = random.Random(25)
        for _ in range(5):
            self.check(a, random_automaton(rng, alphabet=dict(a.alphabet)))

    def test_random_deterministic(self):
        rng = random.Random(26)
        nontrivial = 0
        for _ in range(100):
            a = random_automaton(rng, deterministic=True, symbols=4)
            b = random_automaton(rng, alphabet=dict(a.alphabet))
            self.check(a, b)
            nontrivial += len(difference(a, b).transitions) >= 3
        assert nontrivial >= 10


class TestDifferenceMatchesReference:
    """difference builds only the remover subsets its product reaches;
    the result must be exactly the product with the whole completed
    determinisation, state for state and transition for transition."""

    @staticmethod
    def check(a, b):
        got = difference(a, b)
        want = difference_reference(a, b)
        assert got.states == want.states
        assert got.finals == want.finals
        assert got.transitions == want.transitions
        assert got == want

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.chc")), ids=lambda p: p.stem
    )
    def test_corpus_removers(self, monkeypatch, path, engine):
        # every remover the refinement loop builds, against the trace
        # automaton of the program it refines and its model automaton
        traced = []
        pairs = []
        real_model_fta, real_difference = fta.model_fta, fta.difference

        def recording_model_fta(program, model):
            traced.append(trace_fta(program))
            return real_model_fta(program, model)

        def recording_difference(a, b):
            pairs.append((traced[-1], a, b))
            return real_difference(a, b)

        monkeypatch.setattr(fta, "model_fta", recording_model_fta)
        monkeypatch.setattr(fta, "difference", recording_difference)
        verify(parse_program(path.read_text()), engine=engine)
        for full, mfta, remover in pairs:
            self.check(full, remover)
            self.check(mfta, remover)

    def test_random_nondeterministic(self):
        rng = random.Random(27)
        nondeterministic_removers = 0
        for _ in range(200):
            a = random_automaton(rng, max_states=5)
            b = random_automaton(rng, max_states=5, alphabet=dict(a.alphabet))
            for x, y in ((a, b), (b, a)):
                self.check(x, y)
                nondeterministic_removers += not y.is_deterministic()
        assert nondeterministic_removers >= 100, nondeterministic_removers


class TestFindAccepted:
    def test_fib_minimal_counterexample(self):
        assert find_accepted(trace_fta(parse_program(FIB))) == T("c3(c1)")

    def test_empty_language(self):
        prog = parse_program(FIB)
        a = model_fta(prog, load_model(FIB_MODEL))
        assert find_accepted(a) is None

    def test_smallest_symbol_wins_ties(self):
        a = TreeAutomaton(
            frozenset({"f", "q"}),
            frozenset({"f"}),
            {"c1": 0, "c2": 0, "c3": 2},
            frozenset(
                {
                    ("c1", (), "q"),
                    ("c2", (), "q"),
                    ("c3", ("q", "q"), "f"),
                }
            ),
        )
        assert find_accepted(a) == T("c3(c1,c1)")

    def test_agrees_with_enumeration(self):
        rng = random.Random(22)
        for _ in range(40):
            a = random_automaton(rng)
            r = find_accepted(a)
            if r is None:
                assert enumerate_terms(a, 4) == set()
            else:
                assert accepts(a, r)
                assert r not in enumerate_terms(a, term_depth(r) - 1)
                assert r in enumerate_terms(a, term_depth(r))

    def test_reproducible(self):
        rng = random.Random(23)
        for _ in range(10):
            a = random_automaton(rng)
            assert find_accepted(a) == find_accepted(a)

    @pytest.mark.parametrize("links", [100, 3000])
    def test_deep_ties_are_broken_without_recursion(self, links):
        # two chains of s over the leaves x and y into one final state:
        # both reach it at one depth with one symbol, so the tie goes
        # to x, the leaf listed first, links nodes down
        transitions = {("x", (), "a0"), ("y", (), "b0")}
        for i in range(1, links):
            transitions |= {("s", (f"a{i - 1}",), f"a{i}"), ("s", (f"b{i - 1}",), f"b{i}")}
        transitions |= {("s", (f"a{links - 1}",), "f"), ("s", (f"b{links - 1}",), "f")}
        states = {q for _, args, target in transitions for q in (*args, target)}
        a = TreeAutomaton(
            frozenset(states), frozenset({"f"}), {"x": 0, "y": 0, "s": 1}, frozenset(transitions)
        )
        assert find_accepted(a) == TraceTerm.from_shape((("s", 1),) * links + (("x", 0),))


class TestFindAcceptedOracle:
    """find_accepted against oracles.least_accepted, which reads the
    least term off the enumerated language."""

    @pytest.mark.parametrize("max_arity, depth", [(1, 4), (2, 3)])
    def test_random_automata(self, max_arity, depth):
        rng = random.Random(31)
        found = reordered = 0
        for _ in range(300):
            # the generated alphabet a0, a1, ... lists the symbols by name
            a = random_automaton(rng, max_states=5, max_arity=max_arity, symbols=5)
            syms = list(a.alphabet)
            rng.shuffle(syms)
            shuffled = TreeAutomaton(
                a.states, a.finals, {s: a.alphabet[s] for s in syms}, a.transitions
            )
            answers = []
            for b in (a, shuffled):
                got = find_accepted(b)
                expect = least_accepted(b, depth)
                if got is not None and term_depth(got) > depth:
                    assert expect is None
                else:
                    assert got == expect
                answers.append(got)
            found += answers[0] is not None
            # the alphabet's order, not the symbols' names, ranks them
            reordered += answers[0] != answers[1]
        assert found >= 120, found
        assert reordered >= 20, reordered

    def test_subterms_are_least_at_their_states(self):
        # q1's least term is a2, but its deeper a1(a0,a0) has the smaller
        # key; the least term of f reads q1's least term all the same
        a = TreeAutomaton(
            frozenset({"s", "q1", "q2", "f"}),
            frozenset({"f"}),
            {"a0": 0, "a1": 2, "a2": 0},
            frozenset(
                {
                    ("a0", (), "s"),
                    ("a2", (), "q1"),
                    ("a1", ("s", "s"), "q1"),
                    ("a1", ("s", "s"), "q2"),
                    ("a1", ("q1", "q2"), "f"),
                }
            ),
        )
        assert find_accepted(a) == least_accepted(a, 4) == T("a1(a2,a1(a0,a0))")

    def test_first_of_equal_keys_wins(self):
        # p and r both have the least term a0, so a1(p,p) and a1(p,r)
        # reach f with equal keys.  The first of them in a.transitions
        # builds f's term: one a0 object read twice for a1(p,p), two for
        # a1(p,r).  singleton_fta names nodes by object, so this decides
        # the rahft remover's states.
        a = TreeAutomaton(
            frozenset({"p", "r", "f"}),
            frozenset({"f"}),
            {"a0": 0, "a1": 2},
            frozenset(
                {
                    ("a0", (), "p"),
                    ("a0", (), "r"),
                    ("a1", ("p", "p"), "f"),
                    ("a1", ("p", "r"), "f"),
                }
            ),
        )
        first = next(args for _, args, target in a.transitions if target == "f")
        got = find_accepted(a)
        assert got == T("a1(a0,a0)")
        assert (got.children[0] is got.children[1]) == (first == ("p", "p"))


class TestEnumerate:
    def test_depth_zero_empty(self):
        a = trace_fta(parse_program(FIB))
        assert enumerate_terms(a, 0) == set()

    def test_bound_refused(self):
        deep = T("b(b(b(b(b(b(a))))))")
        a = singleton_fta(deep)
        with pytest.raises(AutomatonError):
            enumerate_terms(a, 7)
        assert enumerate_terms(a, 7, bound=7) == {deep}

    def test_monotone_in_depth(self):
        a = trace_fta(parse_program(UNSAFE_LOOP))
        assert enumerate_terms(a, 2) <= enumerate_terms(a, 3) <= enumerate_terms(a, 4)

    def test_matches_direct_evaluation(self):
        rng = random.Random(24)
        for _ in range(30):
            a = random_automaton(rng)
            expect = {t for t in all_terms(a.alphabet, 3) if accepts(a, t)}
            assert enumerate_terms(a, 3) == expect
