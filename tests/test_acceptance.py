"""Acceptance run: the golden examples and the randomised property
suites, one printed verdict line per criterion.

Collected by pytest in numeric order; `python3 tests/test_acceptance.py`
prints the bare report without the test harness.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import sys
import time
from pathlib import Path

import oracles
from oracles import (
    check_tree_interpolant,
    conjunctive_mapping,
    determinise,
    enumerate_terms,
    feasible,
    model_predicates,
    parse_trace,
    term_depth,
    trace_fta,
)
from gen import random_automaton, random_constraint, random_program_text
from programs import (
    COUNT_UP,
    DECREMENT,
    FIB,
    SPLIT_RANGE,
    UNSAFE_LOOP,
    UNSAFE_SIMPLE,
)

from hornsafe.absint import analyze
from hornsafe.chc_core import FALSE, FALSE_PRED, REL_EQ, LinConstraint, Row, parse_constraint, parse_program
from hornsafe.cli import main as cli_main
from hornsafe.derivations import and_tree, formula
from hornsafe.driver import verify
from hornsafe.fta import (
    difference,
    find_accepted,
    model_fta,
    singleton_fta,
)
from hornsafe.lra import is_sat, kernel
from hornsafe.lra.solver import _dense
from hornsafe.model import is_model
from hornsafe.refinement import erase_trace, generate_clauses
from hornsafe.tree_interpolation import (
    ERROR_STATE,
    interpolant_automaton,
    tree_interpolant,
)
from test_tree_interpolation import handwritten_fib_labels

T = parse_trace
FIB_TRACE = T("c3(c2(c1,c1))")
FIB_CHC = Path(__file__).resolve().parents[1] / "corpus" / "fib.chc"

CORPUS = {
    "fib": FIB,
    "split_range": SPLIT_RANGE,
    "decrement": DECREMENT,
    "count_up": COUNT_UP,
    "unsafe_simple": UNSAFE_SIMPLE,
    "unsafe_loop": UNSAFE_LOOP,
}


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {label}")
                raise
            print(f"[PASS] criterion {num:2d}: {label}")

        return run

    return wrap


def first_refuted(text: str):
    """The program/trace pair at the first refuted counterexample, or
    None when the pipeline decides without ever refuting one."""
    prog = parse_program(text)
    model = analyze(prog)
    if not model.has_false:
        return None
    trace = find_accepted(model_fta(prog, model))
    if trace is None or feasible(prog, trace) is not None:
        return None
    return prog, trace


def refinement_steps(text: str, engine: str, limit: int):
    """Replay the refinement loop, recording one (refined program,
    kept automaton, regenerated program) triple per step."""
    current = parse_program(text)
    steps = []
    for _ in range(limit):
        model = analyze(current)
        if not model.has_false:
            break
        mfta = model_fta(current, model)
        trace = find_accepted(mfta)
        if trace is None or feasible(current, trace) is not None:
            break
        tree = and_tree(current, trace)
        if engine == "rahft":
            remover = singleton_fta(trace)
        else:
            remover = interpolant_automaton(
                current, tree, tree_interpolant(tree)
            )
        kept = determinise(difference(mfta, remover))
        nxt = generate_clauses(current, kept)
        steps.append((current, kept, nxt))
        current = nxt
    return steps


@functools.lru_cache(maxsize=1)
def random_infeasible_instances():
    """200 random infeasible derivations of at most 8 nodes, as
    (program, trace) pairs."""
    rng = random.Random(2026)
    found = []
    guard = 0
    while len(found) < 200:
        guard += 1
        assert guard < 2000, "generator starved"
        prog = parse_program(random_program_text(rng))
        for t in sorted(enumerate_terms(trace_fta(prog), 4), key=str):
            tree = and_tree(prog, t)
            if len(tree) <= 8 and is_sat(formula(tree)) is None:
                found.append((prog, t))
                if len(found) == 200:
                    break
    return tuple(found)


@criterion(1, "fib safe with no refinement under both engines")
def test_criterion_01_fib_safe_without_refinement():
    prog = parse_program(FIB)
    start = time.perf_counter()
    for engine in ("rahit", "rahft"):
        v = verify(prog, engine=engine)
        assert v.status == "safe", engine
        assert v.stats.iterations == 0, engine
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["verify", str(FIB_CHC)]) == 0
    elapsed = time.perf_counter() - start
    model = analyze(prog)
    assert not model.has_false
    assert "fib" in model_predicates(model)
    assert is_model(prog, model)
    assert elapsed < 5.0, f"{elapsed:.1f}s"


@criterion(2, "fib trace automaton golden")
def test_criterion_02_fib_trace_automaton_golden():
    a = trace_fta(parse_program(FIB))
    assert a.states == {"fib", FALSE_PRED}
    assert a.finals == {FALSE_PRED}
    assert a.transitions == {
        ("c1", (), "fib"),
        ("c2", ("fib", "fib"), "fib"),
        ("c3", ("fib",), FALSE_PRED),
    }


@criterion(3, "candidate-trace singleton automaton golden")
def test_criterion_03_singleton_automaton_golden():
    a = singleton_fta(FIB_TRACE)
    assert a.states == {"e1", "e2", "e3", "e4"}
    assert a.finals == {"e1"}
    assert a.transitions == {
        ("c3", ("e2",), "e1"),
        ("c2", ("e3", "e4"), "e2"),
        ("c1", (), "e3"),
        ("c1", (), "e4"),
    }
    assert enumerate_terms(a, 3) == {FIB_TRACE}


@criterion(4, "depth-3 fib candidate infeasible")
def test_criterion_04_fib_candidate_infeasible():
    assert feasible(parse_program(FIB), FIB_TRACE) is None


@criterion(5, "tree interpolants valid on 200 random infeasible trees")
def test_criterion_05_tree_interpolant_validity():
    start = time.perf_counter()
    prog = parse_program(FIB)
    tree = and_tree(prog, FIB_TRACE)
    assert check_tree_interpolant(tree, tree_interpolant(tree))
    instances = random_infeasible_instances()
    assert len(instances) == 200
    for prog, t in instances:
        tree = and_tree(prog, t)
        assert check_tree_interpolant(tree, tree_interpolant(tree)), str(t)
    # spot-check the infeasibility classification against the
    # elimination oracle rather than the shipped solver
    for prog, t in instances[::10]:
        assert not oracles.fm_satisfiable(formula(and_tree(prog, t)))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s"


@criterion(6, "handwritten labelling reproduces the worked automaton")
def test_criterion_06_handwritten_labelling_automaton():
    prog = parse_program(FIB)
    tree = and_tree(prog, FIB_TRACE)
    ia = interpolant_automaton(prog, tree, handwritten_fib_labels())
    assert ia.states == {"fib^2", "fib^3", "fib^4", ERROR_STATE}
    assert ia.finals == {ERROR_STATE}
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


@criterion(7, "interpolant automaton languages all infeasible to depth 5")
def test_criterion_07_interpolant_languages_sound():
    contributing = 0
    for text in CORPUS.values():
        refuted = first_refuted(text)
        if refuted is None:
            continue
        contributing += 1
        prog, trace = refuted
        tree = and_tree(prog, trace)
        ia = interpolant_automaton(prog, tree, tree_interpolant(tree))
        terms = enumerate_terms(ia, 5)
        assert terms
        for t in sorted(terms, key=str):
            assert feasible(prog, t) is None, str(t)
    assert contributing >= 2


@criterion(8, "model mappings capture every infeasible trace to depth 4")
def test_criterion_08_model_mappings_complete():
    instances = []
    for text in CORPUS.values():
        prog = parse_program(text)
        for t in sorted(enumerate_terms(trace_fta(prog), 3), key=str):
            if feasible(prog, t) is None:
                instances.append((prog, t))
    instances.extend(random_infeasible_instances())

    models_seen = 0
    for prog, trace in instances:
        tree = and_tree(prog, trace)
        labels = tree_interpolant(tree)
        mapping = conjunctive_mapping(tree, labels)
        if not is_model(prog, mapping):
            continue
        # the mapping must speak for every derivable predicate:
        # a predicate absent from the interpolated tree has no
        # automaton state, so traces through it can never be
        # accepted even though bottom-completing it still yields
        # a model
        heads = {cl.head.pred for cl in prog.clauses} - {FALSE_PRED}
        if not heads <= model_predicates(mapping):
            continue
        models_seen += 1
        ia = interpolant_automaton(prog, tree, labels)
        for t in sorted(enumerate_terms(trace_fta(prog), 4), key=str):
            if feasible(prog, t) is None:
                assert oracles.accepts(ia, t), str(t)
    assert models_seen >= 1


@criterion(9, "automata identities on 100 random machines")
def test_criterion_09_automata_operation_identities():
    start = time.perf_counter()
    rng = random.Random(9)
    machines = []
    for _ in range(50):
        a = random_automaton(
            rng, max_states=6, symbols=4, max_transitions=10
        )
        b = random_automaton(
            rng, max_states=6, alphabet=a.alphabet, max_transitions=10
        )
        machines.extend([a, b])
        for x, y in ((a, b), (b, a)):
            got = enumerate_terms(difference(x, y), 4)
            assert got == enumerate_terms(x, 4) - enumerate_terms(y, 4)
    assert len(machines) == 100

    for a in machines:
        det = determinise(a)
        seen = {(sym, args) for sym, args, _ in det.transitions}
        assert len(seen) == len(det.transitions)
        assert enumerate_terms(det, 4) == enumerate_terms(a, 4)

        got = find_accepted(a)
        if got is None:
            assert enumerate_terms(a, 4) == set()
        else:
            assert oracles.accepts(a, got)
            if term_depth(got) <= 4:
                # minimal depth: nothing shallower is accepted
                assert enumerate_terms(a, term_depth(got) - 1) == set()
            else:
                assert enumerate_terms(a, 4) == set()
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"


@criterion(10, "solver agrees with elimination oracle; refutations valid")
def test_criterion_10_solver_oracle_agreement():
    rng = random.Random(10)
    disagreements = []
    for i in range(1000):
        c = random_constraint(rng)
        if (is_sat(c) is not None) != oracles.fm_satisfiable(c):
            disagreements.append((i, c.pretty()))
    assert disagreements == []

    # a ground conflict over no columns, each way round, and an equality
    # that ends below its bound: X =< -1 pivots X to -1, so X = 1 is
    # violated from below, which flips the multipliers' signs
    cases = [FALSE, LinConstraint((Row((), (), REL_EQ, 1, 1),)), parse_constraint("X =< -1, X = 1")]
    rng = random.Random(1010)
    unsat = sat = 0
    while unsat < 500:
        assert unsat + sat < 60000, "generator starved"
        phi1 = random_constraint(rng, max_vars=4, max_rows=5)
        phi2 = random_constraint(rng, max_vars=4, max_rows=5)
        both = phi1.conjoin(phi2)
        if oracles.fm_satisfiable(both):
            sat += 1
        else:
            unsat += 1
        cases.append(both)
    for c in cases:
        columns = sorted(c.vars())
        y = kernel.refutation(len(columns), _dense(c.rows, columns))
        if oracles.fm_satisfiable(c):
            assert y is None, c.pretty()
        else:
            assert y is not None and oracles.refutes(c, y), (c.pretty(), y)
    assert sat >= 200, sat


@criterion(11, "one trace generalises to three or more infeasible traces")
def test_criterion_11_single_trace_generalises():
    prog = parse_program(FIB)
    tree = and_tree(prog, FIB_TRACE)
    ia = interpolant_automaton(prog, tree, tree_interpolant(tree))
    lang = enumerate_terms(ia, 4)
    assert len(lang) >= 3
    for t in sorted(lang, key=str):
        assert feasible(prog, t) is None, str(t)


@criterion(12, "regenerated clauses erase exactly the kept language")
def test_criterion_12_regeneration_preserves_language():
    total = 0
    for text in CORPUS.values():
        for engine, limit in (("rahit", 8), ("rahft", 4)):
            for current, kept, out in refinement_steps(text, engine, limit):
                total += 1
                erased = {
                    erase_trace(out, t)
                    for t in enumerate_terms(trace_fta(out), 4)
                }
                want = enumerate_terms(kept, 4) & enumerate_terms(
                    trace_fta(current), 4
                )
                assert erased == want
    assert total >= 4


if __name__ == "__main__":
    failures = 0
    names = sorted(n for n in globals() if n.startswith("test_criterion_"))
    for name in names:
        try:
            globals()[name]()
        except BaseException as exc:
            failures += 1
            print(f"       {type(exc).__name__}: {exc}")
    sys.exit(1 if failures else 0)
