"""A verdict-level net that does not rest on the analysis.

Besides rahit and rahft, the corpus runs under a third engine that the
paper compares against: trace abstraction refinement with interpolant
tree automata and no abstract interpretation.  It is rahit with
absint.analyze replaced by oracles.top_analyze, which gives every
derivable predicate the top polyhedron.  The table pins each engine's
verdict and iteration count at --max-iter 20.  It reproduces the
paper's three-way claim: abstract interpretation is needed for fib, and
generalising a trace beyond itself for split_range.  An engine may
leave a program undecided, but two decided verdicts never differ.

The same three engines then run on seeded generated programs
(gen.random_program_text and gen.fib_k_text), each plain and after
strict_to_nonstrict.  Besides the verdict agreement, each verdict is
checked on its own: a SAFE program has no feasible trace up to depth 4,
and an UNSAFE witness satisfies every row of its trace's derivation
formula, evaluated exactly by oracles.satisfies rather than by the
solver that found it.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import hornsafe.driver as driver
from gen import fib_k_text, random_program_text
from hornsafe.chc_core import REL_LT, parse_program, strict_to_nonstrict
from hornsafe.derivations import and_tree, formula
from oracles import enumerate_terms, feasible, model_predicates, satisfies, top_analyze, trace_fta

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
ENGINES = ("rahit", "rahft", "ai-free")

# program: one (verdict, iterations) per engine, in ENGINES order
TABLE = {
    "count_up": (("safe", 0), ("safe", 0), ("safe", 1)),
    "decrement": (("safe", 0), ("safe", 0), ("safe", 1)),
    "doubling": (("unsafe", 3), ("unsafe", 4), ("unsafe", 3)),
    "fib": (("safe", 0), ("safe", 0), ("unknown", 20)),
    "split_range": (("safe", 1), ("unknown", 20), ("safe", 2)),
    "tri_sum": (("safe", 10), ("safe", 10), ("safe", 12)),
    "unsafe_loop": (("unsafe", 3), ("unsafe", 3), ("unsafe", 3)),
    "unsafe_simple": (("unsafe", 0), ("unsafe", 0), ("unsafe", 0)),
}


def _verify(program, engine: str, monkeypatch, max_iter: int = 20) -> driver.Verdict:
    if engine == "ai-free":
        with monkeypatch.context() as m:
            m.setattr(driver, "analyze", top_analyze)
            return driver.verify(program, engine="rahit", max_iter=max_iter)
    return driver.verify(program, engine=engine, max_iter=max_iter)


def _run(program, engine: str, monkeypatch) -> tuple[str, int]:
    verdict = _verify(program, engine, monkeypatch)
    return verdict.status, verdict.stats.iterations


def test_every_corpus_program_is_in_the_table():
    assert set(TABLE) == {path.stem for path in CORPUS.glob("*.chc")}


@pytest.mark.parametrize("stem", TABLE)
def test_verdicts(stem, monkeypatch):
    program = parse_program((CORPUS / f"{stem}.chc").read_text())
    got = tuple(_run(program, engine, monkeypatch) for engine in ENGINES)
    assert got == TABLE[stem]
    decided = {status for status, _ in got if status != "unknown"}
    assert len(decided) == 1


def test_top_analyze_reads_reachability_only():
    program = parse_program(
        "p(X) :- X = 1.\n"
        "q(X) :- X > 0, X < 0.\n"
        "r(X) :- X = Y + 1, q(Y).\n"
        "s(X) :- X = Y, p(Y).\n"
        "false :- X > 5, s(X).\n"
    )
    model = top_analyze(program)
    assert model_predicates(model) == {"p", "s", "false"}
    assert all(model.polyhedron(pred).is_top() for pred in model.entries)


def test_generated_programs(monkeypatch):
    # every 30th program is a Fibonacci with 1-3 calls; the AI-free
    # engine's iterations grow fast there, hence the low limit
    rng = random.Random(5)
    counts = {"safe": 0, "unsafe": 0, "strict witness": 0, "refined": 0}
    for i in range(300):
        text = fib_k_text(rng, rng.randint(1, 3)) if i % 30 == 0 else random_program_text(rng)
        plain = parse_program(text)
        for program in (plain, strict_to_nonstrict(plain)):
            statuses = set()
            for engine in ENGINES:
                verdict = _verify(program, engine, monkeypatch, max_iter=4)
                statuses.add(verdict.status)
                counts["refined"] += verdict.stats.iterations > 0
                if verdict.status == "unsafe":
                    phi = formula(and_tree(program, verdict.trace))
                    assert phi.vars() <= verdict.witness.keys(), text
                    assert satisfies(phi, verdict.witness), (text, verdict.witness)
                    counts["strict witness"] += any(row.rel == REL_LT for row in phi.rows)
            assert {"safe", "unsafe"} - statuses, text
            if "safe" in statuses:
                terms = enumerate_terms(trace_fta(program), 4)
                assert all(feasible(program, t) is None for t in terms), text
            for status in statuses & {"safe", "unsafe"}:
                counts[status] += 1
    # the net catches something only while the generator feeds it
    assert min(counts.values()) >= 100, counts
