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
"""

from __future__ import annotations

from pathlib import Path

import pytest

import hornsafe.driver as driver
from hornsafe.chc_core import parse_program
from oracles import top_analyze

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
ENGINES = ("rahit", "rahft", "ai-free")

# program: one (verdict, iterations) per engine, in ENGINES order
TABLE = {
    "count_up": (("safe", 0), ("safe", 0), ("safe", 1)),
    "decrement": (("safe", 0), ("safe", 0), ("safe", 1)),
    "fib": (("safe", 0), ("safe", 0), ("unknown", 20)),
    "split_range": (("safe", 1), ("unknown", 20), ("safe", 2)),
    "tri_sum": (("safe", 10), ("safe", 10), ("safe", 12)),
    "unsafe_loop": (("unsafe", 3), ("unsafe", 3), ("unsafe", 3)),
    "unsafe_simple": (("unsafe", 0), ("unsafe", 0), ("unsafe", 0)),
}


def _run(program, engine: str, monkeypatch) -> tuple[str, int]:
    if engine == "ai-free":
        with monkeypatch.context() as m:
            m.setattr(driver, "analyze", top_analyze)
            verdict = driver.verify(program, engine="rahit", max_iter=20)
    else:
        verdict = driver.verify(program, engine=engine, max_iter=20)
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
    assert model.predicates() == {"p", "s", "false"}
    assert all(model.polyhedron(pred).is_top() for pred in model)
