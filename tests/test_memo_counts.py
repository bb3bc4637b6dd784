"""The memo's hit and miss counts on every corpus program under both
engines, pinned.  A memo key that told fewer calls apart would lose
hits here, and one that told more apart would merge misses.  A program
that reaches a trace also counts the posts derivations.feasible looks
up for it.  The counts do not depend on the hash seed, so CI runs this
again under fixed seeds."""

from __future__ import annotations

from pathlib import Path

import pytest

from hornsafe.chc_core import parse_program
from hornsafe.driver import ENGINES, verify

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

# <program>.<engine>: {step: (hits, misses)}
EXPECTED = {
    "count_up.rahit": {"hull": (0, 3), "clause_post": (3, 6)},
    "count_up.rahft": {"hull": (0, 3), "clause_post": (3, 6)},
    "doubling.rahit": {"hull": (5, 27), "clause_post": (103, 43)},
    "doubling.rahft": {"hull": (15, 27), "clause_post": (186, 52)},
    "decrement.rahit": {"hull": (0, 1), "clause_post": (3, 3)},
    "decrement.rahft": {"hull": (0, 1), "clause_post": (3, 3)},
    "fib.rahit": {"hull": (0, 3), "clause_post": (3, 6)},
    "fib.rahft": {"hull": (0, 3), "clause_post": (3, 6)},
    "split_range.rahit": {"hull": (1, 3), "clause_post": (13, 7)},
    "split_range.rahft": {"hull": (60, 3), "clause_post": (1016, 8)},
    "tri_sum.rahit": {"hull": (0, 30), "clause_post": (299, 67)},
    "tri_sum.rahft": {"hull": (0, 30), "clause_post": (299, 67)},
    "unsafe_loop.rahit": {"hull": (0, 12), "clause_post": (55, 25)},
    "unsafe_loop.rahft": {"hull": (0, 12), "clause_post": (55, 25)},
    "unsafe_simple.rahit": {"hull": (0, 0), "clause_post": (6, 2)},
    "unsafe_simple.rahft": {"hull": (0, 0), "clause_post": (6, 2)},
}


def test_every_corpus_run_is_pinned():
    runs = {f"{path.stem}.{engine}" for path in CORPUS.glob("*.chc") for engine in ENGINES}
    assert set(EXPECTED) == runs


@pytest.mark.parametrize("run", EXPECTED)
def test_memo_counts(run):
    stem, engine = run.split(".")
    verdict = verify(parse_program((CORPUS / f"{stem}.chc").read_text()), engine=engine)
    counts = {op: (c["hits"], c["misses"]) for op, c in verdict.stats.memo.items()}
    assert counts == EXPECTED[run]
