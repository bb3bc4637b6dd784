"""End-to-end goldens: the `hornsafe verify` report for every corpus
program under both engines, minus the `time[...]` lines.

A golden pins the verdict, the iteration count, the automata sizes of
every iteration, and for unsafe programs the counterexample trace and
the exact witness point.  Regenerate the files under tests/golden/ only
when a change is meant to alter what the verifier decides or prints:

    PYTHONPATH=src python3 tests/test_corpus_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from hornsafe.cli import main
from hornsafe.driver import ENGINES

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [(path, engine) for path in sorted(CORPUS.glob("*.chc")) for engine in ENGINES]


def render(path: Path, engine: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path), "--engine", engine])
    lines = [f"exit: {code}"]
    lines += [ln for ln in out.getvalue().splitlines() if not ln.startswith("time[")]
    return "\n".join(lines) + "\n"


def golden_path(path: Path, engine: str) -> Path:
    return GOLDEN / f"{path.stem}.{engine}.txt"


def test_every_corpus_program_has_goldens():
    expected = {golden_path(p, e).name for p, e in CASES}
    assert {p.name for p in GOLDEN.glob("*.txt")} == expected


@pytest.mark.parametrize(
    "path,engine", CASES, ids=[f"{p.stem}-{e}" for p, e in CASES]
)
def test_verify_report_matches_golden(path, engine):
    assert render(path, engine) == golden_path(path, engine).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for path, engine in CASES:
        golden_path(path, engine).write_text(render(path, engine))
