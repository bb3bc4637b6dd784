"""End-to-end goldens for every corpus program under both engines.

Two things are pinned per program and engine: the `hornsafe verify`
report minus the `time[...]` lines, and the SHA-256 digest of every file
`--dump-dir` writes.  The report pins the verdict, the iteration count,
the automata sizes of every iteration, and for unsafe programs the
counterexample trace and the exact witness point; the digests pin every
per-iteration program, model, automaton and id map on the way there.
Regenerate tests/golden/*.txt and tests/golden/dumps.sha256 only when a
change is meant to alter what the verifier decides, prints or dumps:

    PYTHONPATH=src python3 tests/test_corpus_golden.py

The digest file has the `sha256sum` format, one `<program>.<engine>/<file>`
per line.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from hornsafe.cli import main
from hornsafe.driver import ENGINES
import programs

CORPUS = Path(__file__).resolve().parents[1] / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "dumps.sha256"
CASES = [(path, engine) for path in sorted(CORPUS.glob("*.chc")) for engine in ENGINES]


@functools.cache
def run(path: Path, engine: str) -> tuple[str, dict[str, str]]:
    """The report minus `time[...]` lines, and the digest of each dumped
    file keyed by `<program>.<engine>/<file>`."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as dump_dir:
        with contextlib.redirect_stdout(out):
            code = main(["verify", str(path), "--engine", engine, "--dump-dir", dump_dir])
        digests = {
            f"{path.stem}.{engine}/{dumped.name}": hashlib.sha256(dumped.read_bytes()).hexdigest()
            for dumped in sorted(Path(dump_dir).iterdir())
        }
    lines = [f"exit: {code}"]
    lines += [ln for ln in out.getvalue().splitlines() if not ln.startswith("time[")]
    return "\n".join(lines) + "\n", digests


def golden_path(path: Path, engine: str) -> Path:
    return GOLDEN / f"{path.stem}.{engine}.txt"


def pinned_digests() -> dict[str, str]:
    pinned = {}
    for line in DIGESTS.read_text().splitlines():
        digest, name = line.split("  ", 1)
        pinned[name] = digest
    return pinned


def test_every_corpus_program_has_goldens():
    expected = {golden_path(p, e).name for p, e in CASES}
    assert {p.name for p in GOLDEN.glob("*.txt")} == expected


@pytest.mark.parametrize(
    "path,engine", CASES, ids=[f"{p.stem}-{e}" for p, e in CASES]
)
def test_verify_report_matches_golden(path, engine):
    assert run(path, engine)[0] == golden_path(path, engine).read_text()


@pytest.mark.parametrize(
    "path,engine", CASES, ids=[f"{p.stem}-{e}" for p, e in CASES]
)
def test_dump_files_match_digests(path, engine):
    prefix = f"{path.stem}.{engine}/"
    pinned = {k: v for k, v in pinned_digests().items() if k.startswith(prefix)}
    assert run(path, engine)[1] == pinned


# tests/programs.py keeps these texts inline; each must be its corpus
# file with the `%` comment lines removed
TWINS = {
    "count_up": programs.COUNT_UP,
    "decrement": programs.DECREMENT,
    "doubling": programs.doubling(4),
    "fib": programs.FIB,
    "split_range": programs.SPLIT_RANGE,
    "unsafe_loop": programs.UNSAFE_LOOP,
    "unsafe_simple": programs.UNSAFE_SIMPLE,
}


@pytest.mark.parametrize("stem", TWINS)
def test_program_text_mirrors_corpus(stem):
    lines = (CORPUS / f"{stem}.chc").read_text().splitlines(keepends=True)
    assert "".join(ln for ln in lines if not ln.startswith("%")) == TWINS[stem]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    digests = {}
    for path, engine in CASES:
        report, dumped = run(path, engine)
        golden_path(path, engine).write_text(report)
        digests.update(dumped)
    DIGESTS.write_text("".join(f"{digests[name]}  {name}\n" for name in sorted(digests)))
