"""The memo of clause posts, hulls and tree-interpolation contexts,
held by a hornsafe.run.Run: current for exactly one verify call,
invisible in what the verifier decides, equal to recomputation, and
absent everywhere else."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hornsafe.driver as driver
import hornsafe.fta as fta
import hornsafe.tree_interpolation as tree_interpolation
from hornsafe.absint import analyze, clause_post
from hornsafe.chc_core import Atom, Clause, Row, parse_constraint, parse_program
from hornsafe.cli import _report, main
from hornsafe.driver import ENGINES, verify
from hornsafe.lra import Polyhedron, hull, kernel, solver
from hornsafe.model import InterpretationModel, canonical_args
from hornsafe.run import STEPS, Run, _current_run, memoised
from gen import VARS, random_constraint
from programs import FIB, SPLIT_RANGE, UNSAFE_LOOP


def current_entries() -> int | None:
    """Entries in the current run's memo, or None when no run is current."""
    run = _current_run.get()
    return None if run is None else sum(len(t) for t in run.tables.values())


@pytest.fixture
def memo_size_after_analyze(monkeypatch):
    """Run the real analysis and record how full the current memo is
    after it, so each path test also shows the memo was in use."""
    sizes = []
    real = driver.analyze

    def analyze(*args):
        model = real(*args)
        sizes.append(current_entries())
        return model

    monkeypatch.setattr(driver, "analyze", analyze)
    return sizes


def random_steps(rng: random.Random) -> tuple[dict, tuple[Polyhedron, Polyhedron]]:
    """One call of each memoised step on random arguments, as thunks,
    and the hull's two arguments.  The clause is p(head) :- c1, q(U,V)
    under a model giving q a random polyhedron, so its post conjoins,
    projects and renames.  The context is c1 projected onto the head."""
    c1 = random_constraint(rng, max_vars=4, max_rows=5)
    c2 = random_constraint(rng, max_vars=2, max_rows=3)
    u, v = VARS[:2]
    pool = sorted(c1.vars() | {u, v}, key=str)
    head = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    clause = Clause("c1", Atom("p", tuple(head)), c1, (Atom("q", (u, v)),))
    q = Polyhedron.of(c2.rename(dict(zip((u, v), canonical_args(2)))))
    state = InterpretationModel({"q": q}).entries
    p1, p2 = Polyhedron.of(c1), q
    steps = {
        "clause_post": lambda: clause_post(clause, state),
        "hull": lambda: hull(p1, p2),
        "context": lambda: tree_interpolation._context(c1, frozenset(head)),
    }
    return steps, (p1, p2)


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def kernel_calls(monkeypatch):
    return _count_calls(monkeypatch, kernel, "simplex_feasible")


@pytest.fixture
def project_calls(monkeypatch):
    return _count_calls(monkeypatch, tree_interpolation, "project")


@pytest.fixture
def hull_step_calls():
    """Calls of the hull step's own body, the function the memo wraps:
    a hull over one variable eliminates nothing and may call no kernel,
    so neither count shows it."""
    calls = [0]
    body = solver._hull.__wrapped__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            calls[0] += 1

    sys.setprofile(profile)
    yield calls
    sys.setprofile(None)


class TestScope:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_after_safe(self, engine, memo_size_after_analyze):
        assert verify(parse_program(FIB), engine=engine).status == "safe"
        assert memo_size_after_analyze[0] > 0
        assert current_entries() is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_after_unsafe(self, engine, memo_size_after_analyze):
        assert verify(parse_program(UNSAFE_LOOP), engine=engine).status == "unsafe"
        assert min(memo_size_after_analyze) > 0
        assert current_entries() is None

    def test_empty_after_iteration_limit(self, memo_size_after_analyze):
        v = verify(parse_program(UNSAFE_LOOP), max_iter=1)
        assert (v.status, v.reason) == ("unknown", "iteration-limit")
        assert min(memo_size_after_analyze) > 0
        assert current_entries() is None

    def test_empty_after_timeout(self, monkeypatch, memo_size_after_analyze):
        real = driver.analyze

        def slow_analyze(*args):
            model = real(*args)
            time.sleep(0.3)
            return model

        monkeypatch.setattr(driver, "analyze", slow_analyze)
        v = verify(parse_program(UNSAFE_LOOP), timeout=0.2)
        assert (v.status, v.reason) == ("unknown", "timeout")
        assert memo_size_after_analyze[0] > 0
        assert current_entries() is None

    def test_empty_after_exception_in_a_phase(self, monkeypatch, memo_size_after_analyze):
        def failing_model_fta(*args):
            raise RuntimeError("phase failed")

        monkeypatch.setattr(fta, "model_fta", failing_model_fta)
        with pytest.raises(RuntimeError, match="phase failed"):
            verify(parse_program(UNSAFE_LOOP))
        assert memo_size_after_analyze[0] > 0
        assert current_entries() is None

    def test_entries_made_before_verify_are_dropped(self):
        # verify opens its own run inside a caller's and restores the
        # caller's on return, leaving it as it was
        with Run() as outer:
            hull(
                Polyhedron.of(parse_constraint("X = 0")),
                Polyhedron.of(parse_constraint("X = 1")),
            )
            before = (dict(outer.hits), dict(outer.misses))
            v = verify(parse_program(FIB))
            assert _current_run.get() is outer
        assert (outer.hits, outer.misses) == before
        assert sum(len(t) for t in outer.tables.values()) == 1
        assert v.stats.memo == verify(parse_program(FIB)).stats.memo
        assert v.stats.memo["clause_post"]["misses"] > 0
        assert current_entries() is None


def test_nothing_kept_outside_verify(kernel_calls, project_calls, hull_step_calls):
    rng = random.Random(3)
    checked = dict.fromkeys(STEPS, 0)
    for _ in range(60):
        steps, _ = random_steps(rng)
        for op, compute in steps.items():
            # a projection calls no kernel, nor does every hull, so count
            # the projections and the hull step's body
            calls = {"context": project_calls, "hull": hull_step_calls}.get(op, kernel_calls)
            start = calls[0]
            compute()
            once = calls[0] - start
            compute()
            assert calls[0] - start == 2 * once
            checked[op] += once > 0
        assert current_entries() is None
    assert min(checked.values()) >= 30, checked


def test_only_the_listed_steps_are_memoised():
    with pytest.raises(ValueError, match="widen"):
        memoised("widen")


def test_post_hit_builds_no_row(monkeypatch):
    program = parse_program(FIB)
    model = analyze(program)
    rows = _count_calls(monkeypatch, Row, "__init__")
    with Run() as run:
        for clause in program:
            clause_post(clause, model.entries)
        assert run.misses["clause_post"] == len(program)
        built = rows[0]
        for clause in program:
            clause_post(clause, model.entries)
        assert run.hits["clause_post"] == len(program)
    assert built > 0 and rows[0] == built


def _without_times(report: str) -> str:
    return "\n".join(ln for ln in report.splitlines() if not ln.startswith("time["))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("text", [SPLIT_RANGE, UNSAFE_LOOP], ids=["split_range", "unsafe_loop"])
def test_back_to_back_calls_share_nothing(kernel_calls, engine, text):
    program = parse_program(text)
    first = verify(program, engine=engine)
    first_calls = kernel_calls[0]
    second = verify(program, engine=engine)
    assert first.stats.iterations > 0
    assert kernel_calls[0] - first_calls == first_calls > 0
    assert _without_times(_report(second)) == _without_times(_report(first))
    assert second.stats.memo == first.stats.memo
    assert list(first.stats.memo) == ["hull", "clause_post", "context"]
    assert sum(c["hits"] for c in first.stats.memo.values()) > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_two_programs_in_one_process_match_fresh_processes(tmp_path, capsys, engine):
    # tri_sum, then split_range, verified back to back here, each against
    # the same program verified in a child process of its own
    root = Path(__file__).resolve().parents[1]
    env_path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for name in ("tri_sum", "split_range"):
        argv = ["verify", str(root / "corpus" / f"{name}.chc"), "--engine", engine, "--stats-json"]
        code = main([*argv, str(tmp_path / f"{name}.here.json")])
        here = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "hornsafe", *argv, str(tmp_path / f"{name}.fresh.json")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": env_path},
            timeout=120,
        )
        assert fresh.returncode == code
        runs.append((name, here, fresh.stdout))
    assert current_entries() is None
    for name, here, fresh in runs:
        assert _without_times(here) == _without_times(fresh)
        payloads = [json.loads((tmp_path / f"{name}.{side}.json").read_text()) for side in ("here", "fresh")]
        for payload in payloads:
            del payload["times_ms"]
        assert payloads[0]["memo"] == payloads[1]["memo"]
        assert payloads[0]["memo"]["clause_post"]["hits"] > 0
        assert payloads[0] == payloads[1]


def test_hits_equal_fresh_computation():
    rng = random.Random(5)
    checked = dict.fromkeys(STEPS, 0)
    for _ in range(200):
        steps, (p1, p2) = random_steps(rng)
        for op, compute in steps.items():
            with Run() as run:
                compute()
                cached = compute()
            if run.hits[op] == 0:
                # an empty or whole-space argument is answered before
                # the table is consulted
                assert op == "hull"
                assert p1.empty or p2.empty or p1.is_top() or p2.is_top()
                continue
            assert (run.hits[op], run.misses[op]) == (1, 1)
            assert cached == compute()
            checked[op] += 1
    assert min(checked.values()) >= 50, checked
