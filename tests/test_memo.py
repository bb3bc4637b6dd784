"""The memo of clause posts, hulls and tree-interpolation contexts:
current for exactly one verify call, invisible in what the verifier
decides, equal to recomputation, and absent everywhere else."""

import random
import sys
import time

import pytest

import hornsafe.driver as driver
import hornsafe.tree_interpolation as tree_interpolation
from hornsafe.absint import analyze, clause_post
from hornsafe.chc_core import Atom, Clause, Row, parse_constraint, parse_program
from hornsafe.cli import _report
from hornsafe.driver import ENGINES, verify
from hornsafe.lra import Memo, Polyhedron, hull, kernel, solver
from hornsafe.lra.solver import _current_memo
from hornsafe.model import InterpretationModel, canonical_args
from gen import VARS, random_constraint
from programs import FIB, SPLIT_RANGE, UNSAFE_LOOP


def current_entries() -> int | None:
    """Entries in the current memo, or None when no memo is current."""
    memo = _current_memo.get()
    return None if memo is None else sum(len(t) for t in memo.tables.values())


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

        monkeypatch.setattr(driver, "model_fta", failing_model_fta)
        with pytest.raises(RuntimeError, match="phase failed"):
            verify(parse_program(UNSAFE_LOOP))
        assert memo_size_after_analyze[0] > 0
        assert current_entries() is None

    def test_entries_made_before_verify_are_dropped(self):
        # verify opens its own memo inside a caller's and restores the
        # caller's on return, leaving it as it was
        with Memo() as outer:
            hull(
                Polyhedron.of(parse_constraint("X = 0")),
                Polyhedron.of(parse_constraint("X = 1")),
            )
            before = outer.counts()
            v = verify(parse_program(FIB))
            assert _current_memo.get() is outer
        assert outer.counts() == before
        assert sum(len(t) for t in outer.tables.values()) == 1
        assert v.stats.memo == verify(parse_program(FIB)).stats.memo
        assert v.stats.memo["clause_post"]["misses"] > 0
        assert current_entries() is None


def test_nothing_kept_outside_verify(kernel_calls, project_calls, hull_step_calls):
    rng = random.Random(3)
    checked = dict.fromkeys(Memo.OPS, 0)
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


def test_post_hit_builds_no_row(monkeypatch):
    program = parse_program(FIB)
    model = analyze(program)
    rows = _count_calls(monkeypatch, Row, "__init__")
    with Memo() as memo:
        for clause in program:
            clause_post(clause, model.entries)
        assert memo.misses["clause_post"] == len(program)
        built = rows[0]
        for clause in program:
            clause_post(clause, model.entries)
        assert memo.hits["clause_post"] == len(program)
    assert built > 0 and rows[0] == built


def _report_without_times(verdict) -> str:
    return "\n".join(
        ln for ln in _report(verdict).splitlines() if not ln.startswith("time[")
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("text", [SPLIT_RANGE, UNSAFE_LOOP], ids=["split_range", "unsafe_loop"])
def test_back_to_back_calls_share_nothing(kernel_calls, engine, text):
    program = parse_program(text)
    first = verify(program, engine=engine)
    first_calls = kernel_calls[0]
    second = verify(program, engine=engine)
    assert first.stats.iterations > 0
    assert kernel_calls[0] - first_calls == first_calls > 0
    assert _report_without_times(second) == _report_without_times(first)
    assert second.stats.memo == first.stats.memo
    assert set(first.stats.memo) == {"clause_post", "hull", "context"}
    assert sum(c["hits"] for c in first.stats.memo.values()) > 0


def test_hits_equal_fresh_computation():
    rng = random.Random(5)
    checked = dict.fromkeys(Memo.OPS, 0)
    for _ in range(200):
        steps, (p1, p2) = random_steps(rng)
        for op, compute in steps.items():
            with Memo() as memo:
                compute()
                cached = compute()
            if memo.hits[op] == 0:
                # an empty or whole-space argument is answered before
                # the table is consulted
                assert op == "hull"
                assert p1.empty or p2.empty or p1.is_top() or p2.is_top()
                continue
            assert memo.counts()[op] == {"hits": 1, "misses": 1}
            assert cached == compute()
            checked[op] += 1
    assert min(checked.values()) >= 50, checked
