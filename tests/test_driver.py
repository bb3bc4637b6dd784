"""End-to-end verification loop: verdicts, stats, dumps, both engines."""

import gc
import json
import os
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import hornsafe.derivations as derivations
import hornsafe.driver as driver
import hornsafe.fta as fta
import hornsafe.refinement as refinement
import hornsafe.run as run
from hornsafe.chc_core import Program, Variable, parse_program
from hornsafe.cli import main
from hornsafe.derivations import and_tree, formula
from hornsafe.driver import ENGINES, Verdict, verify
from hornsafe.fta import TreeAutomaton
from hornsafe.model import InterpretationModel
from programs import (
    COUNT_UP,
    DECREMENT,
    FIB,
    SPLIT_RANGE,
    UNSAFE_LOOP,
    UNSAFE_SIMPLE,
)
from oracles import parse_trace, satisfies

T = parse_trace


class TestSafePrograms:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("text", [FIB, DECREMENT, COUNT_UP])
    def test_safe_without_refinement(self, text, engine):
        v = verify(parse_program(text), engine=engine)
        assert v.status == "safe"
        assert v.stats.iterations == 0
        assert v.trace is None and v.witness is None
        assert v.exit_code == 0

    def test_split_range_needs_one_interpolant_round(self):
        v = verify(parse_program(SPLIT_RANGE), engine="rahit")
        assert v.status == "safe"
        assert v.stats.iterations == 1

    def test_split_range_starves_single_trace_removal(self):
        v = verify(parse_program(SPLIT_RANGE), engine="rahft", max_iter=6)
        assert v.status == "unknown"
        assert v.reason == "iteration-limit"
        assert v.stats.iterations == 6
        assert v.exit_code == 2


class TestUnsafePrograms:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_direct_counterexample(self, engine):
        prog = parse_program(UNSAFE_SIMPLE)
        v = verify(prog, engine=engine)
        assert v.status == "unsafe"
        assert v.stats.iterations == 0
        assert v.trace == T("c2(c1)")
        assert v.witness[Variable("X_n1")] == Fraction(1)
        assert v.exit_code == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_counterexample_after_refinement(self, engine):
        prog = parse_program(UNSAFE_LOOP)
        v = verify(prog, engine=engine)
        assert v.status == "unsafe"
        assert v.stats.iterations == 3
        assert v.trace == T("c3(c2(c2(c2(c1))))")

    @pytest.mark.parametrize("engine", ENGINES)
    def test_witness_satisfies_derivation(self, engine):
        prog = parse_program(UNSAFE_LOOP)
        v = verify(prog, engine=engine)
        # the trace is over source clause ids, so it must replay there
        phi = formula(and_tree(prog, v.trace))
        assert set(phi.vars()) <= set(v.witness)
        assert satisfies(phi, v.witness)
        assert v.witness[Variable("X_n1")] == Fraction(3)

    def test_trace_uses_source_clause_ids(self):
        prog = parse_program(UNSAFE_LOOP)
        v = verify(prog, engine="rahit")
        ids = set(prog.clause_ids())

        def walk(t):
            assert t.sym in ids
            for c in t.children:
                walk(c)

        walk(v.trace)


class TestLimits:
    def test_zero_budget_times_out(self):
        v = verify(parse_program(FIB), timeout=0.0)
        assert v.status == "unknown"
        assert v.reason == "timeout"
        assert v.exit_code == 2

    def test_deadline_is_checked_before_each_phase(self, monkeypatch):
        # the run's clock stands still until iteration 1's analyze has
        # returned, then reads past the deadline, so that phase is the
        # last to run
        now = [0.0]
        analyses = [0]
        real = driver.analyze

        def analyze(*args):
            model = real(*args)
            analyses[0] += 1
            if analyses[0] == 2:
                now[0] = 10.5
            return model

        monkeypatch.setattr(run, "monotonic", lambda: now[0])
        monkeypatch.setattr(driver, "analyze", analyze)
        v = verify(parse_program(UNSAFE_LOOP), timeout=10.0)
        assert (v.status, v.reason, v.stats.iterations) == ("unknown", "timeout", 1)
        assert analyses[0] == 2
        # iteration 0 ran every phase and iteration 1 only analyze
        assert sorted(v.stats.times_ms) == sorted(
            ["analyze", "model_fta", "counterexample", "feasibility", "remover", "difference", "clausegen"]
        )
        assert len(v.stats.automata) == 1

    def test_max_iter_zero_still_finds_direct_counterexample(self):
        v = verify(parse_program(UNSAFE_SIMPLE), max_iter=0)
        assert v.status == "unsafe"

    def test_max_iter_zero_gives_up_before_refining(self):
        v = verify(parse_program(SPLIT_RANGE), max_iter=0)
        assert v.status == "unknown"
        assert v.reason == "iteration-limit"
        assert v.stats.iterations == 0

    def test_engine_validated(self):
        with pytest.raises(ValueError):
            verify(parse_program(FIB), engine="magic")
        with pytest.raises(ValueError):
            verify(parse_program(FIB), max_iter=-1)
        # as the CLI refuses --widen-delay -1
        with pytest.raises(ValueError, match="widen_delay must be nonnegative"):
            verify(parse_program(FIB), widen_delay=-5)

    def test_nan_timeout_rejected(self):
        # NaN compares false with every deadline, so it would never fire
        with pytest.raises(ValueError, match="NaN"):
            verify(parse_program(FIB), timeout=float("nan"))

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    @pytest.mark.parametrize(
        "phase, name",
        [
            ("analyze", "analyze"),
            ("model_fta", "model_fta"),
            ("counterexample", "find_accepted"),
            ("feasibility", "feasible"),
            # the replay of a genuine counterexample on the source program
            ("feasibility", "erase_trace"),
            ("feasibility", "and_tree"),
            ("remover", "singleton_fta"),
            # the derivation tree rahit interpolates
            ("remover", "and_tree"),
            ("difference", "difference"),
            ("clausegen", "generate_clauses"),
        ],
    )
    def test_exhausted_stack_or_memory_is_unknown(self, monkeypatch, error, phase, name):
        def exhausted(*args):
            raise error

        # driver imports the refinement half when a round first finds
        # false reachable, so each name is patched where it is defined
        homes = {
            "analyze": driver,
            "model_fta": fta,
            "find_accepted": fta,
            "feasible": derivations,
            "erase_trace": refinement,
            "and_tree": derivations,
            "singleton_fta": fta,
            "difference": fta,
            "generate_clauses": refinement,
        }
        monkeypatch.setattr(homes[name], name, exhausted)
        # split_range reaches every phase but the replay, which needs a
        # counterexample found after refinement; rahft builds a
        # derivation tree only for that replay, rahit also for its remover
        replay = phase == "feasibility" and name != "feasible"
        text = UNSAFE_LOOP if replay else SPLIT_RANGE
        engine = "rahit" if phase == "remover" and name == "and_tree" else "rahft"
        v = verify(parse_program(text), engine=engine)
        assert (v.status, v.reason) == ("unknown", f"resource:{phase}")
        assert v.exit_code == 2


class TestMemory:
    def test_no_generated_program_outlives_the_next_round(self, monkeypatch):
        # a counterexample goes back to the source ids through one
        # composed map, so verify drops each program once it has the next
        programs = []
        real = refinement.generate_clauses

        def recording(program, automaton):
            out = real(program, automaton)
            programs.append(weakref.ref(out))
            return out

        live = []

        def sink(name, text):
            if name.endswith(".program.chc"):
                gc.collect()
                live.append(sum(ref() is not None for ref in programs))

        monkeypatch.setattr(refinement, "generate_clauses", recording)
        v = verify(parse_program(SPLIT_RANGE), engine="rahft", max_iter=10, dump_sink=sink)
        assert (v.status, v.stats.iterations) == ("unknown", 10)
        assert len(live) == 11
        assert max(live) <= 2


class TestStats:
    def test_phases_recorded(self):
        v = verify(parse_program(UNSAFE_LOOP), engine="rahit")
        assert set(v.stats.times_ms) <= {
            "analyze",
            "model_fta",
            "counterexample",
            "feasibility",
            "remover",
            "difference",
            "clausegen",
        }
        assert "analyze" in v.stats.times_ms
        assert all(t >= 0 for t in v.stats.times_ms.values())

    def test_automata_sizes_per_iteration(self):
        v = verify(parse_program(UNSAFE_LOOP), engine="rahit")
        assert len(v.stats.automata) == v.stats.iterations + 1
        for sizes in v.stats.automata[:-1]:
            assert sizes["model_states"] >= 1
            assert sizes["remover_transitions"] >= 1
            assert sizes["difference_states"] >= 1
        # the last iteration found the real counterexample, so no remover
        assert "remover_states" not in v.stats.automata[-1]

    def test_as_dict_is_json_ready(self):
        v = verify(parse_program(UNSAFE_LOOP), engine="rahft")
        payload = json.loads(json.dumps(v.stats.as_dict()))
        assert payload["engine"] == "rahft"
        assert payload["iterations"] == 3

    def test_safe_run_has_no_automata(self):
        v = verify(parse_program(FIB))
        assert v.stats.automata == []


class TestDumps:
    def collect(self, text, engine="rahit", **kw):
        sink = {}
        verify(parse_program(text), engine=engine, dump_sink=sink.__setitem__, **kw)
        return sink

    def test_safe_immediately(self):
        sink = self.collect(FIB)
        assert set(sink) == {"iter0.program.chc", "iter0.model.txt"}
        assert "fib(" in sink["iter0.program.chc"]

    def test_refinement_artifacts(self):
        sink = self.collect(UNSAFE_LOOP)
        for name in (
            "iter0.program.chc",
            "iter0.model.txt",
            "iter0.model_fta.txt",
            "iter0.remover.txt",
            "iter1.program.chc",
            "iter1.idmap.txt",
            "iter3.model.txt",
        ):
            assert name in sink, name
        # regenerated programs parse back
        reparsed = parse_program(sink["iter1.program.chc"])
        assert len(reparsed.clauses) >= 1

    def test_no_sink_renders_nothing(self, monkeypatch):
        rendered = []

        def recording(name, real):
            def render(*args):
                rendered.append(name)
                return real(*args)

            return render

        renderers = {
            "Program.pretty": (Program, "pretty"),
            "InterpretationModel.pretty": (InterpretationModel, "pretty"),
            "TreeAutomaton.dump": (TreeAutomaton, "dump"),
            "origin_lines": (refinement, "origin_lines"),
        }
        for label, (owner, name) in renderers.items():
            monkeypatch.setattr(owner, name, recording(label, getattr(owner, name)))
        for engine in ENGINES:
            verify(parse_program(UNSAFE_LOOP), engine=engine)
        assert rendered == []
        # the same run with a sink renders through all four
        self.collect(UNSAFE_LOOP)
        assert set(rendered) == set(renderers)

    def test_idmap_refers_to_previous_iteration(self):
        sink = self.collect(UNSAFE_LOOP)
        prev = parse_program(sink["iter0.program.chc"])
        prev_ids = set(prev.clause_ids())
        for line in sink["iter1.idmap.txt"].splitlines():
            _, _, origin = line.partition("=")
            assert origin in prev_ids


class TestDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_repeat_runs_identical(self, engine):
        prog = parse_program(UNSAFE_LOOP)
        a = verify(prog, engine=engine)
        b = verify(prog, engine=engine)
        assert a.status == b.status
        assert a.trace == b.trace
        assert a.witness == b.witness
        assert a.stats.iterations == b.stats.iterations


REFINEMENT_HALF = [
    "hornsafe.derivations",
    "hornsafe.fta",
    "hornsafe.refinement",
    "hornsafe.tree_interpolation",
]

# `python -m hornsafe` with its arguments, then, on stderr, the modules
# of the refinement half that the run loaded
LOADED_BY_A_RUN = f"""
import runpy, sys
try:
    runpy.run_module("hornsafe", run_name="__main__", alter_sys=True)
finally:
    print(*[m for m in {REFINEMENT_HALF!r} if m in sys.modules], file=sys.stderr)
"""


class TestRefinementHalfLoadsOnFirstRound:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "name, code, loaded",
        [("count_up", 0, []), ("unsafe_loop", 1, REFINEMENT_HALF)],
        ids=["count_up", "unsafe_loop"],
    )
    def test_fresh_process(self, capsys, engine, name, code, loaded):
        # count_up is SAFE at iteration 0 and never refines; unsafe_loop
        # refines three times before its counterexample
        root = Path(__file__).resolve().parents[1]
        argv = ["verify", "--engine", engine, str(root / "corpus" / f"{name}.chc")]
        env_path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", LOADED_BY_A_RUN, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": env_path},
            timeout=120,
        )
        assert child.returncode == code
        assert child.stderr.split() == loaded
        assert main(argv) == code
        here = capsys.readouterr().out
        if not loaded:
            assert "iterations: 0" in here.splitlines()

        def without_times(report):
            return [ln for ln in report.splitlines() if not ln.startswith("time[")]

        assert without_times(child.stdout) == without_times(here)
