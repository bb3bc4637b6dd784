"""Tests of the corpus benchmark's own machinery: seeded generation,
the known-answer check, the tracer, and that every count the traced
run reports repeats exactly across runs with one seed."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import replay
import tracing
from workloads import SAFE, UNSAFE, WORKLOADS, counter_to

import hornsafe.absint
import hornsafe.driver
import hornsafe.lra.kernel
import hornsafe.lra.solver
from hornsafe.chc_core import parse_program
from hornsafe.driver import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_instances_follow_the_seed(name):
    build = WORKLOADS[name].build
    first, again, other = build(1, ROOT), build(1, ROOT), build(2, ROOT)
    assert first == again
    assert [i.text for i in first] != [i.text for i in other]
    assert len({i.name for i in first}) == len(first)
    for inst in first:
        assert inst.expected in (SAFE, UNSAFE) and inst.reason
        parse_program(inst.text)


def test_check_replays_witnesses_and_rejects_wrong_answers():
    inst = counter_to(7, 3)
    program = parse_program(inst.text)
    verdict = verify(program)
    assert verdict.status == "unsafe"
    assert replay.check(program, verdict, inst.expected) is None
    assert replay.check(program, verdict, SAFE).startswith("answered unsafe")

    var = next(iter(verdict.witness))
    moved = {**verdict.witness, var: verdict.witness[var] + Fraction(1, 2)}
    tampered = dataclasses.replace(verdict, witness=moved)
    assert "does not replay" in replay.check(program, tampered, inst.expected)

    unknown = dataclasses.replace(verdict, status="unknown", trace=None, witness=None)
    assert replay.check(program, unknown, SAFE) is None


def test_tracer_wraps_every_importer_and_restores_them():
    originals = (
        hornsafe.driver.analyze,
        hornsafe.absint.hull,
        hornsafe.lra.solver.is_sat,
        hornsafe.lra.kernel.simplex_feasible,
    )
    tracer = tracing.Tracer()
    with tracer:
        assert hornsafe.driver.analyze is not originals[0]
        assert hornsafe.absint.hull is not originals[1]
        verify(parse_program(counter_to(7, 2).text))
    assert (
        hornsafe.driver.analyze,
        hornsafe.absint.hull,
        hornsafe.lra.solver.is_sat,
        hornsafe.lra.kernel.simplex_feasible,
    ) == originals
    spans, sizes = tracer.take()
    names = {span[0] for span in spans}
    assert {"absint.analyze", "lra.entails", "lra.is_sat", "lra.kernel.simplex_feasible"} <= names
    metrics = tracing.layer_metrics(spans, sizes)
    # Farkas interpolation calls the kernel directly, not through is_sat
    assert metrics["lra.kernel.calls"] >= metrics["lra.is_sat.calls"] > 0


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, "x"],
        ["b", 2.0, 5.0, 0, "x"],
        ["b", 6.0, 7.0, 0, "x"],
        ["c", 3.0, 4.0, 1, "x"],
    ]
    times = tracing.self_times(spans)
    assert times["a"] == (1, 6.0)
    assert times["b"] == (2, 3.0)
    assert times["c"] == (1, 1.0)


def test_benchmark_definition_names_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = set(tracing.layer_metrics([], {}))
    reported |= {
        f"driver.{phase}_ms"
        for phase in ("analyze", "model_fta", "counterexample", "feasibility",
                      "remover", "difference", "clausegen")
    }
    reported.add("trace.overhead_s")
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def _traced_counts(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--workload", "refine-rahit",
         "--seed", "3", "--seconds", "0", "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    counts = {
        name: value
        for name, value in result["layers"].items()
        if not name.endswith(("_ms", ".ms"))
    }
    counts["refine_iterations"] = result["refine_iterations"]
    counts["verdicts"] = [row["verdict"] for row in result["instances"]]
    return counts


def test_counts_repeat_across_runs_with_one_seed():
    first = _traced_counts("1")
    assert first["lra.kernel.calls"] > 0
    assert first["tree_interpolation.tree_interpolant.calls"] > 0
    assert first == _traced_counts("2")
