"""One workload run, in a process of its own.

Generates and parses the workload's instances, then verifies the whole
set again and again, one instance at a time, until the time budget is
spent.  Prints one JSON object with the measurements.  With --trace the
budget is split: the first half runs untraced and gives the phase times
and the untraced batch time, the second half runs under the Tracer.
With --setup-only it prints the monotonic clock at the point where the
first verify call would start, and exits.

Run by run.py; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate
import replay
import tracing
from workloads import WORKLOADS

import hornsafe.chc_core
import hornsafe.driver

ROOT = Path(__file__).resolve().parent.parent
PHASES = (
    "analyze",
    "model_fta",
    "counterexample",
    "feasibility",
    "remover",
    "difference",
    "clausegen",
)
# the CLI defaults
MAX_ITER = 20
WIDEN_DELAY = 3
TIMEOUT_S = 300.0


def run_passes(engine, instances, programs, budget_s, tracer=None):
    """Whole passes over the instance set until the next pass would end
    past the budget; at least one.  Returns one record per pass, with
    the calibration scale measured between its verify calls."""
    passes = []
    started = time.monotonic()
    last = 0.0
    while not passes or time.monotonic() - started + last <= budget_s:
        pass_start = time.monotonic()
        record = {"secs": [], "verdicts": [], "iterations": [], "errors": [], "phases": {}}
        refs = []
        for inst, program in zip(instances, programs):
            refs.append(calibrate.reference_seconds())
            if tracer is not None:
                tracer.instance = inst.name
            t0 = time.perf_counter()
            try:
                verdict = hornsafe.driver.verify(
                    program,
                    engine=engine,
                    max_iter=MAX_ITER,
                    widen_delay=WIDEN_DELAY,
                    timeout=TIMEOUT_S,
                )
            except Exception:  # counted as a failed execution, run goes on
                record["secs"].append(time.perf_counter() - t0)
                record["verdicts"].append("error")
                record["iterations"].append(0)
                record["errors"].append(f"{inst.name}: {traceback.format_exc(limit=3)}")
                continue
            record["secs"].append(time.perf_counter() - t0)
            record["verdicts"].append(verdict.status)
            record["iterations"].append(verdict.stats.iterations)
            for phase, ms in verdict.stats.times_ms.items():
                record["phases"][phase] = record["phases"].get(phase, 0.0) + ms
            problem = replay.check(program, verdict, inst.expected)
            if problem is not None:
                record["errors"].append(f"{inst.name}: {problem} ({inst.reason})")
        record["scale"] = calibrate.scale(refs)
        if tracer is not None:
            record["spans"], record["sizes"] = tracer.take()
        passes.append(record)
        last = time.monotonic() - pass_start
    return passes


def summarise(instances, passes):
    """Medians over passes of times scaled to the reference host speed;
    counts from the first pass, since every pass repeats them."""
    batch = [sum(p["secs"]) * p["scale"] for p in passes]
    attempted = sum(len(p["secs"]) for p in passes)
    failed = sum(len(p["errors"]) for p in passes)
    decided = sum(v in ("safe", "unsafe") for p in passes for v in p["verdicts"])
    rows = []
    for i, inst in enumerate(instances):
        secs = [p["secs"][i] * p["scale"] for p in passes]
        rows.append(
            {
                "instance": inst.name,
                "expected": inst.expected,
                "verdict": passes[0]["verdicts"][i],
                "iterations": passes[0]["iterations"][i],
                "median_ms": statistics.median(secs) * 1000.0,
                "max_ms": max(secs) * 1000.0,
                "n": len(secs),
            }
        )
    iterations = passes[0]["iterations"]
    return {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in passes for e in p["errors"]][:5],
        "batch_s": statistics.median(batch),
        "unscaled_batch_s": statistics.median(sum(p["secs"]) for p in passes),
        "scale": statistics.median(p["scale"] for p in passes),
        "verdict_ms_geomean": math.exp(
            statistics.fmean(math.log(r["median_ms"]) for r in rows)
        ),
        "decided_ratio": decided / attempted,
        "refine_iterations": sum(iterations),
        # one abstraction round per instance plus one per refinement
        "refine_rounds": sum(iterations) + len(iterations),
        "phases_ms": {
            ph: statistics.median(p["phases"].get(ph, 0.0) * p["scale"] for p in passes)
            for ph in PHASES
        },
        "instances": rows,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    instances = workload.build(args.seed, ROOT)
    programs = [hornsafe.chc_core.parse_program(inst.text) for inst in instances]
    if args.setup_only:
        ready = time.monotonic()
        refs = [calibrate.reference_seconds() for _ in range(9)]
        print(json.dumps({"ready": ready, "scale": calibrate.scale(refs)}))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    result = summarise(instances, run_passes(workload.engine, instances, programs, budget))
    if args.trace:
        tracer = tracing.Tracer()
        with tracer:
            programs = [hornsafe.chc_core.parse_program(inst.text) for inst in instances]
            parse_spans, _ = tracer.take()
            traced = run_passes(workload.engine, instances, programs, budget, tracer)
        per_pass = [
            tracing.layer_metrics(p["spans"], p["sizes"], p["scale"]) for p in traced
        ]
        layers = {
            name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]
        }
        parse_scale = statistics.median(p["scale"] for p in traced)
        layers["chc_core.parse_program.ms"] = tracing.layer_metrics(
            parse_spans, {}, parse_scale
        )["chc_core.parse_program.ms"]
        traced_summary = summarise(instances, traced)
        result["attempted"] += traced_summary["attempted"]
        result["failed"] += traced_summary["failed"]
        result["errors"] += traced_summary["errors"]
        result["traced_batch_s"] = traced_summary["batch_s"]
        result["traced_passes"] = len(traced)
        result["layers"] = layers
        tracing.write_spans(
            ROOT / ".corpusbench" / f"spans-{args.workload}.tsv",
            [parse_spans] + [p["spans"] for p in traced],
        )
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
