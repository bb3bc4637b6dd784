"""Corpus benchmark for hornsafe: time to verdict, refinement iterations
and memory per workload, with a traced per-layer breakdown.

    python3 corpusbench/run.py --workload absint --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The load is a closed loop in one
process: every workload run happens in a fresh child process
(measure.py) that verifies one instance at a time through
hornsafe.driver.verify with the CLI defaults, checking every verdict
against the instance's known answer.  Before it, several fresh
interpreters each import hornsafe, generate and parse the instances and
stop where the first verify call would start; their median is setup_s.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
The last line of output is one JSON object.  The exit code is 0 only
when every execution was correct and the run ended within its guard.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
# hornsafe checks --timeout only between phases, so a runaway projection
# is stopped from outside: a child still running this long after its
# budget is killed and the run reported as failed
GUARD_EXTRA_S = 60.0


class RunFailed(Exception):
    pass


def _child(args: list[str], timeout: float) -> tuple[float, dict]:
    """Start measure.py, wait at most timeout seconds, and return the
    monotonic start time and the JSON it printed last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    command = [sys.executable, str(HERE / "measure.py"), *args]
    started = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"child ran past its {timeout:.0f} s guard and was killed") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunFailed(f"child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunFailed("child printed no result")
    return started, json.loads(lines[-1])


def measure_setup(common: list[str]) -> float:
    """Median seconds from starting a fresh interpreter to the first
    verify call.  One extra probe first fills the bytecode cache, which
    an installed package ships with."""
    samples = []
    for i in range(SETUP_PROBES + 1):
        started, ready = _child([*common, "--setup-only"], GUARD_EXTRA_S)
        if i:
            samples.append((ready["ready"] - started) * ready["scale"])
    return statistics.median(samples)


def _print_instances(result: dict) -> None:
    print(f"{'instance':18} {'expected':8} {'verdict':8} {'iters':>5} "
          f"{'median_ms':>10} {'max_ms':>10} {'n':>3}")
    for row in result["instances"]:
        print(f"{row['instance']:18} {row['expected']:8} {row['verdict']:8} "
              f"{row['iterations']:5d} {row['median_ms']:10.2f} "
              f"{row['max_ms']:10.2f} {row['n']:3d}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = ("BENCHMARK.json", "src/hornsafe/__init__.py", "corpus")
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        print(f"corpusbench: not a hornsafe checkout, missing {missing}", file=sys.stderr)
        return 2

    # metric names and units come from the benchmark's definition
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} (engine {workload.engine}): {workload.why}")
    try:
        setup_s = None if args.trace else measure_setup(common)
        guard = args.seconds + GUARD_EXTRA_S
        _, result = _child([*common, "--trace"] if args.trace else common, guard)
    except RunFailed as exc:
        print(f"corpusbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    _print_instances(result)
    for error in result["errors"]:
        print(f"FAILED {error}")
    error_ratio = result["failed"] / result["attempted"]
    if args.trace:
        layers = dict(result["layers"])
        for phase, ms in result["phases_ms"].items():
            layers[f"driver.{phase}_ms"] = ms
        layers["trace.overhead_s"] = result["traced_batch_s"] - result["batch_s"]
        print(f"traced passes {result['traced_passes']}, untraced passes {result['passes']}")
        values, wanted = layers, spec["per_layer"]
    else:
        result["setup_s"] = setup_s
        print(f"passes {result['passes']}, unscaled batch_s {result['unscaled_batch_s']:.4f}, "
              f"host speed scale {result['scale']:.3f}")
        values, wanted = result, spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:44} {metric['value']:14.4f} {metric['unit']}")
    print(f"{'refine_iterations':44} {result['refine_iterations']:14d} count")
    print(f"{'error_ratio':44} {error_ratio:14.4f} ratio")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
