"""Benchmark of the feasibility kernel against the dense reference simplex.

Runs kernel.simplex_feasible and the dense m x (m+n) reference simplex
from tests/oracles.py over the same batches of row systems, checks that
their answers are identical, and reports the wall time of each.  Three
shapes: random systems of up to --cols columns and --rows rows; tall,
narrow systems of 2 columns and 60-90 rows, like the entailment checks
that prune a hull; and Farkas multiplier systems of 26-32 columns and
about 40 rows, like the interpolation queries.

Usage: PYTHONPATH=src python3 benchmarks/bench_simplex.py [--trials N] [--seed S]
"""

from __future__ import annotations

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

from hornsafe.lra import kernel
from hornsafe.lra.kernel import REL_EQ, REL_LE, REL_LT

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

from gen import farkas_system, tall_narrow_system  # noqa: E402
from oracles import dense_simplex_reference  # noqa: E402


def random_system(rng: random.Random, ncols: int, nrows: int):
    rows = []
    for _ in range(nrows):
        coeffs = [
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)
        ]
        rel = rng.choice((REL_LE, REL_LE, REL_LT, REL_EQ))
        rhs = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
        rows.append((coeffs, rel, rhs))
    return ncols, rows


def bench(fn, systems):
    t0 = time.perf_counter()
    results = [fn(ncols, rows) for ncols, rows in systems]
    return time.perf_counter() - t0, results


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--cols", type=int, default=8)
    ap.add_argument("--rows", type=int, default=12)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    shapes = {
        "random": [
            random_system(rng, rng.randint(2, args.cols), rng.randint(2, args.rows))
            for _ in range(args.trials)
        ],
        "tall-narrow": [tall_narrow_system(rng) for _ in range(args.trials // 4)],
        "farkas": [farkas_system(rng) for _ in range(args.trials // 8)],
    }
    for name, systems in shapes.items():
        t_ref, r_ref = bench(dense_simplex_reference, systems)
        t_new, r_new = bench(kernel.simplex_feasible, systems)
        print(
            f"{name:11s} {len(systems):4d} systems: kernel {t_new * 1000:8.1f} ms, "
            f"dense reference {t_ref * 1000:8.1f} ms, ratio {t_ref / t_new:.1f}x"
        )
        if r_new != r_ref:
            print(f"MISMATCH: kernel and reference disagree on a {name} system")
            return 1
    print("identical results on all systems")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
