"""Seeded instance sets for the corpus benchmark.

Every instance carries the answer it must get and a one-line reason,
both fixed by how the program is built; neither comes from hornsafe.
The seed changes variable names and constants only.  The shape of each
program, and so the verifier's work on it, stays the same, which keeps
runs with different seeds comparable.

Kept out on purpose: programs that blow up Fourier-Motzkin projection.
hornsafe checks its timeout only between phases, so tri_sum at
--widen-delay 4 and fib-3 at --widen-delay 5 each ran past 120 s.  All
workloads use the CLI default delay 3, where every instance here ends
in about a second or less.  The blow-up cases can join once a row or
time budget inside the polyhedra layer turns them into UNKNOWN.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SAFE = "safe"
UNSAFE = "unsafe"


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    expected: str  # SAFE or UNSAFE; UNKNOWN is never expected
    reason: str


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str
    why: str
    build: Callable[[int, Path], list[Instance]]


def _rng(seed: int, name: str) -> random.Random:
    # string seeds hash the same in every process
    return random.Random(f"{seed}/{name}")


def _prefix_vars(text: str, rng: random.Random) -> str:
    """Alpha-rename every variable by one seeded prefix.

    A common prefix keeps the variables' name order, which fixes the
    solver's column and elimination order, so the work is unchanged.
    """
    prefix = "".join(rng.choice("BCDFGHJKLMNPQRSTVW") for _ in range(2))
    text = re.sub(r"%[^\n]*", "", text)
    return re.sub(r"\b[A-Z]\w*", lambda m: prefix + m.group(0), text)


# Families --------------------------------------------------------------
# Each generator takes the workload seed and returns one instance.


def fib_k(seed: int, k: int) -> Instance:
    """Fibonacci with k recursive calls.  Safe with no refinement, and
    the one-hull, many-row case that makes the kernel and minimise work:
    fib-2's hull projects to 91 rows that minimise cuts to 5."""
    name = f"fib-{k}"
    rng = _rng(seed, name)
    bound = rng.randint(3, 9)
    defs = ", ".join(f"A{i}=A-{i}" for i in range(1, k + 1))
    total = "+".join(f"B{i}" for i in range(1, k + 1))
    calls = ", ".join(f"fib(A{i},B{i})" for i in range(1, k + 1))
    text = (
        "fib(A,B) :- A>=0, A=<1, B=1.\n"
        f"fib(A,B) :- A>1, {defs}, B={total}, {calls}.\n"
        f"false :- A>{bound}, B<A, fib(A,B).\n"
    )
    return Instance(
        name,
        _prefix_vars(text, rng),
        SAFE,
        "A>=0, B>=1, B>=A is inductive (B >= B1 + k-1 >= A + k-2), so B<A never holds",
    )


def lockstep_k(seed: int, k: int) -> Instance:
    """k counters stepped together from seeded starts.  Safe with no
    refinement; the hull and widening must keep k-1 equalities, so the
    polyhedra layer works in k dimensions."""
    name = f"lockstep-{k}"
    rng = _rng(seed, name)
    starts = [rng.randint(0, 9) for _ in range(k)]
    xs = ",".join(f"X{i}" for i in range(1, k + 1))
    ys = ",".join(f"Y{i}" for i in range(1, k + 1))
    init = ", ".join(f"X{i}={s}" for i, s in enumerate(starts, start=1))
    step = ", ".join(f"Y{i}=X{i}+1" for i in range(1, k + 1))
    gap = starts[0] - starts[-1]
    text = (
        f"p({xs}) :- {init}.\n"
        f"p({ys}) :- {step}, p({xs}).\n"
        f"false :- X1-X{k}<{gap}, p({xs}).\n"
    )
    return Instance(
        name,
        _prefix_vars(text, rng),
        SAFE,
        f"every clause keeps X1-X{k} at {gap}",
    )


def split_k(seed: int, k: int) -> Instance:
    """k separate facts copied by a loop, with k-1 forbidden bands
    between them.  The hull of the facts covers every band, so the
    abstraction alone cannot prove it: rahit needs k-1 interpolant
    automata, while rahft removes one trace at a time and reaches the
    iteration limit, so determinisation, difference and clause
    regeneration carry the time."""
    name = f"split-{k}"
    rng = _rng(seed, name)
    points = [rng.randint(0, 5)]
    for _ in range(k - 1):
        points.append(points[-1] + rng.randint(3, 6))
    lines = [f"p(X) :- X={p}." for p in points]
    lines.append("p(Y) :- Y=X, p(X).")
    for lo, hi in zip(points, points[1:]):
        lines.append(f"false :- X>={lo + 1}, X=<{hi - 1}, p(X).")
    return Instance(
        name,
        _prefix_vars("\n".join(lines) + "\n", rng),
        SAFE,
        f"the copy clause keeps X, so p holds only at {points}, outside every band",
    )


def counter_to(seed: int, n: int) -> Instance:
    """A counter that really reaches start+n.  Unsafe, found after n
    refinement rounds that each peel one shorter infeasible trace, so it
    drives tree interpolation and the witness path; n stays within the
    iteration limit of 20."""
    name = f"counter-{n}"
    rng = _rng(seed, name)
    start = rng.randint(-5, 5)
    text = (
        f"i(X) :- X={start}.\n"
        "i(Y) :- Y=X+1, i(X).\n"
        f"false :- X={start + n}, i(X).\n"
    )
    return Instance(
        name,
        _prefix_vars(text, rng),
        UNSAFE,
        f"{n} step clauses take X from {start} to {start + n}",
    )


TRI_SUM = """\
p(X,Y,Z) :- X=0, Y=0, Z=0.
p(X1,Y1,Z1) :- X<10, X1=X+1, Y1=Y+X, Z1=Z+Y, p(X,Y,Z).
false :- Z<0, p(X,Y,Z).
"""


def tri_sum(seed: int) -> Instance:
    """Running sums of a counter.  Widening drops Z>=0, so rahit needs
    about ten refinement rounds of tree interpolation on a
    three-variable loop; the polyhedra layer projects larger systems
    than on any other instance here."""
    return Instance(
        "tri_sum",
        _prefix_vars(TRI_SUM, _rng(seed, "tri_sum")),
        SAFE,
        "X>=0 keeps Y, then Z, nondecreasing from 0, so Z<0 never holds",
    )


# answers fixed by each corpus file's construction, stated in its header
CORPUS_ANSWERS = {
    "fib": (SAFE, "B>=A holds from the base cases on and is inductive"),
    "count_up": (SAFE, "n starts at 0 and only increases"),
    "decrement": (SAFE, "q starts at or below 0 and only decreases"),
    "split_range": (SAFE, "p holds only at 0 and 3, outside the band [1,2]"),
    "unsafe_loop": (UNSAFE, "three step clauses take i from 0 to 3"),
    "unsafe_simple": (UNSAFE, "p(1) and 1>0"),
}


def corpus(seed: int, root: Path, stem: str) -> Instance:
    name = f"corpus/{stem}"
    text = (root / "corpus" / f"{stem}.chc").read_text(encoding="utf-8")
    expected, reason = CORPUS_ANSWERS[stem]
    return Instance(name, _prefix_vars(text, _rng(seed, name)), expected, reason)


# Workloads -------------------------------------------------------------


def _absint(seed: int, root: Path) -> list[Instance]:
    return [
        corpus(seed, root, "fib"),
        corpus(seed, root, "count_up"),
        corpus(seed, root, "decrement"),
        fib_k(seed, 2),
        fib_k(seed, 3),
        lockstep_k(seed, 2),
        lockstep_k(seed, 3),
        lockstep_k(seed, 4),
    ]


def _refine(seed: int, root: Path) -> list[Instance]:
    return [
        corpus(seed, root, "split_range"),
        corpus(seed, root, "unsafe_loop"),
        corpus(seed, root, "unsafe_simple"),
        tri_sum(seed),
        split_k(seed, 4),
        split_k(seed, 6),
        counter_to(seed, 8),
        counter_to(seed, 15),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "absint",
            "rahit",
            "safe programs decided by polyhedral analysis alone; mostly "
            "kernel and minimise time, automata and interpolation stay idle",
            _absint,
        ),
        Workload(
            "refine-rahit",
            "rahit",
            "programs that need refinement: tree interpolants, interpolant "
            "automata and the unsafe witness path",
            _refine,
        ),
        Workload(
            "refine-rahft",
            "rahft",
            "the refine-rahit set under single-trace removal: more "
            "iterations, determinisation, difference and clause regeneration",
            _refine,
        ),
    )
}
