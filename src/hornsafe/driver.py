"""The abstraction-refinement loop.

Each round abstracts the current program with polyhedral analysis; a
model that excludes false proves safety.  Otherwise the model's trace
automaton yields a smallest suspicious trace.  Its feasibility is
decided from the clause posts of its subtrees (derivations.feasible),
which the analysis has mostly computed already, so a spurious trace
costs no derivation tree and no satisfiability call.  A feasible trace
is a genuine counterexample: it is translated back to the original
clause ids and replayed there, where is_sat solves its derivation
formula for the witness.  A post too large could only send a spurious trace to
that replay, which then ends as unknown (internal).  An infeasible
trace is generalised to an automaton of infeasible traces, which is
subtracted from the program's trace language; regenerating clauses for
the remainder gives the next, strictly smaller, verification problem.

Two remover constructions are supported: "rahft" subtracts just the
spurious trace, "rahit" subtracts the whole language of its
interpolant automaton, which can only be larger; under rahit the
remover phase builds the derivation tree it interpolates.

A phase that builds a number too long to print (more than
chc_core.MAX_PRINTED_DIGITS digits), runs out of Python stack or runs
out of memory ends the run as unknown, with the reason
resource:<phase>.  The replay of a genuine counterexample on the
original program is part of the feasibility phase.

verify opens a Run (see hornsafe.run) for exactly its own call, so no
memoised result crosses two calls; it checks the run's deadline before
each phase and reports the run's memo hit and miss counts in
Stats.memo.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from hornsafe.absint import analyze
from hornsafe.chc_core import NumberTooLongError, Program, Variable
from hornsafe.derivations import and_tree, feasible, formula
from hornsafe.fta import (
    TraceTerm,
    difference,
    find_accepted,
    model_fta,
    singleton_fta,
)
from hornsafe.lra import is_sat
from hornsafe.refinement import erase_trace, generate_clauses, origin_lines
from hornsafe.run import STEPS, Run, Unknown, check
from hornsafe.tree_interpolation import interpolant_automaton, tree_interpolant

ENGINES = ("rahit", "rahft")

DumpSink = Callable[[str, str], None]


@dataclass
class Stats:
    engine: str
    iterations: int = 0
    times_ms: dict[str, float] = field(default_factory=dict)
    automata: list[dict[str, int]] = field(default_factory=list)
    memo: dict[str, dict[str, int]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "iterations": self.iterations,
            "times_ms": {k: round(v, 3) for k, v in self.times_ms.items()},
            "automata": self.automata,
            "memo": self.memo,
        }


@dataclass(frozen=True)
class Verdict:
    status: str  # safe | unsafe | unknown
    stats: Stats
    trace: TraceTerm | None = None
    witness: dict[Variable, Fraction] | None = None
    reason: str | None = None

    @property
    def exit_code(self) -> int:
        return {"safe": 0, "unsafe": 1, "unknown": 2}[self.status]


def verify(
    program: Program,
    engine: str = "rahit",
    max_iter: int = 20,
    widen_delay: int = 3,
    timeout: float | None = None,
    dump_sink: DumpSink | None = None,
) -> Verdict:
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if max_iter < 0:
        raise ValueError("max_iter must be nonnegative")
    if timeout is not None and math.isnan(timeout):
        raise ValueError("timeout must be a number of seconds, not NaN")

    stats = Stats(engine=engine)

    def timed(phase: str, fn, *args):
        check()
        start = time.perf_counter()
        try:
            return fn(*args)
        except (NumberTooLongError, RecursionError, MemoryError):
            raise Unknown(f"resource:{phase}") from None
        finally:
            stats.times_ms[phase] = stats.times_ms.get(phase, 0.0) + (
                time.perf_counter() - start
            ) * 1000.0

    def dump(name: str, render, *args):
        # rendering costs time, so only a set sink pays for it
        if dump_sink is not None:
            dump_sink(name, render(*args))

    def check_trace(trace: TraceTerm):
        # None for a spurious trace, decided from its clause posts with
        # no derivation tree; for a feasible one, that trace over the
        # original clause ids and the point is_sat gives for its
        # derivation formula there (None if that formula is unsatisfiable)
        if feasible(current, trace) is None:
            return None, None
        original = trace
        for generated in reversed(programs[1:]):
            original = erase_trace(generated, original)
        return original, is_sat(formula(and_tree(program, original)))

    programs = [program]
    current = program
    with Run(timeout) as run:
        try:
            dump("iter0.program.chc", current.pretty)
            for iteration in range(max_iter + 1):
                stats.iterations = iteration
                model = timed("analyze", analyze, current, widen_delay)
                dump(f"iter{iteration}.model.txt", model.pretty, current.arities)
                if not model.has_false:
                    return Verdict("safe", stats)

                mfta = timed("model_fta", model_fta, current, model)
                dump(f"iter{iteration}.model_fta.txt", mfta.dump)
                sizes = {
                    "model_states": len(mfta.states),
                    "model_transitions": len(mfta.transitions),
                }
                stats.automata.append(sizes)
                trace = timed("counterexample", find_accepted, mfta)
                if trace is None:
                    # abstraction kept false reachable only through pruned
                    # transitions; no candidate trace remains
                    return Verdict("safe", stats)

                original, point = timed("feasibility", check_trace, trace)
                if original is not None:
                    if point is None:
                        return Verdict(
                            "unknown", stats, reason="internal", trace=original
                        )
                    return Verdict("unsafe", stats, trace=original, witness=point)

                if iteration == max_iter:
                    return Verdict("unknown", stats, reason="iteration-limit")

                if engine == "rahft":
                    remover = timed("remover", singleton_fta, trace)
                else:
                    def build_remover():
                        tree = and_tree(current, trace)
                        return interpolant_automaton(
                            current, tree, tree_interpolant(tree)
                        )

                    remover = timed("remover", build_remover)
                dump(f"iter{iteration}.remover.txt", remover.dump)
                sizes["remover_states"] = len(remover.states)
                sizes["remover_transitions"] = len(remover.transitions)

                # the model automaton has one transition per clause id,
                # so its product with the remover's subset construction
                # is deterministic, as clause generation needs
                kept = timed("difference", difference, mfta, remover)
                sizes["difference_states"] = len(kept.states)
                sizes["difference_transitions"] = len(kept.transitions)
                current = timed("clausegen", generate_clauses, current, kept)
                programs.append(current)
                dump(f"iter{iteration + 1}.program.chc", current.pretty)
                dump(f"iter{iteration + 1}.idmap.txt", origin_lines, current)
            raise AssertionError("unreachable")
        except Unknown as exc:
            return Verdict("unknown", stats, reason=exc.args[0])
        finally:
            stats.memo = {step: {"hits": run.hits[step], "misses": run.misses[step]} for step in STEPS}
