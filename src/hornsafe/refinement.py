"""Refined clause generation from a trace automaton.

A deterministic automaton over a program's clause ids carves out a
subset of its traces.  Pairing every predicate with the automaton
states its derivations can reach turns that trace-level restriction
back into an ordinary clause program: the new program's false-rooted
traces are exactly the kept ones, and each generated clause remembers
which source clause it instantiates.  Composing those origins round
after round gives one map from the current program's ids to the source
program's, and erase_trace renames the symbols of a trace's shape
(TraceTerm.shape) through it and rebuilds the trace, so no earlier
program need be kept to translate a counterexample back.  Generated
predicate names are interned: each grows by a state suffix every round,
and the atoms that name one predicate share one string.  Constraints
are copied untouched; only control is restructured.
"""

from __future__ import annotations

import sys

from hornsafe.chc_core import FALSE_PRED, Atom, Clause, Program
from hornsafe.fta import TraceTerm, TreeAutomaton


class RefinementError(Exception):
    pass


def _state_tokens(automaton: TreeAutomaton) -> dict[str, str]:
    return {state: f"q{i}" for i, state in enumerate(sorted(automaton.states))}


def generate_clauses(program: Program, automaton: TreeAutomaton) -> Program:
    """Product of the program with a deterministic trace automaton.

    Each transition c(q1,...,qk) -> q of the automaton instantiates the
    source clause c with every predicate indexed by its state; the head
    keeps the reserved name only where the automaton accepts.  Clauses
    whose head can never feed a derivation of false are dropped.
    """
    if not automaton.is_deterministic():
        raise RefinementError("clause generation needs a deterministic automaton")

    tokens = _state_tokens(automaton)

    def indexed(pred: str, state: str, final: bool) -> str:
        if pred == FALSE_PRED and final:
            return FALSE_PRED
        return sys.intern(f"{pred}__{tokens[state]}")

    order = {cid: i for i, cid in enumerate(program.clause_ids())}
    transitions = sorted(
        automaton.transitions, key=lambda tr: (order.get(tr[0], -1), tr[1], tr[2])
    )
    # each transition as its source clause and indexed predicate names
    shapes = []
    for cid, args, target in transitions:
        try:
            clause = program.clause_by_id(cid)
        except KeyError:
            raise RefinementError(f"automaton symbol {cid!r} is not a clause id")
        head = indexed(clause.head.pred, target, target in automaton.finals)
        body = [indexed(a.pred, q, False) for a, q in zip(clause.body, args)]
        shapes.append((clause, head, body))

    # keep only predicates that some derivation of false can use: those
    # reached from false through heads to the body atoms under them
    below: dict[str, list[str]] = {}
    for _, head, body in shapes:
        below.setdefault(head, []).extend(body)
    useful = {FALSE_PRED}
    work = [FALSE_PRED]
    while work:
        for pred in below.get(work.pop(), ()):
            if pred not in useful:
                useful.add(pred)
                work.append(pred)

    # the kept clauses numbered c1, c2, ...; Program collects the arities
    clauses = []
    for clause, head, body in shapes:
        if head not in useful:
            continue
        clauses.append(
            Clause(
                f"c{len(clauses) + 1}",
                Atom(head, clause.head.args),
                clause.constraint,
                tuple(Atom(pred, a.args) for pred, a in zip(body, clause.body)),
                origin=clause.cid,
            )
        )
    return Program(tuple(clauses))


def origin_lines(program: Program) -> str:
    return "".join(f"{c.cid}={c.origin}\n" for c in program if c.origin is not None)


def erase_trace(source: dict[str, str], trace: TraceTerm) -> TraceTerm:
    """Rename a trace's clause ids through source, a map from a
    generated program's ids to those of the program it descends from;
    a symbol the map lacks is kept."""
    return TraceTerm.from_shape(
        [(source.get(sym, sym), arity) for sym, arity in trace.shape()]
    )
