"""Checks a verdict against the instance's known answer.

An UNSAFE verdict must also come with a witness that replays: the
reported trace is instantiated in the original program, and every
clause constraint along it is evaluated exactly at the witness point,
with plain Fraction arithmetic rather than hornsafe's solver.
"""

from __future__ import annotations

from fractions import Fraction

from hornsafe.chc_core import FALSE_PRED, REL_EQ, REL_LE, REL_LT, Program


class ReplayError(Exception):
    pass


def replay_witness(program: Program, trace, witness) -> None:
    """Raise ReplayError unless the witness satisfies every clause
    constraint of the trace's derivation tree.

    Node i of the tree (preorder, root 1) renames each clause variable V
    to V_n<i>, except that its head arguments take the names of the
    parent's body atom: the naming hornsafe prints witnesses in.
    """
    if trace is None or not witness:
        raise ReplayError("unsafe verdict without a trace and witness")
    values = {v.name: Fraction(x) for v, x in witness.items()}
    clauses = {c.cid: c for c in program}
    count = 0

    def visit(term, pred: str, inherited: tuple[str, ...]) -> None:
        nonlocal count
        count += 1
        index = count
        clause = clauses.get(term.sym)
        if clause is None:
            raise ReplayError(f"{term.sym} is not a clause of the program")
        if clause.head.pred != pred:
            raise ReplayError(f"{term.sym} concludes {clause.head.pred}, not {pred}")
        if len(term.children) != len(clause.body):
            raise ReplayError(f"{term.sym} has the wrong number of subterms")
        names = {v: f"{v.name}_n{index}" for v in clause.vars()}
        names.update(zip(clause.head.args, inherited))
        for row in clause.constraint.rows:
            try:
                lhs = sum(c * values[names[v]] for v, c in row.terms)
            except KeyError as exc:
                raise ReplayError(f"witness has no value for {exc.args[0]}") from None
            holds = {
                REL_LE: lhs <= row.rhs,
                REL_LT: lhs < row.rhs,
                REL_EQ: lhs == row.rhs,
            }[row.rel]
            if not holds:
                raise ReplayError(f"node {index} ({term.sym}) violates {row}")
        for atom, child in zip(clause.body, term.children):
            visit(child, atom.pred, tuple(names[a] for a in atom.args))

    visit(trace, FALSE_PRED, ())


def check(program: Program, verdict, expected: str) -> str | None:
    """None when the verdict is acceptable, else why it is not.
    UNKNOWN is undecided, never wrong."""
    if verdict.status == "unknown":
        return None
    if verdict.status != expected:
        return f"answered {verdict.status}, expected {expected}"
    if verdict.status == "unsafe":
        try:
            replay_witness(program, verdict.trace, verdict.witness)
        except ReplayError as exc:
            return f"witness does not replay: {exc}"
    return None
