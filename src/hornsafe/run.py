"""The state of one verify call: the memo of repeated steps and the
deadline.

The refinement loop reanalyses a regenerated program every round, and
its clauses carry the previous round's constraints unchanged, so some
coarse steps repeat.  Each is a function decorated with memoised(step),
where step is one of STEPS, fixed here in the order --stats-json prints
their counts: hull (lra.solver) and clause_post (absint), which also
decides trace feasibility bottom-up.
While a Run is current (driver.verify opens one for exactly its own
call, and restores the caller's on return) their results are kept in
it, one table per step keyed on its arguments, with hit and miss
counts; outside it they compute directly and keep nothing.  A
LinConstraint keeps its hash, so a key made of objects that already
exist hashes in constant time.  eliminate and Polyhedron.of are not
memoised on their own: the steps that repeat them memoise them whole,
and inside hull they do not repeat.  Nor are widen, is_sat, entails,
minimise and the kernel: their queries are mostly built afresh, and their repeats would save less than hashing the rows
of every new query once costs.  clause_post, not is_sat, decides
whether a trace is feasible; verify asks is_sat for a witness only to
replay a genuine counterexample on the source program.

A lookup is the hot path (nearly every one of the few thousand per
refinement pass hits), so it costs one context-variable read, one dict
get and one counter bump.

check() ends the current run as unknown with the reason timeout once
its deadline has passed; verify calls it before each phase.
"""

import functools
from contextvars import ContextVar
from time import monotonic

STEPS = ("hull", "clause_post")


class Unknown(Exception):
    """Ends verify with the verdict unknown; args[0] is the reason."""


class Run:
    """The memo tables of one verify call, one per step keyed on its
    arguments, their hit and miss counts, and the deadline (None for
    none).  The steps and check() consult it only while it is entered
    (with Run(timeout) as run)."""

    def __init__(self, timeout: float | None = None) -> None:
        self.deadline = None if timeout is None else monotonic() + timeout
        self.tables: dict[str, dict] = {step: {} for step in STEPS}
        self.hits = dict.fromkeys(STEPS, 0)
        self.misses = dict.fromkeys(STEPS, 0)

    def __enter__(self) -> "Run":
        self._token = _current_run.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _current_run.reset(self._token)


_current_run: ContextVar[Run | None] = ContextVar("hornsafe_run", default=None)


def check() -> None:
    """Raise Unknown("timeout") once the current run's deadline has passed."""
    run = _current_run.get()
    if run is not None and run.deadline is not None and monotonic() > run.deadline:
        raise Unknown("timeout")


def memoised(step: str):
    """Decorator: look each argument tuple up in the current run's table
    for step, if a run is current, before computing."""
    if step not in STEPS:
        raise ValueError(f"{step!r} is not one of the memo steps {STEPS}")

    def decorate(fn):
        @functools.wraps(fn)
        def lookup(*args):
            run = _current_run.get()
            if run is None:
                return fn(*args)
            out = run.tables[step].get(args)
            if out is None:
                run.misses[step] += 1
                out = run.tables[step][args] = fn(*args)
            else:
                run.hits[step] += 1
            return out

        return lookup

    return decorate
