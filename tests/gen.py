"""Random input generators shared by the tests."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hornsafe.chc_core import REL_EQ, REL_LE, REL_LT, Atom, Clause, LinConstraint, Row, Variable
from hornsafe.fta import TraceTerm, TreeAutomaton
from hornsafe.lra import Polyhedron
from hornsafe.model import canonical_args

VARS = [Variable(n) for n in ("U", "V", "W", "X", "Y", "Z")]
WIDE_VARS = [Variable(f"X{i}") for i in range(8)]


def random_row(rng: random.Random, nvars: int, *, allow_eq: bool = True) -> Row:
    pool = VARS[:nvars]
    coeffs = {}
    for v in rng.sample(pool, rng.randint(1, nvars)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            coeffs[v] = c
    rels = [REL_LE, REL_LE, REL_LT] + ([REL_EQ] if allow_eq else [])
    rhs = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
    return Row.make(coeffs, rng.choice(rels), rhs)


def random_constraint(
    rng: random.Random,
    *,
    max_vars: int = 6,
    max_rows: int = 10,
    allow_eq: bool = True,
) -> LinConstraint:
    nvars = rng.randint(1, max_vars)
    nrows = rng.randint(1, max_rows)
    return LinConstraint(
        tuple(random_row(rng, nvars, allow_eq=allow_eq) for _ in range(nrows))
    )


def strict_vertex_constraint(rng: random.Random) -> LinConstraint:
    """Strict rows whose solutions crowd against one vertex: a chain
    a < X1 < X2 < ... < Xn < a + 1/k over one to three variables
    (X > a, X < a + 1/k alone; X > 0, Y > X, Y < 1 with a = 0, k = 1),
    each row scaled by a seeded positive factor.  A point needs a delta
    step well below 1, since the chain's n + 1 gaps share a width of at
    most 1."""
    xs = VARS[: rng.randint(1, 3)]
    a = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    top = a + Fraction(1, rng.randint(1, 9))

    def scaled(coeffs: dict, rhs: Fraction) -> Row:
        s = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        return Row.make({v: s * c for v, c in coeffs.items()}, REL_LT, s * rhs)

    rows = [scaled({xs[0]: -1}, -a)]
    rows += [scaled({lo: 1, hi: -1}, Fraction(0)) for lo, hi in zip(xs, xs[1:])]
    rows.append(scaled({xs[-1]: 1}, top))
    rng.shuffle(rows)
    return LinConstraint(tuple(rows))


def wide_system(rng: random.Random) -> tuple[LinConstraint, list[Variable]]:
    """6-8 variables, 10-14 inequality rows of 2-4 terms, all strictly
    satisfied at the origin, and the variables to keep: all but 3 or 4.
    Fourier-Motzkin on these meets rows combined from more input rows
    than its rounds so far plus one."""
    pool = WIDE_VARS[: rng.randint(6, 8)]
    rows = []
    for _ in range(rng.randint(10, 14)):
        terms = rng.sample(pool, rng.randint(2, 4))
        coeffs = {v: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for v in terms}
        rows.append(Row.make(coeffs, rng.choice([REL_LE, REL_LE, REL_LT]), rng.randint(1, 6)))
    constraint = LinConstraint(tuple(rows))
    xs = sorted(constraint.vars())
    return constraint, rng.sample(xs, len(xs) - rng.randint(3, 4))


CLAUSE_VARS = [Variable(n) for n in ("A", "B", "C", "D", "E", "F")]


def _post_rows(rng: random.Random, pool: list[Variable], nrows: int) -> LinConstraint:
    """nrows rows of 1-3 terms over pool; coefficients +-1, +-2 or +-3
    over 1 or 2, and two rows in five equalities."""
    rows = []
    for _ in range(nrows):
        terms = rng.sample(pool, rng.randint(1, min(3, len(pool))))
        coeffs = {v: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for v in terms}
        rel = rng.choice((REL_LE, REL_LE, REL_LT, REL_EQ, REL_EQ))
        rows.append(Row.make(coeffs, rel, Fraction(rng.randint(-4, 4), rng.randint(1, 2))))
    return LinConstraint(tuple(rows))


def post_case(rng: random.Random) -> tuple[Clause, tuple[Polyhedron, ...]]:
    """A clause over A-F with a head of arity 0-3, 0-3 body atoms of
    arity 0-3 and 0-4 constraint rows, and for each body atom a
    polyhedron over its canonical arguments: empty, top, or minimised
    from 1-3 random rows (which can leave it empty)."""
    head = Atom("p", tuple(rng.sample(CLAUSE_VARS, rng.randint(0, 3))))
    body = []
    polys = []
    for i in range(rng.randint(0, 3)):
        n = rng.randint(0, 3)
        body.append(Atom(f"q{i}", tuple(rng.sample(CLAUSE_VARS, n))))
        kind = rng.choice(("empty", "top", "rows", "rows", "rows"))
        if kind == "empty":
            polys.append(Polyhedron.bottom())
        elif kind == "top" or n == 0:
            polys.append(Polyhedron.top())
        else:
            polys.append(Polyhedron.of(_post_rows(rng, list(canonical_args(n)), rng.randint(1, 3))))
    constraint = _post_rows(rng, CLAUSE_VARS[: rng.randint(2, 6)], rng.randint(0, 4))
    return Clause("c1", head, constraint, tuple(body)), tuple(polys)


PIVOT_DROP = [Variable(n) for n in ("P", "Q", "R")]
PIVOT_KEEP = [Variable(n) for n in ("X", "Y", "Z")]


def pivot_system(rng: random.Random) -> tuple[LinConstraint, list[Variable]]:
    """Integer rows over dropped P, Q, R and kept X, Y, Z, and the
    variables to keep.  Most dropped variables get an equality whose
    first dropped variable in name order is that one, with coefficient
    +-1, +-2 or +-3; when it is not 1, the other coefficients are
    sometimes multiples of it.  Half of them have a second equality on
    the same variable and a kept one, which substitution leaves over
    kept variables.  1-4 inequality rows join them, some with a common
    factor of 2 or 3 and some over denominator 2, and the rows come in
    random order."""
    drop = PIVOT_DROP[: rng.randint(1, 3)]
    keep = PIVOT_KEEP[: rng.randint(1, 3)]
    small = (-3, -2, -1, 1, 2, 3)
    rows = []
    for i, d in enumerate(drop):
        if rng.random() < 0.2:
            continue
        k = rng.choice(small)
        step = abs(k) if rng.random() < 0.4 else 1
        coeffs = {d: k}
        others = drop[i + 1 :] + keep
        for v in rng.sample(others, rng.randint(1, min(2, len(others)))):
            coeffs[v] = step * rng.choice(small)
        rows.append(Row.make(coeffs, REL_EQ, step * rng.randint(-4, 4)))
        if rng.random() < 0.5:
            # a second equality on d is left over kept variables, in
            # the scale substitution gives it
            coeffs = {d: rng.choice(small), rng.choice(keep): rng.choice(small)}
            rows.append(Row.make(coeffs, REL_EQ, rng.randint(-4, 4)))
    for _ in range(rng.randint(1, 4)):
        factor = rng.choice((1, 1, 2, 3))
        den = rng.choice((1, 1, 2))
        terms = rng.sample(drop + keep, rng.randint(1, min(3, len(drop) + len(keep))))
        coeffs = {v: Fraction(factor * rng.choice(small), den) for v in terms}
        rel = rng.choice((REL_LE, REL_LE, REL_LT))
        rows.append(Row.make(coeffs, rel, Fraction(factor * rng.randint(-6, 6), den)))
    rng.shuffle(rows)
    return LinConstraint(tuple(rows)), keep


def tall_narrow_system(rng: random.Random):
    """The shape of an entailment check after a hull: 2 columns and
    60-90 rows bounding a polygon away from the origin, plus one negated
    row that may or may not cut the polygon off.  Returns (ncols, rows)
    over Fractions; kernel_rows turns them into the kernel's form."""
    cx = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
    cy = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
    rows = []
    for _ in range(rng.randint(60, 90)):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
        margin = Fraction(rng.randint(0, 8), rng.randint(1, 3))
        rel = rng.choice((REL_LE, REL_LE, REL_LE, REL_LT))
        if rel == REL_LT and margin == 0:
            margin = Fraction(1)
        rows.append(([a, b], rel, a * cx + b * cy + margin))
    if rng.random() < 0.1:
        rows.append(([Fraction(1), Fraction(-1)], REL_EQ, cx - cy))
    a, b = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
    rows.append(([-a, -b], REL_LT, -(a * cx + b * cy) - rng.randint(-4, 12)))
    return 2, rows


def narrow_system(rng: random.Random):
    """The shape of the analysis' yes/no queries: 0-3 columns and 1-9
    rows, mostly tight at one point, so bounds tie.  A row's negation
    with the same bound often follows it, strict or not; equalities pass
    through the point; some rows are ground; coefficients are Fractions,
    so rows reach the kernel with scales other than 1.  Returns (ncols,
    rows) over Fractions; kernel_rows turns them into the kernel's
    form."""
    ncols = rng.randint(0, 3)
    point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
    rows = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.1:
            coeffs = [Fraction(0)] * ncols
        else:
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        at_point = sum(c * x for c, x in zip(coeffs, point))
        rel = rng.choice((REL_LE, REL_LE, REL_LT, REL_EQ))
        rhs = at_point
        if rel != REL_EQ:
            rhs += rng.choice((0, 0, 1, 1, -1)) * Fraction(1, rng.randint(1, 3))
        rows.append((coeffs, rel, rhs))
        if rng.random() < 0.3:
            rows.append(([-c for c in coeffs], rng.choice((REL_LE, REL_LE, REL_LT)), -rhs))
    return ncols, rows


def farkas_system(rng: random.Random):
    """The shape of a Farkas multiplier system: one column per row of a
    random infeasibility question over a few variables, cancellation
    equalities, nonnegative multipliers, a few pinned to zero, and a
    budget on the combined right-hand side.  Returns (ncols, rows) over
    Fractions; kernel_rows turns them into the kernel's form."""
    nvars = rng.randint(3, 6)
    m = rng.randint(26, 32)
    # rows through a common point have no refutation, so no multipliers
    point = [Fraction(rng.randint(-3, 3)) for _ in range(nvars)]
    feasible = rng.random() < 0.5
    split = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nvars)]
        if feasible:
            rhs = sum(c * x for c, x in zip(coeffs, point)) + rng.randint(1, 4)
        else:
            rhs = Fraction(rng.randint(-6, 8))
        split.append((coeffs, rng.random() < 0.3, rhs))
    rows = []
    for v in range(nvars):
        rows.append(([split[i][0][v] for i in range(m)], REL_EQ, Fraction(0)))
    for i in range(m):
        dense = [Fraction(0)] * m
        dense[i] = Fraction(-1)
        rows.append((dense, REL_LE, Fraction(0)))
    for i in rng.sample(range(m), rng.randint(0, 3)):
        dense = [Fraction(0)] * m
        dense[i] = Fraction(1)
        rows.append((dense, REL_EQ, Fraction(0)))
    rhs_dense = [split[i][2] for i in range(m)]
    if rng.random() < 0.5:
        rows.append((rhs_dense, REL_LE, Fraction(-1)))
    else:
        rows.append((rhs_dense, REL_LE, Fraction(0)))
        strict = [Fraction(-1) if split[i][1] else Fraction(0) for i in range(m)]
        rows.append((strict, REL_LE, Fraction(-1)))
    return m, rows


def _large_prime(rng: random.Random) -> int:
    while True:
        n = rng.randint(100_000, 1_000_000) | 1
        if all(n % f for f in range(3, 1001, 2)):
            return n


def large_denominator_system(rng: random.Random):
    """Rows over 2-4 columns whose coefficients and right-hand sides
    have large prime denominators (up to 10^6) and numerators up to
    10^9, so each row scales by a large lcm.  About half of the systems
    keep a random point feasible.  Returns (ncols, rows) over
    Fractions; kernel_rows turns them into the kernel's form."""
    ncols = rng.randint(2, 4)
    point = [Fraction(rng.randint(-10**6, 10**6), _large_prime(rng)) for _ in range(ncols)]
    feasible = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(3, 8)):
        coeffs = [
            Fraction(rng.randint(-10**9, 10**9), _large_prime(rng)) for _ in range(ncols)
        ]
        rel = rng.choice((REL_LE, REL_LE, REL_LT, REL_EQ))
        at_point = sum(c * x for c, x in zip(coeffs, point))
        margin = Fraction(rng.randint(0, 10**9), _large_prime(rng))
        if rel == REL_EQ:
            rhs = at_point
        elif feasible:
            rhs = at_point + margin + (rel == REL_LT)
        else:
            rhs = at_point - margin
        rows.append((coeffs, rel, rhs))
    return ncols, rows


def zero_row_system(rng: random.Random):
    """0-3 columns, random rows mixed with all-zero rows ``0 rel b``;
    with 0 columns every row is all-zero.  Returns (ncols, rows) over
    Fractions; kernel_rows turns them into the kernel's form."""
    ncols = rng.randint(0, 3)
    rows = []
    for _ in range(rng.randint(1, 6)):
        if ncols and rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        else:
            coeffs = [Fraction(0)] * ncols
        rel = rng.choice((REL_LE, REL_LT, REL_EQ))
        rows.append((coeffs, rel, Fraction(rng.randint(-2, 6), rng.randint(1, 3))))
    return ncols, rows


def kernel_rows(rows):
    """Fraction rows (coeffs, rel, rhs) as kernel.simplex_feasible takes
    them: each row times L, the lcm of its denominators, as (integer
    coeffs, rel, integer rhs, L)."""
    out = []
    for coeffs, rel, rhs in rows:
        scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        out.append(([int(c * scale) for c in coeffs], rel, int(rhs * scale), scale))
    return out


def random_automaton(
    rng: random.Random,
    *,
    max_states: int = 4,
    max_arity: int = 2,
    symbols: int = 3,
    alphabet: dict[str, int] | None = None,
    max_transitions: int | None = None,
    deterministic: bool = False,
) -> TreeAutomaton:
    """Small random tree automaton; at least one nullary symbol so the
    language has a chance of being nonempty.  Pass alphabet to share it
    between two automata; deterministic keeps at most one target per
    symbol and argument tuple."""
    states = [f"q{i}" for i in range(rng.randint(1, max_states))]
    if alphabet is None:
        alphabet = {"a0": 0}
        for i in range(1, symbols):
            alphabet[f"a{i}"] = rng.randint(0, max_arity)
    transitions = set()
    for sym, arity in alphabet.items():
        for combo in itertools.product(states, repeat=arity):
            if rng.random() < 0.4:
                transitions.add((sym, combo, rng.choice(states)))
            if not deterministic and rng.random() < 0.15:
                transitions.add((sym, combo, rng.choice(states)))
    if max_transitions is not None and len(transitions) > max_transitions:
        transitions = set(
            rng.sample(sorted(transitions), max_transitions)
        )
    finals = frozenset(q for q in states if rng.random() < 0.5)
    return TreeAutomaton(frozenset(states), finals, alphabet, frozenset(transitions))


def random_trace_term(
    rng: random.Random, symbols: list[str], *, nodes: int = 12
) -> TraceTerm:
    """Random trace term over the given symbols, each node's children
    drawn from the nodes built before it, so one subterm object often
    occurs at several places.  A symbol may appear at several arities."""
    pool: list[TraceTerm] = []
    for _ in range(nodes):
        arity = rng.randint(0, 3) if pool else 0
        pool.append(
            TraceTerm(rng.choice(symbols), tuple(rng.choice(pool) for _ in range(arity)))
        )
    return pool[-1]


def random_program_text(rng: random.Random) -> str:
    """Random linear-clause program over unary predicates p and q with
    at least one integrity clause.  Clause bodies use at most three
    variables, so every derivation stays well inside five."""

    def rows(names: list[str], n: int) -> str:
        out = []
        for _ in range(n):
            take = rng.sample(names, rng.randint(1, min(3, len(names))))
            text = take[0]
            for v in take[1:]:
                text += f" {rng.choice('+-')} {v}"
            rel = rng.choice([">=", "=<", "<", ">", "="])
            out.append(f"{text} {rel} {rng.randint(-4, 4)}")
        return ", ".join(out)

    cl = [
        f"p(A) :- {rows(['A'], rng.randint(1, 2))}.",
        f"q(A) :- {rows(['A'], rng.randint(1, 2))}.",
    ]
    if rng.random() < 0.8:
        cl.append(f"p(A) :- {rows(['A', 'B'], rng.randint(1, 2))}, q(B).")
    if rng.random() < 0.6:
        cl.append(f"q(A) :- {rows(['A', 'B'], rng.randint(1, 2))}, p(B).")
    if rng.random() < 0.5:
        cl.append(
            f"p(A) :- {rows(['A', 'B', 'C'], rng.randint(1, 2))}, p(B), q(C)."
        )
    cl.append(f"false :- {rows(['A'], rng.randint(1, 2))}, p(A).")
    if rng.random() < 0.4:
        cl.append(f"false :- {rows(['A'], 1)}, q(A).")
    return "\n".join(cl) + "\n"


def fib_k_text(rng: random.Random, k: int) -> str:
    """Fibonacci with k recursive calls and a seeded bound: the
    recursive clause c2 has k body atoms, so its derivation trees
    branch and every node but a last child has later siblings."""
    bound = rng.randint(3, 9)
    defs = ", ".join(f"A{i}=A-{i}" for i in range(1, k + 1))
    total = "+".join(f"B{i}" for i in range(1, k + 1))
    calls = ", ".join(f"fib(A{i},B{i})" for i in range(1, k + 1))
    return (
        "fib(A,B) :- A>=0, A=<1, B=1.\n"
        f"fib(A,B) :- A>1, {defs}, B={total}, {calls}.\n"
        f"false :- A>{bound}, B<A, fib(A,B).\n"
    )


def counter_text(rng: random.Random, n: int) -> str:
    """A counter from a seeded start that reaches start+n: unsafe, and
    rahit refutes one chain of step clauses per round before it finds
    the counterexample n steps deep."""
    start = rng.randint(-5, 5)
    return (
        f"i(X) :- X={start}.\n"
        "i(Y) :- Y=X+1, i(X).\n"
        f"false :- X={start + n}, i(X).\n"
    )


def split_text(rng: random.Random, k: int) -> str:
    """k seeded points copied by a loop, with a forbidden band between
    each two: safe, and the hull of the points covers every band, so
    rahit refutes one band per round."""
    points = [rng.randint(0, 5)]
    for _ in range(k - 1):
        points.append(points[-1] + rng.randint(3, 6))
    lines = [f"p(X) :- X={p}." for p in points]
    lines.append("p(Y) :- Y=X, p(X).")
    for lo, hi in zip(points, points[1:]):
        lines.append(f"false :- X>={lo + 1}, X=<{hi - 1}, p(X).")
    return "\n".join(lines) + "\n"
