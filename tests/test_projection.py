"""Integer projection against the Fraction reference.

eliminate and hull keep their rows as integers from the input to the
final Row (oracles.project hands eliminate a constraint's rows).
oracles.project_reference and oracles.hull_reference run the same
eliminations over Fractions, without Chernikov's rule.  On
small systems, where the rule leaves out no row the reference keeps,
both must print the very same result, not merely an equivalent one;
on larger ones the projection must stay equivalent to the reference.

oracles.eliminate_reference is eliminate with the bookkeeping it had
before that was rewritten for speed; on every kind of system that
reaches eliminate, both must return the very same rows in the same
order, or both refuse the input with NumberTooLongError.
"""

import random
from collections import Counter

import pytest

import oracles
from gen import pivot_system, post_case, random_constraint, wide_system
from oracles import project
from hornsafe import absint
from hornsafe.chc_core import (
    FALSE,
    MAX_PRINTED_DIGITS,
    REL_EQ,
    REL_LE,
    REL_LT,
    TRUE,
    NumberTooLongError,
    Variable,
    parse_constraint,
)
from hornsafe.lra import Polyhedron, eliminate, hull, solver


def _projected(text: str, keep: str) -> str:
    c = parse_constraint(text)
    keep = keep.split()
    got = project(c, keep)
    assert got.pretty() == oracles.project_reference(c, keep).pretty()
    return got.pretty()


def test_random_projections_print_as_the_reference():
    rng = random.Random(11)
    empty = 0
    for _ in range(400):
        c = random_constraint(rng, max_vars=5, max_rows=8)
        xs = sorted(c.vars())
        keep = rng.sample(xs, rng.randint(0, len(xs)))
        got = project(c, keep)
        assert got.pretty() == oracles.project_reference(c, keep).pretty(), (c.pretty(), keep)
        empty += got == FALSE
    # both kinds of result occur
    assert 0 < empty < 400


def test_substitution_pivots_print_as_the_reference():
    # substitution scales the other row by the pivot coefficient only
    # when it is not 1, and divides by the gcd only when it is not 1
    rng = random.Random(14)
    pivots = Counter()
    for _ in range(300):
        c, keep = pivot_system(rng)
        drop = c.vars() - set(keep)
        for row in c.rows:
            named = [v for v in row.names if v in drop]
            if row.rel == REL_EQ and named:
                pivots[abs(row.ints[row.names.index(min(named))])] += 1
        assert project(c, keep).pretty() == oracles.project_reference(c, keep).pretty(), (c.pretty(), keep)
    assert set(pivots) == {1, 2, 3}
    assert pivots[1] >= 100 and pivots[2] + pivots[3] >= 100


def test_random_hulls_print_as_the_reference():
    rng = random.Random(12)
    for _ in range(200):
        p1 = Polyhedron.of(random_constraint(rng, max_vars=3, max_rows=4))
        p2 = Polyhedron.of(random_constraint(rng, max_vars=3, max_rows=4))
        assert oracles.poly_pretty(hull(p1, p2)) == oracles.poly_pretty(oracles.hull_reference(p1, p2))


def test_chernikov_rule_keeps_the_exact_projection():
    rng = random.Random(13)
    fewer = 0
    for _ in range(200):
        c, keep = wide_system(rng)
        got = project(c, keep)
        ref = oracles.project_reference(c, keep)
        assert oracles.equivalent(got, ref), (c.pretty(), keep)
        fewer += len(got.rows) < len(ref.rows)
    # the rule acts: on at least one system in ten it leaves out a
    # redundant row that the reference keeps (33 of these 200)
    assert fewer >= 20


@pytest.mark.parametrize(
    "text, keep, printed",
    [
        # kept equalities keep their rational scale
        ("2*X - 3*Y = 1", "X Y", "2*X - 3*Y = 1"),
        ("X - 1/2*Y = 3/2", "X Y", "X - 1/2*Y = 3/2"),
        # substitution scales by the pivot: 3*(2*X + 1/2) - 1/3*Y = 1
        ("Z = 2*X + 1/2, 3*Z - 1/3*Y = 1", "X Y", "6*X - 1/3*Y = -1/2"),
        ("-2*Z = 4*X - 1, 3/2*Z + Y = 2", "X Y", "3*X - Y = -5/4"),
    ],
)
def test_kept_equalities(text, keep, printed):
    assert _projected(text, keep) == printed


@pytest.mark.parametrize(
    "text",
    [
        "X + Y < 2, 2*X + 2*Y =< 4",
        "2*X + 2*Y =< 4, X + Y < 2",
        # the strict row comes out of Fourier-Motzkin
        "X - Z =< 1, 3*Z + 3*Y < 3, 2*X + 2*Y =< 4",
        "2*X + 2*Y =< 4, X - Z =< 1, 3*Z + 3*Y < 3",
    ],
)
def test_strict_wins_a_tie_in_direction_and_bound(text):
    assert _projected(text, "X Y") == "X + Y < 2"


@pytest.mark.parametrize(
    "text, result",
    [
        ("X =< 0, X >= 1", FALSE),
        ("X < 1, X >= 1", FALSE),
        ("2*X =< 2, 3*X >= 3", TRUE),
        ("X = 1, X = 2", FALSE),
        ("X = 1, Y = X, 2*Y < 2", FALSE),
    ],
)
def test_ground_rows(text, result):
    assert _projected(text, "") == result.pretty()


def _int_rows(constraint):
    return [(dict(zip(row.names, row.ints)), row.rel, row.num, row.den) for row in constraint.rows]


def _outcome(fn, rows, keep):
    """What fn returns on a copy of the integer rows, whose dicts it
    consumes, or NumberTooLongError when it refuses them."""
    try:
        return fn([(dict(coeffs), rel, rhs, den) for coeffs, rel, rhs, den in rows], keep)
    except NumberTooLongError:
        return NumberTooLongError


def _recorded_systems(monkeypatch, module, build, count):
    """The (rows, keep) that count calls of build hand to eliminate
    through module."""
    systems = []

    def record(rows, keep):
        keep = list(keep)
        systems.append(([(dict(c), rel, rhs, den) for c, rel, rhs, den in rows], keep))
        return eliminate(rows, keep)

    with monkeypatch.context() as m:
        m.setattr(module, "eliminate", record)
        for _ in range(count):
            build()
    return systems


def _long_number_system(rng):
    """Two to four rows over X, Y, Z and W, Z and W dropped, with
    coefficients and right-hand sides of 1, 1,200 or 2,300 digits: a
    product of two of the longest passes MAX_PRINTED_DIGITS digits."""
    xs = [Variable(n) for n in ("W", "X", "Y", "Z")]

    def number():
        digits = rng.choice((1, 1200, 2300))
        return rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1), 10**digits)

    rows = []
    for _ in range(rng.randint(2, 4)):
        coeffs = {v: number() for v in rng.sample(xs, rng.randint(1, 3))}
        rows.append((coeffs, rng.choice((REL_LE, REL_LT, REL_EQ)), number(), rng.choice((1, 1, 7))))
    return rows, xs[1:3]


def test_eliminate_returns_the_parents_rows(monkeypatch):
    rng = random.Random(28)
    systems = []
    for _ in range(200):
        c, keep = wide_system(rng)
        systems.append((_int_rows(c), keep))
    for _ in range(300):
        # equalities and strict rows, with between none and all kept
        c = random_constraint(rng, max_vars=5, max_rows=8)
        xs = sorted(c.vars())
        systems.append((_int_rows(c), rng.sample(xs, rng.randint(0, len(xs)))))
    for _ in range(100):
        c, keep = pivot_system(rng)
        systems.append((_int_rows(c), keep))

    def lifted_hull():
        p1, p2 = (Polyhedron.of(random_constraint(rng, max_vars=3, max_rows=4)) for _ in range(2))
        if not (p1.empty or p2.empty or p1.is_top() or p2.is_top()):
            solver._lifted_hull(p1, p2)

    systems += _recorded_systems(monkeypatch, solver, lifted_hull, 200)
    systems += _recorded_systems(monkeypatch, absint, lambda: absint.body_post(*post_case(rng)), 200)
    # ground rows, satisfied and violated
    for text, keep in [
        ("X =< 0, X >= 1", ""),
        ("X < 1, X >= 1", ""),
        ("2*X =< 2, 3*X >= 3", ""),
        ("X = 1, X = 2", ""),
        ("X = 1, Y = X, 2*Y < 2", "X"),
        ("X - X =< 0, Y =< 1", "Y"),
    ]:
        systems.append((_int_rows(parse_constraint(text)), keep.split()))
    systems.append(([({}, REL_LT, 0, 1)], []))
    systems.append(([({}, REL_EQ, 0, 3), ({Variable("X"): 0}, REL_LE, 0, 1)], []))
    for _ in range(150):
        systems.append(_long_number_system(rng))

    kinds = Counter()
    for rows, keep in systems:
        want = _outcome(oracles.eliminate_reference, rows, keep)
        got = _outcome(eliminate, rows, keep)
        assert got == want, (rows, keep)
        kinds["refused" if want is NumberTooLongError else "false" if want == FALSE else len(want.rows)] += 1
    # every kind of answer occurs: refused, unsatisfiable, true, one
    # row and several rows
    assert kinds["refused"] >= 10 and kinds["false"] >= 50 and kinds[0] >= 50
    assert kinds[1] >= 50 and sum(n for k, n in kinds.items() if isinstance(k, int) and k > 1) >= 200
