"""Integer projection against the Fraction reference.

project and hull keep their rows as integers from the input to the
final Row.  oracles.project_reference and oracles.hull_reference run
the same eliminations over Fractions, without Chernikov's rule.  On
small systems, where the rule leaves out no row the reference keeps,
both must print the very same result, not merely an equivalent one;
on larger ones project must stay equivalent to the reference.
"""

import random
from collections import Counter

import pytest

import oracles
from gen import pivot_system, random_constraint, wide_system
from hornsafe.chc_core import FALSE, REL_EQ, TRUE, parse_constraint
from hornsafe.lra import Polyhedron, hull, project


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
        assert hull(p1, p2).pretty() == oracles.hull_reference(p1, p2).pretty()


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
