"""chc_core.Row, stored as integers over one denominator, against
oracles.FractionRow, the same row kept over Fractions.

On seeded random rows (rational coefficients, rows whose terms all
vanish, renamings that merge variables, and equalities whose leading
coefficient turns negative under a renaming) the two must agree on
terms, rhs, relation and printed form, and two rows must be equal, and
then hash alike, exactly when their references are equal.  No output
may depend on hash order, so this runs under fixed hash seeds as well.
"""

import math
import pickle
import random
from fractions import Fraction

import pytest

from hornsafe.chc_core import (
    MAX_PRINTED_DIGITS,
    REL_EQ,
    REL_LE,
    REL_LT,
    LinConstraint,
    NumberTooLongError,
    Row,
    Variable,
    rows_too_long,
)
from oracles import FractionRow, project

POOL = [Variable(n) for n in ("A", "B", "X1", "X2", "X10", "Y")]
RELS = (REL_LE, REL_LT, REL_EQ, ">=", ">")


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9)))


def random_spec(rng: random.Random):
    """(coeffs, rel, rhs) over Fractions; a fifth of the rows have only
    zero coefficients."""
    names = rng.sample(POOL, rng.randint(0, 4))
    zero = rng.random() < 0.2
    coeffs = {v: Fraction(0) if zero else _rational(rng) for v in names}
    return coeffs, rng.choice(RELS), _rational(rng)


def random_mapping(rng: random.Random) -> dict[Variable, Variable]:
    """Renames some variables, often two onto one; a third of the
    mappings reverse the name order, which moves the last term first."""
    if rng.random() < 1 / 3:
        names = sorted(POOL)
        return dict(zip(names, reversed(names)))
    sources = rng.sample(POOL, rng.randint(1, len(POOL)))
    return {v: rng.choice(POOL) for v in sources}


def assert_matches(row: Row, ref: FractionRow):
    assert row.terms == ref.terms
    assert all(type(c) is Fraction for _, c in row.terms)
    assert type(row.rhs) is Fraction and row.rhs == ref.rhs
    assert row.rel == ref.rel
    assert row.vars() == {v for v, _ in ref.terms}
    assert row.pretty() == ref.pretty() == str(row)
    # the stored form: no zero coefficient, sorted names, a positive
    # denominator, no common factor, an equality led by a positive int
    assert all(row.ints) and list(row.names) == sorted(row.names)
    assert row.den > 0 and math.gcd(row.den, row.num, *row.ints) == 1
    assert row.rel != REL_EQ or not row.ints or row.ints[0] > 0


def test_make_matches_reference():
    rng = random.Random(4101)
    for _ in range(2000):
        spec = random_spec(rng)
        assert_matches(Row.make(*spec), FractionRow.make(*spec))


def test_rename_matches_reference():
    rng = random.Random(4102)
    merged = flipped = 0
    for _ in range(2000):
        spec = random_spec(rng)
        mapping = random_mapping(rng)
        row, ref = Row.make(*spec), FractionRow.make(*spec)
        renamed, expected = row.rename(mapping), ref.rename(mapping)
        assert_matches(renamed, expected)
        assert renamed == Row.make(dict(expected.terms), expected.rel, expected.rhs)
        moved = sorted((mapping.get(v, v), c) for v, c in ref.terms)
        if len({v for v, _ in moved}) < len(moved):
            merged += 1
        elif ref.rel == REL_EQ and moved and moved[0][1] < 0:
            flipped += 1
    # both the merging and the sign-fixing paths ran
    assert merged > 100 and flipped > 20, (merged, flipped)


def test_equality_and_hash_follow_reference():
    # few variables and small numbers, so equal rows come up often
    rng = random.Random(4103)
    specs = []
    for _ in range(300):
        names = rng.sample(POOL[:2], rng.randint(0, 2))
        coeffs = {v: Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for v in names}
        specs.append((coeffs, rng.choice(RELS), Fraction(rng.randint(-2, 2), rng.randint(1, 2))))
    rows = [Row.make(*s) for s in specs]
    refs = [FractionRow.make(*s) for s in specs]
    equal_pairs = 0
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            same = refs[i] == refs[j]
            assert (rows[i] == rows[j]) is same
            assert (rows[i] != rows[j]) is not same
            if same:
                assert hash(rows[i]) == hash(rows[j])
                equal_pairs += i != j
    assert equal_pairs > 100
    assert len(set(rows)) == len(set(refs))


def test_fraction_and_int_construction_agree():
    rng = random.Random(4104)
    for _ in range(1000):
        coeffs, rel, rhs = random_spec(rng)
        if rel not in (REL_LE, REL_LT, REL_EQ):
            continue
        from_fractions = Row.make(coeffs, rel, rhs)
        # the same row over a random common denominator, as ints
        den = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values())) * rng.randint(1, 5)
        ints = {v: int(c * den) for v, c in coeffs.items()}
        from_ints = Row.of_ints(ints, rel, int(rhs * den), den)
        assert from_ints == from_fractions and hash(from_ints) == hash(from_fractions)
        if den == 1 or all(c.denominator == 1 for c in (rhs, *coeffs.values())):
            plain = Row.make({v: int(c) for v, c in coeffs.items()}, rel, int(rhs))
            assert plain == from_fractions and hash(plain) == hash(from_fractions)


def test_rows_are_not_rescaled():
    x, y = Variable("X"), Variable("Y")
    row = Row.make({x: 2}, REL_LE, 4)
    assert (row.ints, row.num, row.den) == ((2,), 4, 1)
    assert row.pretty() == "2*X =< 4" and row != Row.make({x: 1}, REL_LE, 2)
    half = Row.make({x: Fraction(1, 2), y: Fraction(-3, 4)}, REL_LT, Fraction(5, 6))
    assert (half.ints, half.num, half.den) == ((6, -9), 10, 12)
    assert half.pretty() == "1/2*X - 3/4*Y < 5/6"


def test_repr_and_pickle_show_the_rational_row():
    row = Row.make({Variable("X"): Fraction(3, 2)}, REL_EQ, 1)
    assert repr(row) == "Row(terms=(('X', Fraction(3, 2)),), rel='=', rhs=Fraction(1, 1))"
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row and hash(copy) == hash(row)


# A stored int can be larger than the reduced fraction it prints as:
# over the denominator p*q the coefficients p and q print as 1/q and 1/p.
P = 10**2200 + 1
Q = 10**2200


def test_digit_bound_applies_to_printed_numbers():
    x, y = Variable("X"), Variable("Y")
    row = Row.make({x: Fraction(1, Q), y: Fraction(1, P)}, REL_EQ, 0)
    assert row.den == P * Q and row.den >= 10**MAX_PRINTED_DIGITS
    assert not rows_too_long([row], MAX_PRINTED_DIGITS)
    # eliminate keeps the equality as it is and must not refuse it
    (kept,) = project(LinConstraint((row,)), [x, y]).rows
    assert kept == row
    assert kept.pretty() == f"1/{Q}*X + 1/{P}*Y = 0"
    # a printed number past the bound is refused
    wide = Row.make({x: Fraction(1, P * Q)}, REL_EQ, 0)
    assert rows_too_long([wide], MAX_PRINTED_DIGITS)
    with pytest.raises(NumberTooLongError):
        project(LinConstraint((wide,)), [x])
