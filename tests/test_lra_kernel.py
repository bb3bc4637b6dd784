"""The simplex kernel against an independent Fourier-Motzkin oracle and
against the dense reference simplex.

Systems are written over Fractions, as the oracles take them, and handed
to the kernel through gen.kernel_rows, which scales each row by the lcm
of its denominators and passes that lcm along.  The kernel's witness,
an int triple (main numerator, delta numerator, denominator) per column,
is read back through oracles.witness_pairs as (main, delta) Fraction
pairs, the form the oracles give.

The kernel must agree with the oracle on satisfiability and must return
genuine witnesses: every row is checked against the delta-rational
assignment.  Against the dense reference, which pivots by the same rule
on the full m x (m+n) tableau, kernel.solve must return the very same
witnesses.  kernel.simplex_feasible must give the same answer, as True
or None; that answer comes mostly from Fourier-Motzkin elimination, and
the simplex, counted through kernel._simplex, sees only what
elimination leaves.  Every refutation solve returns must pass
oracles.refutes.
"""

import fractions
import random
import sys
from fractions import Fraction

import pytest

import oracles
from oracles import witness_pairs
from gen import (
    farkas_system,
    kernel_rows,
    large_denominator_system,
    narrow_system,
    random_constraint,
    tall_narrow_system,
    zero_row_system,
)
from hornsafe.chc_core import REL_EQ, REL_LE, REL_LT, LinConstraint, Row, Variable, parse_constraint
from hornsafe.lra import kernel, solver


def _to_rows(constraint):
    xs = sorted(constraint.vars(), key=lambda v: v.name)
    idx = {v: i for i, v in enumerate(xs)}
    rows = []
    for row in constraint.rows:
        dense = [Fraction(0)] * len(xs)
        for v, c in row.terms:
            dense[idx[v]] = c
        rows.append((dense, row.rel, row.rhs))
    return len(xs), rows


def _feasible(ncols, rows):
    return witness_pairs(kernel.solve(ncols, kernel_rows(rows))[0])


def _satisfies(rows, assignment) -> bool:
    for dense, code, rhs in rows:
        main = sum((c * assignment[i][0] for i, c in enumerate(dense)), Fraction(0))
        delta = sum((c * assignment[i][1] for i, c in enumerate(dense)), Fraction(0))
        if code == REL_EQ:
            ok = (main, delta) == (rhs, Fraction(0))
        elif code == REL_LT:
            ok = (main, delta) < (rhs, Fraction(0))
        else:
            ok = (main, delta) <= (rhs, Fraction(0))
        if not ok:
            return False
    return True


def test_agrees_with_oracle_on_random_systems():
    rng = random.Random(20260822)
    for _ in range(400):
        c = random_constraint(rng)
        ncols, rows = _to_rows(c)
        result = _feasible(ncols, rows)
        expected = oracles.fm_satisfiable(c)
        assert (result is not None) == expected, c.pretty()
        if result is not None:
            assert _satisfies(rows, result), c.pretty()


class TestGoldens:
    def test_empty_system(self):
        assert _feasible(0, []) == []

    def test_strict_cycle_infeasible(self):
        # X < Y together with Y < X
        rows = [
            ([Fraction(1), Fraction(-1)], REL_LT, Fraction(0)),
            ([Fraction(-1), Fraction(1)], REL_LT, Fraction(0)),
        ]
        assert _feasible(2, rows) is None

    def test_strict_bound_needs_delta(self):
        # 0 < X and X < 1 has no integer-style corner witness
        rows = [
            ([Fraction(-1)], REL_LT, Fraction(0)),
            ([Fraction(1)], REL_LT, Fraction(1)),
        ]
        result = _feasible(1, rows)
        assert result is not None
        assert _satisfies(rows, result)

    def test_tight_sandwich_forces_value(self):
        rows = [
            ([Fraction(2)], REL_EQ, Fraction(5)),
        ]
        (value,) = _feasible(1, rows)
        assert value[0] == Fraction(5, 2)
        assert value[1] == 0

    def test_contradictory_equalities(self):
        rows = [
            ([Fraction(1), Fraction(1)], REL_EQ, Fraction(3)),
            ([Fraction(1), Fraction(1)], REL_EQ, Fraction(4)),
        ]
        assert _feasible(2, rows) is None

    def test_unconstrained_column(self):
        rows = [([Fraction(0), Fraction(1)], REL_LT, Fraction(2))]
        result = _feasible(2, rows)
        assert result is not None and _satisfies(rows, result)

    def test_does_not_modify_input_rows(self):
        rows = [
            ([1, 2], REL_LE, -3, 1),
            ([-1, 1], REL_EQ, 1, 1),
        ]
        before = [(list(c), rel, b, scale) for c, rel, b, scale in rows]
        assert kernel.solve(2, rows)[0] is not None
        assert kernel.simplex_feasible(2, rows) is True
        assert rows == before

    def test_strict_row_keeps_its_scale_in_the_delta_bound(self):
        # -1/2*X < -1 reaches the kernel as -X < -2 with scale 2: the
        # slack bound is -2 - 2*delta, so X = 2 + 2*d, as over Fractions
        rows = [([Fraction(-1, 2)], REL_LT, Fraction(-1))]
        assert kernel_rows(rows) == [([-1], REL_LT, -2, 2)]
        expected = [(Fraction(2), Fraction(2))]
        assert oracles.dense_simplex_reference(1, rows) == expected
        assert _feasible(1, rows) == expected
        # the same integer row over scale 1 means -X < -2: X = 2 + d
        assert witness_pairs(kernel.solve(1, [([-1], REL_LT, -2, 1)])[0]) == [(Fraction(2), Fraction(1))]


# Witness identity with the dense reference --------------------------------


def _random_gen_system(rng: random.Random):
    return _to_rows(random_constraint(rng))


def _assert_identical(make, seed: int, count: int):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(count):
        ncols, rows = make(rng)
        expected = oracles.dense_simplex_reference(ncols, rows)
        raw, _ = kernel.solve(ncols, kernel_rows(rows))
        assert witness_pairs(raw) == expected, rows
        if raw is not None:
            # one int triple per column over a positive denominator
            assert len(raw) == ncols, raw
            assert all(len(t) == 3 and all(type(x) is int for x in t) and t[2] > 0 for t in raw), raw
        outcomes.add(raw is None)
    # each set exercises both verdicts
    assert outcomes == {True, False}


def test_same_witnesses_as_dense_reference_on_random_systems():
    _assert_identical(_random_gen_system, 7321, 400)


def test_same_witnesses_as_dense_reference_on_tall_narrow_systems():
    _assert_identical(tall_narrow_system, 7322, 60)


def test_same_witnesses_as_dense_reference_on_farkas_systems():
    _assert_identical(farkas_system, 7323, 30)


def test_same_witnesses_as_dense_reference_on_large_denominators():
    _assert_identical(large_denominator_system, 7324, 60)


def test_same_witnesses_as_dense_reference_with_zero_rows_and_columns():
    _assert_identical(zero_row_system, 7325, 200)


def test_a_witness_query_builds_no_fraction():
    # the witness leaves the kernel as ints: no frame of lra.kernel
    # calls into the fractions module, not even to build a Fraction
    rng = random.Random(7323)
    systems = [(ncols, kernel_rows(rows)) for ncols, rows in (farkas_system(rng) for _ in range(30))]
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename == kernel.__file__:
                calls.append((caller.f_code.co_name, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        witnesses = [kernel.solve(ncols, rows)[0] for ncols, rows in systems]
    finally:
        sys.setprofile(previous)
    assert calls == []
    found = [w for w in witnesses if w is not None]
    assert len(found) >= 10 and any(den > 1 for w in found for _, _, den in w)
    assert all(type(x) is int for w in found for t in w for x in t)


# Feasibility by simplex_feasible -------------------------------------------


def _pinned_output_systems():
    """The constraints test_lra_solver's TestPinnedOutput draws, each
    pair also conjoined."""
    rng = random.Random(16)
    for _ in range(400):
        c1 = random_constraint(rng, max_vars=4, max_rows=5)
        c2 = random_constraint(rng, max_vars=4, max_rows=5)
        xs = sorted(c1.vars())
        rng.sample(xs, rng.randint(0, len(xs)))
        yield from (c1, c2, c1.conjoin(c2))


def _assert_same_answer(systems):
    outcomes = set()
    for ncols, rows in systems:
        full = _feasible(ncols, rows)
        bare = kernel.simplex_feasible(ncols, kernel_rows(rows))
        assert bare is (None if full is None else True), rows
        outcomes.add(full is None)
    assert outcomes == {True, False}


def test_no_witness_same_answer_on_pinned_output_systems():
    _assert_same_answer(_to_rows(c) for c in _pinned_output_systems())


@pytest.mark.parametrize(
    "make, seed, count",
    [
        (_random_gen_system, 7321, 400),
        (tall_narrow_system, 7322, 60),
        (farkas_system, 7323, 30),
        (large_denominator_system, 7324, 60),
        (zero_row_system, 7325, 200),
    ],
    ids=["random", "tall_narrow", "farkas", "large_denominators", "zero_rows"],
)
def test_no_witness_same_answer_on_random_systems(make, seed, count):
    rng = random.Random(seed)
    _assert_same_answer(make(rng) for _ in range(count))


# Elimination before the simplex --------------------------------------------


def _count_simplex(monkeypatch) -> list:
    """Record every simplex entry by the kernel entry it is made from,
    "simplex_feasible" or "solve"."""
    entries = []
    callers = []
    simplex = kernel._simplex

    def entry(name):
        real = getattr(kernel, name)

        def asked(ncols, rows):
            callers.append(name)
            try:
                return real(ncols, rows)
            finally:
                callers.pop()

        monkeypatch.setattr(kernel, name, asked)

    def counted(ncols, rows):
        entries.append(callers[-1])
        return simplex(ncols, rows)

    entry("simplex_feasible")
    entry("solve")
    monkeypatch.setattr(kernel, "_simplex", counted)
    return entries


@pytest.mark.parametrize(
    "ncols, rows, expected",
    [
        # ground rows
        (0, [([], REL_LT, 0, 1)], None),
        (0, [([], REL_LE, 0, 1), ([], REL_EQ, 0, 3)], True),
        (2, [([0, 0], REL_EQ, 1, 1)], None),
        # X - Y < 0 and Y - X =< 0: the combined row 0 < 0 is strict
        # because one parent is
        (2, [([1, -1], REL_LT, 0, 1), ([-1, 1], REL_LE, 0, 1)], None),
        (2, [([1, -1], REL_LE, 0, 1), ([-1, 1], REL_LE, 0, 1)], True),
        # 2X = 5 substituted into X < 5/2 (scale 2)
        (1, [([2], REL_EQ, 5, 1), ([2], REL_LT, 5, 2)], None),
        (2, [([2, 1], REL_EQ, 5, 1), ([2, 0], REL_LE, 5, 2), ([0, -1], REL_LE, 0, 1)], True),
        # tied bounds on the last column: 3X =< 1 and -6X < -2
        (1, [([3], REL_LE, 1, 1), ([-6], REL_LT, -2, 1)], None),
        (1, [([3], REL_LE, 1, 1), ([-6], REL_LE, -2, 1)], True),
        # X < Y < Z < X over three columns
        (3, [([1, -1, 0], REL_LT, 0, 1), ([0, 1, -1], REL_LT, 0, 1), ([-1, 0, 1], REL_LE, 0, 1)], None),
    ],
)
def test_elimination_decides_small_systems(monkeypatch, ncols, rows, expected):
    entries = _count_simplex(monkeypatch)
    assert kernel.simplex_feasible(ncols, rows) is expected
    assert entries == []
    full, _ = kernel.solve(ncols, rows)
    assert (full is None) == (expected is None)


_THIRTY_EACH = ", ".join([f"X =< {k}" for k in range(10, 40)] + [f"X >= {k}" for k in range(-20, 10)])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("X =< 3, X >= 3", True),
        ("X =< 3, X > 3", False),
        ("X =< 1, 2*X < 5, X < 0", True),
        ("X >= 1, -X =< -7, X > 4", True),
        # bounds 5/2, 7/3 and 8/3 compared across coefficients 2 and 3
        ("2*X =< 5, 3*X >= 7", True),
        ("2*X =< 5, 3*X > 8", False),
        ("2*X =< 5, 6*X >= 15", True),
        ("2*X < 5, 6*X >= 15", False),
        (_THIRTY_EACH, True),
        (_THIRTY_EACH + ", X > 10", False),
        # the equalities leave Z = 2 - X, so X < 1
        ("X + Y = 3, Y - Z = 1, X =< 2, Z > 1", True),
        ("X + Y = 3, Y - Z = 1, X >= 1, Z > 1", False),
    ],
    ids=[
        "equal_bounds",
        "equal_bounds_one_strict",
        "upper_only",
        "lower_only",
        "scaled",
        "scaled_apart",
        "scaled_tie",
        "scaled_tie_strict",
        "thirty_each",
        "thirty_each_crossed",
        "equalities",
        "equalities_crossed",
    ],
)
def test_one_column_is_decided_by_pairing_its_bounds(monkeypatch, text, expected):
    # every upper bound is paired with every lower bound, whatever the
    # count of pairs, so no one-column system reaches the simplex
    entries = _count_simplex(monkeypatch)
    constraint = parse_constraint(text)
    assert oracles.fm_satisfiable(constraint) is expected
    ncols, rows = _to_rows(constraint)
    answer = kernel.simplex_feasible(ncols, kernel_rows(rows))
    assert answer is (True if expected else None)
    assert entries == []


def test_elimination_answers_as_the_witness_path_does(monkeypatch):
    entries = _count_simplex(monkeypatch)
    rng = random.Random(7330)
    outcomes = set()
    bare_queries = 0
    for _ in range(2000):
        ncols, rows = narrow_system(rng)
        krows = kernel_rows(rows)
        full, _ = kernel.solve(ncols, krows)
        bare = kernel.simplex_feasible(ncols, krows)
        bare_queries += 1
        assert bare is (None if full is None else True), rows
        outcomes.add(full is None)
    assert outcomes == {True, False}
    # every witness query enters the simplex; most yes/no ones do not
    assert entries.count("solve") == bare_queries
    assert 0 < entries.count("simplex_feasible") < bare_queries // 10


def test_tall_narrow_systems_reach_the_simplex(monkeypatch):
    entries = _count_simplex(monkeypatch)
    rng = random.Random(7322)
    tall = 0
    for _ in range(60):
        ncols, rows = tall_narrow_system(rng)
        # an equality substitutes one of the two columns out, and the
        # last one is decided by its bounds
        tall += all(rel != REL_EQ for _, rel, _ in rows)
        kernel.simplex_feasible(ncols, kernel_rows(rows))
    assert tall > 40
    assert entries == ["simplex_feasible"] * tall


def _as_constraint(rows):
    """Fraction rows (coeffs, rel, rhs) over columns X00, X01, ... as a
    LinConstraint, its sorted variables and its rows in the kernel's
    form, as lra.refutation places them."""
    ncols = max((len(coeffs) for coeffs, _, _ in rows), default=0)
    xs = [Variable(f"X{i:02d}") for i in range(ncols)]
    constraint = LinConstraint(tuple(Row.make(dict(zip(xs, coeffs)), rel, rhs) for coeffs, rel, rhs in rows))
    columns = sorted(constraint.vars())
    return constraint, len(columns), solver._dense(constraint.rows, columns)


@pytest.mark.parametrize(
    "make, seed, count",
    [
        (narrow_system, 7331, 400),
        (tall_narrow_system, 7332, 60),
        (farkas_system, 7333, 30),
        (large_denominator_system, 7334, 60),
        (zero_row_system, 7335, 200),
    ],
    ids=["narrow", "tall_narrow", "farkas", "large_denominators", "zero_rows"],
)
def test_the_two_entries_agree_and_refutations_refute(monkeypatch, make, seed, count):
    entries = _count_simplex(monkeypatch)
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(count):
        constraint, ncols, rows = _as_constraint(make(rng)[1])
        answer = kernel.simplex_feasible(ncols, rows)
        assert answer is True or answer is None, answer
        witness, y = kernel.solve(ncols, rows)
        assert answer is (None if witness is None else True), constraint.pretty()
        assert (witness is None) != (y is None)
        if y is not None:
            assert oracles.refutes(constraint, y), constraint.pretty()
        outcomes.add(answer)
    assert outcomes == {True, None}
    if make is tall_narrow_system:
        # these yes/no queries are too tall for elimination alone
        assert "simplex_feasible" in entries
