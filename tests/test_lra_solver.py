import hashlib
import random
from collections import Counter, namedtuple
from fractions import Fraction

import pytest

import oracles
from gen import random_constraint, random_row, strict_vertex_constraint
from oracles import equivalent, poly_pretty, project, row_coeffs, satisfies, witness_pairs
from hornsafe.chc_core import (
    FALSE,
    TRUE,
    REL_EQ,
    REL_LE,
    REL_LT,
    LinConstraint,
    Row,
    Variable,
    parse_constraint,
)
from hornsafe.lra import (
    Polyhedron,
    entails,
    hull,
    is_sat,
    minimise,
    widen,
)
from hornsafe.lra import solver


class TestSat:
    def test_constants(self):
        # a satisfiable constraint over no variables has the empty point,
        # which is falsy: callers test the answer against None
        assert is_sat(TRUE) == {}
        assert is_sat(FALSE) is None

    def test_witnesses_concretise_to_rational_points(self):
        rng = random.Random(7)
        found = 0
        while found < 120:
            c = random_constraint(rng)
            w = is_sat(c)
            if w is None:
                continue
            found += 1
            assert satisfies(c, w)

    def test_witnesses_in_a_narrow_strict_corner(self):
        # a delta step left at 1 would put these points outside
        rng = random.Random(71)
        for _ in range(120):
            c = strict_vertex_constraint(rng)
            w = is_sat(c)
            assert w is not None and satisfies(c, w), c.pretty()

    def test_agrees_with_oracle(self):
        rng = random.Random(8)
        for _ in range(250):
            c = random_constraint(rng)
            assert (is_sat(c) is not None) == oracles.fm_satisfiable(c), c.pretty()


class TestEntailment:
    def test_basic(self):
        assert entails(parse_constraint("X = 2"), parse_constraint("X =< 2, X >= 2"))
        assert not entails(parse_constraint("X =< 2"), parse_constraint("X = 2"))
        assert entails(FALSE, parse_constraint("X < 0"))

    def test_strict_vs_nonstrict(self):
        assert entails(parse_constraint("X < 2"), parse_constraint("X =< 2"))
        assert not entails(parse_constraint("X =< 2"), parse_constraint("X < 2"))

    def test_equivalence_of_scaled_rows(self):
        assert equivalent(parse_constraint("2*X =< 6"), parse_constraint("X =< 3"))

    def test_reflexive_on_random_systems(self):
        rng = random.Random(9)
        for _ in range(60):
            c = random_constraint(rng, max_rows=5)
            assert entails(c, c)


class TestProject:
    def test_drops_only_requested_variables(self):
        c = parse_constraint("X = Y + 1, Y >= 0, Z =< 5")
        p = project(c, [Variable("X"), Variable("Z")])
        assert p.vars() <= {Variable("X"), Variable("Z")}
        assert entails(c, p)

    def test_golden_interval(self):
        c = parse_constraint("X = Y + 1, Y >= 0, Y < 4")
        p = project(c, [Variable("X")])
        assert equivalent(p, parse_constraint("X >= 1, X < 5"))

    def test_unsat_input_projects_to_false(self):
        c = parse_constraint("X =< 0, X >= 1, Y = X")
        p = project(c, [Variable("Y")])
        assert is_sat(p) is None

    def test_pointwise_exactness_on_random_systems(self):
        # A point over the kept variables satisfies the projection
        # exactly when it extends to a model of the original.
        rng = random.Random(10)
        for _ in range(120):
            c = random_constraint(rng, max_vars=4, max_rows=6)
            xs = sorted(c.vars(), key=lambda v: v.name)
            if len(xs) < 2:
                continue
            keep = xs[: rng.randint(1, len(xs) - 1)]
            p = project(c, keep)
            assert p.vars() <= set(keep)
            for _ in range(6):
                point = {v: Fraction(rng.randint(-8, 8), rng.choice((1, 2))) for v in keep}
                bindings = LinConstraint(
                    tuple(Row.make({v: 1}, REL_EQ, point[v]) for v in keep)
                )
                extended = oracles.fm_satisfiable(c.conjoin(bindings))
                assert satisfies(p, point) == extended, (c.pretty(), point)

    def test_projection_onto_all_variables_is_equivalent(self):
        rng = random.Random(11)
        for _ in range(40):
            c = random_constraint(rng, max_vars=3, max_rows=5)
            if is_sat(c) is None:
                continue
            p = project(c, sorted(c.vars(), key=lambda v: v.name))
            assert equivalent(p, c)


class TestPolyhedron:
    def test_factories(self):
        assert Polyhedron.bottom().empty
        assert Polyhedron.top().is_top()
        assert Polyhedron.of(parse_constraint("X =< 0, X >= 1")).empty

    def test_minimise_removes_redundancy(self):
        c = parse_constraint("X =< 5, X =< 7, 2*X =< 10, X >= 0")
        m = minimise(c)
        assert equivalent(m, c)
        for row in m.rows:
            rest = LinConstraint(tuple(r for r in m.rows if r != row))
            assert not entails(rest, LinConstraint((row,)))

    def test_entails_poly(self):
        small = Polyhedron.of(parse_constraint("X >= 1, X =< 2"))
        big = Polyhedron.of(parse_constraint("X >= 0"))
        assert small.entails_poly(big)
        assert not big.entails_poly(small)
        assert Polyhedron.bottom().entails_poly(small)
        assert not small.entails_poly(Polyhedron.bottom())


class TestHull:
    def test_contains_both_arguments(self):
        rng = random.Random(12)
        built = 0
        while built < 50:
            c1 = random_constraint(rng, max_vars=3, max_rows=4)
            c2 = random_constraint(rng, max_vars=3, max_rows=4)
            p1, p2 = Polyhedron.of(c1), Polyhedron.of(c2)
            if p1.empty or p2.empty:
                continue
            built += 1
            h = hull(p1, p2)
            assert p1.entails_poly(h) and p2.entails_poly(h)

    def test_midpoints_lie_inside(self):
        rng = random.Random(13)
        built = 0
        while built < 40:
            c1 = random_constraint(rng, max_vars=3, max_rows=4, allow_eq=False)
            c2 = random_constraint(rng, max_vars=3, max_rows=4, allow_eq=False)
            w1, w2 = is_sat(c1), is_sat(c2)
            if w1 is None or w2 is None:
                continue
            built += 1
            h = hull(Polyhedron.of(c1), Polyhedron.of(c2))
            mid = {
                v: (w1.get(v, Fraction(0)) + w2.get(v, Fraction(0))) / 2
                for v in h.vars()
            }
            assert satisfies(h.constraint, mid)

    def test_golden_square_from_corners(self):
        p = hull(
            Polyhedron.of(parse_constraint("X = 0, Y = 0")),
            Polyhedron.of(parse_constraint("X = 1, Y = 1")),
        )
        assert equivalent(p.constraint, parse_constraint("X = Y, X >= 0, X =< 1"))

    def test_empty_is_identity(self):
        p = Polyhedron.of(parse_constraint("X = 4"))
        assert hull(Polyhedron.bottom(), p) is p
        assert hull(p, Polyhedron.bottom()) is p


class TestWiden:
    def test_result_bounds_both_arguments(self):
        rng = random.Random(14)
        built = 0
        while built < 50:
            c1 = random_constraint(rng, max_vars=3, max_rows=4)
            c2 = random_constraint(rng, max_vars=3, max_rows=4)
            p1, p2 = Polyhedron.of(c1), Polyhedron.of(c2)
            if p1.empty or p2.empty:
                continue
            built += 1
            w = widen(p1, p2)
            assert p1.entails_poly(w)
            assert p2.entails_poly(w)

    def test_unstable_bound_is_dropped(self):
        p1 = Polyhedron.of(parse_constraint("X >= 0, X =< 1"))
        p2 = Polyhedron.of(parse_constraint("X >= 0, X =< 2"))
        w = widen(p1, hull(p1, p2))
        assert equivalent(w.constraint, parse_constraint("X >= 0"))

    def test_chains_stabilise(self):
        # widening an ever-growing interval must reach a fixpoint
        state = Polyhedron.of(parse_constraint("X = 0"))
        for k in range(1, 30):
            nxt = Polyhedron.of(parse_constraint(f"X >= 0, X =< {k}"))
            new = widen(state, hull(state, nxt))
            if new.entails_poly(state) and state.entails_poly(new):
                break
            state = new
        else:
            pytest.fail("no stabilisation")


_X1 = Variable("X1")


def _interval_side(rng, point_pool):
    """Rows over X1 alone, spelt the ways the analysis meets them: an
    equality under a random scale, a point pinned by two inequalities,
    an interval, or a half-line, with strict bounds among them.  Values
    come from point_pool, so both sides often share a bound."""
    value = rng.choice(point_pool)
    kind = rng.choice(("eq", "pinned", "interval", "upper", "lower"))
    k = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    if kind == "eq":
        return [Row.make({_X1: k}, REL_EQ, k * value)]
    if kind == "pinned":
        return [Row.make({_X1: 1}, REL_LE, value), Row.make({_X1: 1}, ">=", value)]
    rel = rng.choice((REL_LE, REL_LT))
    if kind == "upper":
        return [Row.make({_X1: abs(k)}, rel, abs(k) * value)]
    if kind == "lower":
        return [Row.make({_X1: -abs(k)}, rel, -abs(k) * value)]
    other = max(value, rng.choice(point_pool))
    return [
        Row.make({_X1: -abs(k)}, rel, -abs(k) * value),
        Row.make({_X1: 1}, rng.choice((REL_LE, REL_LT)), other),
    ]


class TestIntervalHullOracle:
    """A hull over one variable is read off the two sides' closed
    bounds; it must have exactly the rows of the lifted hull."""

    def test_agrees_with_the_lifted_hull(self):
        rng = random.Random(20)
        seen = {"equal point": 0, "strict input": 0, "top": 0, "half-line": 0, "point input": 0}
        checked = 0
        while checked < 2500:
            pool = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            p1 = Polyhedron.of(LinConstraint(tuple(_interval_side(rng, pool))))
            p2 = Polyhedron.of(LinConstraint(tuple(_interval_side(rng, pool))))
            if p1.empty or p2.empty:
                continue
            checked += 1
            got = hull(p1, p2)
            assert got.constraint.rows == solver._lifted_hull(p1, p2).constraint.rows, (
                poly_pretty(p1),
                poly_pretty(p2),
            )
            rows = p1.constraint.rows + p2.constraint.rows
            seen["strict input"] += any(r.rel == REL_LT for r in rows)
            seen["point input"] += any(r.rel == REL_EQ for r in rows)
            seen["top"] += got.is_top()
            seen["half-line"] += len(got.constraint.rows) == 1
            # the hull is a point exactly when both sides are that point
            out = got.constraint.rows
            bounds = {row.rhs / row.terms[0][1] for row in out}
            seen["equal point"] += len(bounds) == 1 and (len(out) == 2 or out[0].rel == REL_EQ)
        assert min(seen.values()) >= 100, seen

    def test_scaled_equalities_and_pinned_points(self):
        eq = Polyhedron.of(parse_constraint("3*X1 = -5"))
        pinned = Polyhedron.of(parse_constraint("X1 >= -5/3, X1 =< -5/3"))
        # the same point, stored over different denominators
        assert eq.constraint != Polyhedron.of(parse_constraint("X1 = -5/3")).constraint
        for p1, p2 in ((eq, eq), (eq, pinned), (pinned, eq), (pinned, pinned)):
            assert hull(p1, p2).constraint.rows == solver._lifted_hull(p1, p2).constraint.rows
        far = Polyhedron.of(parse_constraint("X1 < 2"))
        assert poly_pretty(hull(eq, far)) == "X1 =< 2"


def _negation(row):
    """The rows whose union is the complement of row."""
    coeffs = row_coeffs(row)
    if row.rel == REL_EQ:
        return [Row.make(coeffs, "<", row.rhs), Row.make(coeffs, ">", row.rhs)]
    return [Row.make(coeffs, ">" if row.rel == REL_LE else ">=", row.rhs)]


def _oracle_implied(premise_rows, query):
    """Does premise_rows imply query?  Independent elimination over
    Fractions: no row of the query's negation is satisfiable with them."""
    return not any(
        oracles.fm_satisfiable(LinConstraint((*premise_rows, n))) for n in _negation(query)
    )


_COLUMNS = [Variable("U"), Variable("V"), Variable("W")]
_RELS = (REL_LE, REL_LT, REL_EQ)


def _scaled(rng, row, positive):
    """row times a random rational lam (lam > 0 when positive, else
    lam < 0), relation kept: its ints stay and its den changes."""
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 5)) * (1 if positive else -1)
    return Row.make({v: lam * c for v, c in row.terms}, row.rel, lam * row.rhs)


def _implied_case(rng):
    """A premise and a queried row: an empty premise, one premise row
    against a multiple of it (with its bound moved) or a ground row, a
    row on a column no premise row uses, or a few random rows."""
    kind = rng.choice(
        ("empty", "parallel", "antiparallel", "equal bound", "ground", "free", "rows")
    )
    if kind == "empty":
        query = random_row(rng, 3) if rng.random() < 0.8 else _ground_row(rng)
        return kind, [], query
    if kind == "free":
        premise = [random_row(rng, 2) for _ in range(rng.randint(1, 3))]
        coeffs = {**row_coeffs(random_row(rng, 2)), _COLUMNS[2]: rng.choice((-1, 2))}
        query = Row.make(coeffs, rng.choice(_RELS), rng.randint(-3, 3))
        return kind, premise, query
    if kind == "rows":
        return kind, [random_row(rng, 3) for _ in range(rng.randint(2, 3))], random_row(rng, 3)
    p = random_row(rng, 3)
    if kind == "ground":
        return kind, [p], _ground_row(rng)
    # lam * p with its bound moved by -1, 0 or +1 and any relation
    q = _scaled(rng, p, positive=kind != "antiparallel")
    shift = 0 if kind == "equal bound" else rng.choice((-1, 0, 1))
    return kind, [p], Row.make(row_coeffs(q), rng.choice(_RELS), q.rhs + shift)


def _ground_row(rng):
    return Row.make({}, rng.choice(_RELS), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


class TestImpliedOracle:
    """_implied refutes the query's negation through the kernel; each
    answer must be the independent elimination's.  The empty-premise,
    one-row and ground shapes are decided by the kernel's elimination
    with no tableau."""

    _NO_TABLEAU = ("empty", "parallel", "antiparallel", "equal bound", "ground")

    def test_agrees_with_the_oracle(self, monkeypatch):
        entries = []
        simplex = solver.kernel._simplex

        def counted(ncols, rows, witness):
            entries.append(kind)
            return simplex(ncols, rows, witness)

        monkeypatch.setattr(solver.kernel, "_simplex", counted)
        rng = random.Random(21)
        answers = {}
        for _ in range(4000):
            kind, premise_rows, query = _implied_case(rng)
            premise = solver._dense(premise_rows, _COLUMNS)
            (row,) = solver._dense([query], _COLUMNS)
            expected = _oracle_implied(premise_rows, query)
            case = (kind, premise_rows, query)
            assert solver._implied(premise, len(_COLUMNS), row) == expected, case
            answers.setdefault(kind, Counter())[expected] += 1
        assert not set(entries) & set(self._NO_TABLEAU), Counter(entries)
        # an empty premise implies only some ground rows
        for kind, counts in answers.items():
            assert counts[False] >= 100 and (kind == "empty" or counts[True] >= 50), answers

    def test_equal_bounds_under_every_relation_pair(self):
        u = _COLUMNS[0]
        for prel in _RELS:
            for rel in _RELS:
                for lam in (Fraction(1), Fraction(2, 3), Fraction(5, 2), Fraction(-5, 2)):
                    premise_row = Row.make({u: 1}, prel, 1)
                    query = Row.make({u: lam}, rel, lam)
                    premise = solver._dense([premise_row], _COLUMNS)
                    (row,) = solver._dense([query], _COLUMNS)
                    assert solver._implied(premise, 3, row) == _oracle_implied([premise_row], query)


def _closed_part(p):
    return Polyhedron(LinConstraint(tuple(r for r in p.constraint.rows if r.rel != REL_LT)))


def _nudged(rng, p):
    """A post near p: p's rows with shifted bounds, some left out, plus a
    random row, so widening p against it keeps some of p's rows."""
    rows = [
        Row.make(row_coeffs(r), r.rel, r.rhs + rng.choice((0, 0, 1)))
        for r in p.constraint.rows
        if rng.random() < 0.9
    ]
    extra = random_constraint(rng, max_vars=3, max_rows=1).rows
    return Polyhedron.of(LinConstraint((*rows, *extra)))


class TestWidenWithoutHull:
    """absint widens an entry against the post alone, after dropping the
    entry's strict rows, where the textbook widening uses the hull of
    entry and post: on irredundant entries the two keep the same rows."""

    def test_on_random_minimised_pairs_with_strict_rows(self):
        rng = random.Random(18)
        built = 0
        while built < 1000:
            p1 = Polyhedron.of(random_constraint(rng, max_vars=3, max_rows=5))
            p2 = Polyhedron.of(random_constraint(rng, max_vars=3, max_rows=5))
            if p1.empty or p2.empty or all(r.rel != REL_LT for r in p1.constraint.rows):
                continue
            built += 1
            expected = widen(p1, hull(p1, p2))
            assert widen(_closed_part(p1), p2).constraint.rows == expected.constraint.rows

    def test_on_widening_chains(self):
        # entries grow as in absint: a first post, joins, and widenings;
        # a check counts when the entry is itself a widening result
        # that kept a row
        rng = random.Random(19)
        checked = 0
        while checked < 120:
            old = Polyhedron.of(random_constraint(rng, max_vars=3, max_rows=6))
            widened = False
            for _ in range(6):
                if old.empty:
                    break
                post = _nudged(rng, old)
                if post.empty:
                    continue
                if rng.random() < 0.3:
                    old, widened = hull(old, post), False
                    continue
                expected = widen(old, hull(old, post))
                assert widen(_closed_part(old), post).constraint.rows == expected.constraint.rows
                checked += widened and not old.is_top()
                old, widened = expected, True


# the kernel's (main, delta coefficient) pair, printed as the solver's
# witness type printed it when TestPinnedOutput.DIGEST was taken
DeltaRational = namedtuple("DeltaRational", "main delta")


class TestPinnedOutput:
    # SHA-256 of the text test_printed_results_on_random_systems builds,
    # taken before the projection and entailment loops were rewritten:
    # the semantic tests above would pass on a differently printed but
    # equivalent result, this one does not.
    DIGEST = "7f5c7537b413bcaf240ef7df4a668e42764372b23548c345b7066e0fe1b3e33d"

    def test_printed_results_on_random_systems(self):
        rng = random.Random(16)
        lines = []
        for _ in range(400):
            c1 = random_constraint(rng, max_vars=4, max_rows=5)
            c2 = random_constraint(rng, max_vars=4, max_rows=5)
            xs = sorted(c1.vars())
            keep = rng.sample(xs, rng.randint(0, len(xs)))
            w = solver.kernel.simplex_feasible(len(xs), solver._dense(c1.rows, xs))
            p1, p2 = Polyhedron.of(c1), Polyhedron.of(c2)
            h = hull(p1, p2)
            lines += [
                project(c1, keep).pretty(),
                "none" if w is None else str(list(zip(xs, map(DeltaRational._make, witness_pairs(w))))),
                poly_pretty(p1),
                poly_pretty(p2),
                poly_pretty(h),
                poly_pretty(widen(p1, h)),
                poly_pretty(widen(p1, p2)),
                f"{entails(c1, c2)} {entails(c2, c1)} {entails(c1, h.constraint)}",
            ]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.DIGEST
