"""Decision procedures over conjunctions of linear rational constraints.

Everything is exact, and everything between parsing and printing is
integer arithmetic.  A chc_core.Row is stored as int coefficients and
an int right-hand side over one positive int denominator, and every
procedure here reads and writes that form; Fractions are built only for
the points is_sat returns.

Satisfiability goes through the kernel in kernel.py, which has one
entry per question.  Entailment, Polyhedron.of, minimise and widen ask
kernel.simplex_feasible whether rows are satisfiable and nothing more,
which it mostly decides by exact Fourier-Motzkin elimination on the
rows' ints without a tableau.  is_sat and refutation ask kernel.solve,
the simplex alone, which gives a witness or a refutation.  Strict
inequalities are handled with delta-rationals, so the witness assigns
each variable an int triple, a main and a delta numerator over one
denominator, meaning main + delta * d for an arbitrarily small positive
d.  is_sat reads the triples as Fractions, fixes d on the kernel rows it
handed over, at most 1 and small enough that every row still holds,
and returns the point, a Fraction per variable, or None when there is
none; a satisfiable constraint over no variables gets the empty point,
which is falsy.  refutation returns solve's int multipliers, one per
row, or None when the rows are satisfiable; tree_interpolation refutes
a whole derivation tree through it, and checks that its root label is
unsatisfiable through it too.  Entailment refutes row by row through
the kernel alone: c1 entails a row when c1 with each row of the row's
negation is unsatisfiable, whatever the premise's shape.  is_sat,
refutation, entails, minimise and widen place each Row's ints in the
columns of the sorted variables once per call (_dense), which is the
kernel's row as it is (its scale is the Row's denominator), and negate
rows in that form; Polyhedron.of places the distinct rows once for both
its satisfiability check and its minimise.

Projection is variable elimination (eliminate) on one list of integer
rows: int coefficients, a relation, an int right-hand side and a
positive int denominator, taken from each Row as it is stored, which
keeps a kept equality's exact rational scale.  Two callers build such
rows: the lifted hull below from its scaled copies, and absint's clause
post from the clause constraint and
the body polyhedra, renamed onto the atoms' arguments as it reads
them.  eliminate drops every variable the rows name outside the ones
to keep.  In row order, each equality on a dropped variable (pivot
coefficient k on its first dropped variable in name order) is
substituted into every other row (its coefficient c) as
|k|*row - sign(k)*c*equality over their gcd, and leaves the list; the
product is skipped when |k| is 1, and the division when the gcd is 1.
Fourier-Motzkin then eliminates, each round, the dropped variable with
the fewest positive-negative pairs (the first in name order on a tie),
combining a pair as kn*p + kp*n.  A round counts each dropped
variable's positive and negative occurrences in one plain dict, picks
the variable in one pass over the sorted candidates, and splits the
table in one pass into the rows with a positive coefficient on it, the
rows with a negative one, and the rest, which stay in the table in
their order.  A combined row is built without the eliminated variable
and without zero entries, and an inequality left after substitution
loses its zero entries once, where it enters the table, so the table
stores the dicts it is handed.  Only the tightest row per direction
is kept: the key is the primitive coefficient vector (over its gcd),
bounds compare by cross-multiplying and strict wins a tie; the key is
the coefficients as they are when their gcd g is 1, and a kept row is
divided by gcd(g, rhs) only when that is not 1.  Each
inequality row carries its history, an int bitmask of the input rows it
was combined from; every inequality left after substitution is an input
row with a bit of its own, a combined row has the OR of its pair's
masks, and the table keeps the mask of the row it keeps.  After k
rounds a row whose history holds more than k+1 input rows is implied
by rows with smaller histories (Chernikov 1965; Imbert, "Fourier's
elimination: which to choose?", 1993), so a pair whose OR
has more than k+1 bits is skipped before it is combined.  eliminate can
thus leave out redundant rows that full elimination would keep; what it
returns is still the exact projection.  The rows it returns are built
from the ints as they are, each inequality over the denominator that
makes its first coefficient in name order +1 or -1.  A kept inequality
is already in lowest terms (its coefficients' gcd has no factor in
common with its rhs), so its Row is built directly from the names in
order, without Row.of_ints' gcd.  The rows are sorted by printed form
when there are two or more (a sort keys even a single row); a printed
number (the reduced fraction, which can be smaller than the stored
ints) of more than chc_core.MAX_PRINTED_DIGITS digits raises
NumberTooLongError.

The convex hull of two polyhedra is their closed convex hull, a sound
over-approximation of the union: strict rows are relaxed.  When the
two mention one variable x it is an interval read off their rows: a
row's bound is num / ints[0], kept as an int pair with a positive
denominator and compared by cross-multiplying, an upper one when
ints[0] > 0, a lower one when ints[0] < 0, both for an equality; the
larger upper bound is kept when both sides have one, and the smaller
lower bound likewise, as non-strict rows, the upper one (x =< a)
before the lower one (x >= b): that is their printed order, so they
need no sort; when
both sides are the same point p and all their rows are equalities, it
is x = p.  These
are the rows the lifted hull below gives.  Otherwise the hull is computed on a lifted system (Benoy, King and
Mesnard, "Computing convex hulls with a linear solver", TPLP 2005): a
scaled copy of each argument (rows a.x rel b become a.xi rel b*si),
si >= 0, s1 + s2 = 1, x = x1 + x2, projected back onto the original
variables.  The lifted rows are built from each Row's ints (a.xi rel
b*si over the Row's denominator) and handed straight to eliminate, and
the shadow is only minimised: the hull of two nonempty polyhedra is
never empty.

hull is a memoised step: within one verify call its results are kept
and looked up by argument (see hornsafe.run, which lists the steps and
says why nothing else here is memoised).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from hornsafe.chc_core import (
    MAX_PRINTED_DIGITS,
    REL_EQ,
    REL_LE,
    REL_LT,
    FALSE,
    TRUE,
    LinConstraint,
    NumberTooLongError,
    Row,
    Variable,
    rows_too_long,
)
from hornsafe.lra import kernel
from hornsafe.run import memoised

_ONE = Fraction(1)


# Core satisfiability --------------------------------------------------------


def _dense(rows: Iterable[Row], columns: list[Variable]) -> list:
    """The rows over columns, as the kernel takes them: each Row's ints
    placed in its columns, its relation, its int rhs and its den."""
    index = {v: i for i, v in enumerate(columns)}
    width = len(columns)
    out = []
    for row in rows:
        dense = [0] * width
        for v, c in zip(row.names, row.ints):
            dense[index[v]] = c
        out.append((dense, row.rel, row.num, row.den))
    return out


def is_sat(constraint: LinConstraint) -> dict[Variable, Fraction] | None:
    """Satisfiability over the rationals: a satisfying point, else None.

    The kernel's witness is main + delta part * d for a small positive
    d, taken as 1 or the least margin / (2 * delta part) over the rows
    where both are positive (margin: rhs minus the main part); scaling
    a row by its den leaves that ratio as it is."""
    columns = sorted(constraint.vars())
    rows = _dense(constraint.rows, columns)
    witness, _ = kernel.solve(len(columns), rows)
    if witness is None:
        return None
    result = [(Fraction(m, den), Fraction(dd, den)) for m, dd, den in witness]
    # only nonzero terms are multiplied: trace formulas are wide and sparse
    deltas = [(i, dd) for i, (_, dd) in enumerate(result) if dd]
    delta = _ONE
    for dense, _, num, _ in rows:
        d = sum(dense[i] * dd for i, dd in deltas)
        if d > 0:
            margin = num - sum(c * m for c, (m, _) in zip(dense, result) if c)
            if margin > 0:
                delta = min(delta, margin / (2 * d))
    return {v: m + dd * delta for v, (m, dd) in zip(columns, result)}


def refutation(rows: Sequence[Row]) -> list[int] | None:
    """None when the conjunction of rows is satisfiable, else one int
    multiplier per row, in order, that weighs the rows' ints into a
    ground row that fails (see kernel.py)."""
    columns = sorted(set().union(*[row.names for row in rows]))
    return kernel.solve(len(columns), _dense(rows, columns))[1]


def _implied(premise: list, ncols: int, row: tuple) -> bool:
    """Does every model of the kernel rows premise satisfy the kernel
    row?  Each row of the row's negation is refuted in turn."""
    dense, rel, rhs, scale = row
    neg = [-c for c in dense]
    if rel == REL_EQ:
        negation = [(dense, REL_LT, rhs, scale), (neg, REL_LT, -rhs, scale)]
    else:
        negation = [(neg, REL_LE if rel == REL_LT else REL_LT, -rhs, scale)]
    return all(kernel.simplex_feasible(ncols, [*premise, n]) is None for n in negation)


def entails(c1: LinConstraint, c2: LinConstraint) -> bool:
    """Does every model of c1 satisfy c2?  Row by row refutation."""
    columns = sorted(c1.vars() | c2.vars())
    premise = _dense(c1.rows, columns)
    return all(_implied(premise, len(columns), row) for row in _dense(c2.rows, columns))


# Projection -----------------------------------------------------------------


def _dominance_insert(
    table: dict, coeffs: dict[Variable, int], strict: bool, rhs: int, mask: int
) -> bool:
    """Keep the tightest row per direction: the table maps a primitive
    key to (coefficients, strict, rhs, g, mask), bound rhs/g along the
    key, mask the history of the row it keeps.  coeffs holds no zero
    and may be stored as it is.  Returns False when a ground row is
    violated (unsatisfiable)."""
    if not coeffs:
        return rhs > 0 if strict else rhs >= 0
    g = gcd(*coeffs.values())
    key = frozenset(coeffs.items() if g == 1 else [(v, c // g) for v, c in coeffs.items()])
    old = table.get(key)
    if old is None or (rhs * old[3], not strict) < (old[2] * g, not old[1]):
        h = gcd(g, rhs)
        if h != 1:
            coeffs, rhs, g = {v: c // h for v, c in coeffs.items()}, rhs // h, g // h
        table[key] = (coeffs, strict, rhs, g, mask)
    return True


def eliminate(rows: list, keep: Iterable[Variable]) -> LinConstraint:
    """Existentially eliminate every variable the integer rows
    (coefficients, relation, rhs, denominator) name outside keep,
    consuming their dicts.

    The result mentions only keep variables and is satisfiable exactly
    when the rows are.  Raises NumberTooLongError when a number in it
    has more than chc_core.MAX_PRINTED_DIGITS digits.
    """
    drop = set().union(*[coeffs for coeffs, _, _, _ in rows]) - set(keep)
    i = 0
    while i < len(rows):
        ecoeffs, rel, erhs, _ = rows[i]
        pivot = None
        if rel == REL_EQ:
            pivot = min([v for v, e in ecoeffs.items() if e and v in drop], default=None)
        if pivot is None:
            i += 1
            continue
        del rows[i]
        k = ecoeffs.pop(pivot)
        sign = 1 if k > 0 else -1
        k *= sign
        eitems = list(ecoeffs.items())
        for j, (coeffs, r, rhs, den) in enumerate(rows):
            c = coeffs.pop(pivot, 0)
            if c:
                c *= sign
                if k != 1:
                    coeffs = {v: k * e for v, e in coeffs.items()}
                    rhs *= k
                    den *= k
                for v, e in eitems:
                    coeffs[v] = coeffs.get(v, 0) - c * e
                rhs -= c * erhs
                g = gcd(den, rhs, *coeffs.values())
                if g != 1:
                    coeffs = {v: e // g for v, e in coeffs.items()}
                    rhs //= g
                    den //= g
                rows[j] = (coeffs, r, rhs, den)

    out_rows: list[Row] = []
    table: dict = {}
    for bit, (coeffs, rel, rhs, den) in enumerate(rows):
        if rel != REL_EQ:
            coeffs = {v: c for v, c in coeffs.items() if c}
            if not _dominance_insert(table, coeffs, rel == REL_LT, rhs, 1 << bit):
                return FALSE
            continue
        row = Row.of_ints(coeffs, REL_EQ, rhs, den)
        if row.names:
            out_rows.append(row)
        elif row.num != 0:
            return FALSE

    # Fourier-Motzkin; a pair's kn*p + kp*n cancels var exactly.  After
    # round k a row built from more than k+1 input rows is redundant
    # (Chernikov), so such a pair is skipped before it is combined.
    k = 0
    while True:
        # [positive, negative] occurrences of each dropped variable
        counts: dict[Variable, list[int]] = {}
        for coeffs, _, _, _, _ in table.values():
            for v, c in coeffs.items():
                if v in drop:
                    counts.setdefault(v, [0, 0])[c < 0] += 1
        if not counts:
            break
        var = min(sorted(counts), key=lambda v: counts[v][0] * counts[v][1])
        upper, lower, previous, table = [], [], table, {}
        for key, row in previous.items():
            c = row[0].get(var, 0)
            if c:
                (upper if c > 0 else lower).append(row)
            else:
                table[key] = row
        k += 1
        for pcs, ps, pb, _, pm in upper:
            kp = pcs[var]
            for ncs, ns, nb, _, nm in lower:
                mask = pm | nm
                if mask.bit_count() > k + 1:
                    continue
                kn = -ncs[var]
                # var's entry sums to zero and leaves with every other zero
                combined = {v: kn * c for v, c in pcs.items()}
                for v, c in ncs.items():
                    combined[v] = c = combined.get(v, 0) + kp * c
                    if not c:
                        del combined[v]
                if not _dominance_insert(table, combined, ps or ns, kn * pb + kp * nb, mask):
                    return FALSE

    for coeffs, strict, rhs, _, _ in table.values():
        names, ints = zip(*sorted(coeffs.items()))
        out_rows.append(Row(names, ints, REL_LT if strict else REL_LE, rhs, abs(ints[0])))
    if rows_too_long(out_rows, MAX_PRINTED_DIGITS):
        raise NumberTooLongError(f"a projection built a number longer than {MAX_PRINTED_DIGITS} digits")
    if len(out_rows) > 1:
        out_rows.sort(key=Row.pretty)
    return LinConstraint(tuple(out_rows))


# Polyhedra ------------------------------------------------------------------


@dataclass(frozen=True)
class Polyhedron:
    """A satisfiable constraint in minimised form, or the empty set.

    The zero-row constraint is the whole space (top).  Use the
    factories; the raw constructor skips minimisation.
    """

    constraint: LinConstraint
    empty: bool = False

    @staticmethod
    def bottom() -> "Polyhedron":
        return _BOTTOM

    @staticmethod
    def top() -> "Polyhedron":
        return _TOP

    @staticmethod
    def of(constraint: LinConstraint) -> "Polyhedron":
        # one dense form for the satisfiability check and minimise's
        # row-by-row loop
        rows = list(dict.fromkeys(constraint.rows))
        columns = sorted(constraint.vars())
        dense = _dense(rows, columns)
        if kernel.simplex_feasible(len(columns), dense) is None:
            return _BOTTOM
        return Polyhedron(_minimised(rows, len(columns), dense))

    def is_top(self) -> bool:
        return not self.empty and not self.constraint.rows

    def vars(self) -> set[Variable]:
        return set() if self.empty else self.constraint.vars()

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Polyhedron":
        if self.empty:
            return self
        return Polyhedron(self.constraint.rename(mapping), empty=False)

    def entails_poly(self, other: "Polyhedron") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        return entails(self.constraint, other.constraint)


_BOTTOM = Polyhedron(FALSE, empty=True)
_TOP = Polyhedron(TRUE)


def minimise(constraint: LinConstraint) -> LinConstraint:
    """Drop rows entailed by the remaining ones.  Caller ensures sat."""
    rows = list(dict.fromkeys(constraint.rows))
    columns = sorted(constraint.vars())
    return _minimised(rows, len(columns), _dense(rows, columns))


def _minimised(rows: list[Row], ncols: int, dense: list) -> LinConstraint:
    """minimise on distinct rows, given as they are and in their dense
    form over ncols columns."""
    kept = list(range(len(rows)))
    for i in range(len(rows)):
        rest = [j for j in kept if j != i]
        if _implied([dense[j] for j in rest], ncols, dense[i]):
            kept = rest
    return LinConstraint(tuple(rows[j] for j in kept))


def _fresh_named(base: str, used: set[str]) -> Variable:
    while base in used:
        base += "_"
    used.add(base)
    return Variable(base)


def hull(p1: Polyhedron, p2: Polyhedron) -> Polyhedron:
    """Closed convex hull of the union (strict faces are relaxed)."""
    if p1.empty:
        return p2
    if p2.empty:
        return p1
    if p1.is_top() or p2.is_top():
        return _TOP
    return _hull(p1, p2)


@memoised("hull")
def _hull(p1: Polyhedron, p2: Polyhedron) -> Polyhedron:
    """The memoised step: an interval over one variable, else the
    lifted hull."""
    xs = p1.vars() | p2.vars()
    if len(xs) == 1:
        return _interval_hull(p1, p2, xs.pop())
    return _lifted_hull(p1, p2)


def _interval_hull(p1: Polyhedron, p2: Polyhedron, x: Variable) -> Polyhedron:
    """The hull of two nonempty polyhedra whose rows mention x alone,
    from their closed bounds: the larger upper bound if both have one,
    the smaller lower bound if both have one.  When both are the same
    point p and every row of both is an equality, the equality x = p.
    A bound is an int pair (num, den > 0); pairs compare by
    cross-multiplying."""
    bounds = []
    for poly in (p1, p2):
        lo = hi = None
        for row in poly.constraint.rows:
            if not row.names:
                continue
            a = row.ints[0]
            bound = (row.num, a) if a > 0 else (-row.num, -a)
            if (row.rel == REL_EQ or a > 0) and (hi is None or _below(bound, hi)):
                hi = bound
            if (row.rel == REL_EQ or a < 0) and (lo is None or _below(lo, bound)):
                lo = bound
        bounds.append((lo, hi))
    (lo1, hi1), (lo2, hi2) = bounds
    ends = (lo1, hi1, lo2, hi2)
    if None not in ends and all(n * lo1[1] == lo1[0] * d for n, d in ends):
        if all(row.rel == REL_EQ for poly in (p1, p2) for row in poly.constraint.rows):
            num, den = lo1
            return Polyhedron(LinConstraint((Row.of_ints({x: den}, REL_EQ, num, den),)))
    rows = []
    if hi1 is not None and hi2 is not None:
        num, den = hi2 if _below(hi1, hi2) else hi1
        rows.append(Row.of_ints({x: den}, REL_LE, num, den))
    if lo1 is not None and lo2 is not None:
        num, den = lo1 if _below(lo1, lo2) else lo2
        rows.append(Row.of_ints({x: -den}, REL_LE, -num, den))
    # "x =< a" prints before "x >= b": the rows are in printed order
    return Polyhedron(LinConstraint(tuple(rows)))


def _below(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """p < q for int pairs (num, den > 0)."""
    return p[0] * q[1] < q[0] * p[1]


def _lifted_hull(p1: Polyhedron, p2: Polyhedron) -> Polyhedron:
    """The closed hull of two nonempty polyhedra, neither of them top,
    projected from the lifted system."""
    xs = sorted(p1.vars() | p2.vars())
    used = set(xs)
    copies = []
    for tag in ("1", "2"):
        cmap = {x: _fresh_named(f"{x}__h{tag}", used) for x in xs}
        scale = _fresh_named(f"S__h{tag}", used)
        copies.append((cmap, scale))
    rows = []
    for poly, (cmap, scale) in zip((p1, p2), copies):
        for row in poly.constraint.rows:
            coeffs = {cmap[v]: c for v, c in zip(row.names, row.ints)}
            if row.num:
                coeffs[scale] = -row.num
            rows.append((coeffs, REL_LE if row.rel == REL_LT else row.rel, 0, row.den))
        rows.append(({scale: -1}, REL_LE, 0, 1))
    rows.append(({copies[0][1]: 1, copies[1][1]: 1}, REL_EQ, 1, 1))
    for x in xs:
        rows.append(({x: 1, copies[0][0][x]: -1, copies[1][0][x]: -1}, REL_EQ, 0, 1))
    shadow = eliminate(rows, xs)
    # the hull of two nonempty polyhedra is nonempty
    return Polyhedron(minimise(shadow))


def widen(p1: Polyhedron, p2: Polyhedron) -> Polyhedron:
    """Standard row-selection widening: keep the rows of p1 that p2
    still entails.  Ascending chains stabilise because surviving rows
    are a subset of p1's."""
    if p1.empty:
        return p2
    if p2.empty:
        return p1
    rows = p1.constraint.rows
    columns = sorted(p1.vars() | p2.vars())
    premise = _dense(p2.constraint.rows, columns)
    dense = _dense(rows, columns)
    kept = (row for row, d in zip(rows, dense) if _implied(premise, len(columns), d))
    return Polyhedron(LinConstraint(tuple(kept)))
