"""Independent decision procedures and references used only by the tests.

Nothing in the first three sections reuses the solver's simplex or
projection code: satisfiability is decided by textbook variable
elimination (Gaussian substitution for equalities, Fourier-Motzkin for
inequalities), so the shipped simplex and this oracle can disagree only
if one of them is wrong.

The projection reference is the solver's projection and hull over
Fractions, without Chernikov's rule: the shipped projection must print
exactly what it prints on small systems and be equivalent to it on
systems large enough for the rule to leave rows out.  The clause post
reference builds the interpreted body, conjoins it and projects it
over Fractions; absint.body_post, which renames stored integer rows as
it reads them, must print what it prints.

The integer projection reference is lra.eliminate with the bookkeeping
it had before the rewrite that made it cheaper: the shipped eliminate
must return the very same rows in the same order, and refuse the same
inputs with NumberTooLongError.

The row reference is chc_core.Row as it was stored over Fractions:
its construction, renaming and printing, which the integer Row must
reproduce exactly.

The Farkas reference is interpolate's multiplier system as it was built
over the rational rows: the system interpolate hands the kernel over
the rows' ints must find the same multipliers, each divided by its
row's denominator, for the same pinned rows in the same order.

The tree automaton section also builds a program's whole trace
automaton (trace_fta), which only the tests use.

The last section holds test-only helpers that the verifier never runs:
trace parsing, the preorder listing and trace erasure by recursion,
bounded enumeration and the least accepted term
found by it, trace feasibility, an exact point check that calls no
solver (satisfies), clause selection,
model loading, an analysis that gives every derivable predicate the
top polyhedron (top_analyze), subtree and context formulas, label
mappings and equivalence, the defining conditions of a tree interpolant, and the
tree interpolation that rebuilds every node's context from the whole
tree, which the shipped one, building contexts incrementally, must
reproduce label for label, and the interpolant automaton that renames
each node's label directly onto every clause atom, which the shipped
one, placing each class representative's canonical label once, must
reproduce transition for transition.  Those do call the package's
solver.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from hornsafe.chc_core import (
    FALSE_PRED,
    MAX_PRINTED_DIGITS,
    REL_EQ,
    REL_LE,
    REL_LT,
    TRUE,
    Atom,
    Clause,
    FALSE,
    LinConstraint,
    NumberTooLongError,
    Program,
    Row,
    Variable,
    parse_program,
    rows_too_long,
)
from hornsafe.derivations import AndTree, and_tree, formula
from hornsafe.fta import AutomatonError, TraceTerm, TreeAutomaton
from hornsafe.lra import (
    JointlySatisfiableError,
    Polyhedron,
    entails,
    interpolate,
    is_sat,
    kernel,
    minimise,
    project,
)
from hornsafe.model import InterpretationModel, canonical_args, instantiate
from hornsafe.tree_interpolation import ERROR_STATE, FeasibleTreeError, TreeInterpolant

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Inequality rows are (coeffs tuple, strict flag, rhs); equalities are
# substituted away before Fourier-Motzkin runs.


def _normalise(coeffs, rhs):
    """Scale so the coefficient vector is coprime integers.

    Parallel same-direction rows then share a key and only the tightest
    survives in the working table.
    """
    denom = 1
    for x in coeffs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in coeffs]
    b = rhs * denom
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
        b = b / g
    return tuple(ints), b


def _insert(table, coeffs, strict, rhs):
    """Keep only the dominant row per coefficient direction.

    Returns False when the row is groundly unsatisfiable.
    """
    if all(x == 0 for x in coeffs):
        if strict:
            return rhs > 0
        return rhs >= 0
    key, b = _normalise(coeffs, rhs)
    old = table.get(key)
    if old is None or (b, not strict) < (old[1], not old[0]):
        table[key] = (strict, b)
    return True


def fm_satisfiable(constraint: LinConstraint) -> bool:
    """Decide satisfiability over the rationals by variable elimination."""
    variables = sorted(constraint.vars(), key=lambda v: v.name)
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)

    eqs = []
    ineqs = []
    for row in constraint.rows:
        coeffs = [_ZERO] * n
        for v, c in row.terms:
            coeffs[index[v]] = c
        if row.rel == REL_EQ:
            eqs.append((coeffs, row.rhs))
        elif row.rel == REL_LT:
            ineqs.append((tuple(coeffs), True, row.rhs))
        else:
            ineqs.append((tuple(coeffs), False, row.rhs))

    # Substitute equalities: one variable gone per equation, no growth.
    pending = list(eqs)
    while pending:
        ecoeffs, erhs = pending.pop()
        pivot = -1
        for j in range(n):
            if ecoeffs[j] != 0:
                pivot = j
                break
        if pivot < 0:
            if erhs != 0:
                return False
            continue
        k = ecoeffs[pivot]
        # x_pivot = (erhs - sum_{j != pivot} e_j x_j) / k
        def subst_ineq(item):
            coeffs, strict, rhs = item
            c = coeffs[pivot]
            if c == 0:
                return item
            out = [coeffs[j] - c * ecoeffs[j] / k for j in range(n)]
            out[pivot] = _ZERO
            return (tuple(out), strict, rhs - c * erhs / k)

        def subst_eq(item):
            coeffs, rhs = item
            c = coeffs[pivot]
            if c == 0:
                return item
            out = [coeffs[j] - c * ecoeffs[j] / k for j in range(n)]
            out[pivot] = _ZERO
            return (out, rhs - c * erhs / k)

        ineqs = [subst_ineq(it) for it in ineqs]
        pending = [subst_eq(it) for it in pending]

    # Dominance-pruned working set for Fourier-Motzkin.
    table = {}
    for coeffs, strict, rhs in ineqs:
        if not _insert(table, list(coeffs), strict, rhs):
            return False

    remaining = [j for j in range(n) if any(key[j] != 0 for key in table)]
    while remaining:
        rows = [(key, val[0], val[1]) for key, val in table.items()]

        def pairs(col):
            p = sum(1 for key, _, _ in rows if key[col] > 0)
            m = sum(1 for key, _, _ in rows if key[col] < 0)
            return p * m

        col = min(remaining, key=pairs)
        remaining.remove(col)
        pos = [(key, s, b) for key, s, b in rows if key[col] > 0]
        neg = [(key, s, b) for key, s, b in rows if key[col] < 0]
        keep = [(key, s, b) for key, s, b in rows if key[col] == 0]
        table = {}
        for key, s, b in keep:
            if not _insert(table, [Fraction(x) for x in key], s, b):
                return False
        for pkey, ps, pb in pos:
            kp = pkey[col]
            for nkey, ns, nb in neg:
                kn = -nkey[col]
                coeffs = [Fraction(pkey[j]) / kp + Fraction(nkey[j]) / kn for j in range(n)]
                rhs = pb / kp + nb / kn
                if not _insert(table, coeffs, ps or ns, rhs):
                    return False
    return True


# Dense simplex reference: the same bound-form simplex and Bland's rule
# as kernel.simplex_feasible, on a tableau that keeps every variable as a
# column, m x (m+n).  Both pick the same pivots, so their witnesses must
# be identical, not merely both valid.


def dense_simplex_reference(ncols, rows):
    """Decide satisfiability of dense rows over ncols columns.

    rows: sequence of (coeffs, rel, rhs) with coeffs a length-ncols
    sequence of Fraction, rel one of chc_core's REL_* codes, and rhs
    a Fraction.
    """
    nrows = len(rows)
    total = ncols + nrows

    # Tableau: mat[r] expresses basic[r] over the nonbasic variables.
    mat = []
    basic = []
    rowof = [-1] * total
    has_lo = [False] * total
    has_up = [False] * total
    lo_m = [_ZERO] * total
    lo_d = [_ZERO] * total
    up_m = [_ZERO] * total
    up_d = [_ZERO] * total
    # Current assignment, all zeros initially.
    vm = [_ZERO] * total
    vd = [_ZERO] * total

    for i in range(nrows):
        coeffs, rel, rhs = rows[i]
        s = ncols + i
        row = list(coeffs) + [_ZERO] * nrows
        mat.append(row)
        basic.append(s)
        rowof[s] = i
        if rel == REL_LE:
            has_up[s] = True
            up_m[s] = rhs
            up_d[s] = _ZERO
        elif rel == REL_LT:
            has_up[s] = True
            up_m[s] = rhs
            up_d[s] = Fraction(-1)
        else:
            has_lo[s] = True
            has_up[s] = True
            lo_m[s] = rhs
            lo_d[s] = _ZERO
            up_m[s] = rhs
            up_d[s] = _ZERO

    while True:
        # Smallest basic variable out of bounds (Bland).
        xi = -1
        below = False
        for v in range(total):
            if rowof[v] < 0:
                continue
            if has_lo[v] and (vm[v] < lo_m[v] or (vm[v] == lo_m[v] and vd[v] < lo_d[v])):
                xi = v
                below = True
                break
            if has_up[v] and (vm[v] > up_m[v] or (vm[v] == up_m[v] and vd[v] > up_d[v])):
                xi = v
                below = False
                break
        if xi < 0:
            return [(vm[j], vd[j]) for j in range(ncols)]

        r = rowof[xi]
        row = mat[r]
        xj = -1
        if below:
            for v in range(total):
                if rowof[v] >= 0:
                    continue
                a = row[v]
                if a == 0:
                    continue
                if a > 0:
                    if not has_up[v] or vm[v] < up_m[v] or (vm[v] == up_m[v] and vd[v] < up_d[v]):
                        xj = v
                        break
                else:
                    if not has_lo[v] or vm[v] > lo_m[v] or (vm[v] == lo_m[v] and vd[v] > lo_d[v]):
                        xj = v
                        break
            if xj < 0:
                return None
            tm = lo_m[xi]
            td = lo_d[xi]
        else:
            for v in range(total):
                if rowof[v] >= 0:
                    continue
                a = row[v]
                if a == 0:
                    continue
                if a < 0:
                    if not has_up[v] or vm[v] < up_m[v] or (vm[v] == up_m[v] and vd[v] < up_d[v]):
                        xj = v
                        break
                else:
                    if not has_lo[v] or vm[v] > lo_m[v] or (vm[v] == lo_m[v] and vd[v] > lo_d[v]):
                        xj = v
                        break
            if xj < 0:
                return None
            tm = up_m[xi]
            td = up_d[xi]

        # pivotAndUpdate(xi, xj, target): move xi to its bound, shift xj
        # by theta, propagate through the other basic values, then swap
        # xi out of the basis in favour of xj.
        a = row[xj]
        thm = (tm - vm[xi]) / a
        thd = (td - vd[xi]) / a
        vm[xi] = tm
        vd[xi] = td
        vm[xj] = vm[xj] + thm
        vd[xj] = vd[xj] + thd
        for r2 in range(nrows):
            if r2 == r:
                continue
            c = mat[r2][xj]
            if c != 0:
                b = basic[r2]
                vm[b] = vm[b] + c * thm
                vd[b] = vd[b] + c * thd

        inv = _ONE / a
        newrow = [_ZERO] * total
        for k in range(total):
            if k == xj:
                continue
            ck = row[k]
            if ck != 0:
                newrow[k] = -ck * inv
        newrow[xi] = inv
        mat[r] = newrow
        basic[r] = xj
        rowof[xj] = r
        rowof[xi] = -1
        for r2 in range(nrows):
            if r2 == r:
                continue
            row2 = mat[r2]
            c = row2[xj]
            if c != 0:
                row2[xj] = _ZERO
                for k in range(total):
                    nk = newrow[k]
                    if nk != 0:
                        row2[k] = row2[k] + c * nk


# Projection reference: equality substitution and Fourier-Motzkin over
# Fractions, keeping the tightest row per direction with the direction
# scaled so its first coefficient in name order is +1 or -1, and the
# hull's lifted system built over Fractions.  The hull's shadow is
# minimised by the package's minimise, as the solver's is.


def _fraction_dominance_insert(table, coeffs, strict, rhs) -> bool:
    items = sorted((v, c) for v, c in coeffs.items() if c != 0)
    if not items:
        return rhs > 0 if strict else rhs >= 0
    scale = abs(items[0][1])
    scaled = {v: c / scale for v, c in items}
    key = tuple(scaled.items())
    b = rhs / scale
    old = table.get(key)
    if old is None or (b, not strict) < (old[2], not old[1]):
        table[key] = (scaled, strict, b)
    return True


def fraction_eliminate(rows: list, drop: set) -> LinConstraint:
    """Eliminate drop from the (coefficients, relation, rhs) Fraction
    rows, whose dicts it consumes."""
    i = 0
    while i < len(rows):
        ecoeffs, rel, erhs = rows[i]
        pivot = None
        if rel == REL_EQ:
            pivot = next((v for v in sorted(ecoeffs) if v in drop and ecoeffs[v] != 0), None)
        if pivot is None:
            i += 1
            continue
        del rows[i]
        k = ecoeffs.pop(pivot)
        for j, (coeffs, r, rhs) in enumerate(rows):
            c = coeffs.pop(pivot, _ZERO)
            if c != 0:
                factor = c / k
                for v, e in ecoeffs.items():
                    coeffs[v] = coeffs.get(v, _ZERO) - factor * e
                rows[j] = (coeffs, r, rhs - factor * erhs)

    out_rows = []
    table = {}
    for coeffs, rel, rhs in rows:
        if rel != REL_EQ:
            if not _fraction_dominance_insert(table, coeffs, rel == REL_LT, rhs):
                return FALSE
            continue
        row = Row.make(coeffs, REL_EQ, rhs)
        if row.terms:
            out_rows.append(row)
        elif row.rhs != 0:
            return FALSE

    while True:
        pos, neg = Counter(), Counter()
        for coeffs, _, _ in table.values():
            for v, c in coeffs.items():
                if v in drop:
                    (pos if c > 0 else neg)[v] += 1
        if not pos and not neg:
            break
        var = min(sorted(pos.keys() | neg.keys()), key=lambda v: pos[v] * neg[v])
        upper = [row for row in table.values() if row[0].get(var, _ZERO) > 0]
        lower = [row for row in table.values() if row[0].get(var, _ZERO) < 0]
        table = {key: row for key, row in table.items() if var not in row[0]}
        for pcs, ps, pb in upper:
            kp = pcs[var]
            for ncs, ns, nb in lower:
                kn = -ncs[var]
                combined = {v: c / kp for v, c in pcs.items()}
                for v, c in ncs.items():
                    combined[v] = combined.get(v, _ZERO) + c / kn
                if not _fraction_dominance_insert(table, combined, ps or ns, pb / kp + nb / kn):
                    return FALSE

    out_rows += [Row.make(c, REL_LT if strict else REL_LE, b) for c, strict, b in table.values()]
    out_rows.sort(key=lambda r: r.pretty())
    return LinConstraint(tuple(out_rows))


def project_reference(constraint: LinConstraint, keep) -> LinConstraint:
    drop = constraint.vars() - set(keep)
    return fraction_eliminate([(row.coeffs(), row.rel, row.rhs) for row in constraint.rows], drop)


def post_reference(clause: Clause, polys) -> Polyhedron:
    """absint.body_post by the interpreted body: each polys[i], over
    canonical arguments, renamed onto the i-th body atom's arguments,
    conjoined with the clause constraint, projected over Fractions onto
    the head tuple, and renamed back onto canonical arguments."""
    conj = clause.constraint.conjoin(*[instantiate(p, a.args) for a, p in zip(clause.body, polys)])
    head = clause.head.args
    poly = Polyhedron.of(project_reference(conj, head))
    if poly.empty:
        return poly
    return poly.rename(dict(zip(head, canonical_args(len(head)))))


def hull_reference(p1: Polyhedron, p2: Polyhedron) -> Polyhedron:
    if p1.empty:
        return p2
    if p2.empty:
        return p1
    if p1.is_top() or p2.is_top():
        return Polyhedron.top()
    xs = sorted(p1.vars() | p2.vars())
    used = set(xs)

    def fresh(base):
        while base in used:
            base += "_"
        used.add(base)
        return Variable(base)

    copies = []
    for tag in ("1", "2"):
        cmap = {x: fresh(f"{x}__h{tag}") for x in xs}
        copies.append((cmap, fresh(f"S__h{tag}")))
    rows = []
    for poly, (cmap, scale) in zip((p1, p2), copies):
        for row in poly.constraint.rows:
            coeffs = {cmap[v]: c for v, c in row.terms}
            if row.rhs:
                coeffs[scale] = -row.rhs
            rows.append((coeffs, REL_LE if row.rel == REL_LT else row.rel, _ZERO))
        rows.append(({scale: -_ONE}, REL_LE, _ZERO))
    rows.append(({copies[0][1]: _ONE, copies[1][1]: _ONE}, REL_EQ, _ONE))
    for x in xs:
        rows.append(({x: _ONE, copies[0][0][x]: -_ONE, copies[1][0][x]: -_ONE}, REL_EQ, _ZERO))
    return Polyhedron(minimise(fraction_eliminate(rows, used - set(xs))))


# Integer projection reference: lra.eliminate and its dominance table
# as they were before their bookkeeping was rewritten (two Counters per
# round, three passes to split the table, zero entries filtered at each
# insert, every output row built by Row.of_ints and sorted), kept to
# pin that the rewrite returns the very same rows in the same order.


def _int_dominance_insert(
    table: dict, coeffs: dict[Variable, int], strict: bool, rhs: int, mask: int
) -> bool:
    """Keep the tightest row per direction: the table maps a primitive
    key to (coefficients, strict, rhs, g, mask), bound rhs/g along the
    key, mask the history of the row it keeps.  Returns False when a
    ground row is violated (unsatisfiable)."""
    coeffs = {v: c for v, c in coeffs.items() if c}
    if not coeffs:
        return rhs > 0 if strict else rhs >= 0
    g = gcd(*coeffs.values())
    key = frozenset([(v, c // g) for v, c in coeffs.items()])
    old = table.get(key)
    if old is None or (rhs * old[3], not strict) < (old[2] * g, not old[1]):
        h = gcd(g, rhs)
        table[key] = ({v: c // h for v, c in coeffs.items()}, strict, rhs // h, g // h, mask)
    return True


def eliminate_reference(rows: list, keep: Iterable[Variable]) -> LinConstraint:
    """project on integer rows (coefficients, relation, rhs,
    denominator), whose dicts it consumes: eliminate every variable the
    rows name outside keep."""
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
            if not _int_dominance_insert(table, coeffs, rel == REL_LT, rhs, 1 << bit):
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
        pos: Counter[Variable] = Counter()
        neg: Counter[Variable] = Counter()
        for coeffs, _, _, _, _ in table.values():
            for v, c in coeffs.items():
                if v in drop:
                    (pos if c > 0 else neg)[v] += 1
        if not pos and not neg:
            break
        var = min(sorted(pos.keys() | neg.keys()), key=lambda v: pos[v] * neg[v])
        upper = [row for row in table.values() if row[0].get(var, 0) > 0]
        lower = [row for row in table.values() if row[0].get(var, 0) < 0]
        table = {key: row for key, row in table.items() if var not in row[0]}
        k += 1
        for pcs, ps, pb, _, pm in upper:
            kp = pcs[var]
            for ncs, ns, nb, _, nm in lower:
                mask = pm | nm
                if mask.bit_count() > k + 1:
                    continue
                kn = -ncs[var]
                combined = {v: kn * c for v, c in pcs.items()}
                for v, c in ncs.items():
                    combined[v] = combined.get(v, 0) + kp * c
                if not _int_dominance_insert(table, combined, ps or ns, kn * pb + kp * nb, mask):
                    return FALSE

    for coeffs, strict, rhs, _, _ in table.values():
        out_rows.append(Row.of_ints(coeffs, REL_LT if strict else REL_LE, rhs, abs(coeffs[min(coeffs)])))
    if rows_too_long(out_rows, MAX_PRINTED_DIGITS):
        raise NumberTooLongError(f"a projection built a number longer than {MAX_PRINTED_DIGITS} digits")
    out_rows.sort(key=lambda r: r.pretty())
    return LinConstraint(tuple(out_rows))


# Row reference: a row as sorted (variable, Fraction) terms, a relation
# and a Fraction rhs, built, renamed and printed over Fractions.


_FLIPPED = {">=": REL_LE, ">": REL_LT}


def _format_coeff_var(coeff: Fraction, var: Variable) -> str:
    if coeff == 1:
        return str(var)
    if coeff == -1:
        return f"-{var}"
    return f"{coeff}*{var}"


@dataclass(frozen=True)
class FractionRow:
    """terms sorted by variable name with no zero coefficient; an
    equality's leading coefficient is positive."""

    terms: tuple[tuple[Variable, Fraction], ...]
    rel: str
    rhs: Fraction

    @staticmethod
    def make(coeffs, rel: str, rhs) -> "FractionRow":
        rhs = Fraction(rhs)
        items = {v: Fraction(c) for v, c in coeffs.items() if c}
        if rel in _FLIPPED:
            items = {v: -c for v, c in items.items()}
            rhs = -rhs
            rel = _FLIPPED[rel]
        terms = tuple(sorted(items.items()))
        if rel == REL_EQ and terms and terms[0][1] < 0:
            terms = tuple((v, -c) for v, c in terms)
            rhs = -rhs
        return FractionRow(terms, rel, rhs)

    def rename(self, mapping) -> "FractionRow":
        merged: dict[Variable, Fraction] = {}
        for v, c in self.terms:
            w = mapping.get(v, v)
            merged[w] = merged.get(w, _ZERO) + c
        return FractionRow.make(merged, self.rel, self.rhs)

    def pretty(self) -> str:
        if not self.terms:
            return f"0 {self.rel} {self.rhs}"
        terms, rel, rhs = self.terms, self.rel, self.rhs
        if terms[0][1] < 0:
            terms = tuple((v, -c) for v, c in terms)
            rhs = -rhs
            rel = {REL_LE: ">=", REL_LT: ">", REL_EQ: REL_EQ}[rel]
        parts = [_format_coeff_var(terms[0][1], terms[0][0])]
        for v, c in terms[1:]:
            if c < 0:
                parts.append(f" - {_format_coeff_var(-c, v)}")
            else:
                parts.append(f" + {_format_coeff_var(c, v)}")
        return f"{''.join(parts)} {rel} {rhs}"


# Farkas reference: the multiplier system over the Fraction split rows,
# each kernel row scaled by the lcm of its denominators.


def fraction_farkas(constraint: LinConstraint, pinned, want_strict_budget: bool):
    split = []
    for row in constraint.rows:
        coeffs = row.coeffs()
        if row.rel == REL_EQ:
            split.append((coeffs, False, row.rhs))
            split.append(({v: -c for v, c in coeffs.items()}, False, -row.rhs))
        else:
            split.append((coeffs, row.rel == REL_LT, row.rhs))
    m = len(split)
    unit = [[_ONE if j == i else _ZERO for j in range(m)] for i in range(m)]
    variables = sorted(set().union(*[cs for cs, _, _ in split]))
    rows = [([cs.get(v, _ZERO) for cs, _, _ in split], REL_EQ, _ZERO) for v in variables]
    rows += [([-c for c in unit[i]], REL_LE, _ZERO) for i in range(m)]
    rows += [(unit[i], REL_EQ, _ZERO) for i in pinned]
    budget = [b for _, _, b in split]
    if not want_strict_budget:
        rows.append((budget, REL_LE, -_ONE))
    else:
        rows.append((budget, REL_LE, _ZERO))
        if not any(strict for _, strict, _ in split):
            return None
        rows.append(([-_ONE if strict else _ZERO for _, strict, _ in split], REL_LE, -_ONE))
    scaled = []
    for coeffs, rel, rhs in rows:
        scale = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        scaled.append(([int(c * scale) for c in coeffs], rel, int(rhs * scale), scale))
    result = kernel.simplex_feasible(m, scaled)
    return None if result is None else [main for main, _ in result]


# Tree automaton oracles: evaluation by direct recursion over the
# acceptance definition.  Only the data types are shared with the
# package; none of its fixpoint or product machinery is reused.


def trace_fta(program: Program) -> TreeAutomaton:
    """Recognises every trace of the program rooted at false: the
    unfiltered fta.model_fta.  Its alphabet lists the clause ids in
    program order."""
    return TreeAutomaton(
        frozenset(program.predicates | {FALSE_PRED}),
        frozenset({FALSE_PRED}),
        {c.cid: len(c.body) for c in program},
        frozenset((c.cid, tuple(a.pred for a in c.body), c.head.pred) for c in program),
    )


def run_states(automaton: TreeAutomaton, term: TraceTerm) -> frozenset[str]:
    """All states the term can evaluate to, bottom-up."""
    child_sets = [run_states(automaton, c) for c in term.children]
    out = set()
    for sym, args, target in automaton.transitions:
        if sym != term.sym or len(args) != len(term.children):
            continue
        if all(q in s for q, s in zip(args, child_sets)):
            out.add(target)
    return frozenset(out)


def accepts(automaton: TreeAutomaton, term: TraceTerm) -> bool:
    return bool(run_states(automaton, term) & automaton.finals)


def all_terms(alphabet, maxdepth: int) -> set[TraceTerm]:
    """Every ranked term over the alphabet of depth at most maxdepth,
    whether or not any automaton accepts it."""
    prev: set[TraceTerm] = set()
    for _ in range(maxdepth):
        nxt = set(prev)
        for sym, arity in alphabet.items():
            for combo in itertools.product(prev, repeat=arity):
                nxt.add(TraceTerm(sym, combo))
        prev = nxt
    return prev


# Reference subset construction: the whole determinisation of the
# remover first, then its completed product with the other automaton.
# fta.difference builds only the subsets its product reaches, and must
# give exactly the automaton this reference gives.


def _set_state(members) -> str:
    return "{" + ",".join(sorted(set(members))) + "}"


_EMPTY_SET_STATE = "{}"


def determinise(a: TreeAutomaton) -> TreeAutomaton:
    """Reachable subset construction.  The result is bottom-up
    deterministic and language-equal; only nonempty, reachable member
    sets become states, so completion is left to the caller."""
    by_sym: dict[str, list[tuple[tuple[str, ...], str]]] = {s: [] for s in a.alphabet}
    for sym, args, target in a.transitions:
        by_sym[sym].append((args, target))

    discovered: dict[frozenset[str], str] = {}
    transitions: set = set()
    changed = True
    while changed:
        changed = False
        for sym, arity in a.alphabet.items():
            for combo in itertools.product(list(discovered), repeat=arity):
                members = frozenset(
                    target
                    for args, target in by_sym[sym]
                    if all(q in s for q, s in zip(args, combo))
                )
                if not members:
                    continue
                if members not in discovered:
                    discovered[members] = _set_state(members)
                    changed = True
                tr = (sym, tuple(discovered[s] for s in combo), discovered[members])
                if tr not in transitions:
                    transitions.add(tr)
                    changed = True
    states = frozenset(discovered.values())
    finals = frozenset(
        name for members, name in discovered.items() if members & a.finals
    )
    return TreeAutomaton(states, finals, dict(a.alphabet), transitions)


def model_fta_reference(program: Program, model: InterpretationModel) -> TreeAutomaton:
    """fta.model_fta as a direct satisfiability filter: a transition
    survives iff its clause's interpreted body constraint is
    satisfiable."""
    base = trace_fta(program)
    kept = {
        t
        for t in base.transitions
        if is_sat(model.body_constraint(program.clause_by_id(t[0]))) is not None
    }
    return TreeAutomaton(base.states, base.finals, base.alphabet, kept)


def difference_reference(a: TreeAutomaton, b: TreeAutomaton) -> TreeAutomaton:
    """L(a) minus L(b) as the product of a with determinise(b),
    completed by the empty-set sink."""
    for sym, arity in b.alphabet.items():
        if sym in a.alphabet and a.alphabet[sym] != arity:
            raise AutomatonError(f"alphabets disagree on {sym!r}")
    db = determinise(b)
    db_target: dict[tuple[str, tuple[str, ...]], str] = {}
    for sym, args, target in db.transitions:
        db_target[(sym, args)] = target

    by_sym: dict[str, list[tuple[tuple[str, ...], str]]] = {s: [] for s in a.alphabet}
    for sym, args, target in a.transitions:
        by_sym[sym].append((args, target))

    def pname(qa: str, qb: str) -> str:
        return f"({qa},{qb})"

    discovered: set[tuple[str, str]] = set()
    transitions: set = set()
    changed = True
    while changed:
        changed = False
        for sym, arity in a.alphabet.items():
            for args, target in by_sym[sym]:
                bsides = [
                    [qb for (qa, qb) in discovered if qa == q] for q in args
                ]
                for combo in itertools.product(*bsides):
                    # the sink absorbs every tuple with no b-side move
                    bt = db_target.get((sym, combo), _EMPTY_SET_STATE)
                    pair = (target, bt)
                    tr = (
                        sym,
                        tuple(pname(q, qb) for q, qb in zip(args, combo)),
                        pname(*pair),
                    )
                    if pair not in discovered:
                        discovered.add(pair)
                        changed = True
                    if tr not in transitions:
                        transitions.add(tr)
                        changed = True
    states = frozenset(pname(*p) for p in discovered)
    finals = frozenset(
        pname(qa, qb) for qa, qb in discovered if qa in a.finals and qb not in db.finals
    )
    return TreeAutomaton(states, finals, dict(a.alphabet), transitions)


# Test-only helpers.  They run on the package's own data types and
# solver; the verifier itself calls none of them.


def equivalent(c1: LinConstraint, c2: LinConstraint) -> bool:
    return entails(c1, c2) and entails(c2, c1)

ENUM_DEPTH_BOUND = 6


def term_depth(term: TraceTerm) -> int:
    return 1 + max((term_depth(c) for c in term.children), default=0)


def preorder_reference(term: TraceTerm, parent: int = -1, slot: int = 0, out=None) -> list:
    """TraceTerm.preorder by recursion: (subterm, parent position or
    -1, slot among the parent's children) for every occurrence, each
    before its children and the first child first."""
    out = [] if out is None else out
    index = len(out)
    out.append((term, parent, slot))
    for k, child in enumerate(term.children):
        preorder_reference(child, index, k, out)
    return out


def erase_trace_reference(program: Program, term: TraceTerm) -> TraceTerm:
    """refinement.erase_trace by recursion: each generated clause id
    replaced by the id of the clause it instantiates."""
    origin = {c.cid: c.origin for c in program if c.origin is not None}
    return TraceTerm(
        origin.get(term.sym, term.sym),
        tuple(erase_trace_reference(program, c) for c in term.children),
    )


def parse_trace(text: str) -> TraceTerm:
    pos = 0

    def node() -> TraceTerm:
        nonlocal pos
        m = re.match(r"\s*([A-Za-z0-9_]+)\s*", text[pos:])
        if not m:
            raise AutomatonError(f"bad trace term at offset {pos}")
        sym = m.group(1)
        pos += m.end()
        kids = []
        if pos < len(text) and text[pos] == "(":
            pos += 1
            kids.append(node())
            while pos < len(text) and text[pos] == ",":
                pos += 1
                kids.append(node())
            if pos >= len(text) or text[pos] != ")":
                raise AutomatonError("unbalanced parentheses in trace term")
            pos += 1
        return TraceTerm(sym, tuple(kids))

    t = node()
    if text[pos:].strip():
        raise AutomatonError("trailing input after trace term")
    return t


def enumerate_terms(
    a: TreeAutomaton, maxdepth: int, *, bound: int = ENUM_DEPTH_BOUND
) -> set[TraceTerm]:
    """Exactly the accepted terms of depth at most maxdepth.  Purely a
    test oracle; refuses depths beyond the bound to keep runtimes sane."""
    if maxdepth > bound:
        raise AutomatonError(f"enumeration depth {maxdepth} exceeds bound {bound}")
    reach: dict[str, set[TraceTerm]] = {q: set() for q in a.states}
    for _ in range(max(maxdepth, 0)):
        nxt = {q: set(ts) for q, ts in reach.items()}
        for sym, args, target in a.transitions:
            for combo in itertools.product(*(reach[q] for q in args)):
                nxt[target].add(TraceTerm(sym, combo))
        reach = nxt
    out: set[TraceTerm] = set()
    for q in a.finals:
        out |= reach[q]
    return out


def least_accepted(a: TreeAutomaton, maxdepth: int) -> TraceTerm | None:
    """fta.find_accepted by brute force over the terms of depth at most
    maxdepth: the least accepted term by depth, then by the key (the
    symbol's position in a.alphabet, then the subterms' keys left to
    right).  The candidates are the terms each of whose subterms is a
    least term of the state it is read in: of least depth there and
    built the same way.  A subterm deeper than its state's least depth
    can have a smaller key, and find_accepted never builds one.  None
    when no accepted term has depth at most maxdepth."""
    rank = {sym: i for i, sym in enumerate(a.alphabet)}

    def key(t: TraceTerm) -> tuple:
        return (rank[t.sym], tuple(key(c) for c in t.children))

    lang = {
        q: enumerate_terms(
            TreeAutomaton(a.states, {q}, a.alphabet, a.transitions), maxdepth
        )
        for q in a.states
    }
    least = {q: min(map(term_depth, ts)) for q, ts in lang.items() if ts}
    # a subterm's state has a smaller least depth, so it comes first
    tight: dict[str, set[TraceTerm]] = {}
    for q in sorted(least, key=least.get):
        tight[q] = {
            t
            for t in lang[q]
            if term_depth(t) == least[q]
            and any(
                sym == t.sym
                and target == q
                and all(c in tight.get(p, ()) for c, p in zip(t.children, args))
                for sym, args, target in a.transitions
            )
        }
    terms = [t for q in a.finals if q in tight for t in tight[q]]
    return min(terms, key=lambda t: (term_depth(t), key(t)), default=None)


def check_soundness(program: Program, automaton: TreeAutomaton, depth: int) -> bool:
    """Does the automaton accept only infeasible traces, up to the
    given enumeration depth?"""
    return all(
        feasible(program, t) is None
        for t in enumerate_terms(automaton, depth)
    )


def load_model(text: str) -> InterpretationModel:
    """Parse a dump produced by InterpretationModel.pretty."""
    prog = parse_program(text)
    entries: dict[str, Polyhedron] = {}
    for clause in prog:
        if clause.body:
            raise ValueError("model entries cannot contain body atoms")
        if clause.head.pred in entries:
            raise ValueError(f"duplicate entry for {clause.head.pred}")
        args = clause.head.args
        canon = canonical_args(len(args))
        constraint = clause.constraint
        # auxiliary variables that collide with the canonical names would
        # be captured by the renaming; move them out of the way first
        clashes = (constraint.vars() & set(canon)) - set(args)
        if clashes:
            fresh = {v: Variable(v.name + "__aux") for v in clashes}
            constraint = constraint.rename(fresh)
        constraint = constraint.rename(dict(zip(args, canon)))
        if not constraint.vars() <= set(canon):
            constraint = project(constraint, canon)
        entries[clause.head.pred] = Polyhedron.of(constraint)
    return InterpretationModel(entries)


def top_analyze(program: Program, widen_delay: int = 3) -> InterpretationModel:
    """An analysis that knows nothing but reachability: every predicate
    that some clause with a satisfiable constraint derives from derived
    predicates gets the top polyhedron.  driver.verify run with it in
    place of absint.analyze refines with interpolant tree automata and
    no abstract interpretation; widen_delay is ignored."""
    derived: set[str] = set()
    live = [c for c in program if fm_satisfiable(c.constraint)]
    grew = True
    while grew:
        grew = False
        for clause in live:
            if clause.head.pred not in derived and all(a.pred in derived for a in clause.body):
                derived.add(clause.head.pred)
                grew = True
    return InterpretationModel({pred: Polyhedron.top() for pred in derived})


def feasible(program: Program, trace: TraceTerm) -> dict[Variable, Fraction] | None:
    """A point satisfying the trace's derivation, or None when infeasible."""
    return is_sat(formula(and_tree(program, trace)))


def satisfies(constraint: LinConstraint, point) -> bool:
    """Does point, a value for each variable of the constraint, satisfy
    every row?  Evaluated in Fractions, row by row, with no solver."""
    for row in constraint.rows:
        lhs = sum((c * point[v] for v, c in row.terms), _ZERO)
        if row.rel == REL_EQ and lhs != row.rhs:
            return False
        if row.rel == REL_LE and not lhs <= row.rhs:
            return False
        if row.rel == REL_LT and not lhs < row.rhs:
            return False
    return True


def clauses_with_head(program: Program, pred: str) -> list[Clause]:
    return [c for c in program.clauses if c.head.pred == pred]


def integrity_clauses(program: Program) -> list[Clause]:
    return clauses_with_head(program, FALSE_PRED)


def tree_pretty(tree: AndTree) -> str:
    """One line per node, indented by depth: index, atom, clause id and
    the node's constraint."""
    depths = [-1]
    lines = []
    for node, parent in zip(tree, tree_parents(tree)):
        depths.append(depths[parent] + 1)
        indent = "  " * depths[node.index]
        body = node.constraint.pretty() or "true"
        lines.append(f"{indent}{node.index}. {node.atom} [{node.cid}] {body}")
    return "\n".join(lines) + "\n"


def tree_parents(tree: AndTree) -> list[int]:
    """Each node's parent index (0 at the root), in preorder, read off
    the children."""
    parents = [0] * len(tree)
    for node in tree:
        for c in node.children:
            parents[c - 1] = node.index
    return parents


def tree_sizes(tree: AndTree) -> list[int]:
    """Each node's subtree size, in preorder, summed from the children
    in reverse preorder."""
    sizes = [1] * len(tree)
    for node in reversed(tree.nodes):
        for c in node.children:
            sizes[node.index - 1] += sizes[c - 1]
    return sizes


def subtree_indices(tree: AndTree, i: int) -> range:
    return range(i, i + tree_sizes(tree)[i - 1])


def subtree_formula(tree: AndTree, i: int) -> LinConstraint:
    return TRUE.conjoin(*(tree.node(j).constraint for j in subtree_indices(tree, i)))


def context_formula(tree: AndTree, i: int) -> LinConstraint:
    inside = set(subtree_indices(tree, i))
    return TRUE.conjoin(
        *(n.constraint for n in tree if n.index not in inside)
    )


@dataclass(frozen=True)
class InterpolantMapping:
    """Per-node labels keyed by (predicate, node index)."""

    entries: tuple[tuple[Atom, int, LinConstraint], ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def interpolant_mapping(ti: TreeInterpolant) -> InterpolantMapping:
    return InterpolantMapping(
        tuple(
            (ti.atom(i), i, ti.label(i)) for i in range(1, len(ti) + 1)
        )
    )


def conjunctive_mapping(ti: TreeInterpolant) -> InterpretationModel:
    """One entry per predicate: the conjunction of all its node labels,
    renamed onto the canonical tuple.  Unsatisfiable conjunctions
    (the root's in particular) yield no entry."""
    conj: dict[str, LinConstraint] = {}
    for atom, i, label in interpolant_mapping(ti):
        canon = canonical_args(len(atom.args))
        renamed = label.rename(dict(zip(atom.args, canon)))
        conj[atom.pred] = conj.get(atom.pred, TRUE) & renamed
    return InterpretationModel(
        {pred: Polyhedron.of(c) for pred, c in conj.items()}
    )


def check_tree_interpolant(tree: AndTree, ti: TreeInterpolant) -> bool:
    """The three defining conditions, checked with the solver: false at
    the root, children's labels plus the clause constraint entail each
    node's label, and labels only use their node's atom variables."""
    if len(tree) != len(ti):
        raise ValueError("tree and labelling differ in shape")
    if is_sat(ti.label(1)) is not None:
        return False
    for node in tree:
        premise = node.constraint.conjoin(*[ti.label(c) for c in node.children])
        if not entails(premise, ti.label(node.index)):
            return False
        if not ti.label(node.index).vars() <= set(node.atom.args):
            return False
    return True


def tree_interpolant_reference(tree: AndTree) -> TreeInterpolant:
    """tree_interpolation.tree_interpolant with each node's context
    rebuilt from the tree: the constraints of the nodes before it, then
    the labels of the later nodes whose parent comes before it, and
    projected onto the shared variables whenever the context has
    others."""
    n = len(tree)
    if n == 1 and is_sat(formula(tree)) is not None:
        raise FeasibleTreeError("derivation tree is feasible")
    parents = tree_parents(tree)
    sizes = tree_sizes(tree)
    labels: dict[int, LinConstraint] = {1: FALSE}
    for i in range(n, 1, -1):
        node = tree.node(i)
        first = node.constraint.conjoin(*[labels[c] for c in node.children])
        after = i + sizes[i - 1]
        second = TRUE.conjoin(
            *[tree.node(j).constraint for j in range(1, i)],
            *[labels[j] for j in range(after, n + 1) if parents[j - 1] < i],
        )
        shared = first.vars() & second.vars()
        if not second.vars() <= shared:
            second = project(second, frozenset(shared))
        try:
            labels[i] = interpolate(first, second)
        except JointlySatisfiableError:
            if i < n:
                raise
            raise FeasibleTreeError("derivation tree is feasible") from None
    return TreeInterpolant(
        atoms=tuple(node.atom for node in tree),
        labels=tuple(labels[i] for i in range(1, n + 1)),
    )


def interpolant_automaton_reference(
    program: Program, tree: AndTree, ti: TreeInterpolant
) -> TreeAutomaton:
    """tree_interpolation.interpolant_automaton with every label renamed
    directly from its node's atom onto a clause atom's arguments, for
    each head node and each body combination, where the shipped one
    places each class representative's canonical label once."""
    if len(tree) != len(ti):
        raise ValueError("tree and labelling differ in shape")
    if is_sat(ti.label(1)) is not None or any(
        not ti.label(node.index).vars() <= set(node.atom.args) for node in tree
    ):
        raise ValueError("labelling is not a tree interpolant")

    def state(i: int) -> str:
        pred = ti.atom(i).pred
        return ERROR_STATE if pred == FALSE_PRED else f"{pred}^{i}"

    def renamed(i: int, args) -> LinConstraint:
        return ti.label(i).rename(dict(zip(ti.atom(i).args, args)))

    rep: dict[int, int] = {}
    classes: dict[tuple[str, LinConstraint], int] = {}
    for i in range(1, len(ti) + 1):
        atom = ti.atom(i)
        canon = ti.label(i).rename(dict(zip(atom.args, canonical_args(len(atom.args)))))
        rep[i] = classes.setdefault((atom.pred, canon), i)
    by_pred: dict[str, list[int]] = {}
    for i in sorted(set(rep.values())):
        by_pred.setdefault(ti.atom(i).pred, []).append(i)

    transitions = set()
    for clause in program:
        body_nodes = [by_pred.get(a.pred, ()) for a in clause.body]
        for j in by_pred.get(clause.head.pred, ()):
            for combo in itertools.product(*body_nodes):
                premise = clause.constraint.conjoin(
                    *[renamed(jm, a.args) for jm, a in zip(combo, clause.body)]
                )
                if entails(premise, renamed(j, clause.head.args)):
                    transitions.add((clause.cid, tuple(state(jm) for jm in combo), state(j)))
    for node in tree:
        step = (node.cid, tuple(state(rep[c]) for c in node.children), state(rep[node.index]))
        if step not in transitions:
            raise ValueError("labelling is not a tree interpolant")
    return TreeAutomaton(
        frozenset(state(i) for i in rep.values()),
        frozenset({state(rep[1])}),
        {c.cid: len(c.body) for c in program},
        frozenset(transitions),
    )
