"""Feasibility kernel for conjunctions of linear rows.

Algorithm: general simplex in bound form over delta-rationals.  Each
input row ``a . x  rel  b`` gets a slack variable s with the tableau
row ``s = a . x`` and bounds

    rel "=<"  ->  s <= b
    rel "<"   ->  s <= b - delta
    rel "="   ->  s  = b

where delta is a positive infinitesimal.  Values are pairs
(main, delta_coefficient) of exact rationals ordered lexicographically,
which decides strict inequalities without leaving rational arithmetic.
Pivot selection uses Bland's rule (smallest violating basic variable,
then smallest eligible nonbasic variable), which rules out cycling, so
the procedure terminates on every input.  Variables are numbered with
the ncols original columns first, then one slack per row in row order;
Bland's rule compares these numbers.

The tableau holds only the nonbasic columns, as in Dutertre and de
Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)" (CAV 2006): each of
the m rows expresses one basic variable over the n nonbasic ones, and a
pivot swaps the leaving variable into the entering variable's column.
Kernel calls in this verifier have few columns and many rows (the
entailment checks that prune a hull ask about 2 columns and up to 90
rows), so a pivot rewrites m*n coefficients where a tableau that also
kept the basic columns would rewrite m*(m+n).

A satisfying assignment for the original columns is returned as a list
of (main, delta_coefficient) pairs, or None when the rows are
unsatisfiable.
"""

from __future__ import annotations

from fractions import Fraction

REL_LE = 0
REL_LT = 1
REL_EQ = 2

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def simplex_feasible(ncols, rows):
    """Decide satisfiability of dense rows over ncols columns.

    rows: sequence of (coeffs, rel, rhs) with coeffs a length-ncols
    sequence of Fraction, rel one of REL_LE / REL_LT / REL_EQ, and rhs
    a Fraction.
    """
    nrows = len(rows)
    total = ncols + nrows

    # Only slacks have bounds.  Every slack has the upper bound
    # (up_m, up_d); an equality slack also has it as its lower bound.
    up_m = [_ZERO] * total
    up_d = [_ZERO] * total
    pinned = [False] * total
    # tab[r] expresses basic[r] over the nonbasic variables: its entry at
    # position p is the coefficient of colvar[p].
    tab = []
    basic = []
    colvar = list(range(ncols))
    rowof = [-1] * total
    # Current assignment, all zeros initially.
    vm = [_ZERO] * total
    vd = [_ZERO] * total
    # Basic variables out of bounds, mapped to True when below.
    viol = {}

    for i in range(nrows):
        coeffs, rel, rhs = rows[i]
        s = ncols + i
        tab.append(list(coeffs))
        basic.append(s)
        rowof[s] = i
        up_m[s] = rhs
        if rel == REL_LT:
            up_d[s] = _MINUS_ONE
            if rhs <= 0:
                viol[s] = False
        else:
            pinned[s] = rel == REL_EQ
            if rhs < 0:
                viol[s] = False
            elif rhs > 0 and pinned[s]:
                viol[s] = True

    while viol:
        xi = min(viol)
        below = viol.pop(xi)
        r = rowof[xi]
        row = tab[r]

        # Smallest eligible nonbasic variable.  A nonbasic slack sits at
        # its upper bound, so it may only decrease, and an equality
        # slack may not move at all; original columns are free.
        xj = total
        k = -1
        for p in range(ncols):
            a = row[p]
            if a:
                v = colvar[p]
                if v < xj and (v < ncols or ((a > 0) != below and not pinned[v])):
                    xj = v
                    k = p
        if k < 0:
            return None

        # Move xi to its violated bound (an equality slack's lower bound
        # is its upper bound) by shifting xj by theta, and propagate
        # theta to the other basic variables; then swap xi out of the
        # basis in favour of xj, into xj's column.
        a = row[k]
        thm = (up_m[xi] - vm[xi]) / a
        thd = (up_d[xi] - vd[xi]) / a
        vm[xi] = up_m[xi]
        vd[xi] = up_d[xi]
        vm[xj] += thm
        vd[xj] += thd

        inv = _ONE / a
        neg_inv = -inv
        newrow = [c * neg_inv if c else c for c in row]
        # An equality slack leaving the basis can never enter again and
        # its value stays put, so its column is zeroed instead of kept.
        keep = not pinned[xi]
        newrow[k] = inv if keep else _ZERO
        rest = [(p, newrow[p]) for p in range(ncols) if p != k and newrow[p]]

        for r2 in range(nrows):
            row2 = tab[r2]
            c = row2[k]
            if not c or r2 == r:
                continue
            for p, q in rest:
                row2[p] += c * q
            row2[k] = c * inv if keep else _ZERO
            b = basic[r2]
            if thm:
                vm[b] += c * thm
            if thd:
                vd[b] += c * thd
            if b >= ncols:
                m, d, um, ud = vm[b], vd[b], up_m[b], up_d[b]
                if m > um or (m == um and d > ud):
                    viol[b] = False
                elif pinned[b] and (m < um or (m == um and d < ud)):
                    viol[b] = True
                else:
                    viol.pop(b, None)

        # xj moved from within its bounds in a direction it may move, so
        # it enters the basis satisfied.
        tab[r] = newrow
        basic[r] = xj
        rowof[xj] = r
        rowof[xi] = -1
        colvar[k] = xi

    return [(vm[j], vd[j]) for j in range(ncols)]
