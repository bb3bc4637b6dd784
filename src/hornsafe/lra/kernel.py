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

The arithmetic is fraction-free, after Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination" (Math. Comp.
1968): no Fraction is built inside the pivot loop.

* The caller passes each row multiplied by L, the lcm of its
  denominators, and L itself, so its slack is L*s over integer
  coefficients, with the integer bound L*b and, for a strict row, the
  delta bound -L (any other multiple would change the delta part).  A
  chc_core.Row is stored in exactly that form, with L its denominator,
  so the solver hands its ints over as they are.
  Scaling a variable by a positive constant changes neither the sign of
  any coefficient nor which bounds are violated, so Bland's rule picks
  the very same pivots and the original columns take the very same
  values: the witnesses are bit for bit those of a simplex over Fractions.
* A tableau row is a list of ints N over one positive int D, meaning
  ``D * basic = sum(N[p] * colvar[p])``.  The basic variable's value is
  kept as int numerators (main and delta) over the same D.  Nonbasic
  original columns sit at 0 and nonbasic slacks at their integer bound,
  so every numerator stays an integer.
* After a pivot, each row it touched is divided by the gcd of D, N and
  its two value numerators.
* An equality slack that leaves the basis can never enter again and its
  value stays put, so its column is zeroed instead of kept.  A row then
  omits that slack's constant contribution to its basic variable; the
  values are updated by each step's change and never recomputed from
  the row, and the gcd covers the value numerators, which keeps them
  integral.

The answer is None when the rows are unsatisfiable.  Otherwise it is
the witness, a satisfying assignment for the original columns as a list
of (main, delta_coefficient) pairs of Fractions, the only Fractions the
kernel builds, or just True when the caller asks for no witness.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hornsafe.chc_core import REL_EQ, REL_LT

_ZERO = Fraction(0)


def simplex_feasible(ncols, rows, witness=True):
    """Decide satisfiability of dense rows over ncols columns: None
    when unsatisfiable, else the witness, or True if witness is false.

    rows: sequence of (coeffs, rel, rhs, scale), the row
    ``coeffs/scale . x  rel  rhs/scale`` with coeffs a length-ncols
    sequence of int, rel one of chc_core's REL_LE / REL_LT / REL_EQ,
    rhs an int and scale a positive int: the row's own denominator
    (chc_core.Row.den), or the lcm of the denominators of a row written
    over Fractions.
    """
    nrows = len(rows)
    total = ncols + nrows

    # Only slacks have bounds.  Every slack has the upper bound
    # (up_m, up_d); an equality slack also has it as its lower bound.
    # A nonbasic slack sits at that bound, a nonbasic column at 0.
    up_m = [0] * total
    up_d = [0] * total
    pinned = [False] * total
    # den[r] * basic[r] = sum(tab[r][p] * colvar[p]); the value of
    # basic[r] is (num_m[r] / den[r], num_d[r] / den[r]).
    tab = [list(coeffs) for coeffs, _, _, _ in rows]
    den = [1] * nrows
    num_m = [0] * nrows
    num_d = [0] * nrows
    basic = list(range(ncols, total))
    colvar = list(range(ncols))
    rowof = [-1] * ncols + list(range(nrows))
    # Basic variables out of bounds, mapped to True when below.
    viol = {}

    for s, (_, rel, bound, scale) in enumerate(rows, ncols):
        up_m[s] = bound
        if rel == REL_LT:
            up_d[s] = -scale
            if bound <= 0:
                viol[s] = False
        else:
            pinned[s] = rel == REL_EQ
            if bound < 0:
                viol[s] = False
            elif bound > 0 and pinned[s]:
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
        # is its upper bound) by shifting xj, then solve row r for xj,
        #   |a| * xj = +-(d * xi - sum(row[p] * colvar[p], p != k)),
        # signed like a, and swap xi out of the basis in favour of xj,
        # into xj's column.
        a = row[k]
        d = den[r]
        xj_m = up_m[xj]
        xj_d = up_d[xj]
        # a * (xj's step) = d * (xi's step)
        xi_m = up_m[xi] * d - num_m[r]
        xi_d = up_d[xi] * d - num_d[r]
        if a > 0:
            pden = a
            prow = [-c for c in row]
            prow[k] = d
            pm = xj_m * pden + xi_m
            pd = xj_d * pden + xi_d
        else:
            pden = -a
            prow = row[:]
            prow[k] = -d
            pm = xj_m * pden - xi_m
            pd = xj_d * pden - xi_d
        # An equality slack leaving the basis can never enter again and
        # its value stays put, so its column is zeroed instead of kept.
        if pinned[xi]:
            prow[k] = 0
        g = gcd(pden, pm, pd, *prow)
        if g > 1:
            prow = [c // g for c in prow]
            pden //= g
            pm //= g
            pd //= g
        # xj's step, as numerators over pden.
        step_m = pm - xj_m * pden
        step_d = pd - xj_d * pden
        rest = [(p, prow[p]) for p in range(ncols) if p != k and prow[p]]
        colk = prow[k]

        for r2 in range(nrows):
            row2 = tab[r2]
            c = row2[k]
            if not c or r2 == r:
                continue
            # den[r2] * b = c * xj + ... ; substitute pden * xj = prow . x
            if pden != 1:
                row2 = [x * pden for x in row2]
            for p, q in rest:
                row2[p] += c * q
            row2[k] = c * colk
            d2 = den[r2] * pden
            m2 = num_m[r2] * pden + c * step_m
            dd2 = num_d[r2] * pden + c * step_d
            if d2 > 1:
                g = gcd(d2, m2, dd2, *row2)
                if g > 1:
                    row2 = [x // g for x in row2]
                    d2 //= g
                    m2 //= g
                    dd2 //= g
            tab[r2] = row2
            den[r2] = d2
            num_m[r2] = m2
            num_d[r2] = dd2
            b = basic[r2]
            if b >= ncols:
                um = up_m[b] * d2
                ud = up_d[b] * d2
                if m2 > um or (m2 == um and dd2 > ud):
                    viol[b] = False
                elif pinned[b] and (m2 < um or (m2 == um and dd2 < ud)):
                    viol[b] = True
                else:
                    viol.pop(b, None)

        # xj moved from within its bounds in a direction it may move, so
        # it enters the basis satisfied.
        tab[r] = prow
        den[r] = pden
        num_m[r] = pm
        num_d[r] = pd
        basic[r] = xj
        rowof[xj] = r
        rowof[xi] = -1
        colvar[k] = xi

    if not witness:
        return True
    values = []
    for j in range(ncols):
        r = rowof[j]
        if r < 0:
            values.append((_ZERO, _ZERO))
        else:
            values.append((Fraction(num_m[r], den[r]), Fraction(num_d[r], den[r])))
    return values
