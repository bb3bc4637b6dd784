"""Feasibility kernel for conjunctions of linear rows: a yes/no answer,
or a satisfying point or a refutation.

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
Most simplex calls in this verifier have few columns and more rows
(witness queries, and yes/no queries too tall for the elimination below,
such as 2 columns and up to 90 rows, or the 3-column shadows of long
widening delays, of up to about 300 rows), so a pivot rewrites m*n
coefficients where a tableau that also kept the basic columns would
rewrite m*(m+n).  The refutation of a derivation tree has about as many
rows as columns.

The arithmetic is fraction-free, after Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination" (Math. Comp.
1968): the kernel builds no Fraction.

* The caller passes each row multiplied by L, the lcm of its
  denominators, and L itself, so its slack is L*s over integer
  coefficients, with the integer bound L*b and, for a strict row, the
  delta bound -L (any other multiple would change the delta part).  A
  chc_core.Row is stored in exactly that form, with L its denominator,
  so the solver hands its ints over as they are.
  Scaling a variable by a positive constant changes neither the sign of
  any coefficient nor which bounds are violated, so Bland's rule picks
  the very same pivots and the original columns take the very same
  values: the witnesses, read as rationals, are those of a simplex over
  Fractions.
* A tableau row is a list of ints N over one positive int D, meaning
  ``D * basic = sum(N[p] * colvar[p])``.  The basic variable's value is
  kept as int numerators (main and delta) over the same D.  Nonbasic
  original columns sit at 0 and nonbasic slacks at their integer bound,
  so every numerator stays an integer.
* After a pivot, each row it touched is divided by the gcd of D, N and
  its two value numerators.
* An equality slack that leaves the basis can never enter again (Bland's
  rule skips it) and its value stays put, but its column is kept, so
  every tableau row stays an identity among the input rows, which the
  refutation below reads off.

The kernel has one entry per question.  simplex_feasible answers
yes/no, True or None, by exact Fourier-Motzkin elimination on the rows'
ints first (Imbert, "Fourier's elimination: which to choose?", 1993),
and builds no tableau when that decides.  An equality substitutes out
its first column with a nonzero coefficient, which removes a row.  An
inequality step on a column combines each row with a positive
coefficient there with each row with a negative one, scaled to cancel
it, and a combined row is strict if either parent is; a step is taken
only when its pos*neg combined rows do not outnumber the pos+neg rows
they replace, so the system never grows, and of those steps the one
that removes most rows.  A ground row is decided where it is made, and
then dropped.  The last live column is eliminated like any other,
whatever its growth: every row it combines is ground, so none is kept,
and one variable has a value exactly when each of its lower bounds
meets each upper one.  When every column left, of two or more, would
grow the system, the simplex decides the reduced rows, which are
satisfiable exactly when the input is.  The yes/no queries of the
analysis mostly have 1-3 columns and at most 9 rows, and on one seed-1
pass of each benchmark workload the elimination decides all but 2 of
303 (absint), 20 of 1,507 (refine-rahit) and 20 of 1,538
(refine-rahft).

solve asks the simplex alone and answers (witness, None) when the rows
are satisfiable, else (None, refutation).  The witness is a satisfying
assignment for the original columns as a list with one int triple
(main numerator, delta numerator, denominator) per column: the value is
(main/den, delta/den), den is positive and the triple is not reduced; a
nonbasic column reads (0, 0, 1).

The refutation is a Farkas certificate read off the conflict, as
Dutertre and de Moura read an explanation off it: the violated basic
slack xi whose row ``D * xi = sum(N[p] * colvar[p])`` leaves Bland's
rule nothing to enter.  No original column is in that row (a column is
free, so it would be eligible), and every slack in it is an equality
slack or sits at its bound on the side that moves xi away from its own.
So one int multiplier per input row, D on xi's row, -N[p] on the row
of each slack in it and 0 on every other, with every sign flipped when
xi is below its bound (an equality slack can be), adds the rows' ints
up to a ground row ``0 =< r`` or ``0 < r`` that fails: every column
cancels, no inequality gets a negative multiplier, and r is negative,
or zero with a strict row weighted.  A multiplier weighs the row's
ints, that is the rational row times its denominator.
"""

from __future__ import annotations

from math import gcd

from hornsafe.chc_core import REL_EQ, REL_LE, REL_LT


def simplex_feasible(ncols, rows):
    """Decide satisfiability of dense rows over ncols columns: True
    when they are satisfiable, None when not.

    rows: sequence of (coeffs, rel, rhs, scale), the row
    ``coeffs/scale . x  rel  rhs/scale`` with coeffs a length-ncols
    sequence of int, rel one of chc_core's REL_LE / REL_LT / REL_EQ,
    rhs an int and scale a positive int: the row's own denominator
    (chc_core.Row.den), or the lcm of the denominators of a row written
    over Fractions.  _fourier_motzkin answers first, and the simplex
    decides only what it leaves.
    """
    reduced = _fourier_motzkin(ncols, rows)
    if reduced is None or reduced is True:
        return reduced
    ncols, rows = reduced
    return None if _simplex(ncols, rows)[0] is None else True


def solve(ncols, rows):
    """The simplex alone on the rows, as simplex_feasible takes them:
    (witness, None) when they are satisfiable, else (None, refutation);
    see the module docstring."""
    return _simplex(ncols, rows)


def _fourier_motzkin(ncols, rows):
    """Fourier-Motzkin on the rows' ints while no step grows the
    system: None when the rows are unsatisfiable, True when they are
    satisfiable, else (ncols, rows) of a reduced system, satisfiable
    exactly when the rows are: the inequality rows left, with 0 on every
    eliminated column.  A row it makes has scale 1, since a strict row's
    scale weighs only the delta bound, which no yes/no answer depends
    on.  A ground row (all coefficients 0) is decided where it is made
    and then dropped; on the last live column every combined row is
    ground, so its coefficients are never built."""
    eqs = []
    ineqs = []
    for row in rows:
        coeffs, rel, rhs, _ = row
        if any(coeffs):
            (eqs if rel == REL_EQ else ineqs).append(row)
        elif _ground_fails(rel, rhs):
            return None

    # Each equality, on its first column k with a nonzero coefficient a,
    # substitutes k out of every other row (coefficient c there) as
    # |a|*row - sign(a)*c*equality.
    while eqs:
        ecs, _, erhs, _ = eqs.pop()
        k = next(j for j, c in enumerate(ecs) if c)
        a = ecs[k]
        if a < 0:
            a = -a
            ecs = [-c for c in ecs]
            erhs = -erhs
        substituted = eqs + ineqs
        eqs = []
        ineqs = []
        for row in substituted:
            cs, rel, rhs, _ = row
            c = cs[k]
            if c:
                cs = [a * x - c * y for x, y in zip(cs, ecs)]
                rhs = a * rhs - c * erhs
                if not any(cs):
                    if _ground_fails(rel, rhs):
                        return None
                    continue
                row = (cs, rel, rhs, 1)
            (eqs if rel == REL_EQ else ineqs).append(row)

    # Inequalities: each step eliminates the column whose pos*neg
    # combined rows outnumber the pos+neg rows they replace the least
    # (the first such column on a tie), and only when they do not
    # outnumber them or it is the last live column, whose combined rows
    # are all ground.  A pair kp > 0, kn < 0 on the column combines as
    # -kn*p + kp*n, strict if either row is.
    while True:
        live = 0
        best = None
        for j in range(ncols):
            pos = neg = 0
            for cs, _, _, _ in ineqs:
                c = cs[j]
                if c > 0:
                    pos += 1
                elif c < 0:
                    neg += 1
                else:
                    continue
                # growth is (pos-1)*(neg-1) - 1; once it is positive,
                # more rows only raise it, so the rest need no count
                if pos > 1 and neg > 1 and pos + neg > 4:
                    break
            if pos or neg:
                live += 1
                growth = pos * neg - pos - neg
                if best is None or growth < best:
                    best = growth
                    k = j
        if not live:
            return True
        if best > 0 and live > 1:
            return ncols, ineqs
        upper = []
        lower = []
        rest = []
        for row in ineqs:
            c = row[0][k]
            (upper if c > 0 else lower if c < 0 else rest).append(row)
        for pcs, prel, pb, _ in upper:
            kp = pcs[k]
            for ncs, nrel, nb, _ in lower:
                kn = -ncs[k]
                rel = REL_LT if prel == REL_LT or nrel == REL_LT else REL_LE
                rhs = kn * pb + kp * nb
                if live > 1:
                    cs = [kn * x + kp * y for x, y in zip(pcs, ncs)]
                    if any(cs):
                        rest.append((cs, rel, rhs, 1))
                        continue
                if _ground_fails(rel, rhs):
                    return None
        if live == 1:
            # every pair of the last column's bounds meets
            return True
        ineqs = rest


def _ground_fails(rel, rhs):
    """Does the ground row ``0 rel rhs`` fail?  An inequality fails when
    rhs < 1 if strict, rhs < 0 if not."""
    return rhs != 0 if rel == REL_EQ else rhs < (rel == REL_LT)


def _simplex(ncols, rows):
    """The bound-form simplex on the rows: (witness, None) when they
    are satisfiable, else (None, refutation); see the module
    docstring."""
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
            # den * xi = sum(row[p] * colvar[p]), and every column left
            # in the row is a slack that may not move towards xi's bound
            sign = -1 if below else 1
            y = [0] * nrows
            y[xi - ncols] = sign * den[r]
            for p in range(ncols):
                if row[p]:
                    y[colvar[p] - ncols] = -sign * row[p]
            return None, y

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

    return [(0, 0, 1) if r < 0 else (num_m[r], num_d[r], den[r]) for r in rowof[:ncols]], None
