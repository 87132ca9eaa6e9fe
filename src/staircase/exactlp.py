"""Exact rational feasibility of convex-combination systems.

Decides whether a target point is a convex combination of a finite point
set with no floats and no Fraction anywhere: the coordinates (int, bool,
Fraction, float, Decimal) are read at their exact value and scaled once
by the lcm of every denominator.  A phase-1 simplex with Bland's rule (no
cycling, guaranteed termination) pivots on the integer tableau by
fraction-free, integer-preserving elimination (Edmonds 1967; Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination"): the tableau holds D times the rational tableau, where D is
the previous pivot, and every update row <- (piv * row - f * pivrow) // D
divides exactly.
"""

from __future__ import annotations

import math


def in_convex_hull(target, points) -> bool:
    """True iff target = sum(l_i * p_i) for some l_i >= 0 with sum l_i = 1.

    target and points: same-length sequences of ints, bools, Fractions,
    floats or Decimals, scaled together to integers by one common lcm, with
    no Fraction anywhere.  Empty point set never contains anything.
    """
    target, *points = _integer_points([target, *points])
    if not points:
        return False
    if any(len(p) != len(target) for p in points):
        raise ValueError("dimension mismatch between target and points")
    # Equality system M l = d: one row per coordinate plus the sum-to-1 row.
    return _phase_one_feasible([*zip(*points), [1] * len(points)], [*target, 1])


def _integer_points(points) -> list[tuple[int, ...]]:
    """The points times the lcm of every denominator, as integer tuples.

    Coordinates are read at their exact value by as_integer_ratio(); any
    other, nan and inf included, is a ValueError naming it.
    """
    ratios = [[_ratio(x) for x in p] for p in points]
    scale = math.lcm(*(d for r in ratios for _, d in r))
    return [tuple(n * (scale // d) for n, d in r) for r in ratios]


def _ratio(x) -> tuple[int, int]:
    try:
        return x.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        raise ValueError(f"coordinate {x!r} is not a finite rational number") from None


def _phase_one_feasible(rows, rhs) -> bool:
    """Feasibility of {A x = b, x >= 0} for integer A, b.

    Minimizes the sum of artificial variables on a fraction-free tableau:
    tab and obj hold den times the rational tableau, den > 0.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0

    # Make b >= 0, then append an identity block of artificials.
    tab = []
    for r in range(nrows):
        row = list(rows[r])
        b = rhs[r]
        if b < 0:
            row = [-x for x in row]
            b = -b
        art = [0] * nrows
        art[r] = 1
        tab.append(row + art + [b])
    total = ncols + nrows
    basis = list(range(ncols, total))

    # Objective: minimize the artificial sum.  Reduced-cost row starts as
    # -(sum of constraint rows) on structural columns, 0 on artificials;
    # its last entry is minus the artificial sum, 0 exactly when feasible.
    obj = [0] * (total + 1)
    for r in range(nrows):
        for j in range(ncols):
            obj[j] -= tab[r][j]
        obj[total] -= tab[r][total]

    den = 1
    while obj[total] != 0:
        # Bland: entering column = lowest index with negative reduced cost.
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            return False
        # Leaving row: minimum ratio rhs/coef (cross-multiplied, coefs > 0),
        # ties by lowest basis index.
        leave = None
        for r in range(nrows):
            coef = tab[r][enter]
            if coef > 0:
                if leave is None:
                    leave = r
                    continue
                mine = tab[r][total] * tab[leave][enter]
                best = tab[leave][total] * coef
                if mine < best or (mine == best and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            # Unbounded below cannot happen for a phase-1 objective.
            raise ArithmeticError("phase-1 simplex became unbounded")
        den = _pivot(tab, obj, leave, enter, den)
        basis[leave] = enter
    return True


def _pivot(tab, obj, leave, enter, den) -> int:
    """Integer-preserving pivot; returns the new common denominator.

    The pivot row stays as it is; every other row, the objective included,
    becomes (piv * row - f * pivrow) / den, which is exact in integers.
    """
    pivrow = tab[leave]
    piv = pivrow[enter]
    for r, row in enumerate(tab):
        if r != leave:
            f = row[enter]
            tab[r] = [(piv * x - f * y) // den for x, y in zip(row, pivrow)]
    f = obj[enter]
    obj[:] = [(piv * x - f * y) // den for x, y in zip(obj, pivrow)]
    return piv
