"""Exact-rational primal simplex, kept as the reference LP solver.

No production path calls it: the curvature program is solved as a min-cost
flow, and the test suite checks that engine against this simplex on the
complete, unpruned constraint set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


class SimplexError(RuntimeError):
    """Solver-level failure (unbounded or infeasible input)."""


def simplex_min(
    costs: Sequence,
    rows: Sequence[Mapping[int, object]],
    bounds: Sequence,
) -> tuple[Fraction, list[Fraction]]:
    """Minimize costs.x subject to rows[i].x <= bounds[i] and x >= 0.

    Every bound must be nonnegative so that x = 0 with a slack basis is
    feasible; callers arrange their formulation accordingly. Rows are sparse
    {column: coefficient} maps. Pivoting is exact rational with Bland's rule,
    which cannot cycle, so termination is guaranteed.

    Returns (optimal value, optimal x) as Fractions.
    """
    n = len(costs)
    m = len(rows)
    zero = Fraction(0)
    tableau: list[dict[int, Fraction]] = []
    rhs = []
    for i, row in enumerate(rows):
        b = Fraction(bounds[i])
        if b < 0:
            raise SimplexError(f"negative bound {bounds[i]} in row {i}")
        entries = {j: Fraction(c) for j, c in row.items() if c != 0}
        entries[n + i] = Fraction(1)  # slack
        tableau.append(entries)
        rhs.append(b)
    reduced = {j: Fraction(c) for j, c in enumerate(costs) if c != 0}
    neg_obj = zero  # cost-row rhs cell; equals -(current objective value)
    basis = [n + i for i in range(m)]

    while True:
        enter = None
        for j, c in reduced.items():
            if c < 0 and (enter is None or j < enter):
                enter = j
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            a = tableau[i].get(enter)
            if a is not None and a > 0:
                ratio = rhs[i] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise SimplexError("objective unbounded below")

        pivot_row = tableau[leave]
        piv = pivot_row[enter]
        if piv != 1:
            inv = 1 / piv
            tableau[leave] = pivot_row = {j: c * inv for j, c in pivot_row.items()}
            rhs[leave] = rhs[leave] * inv
        for i in range(m):
            if i == leave:
                continue
            factor = tableau[i].get(enter)
            if factor is None or factor == 0:
                continue
            target = tableau[i]
            for j, c in pivot_row.items():
                nv = target.get(j, zero) - factor * c
                if nv == 0:
                    target.pop(j, None)
                else:
                    target[j] = nv
            rhs[i] = rhs[i] - factor * rhs[leave]
        factor = reduced.get(enter)
        if factor is not None and factor != 0:
            for j, c in pivot_row.items():
                nv = reduced.get(j, zero) - factor * c
                if nv == 0:
                    reduced.pop(j, None)
                else:
                    reduced[j] = nv
            neg_obj = neg_obj - factor * rhs[leave]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = rhs[i]
    return -neg_obj, x
