"""Dense exact-rational linear programming by two-phase tableau pivoting.

Every problem solved here is tiny (at most a couple dozen variables), so a
plain tableau with Bland's anti-cycling rule is both sufficient and exact:
all arithmetic is fractions.Fraction, nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IntegrityError


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r in range(len(tableau)):
        if r != row and tableau[r][col]:
            f = tableau[r][col]
            prow = tableau[row]
            tableau[r] = [a - f * b for a, b in zip(tableau[r], prow)]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int],
              costs: list[Fraction], ncols: int) -> None:
    """Run max-simplex iterations in place until optimal (Bland's rule)."""
    m = len(tableau)
    while True:
        enter = -1
        for j in range(ncols):
            reduced = costs[j]
            for i in range(m):
                cb = costs[basis[i]]
                if cb:
                    reduced -= cb * tableau[i][j]
            if reduced > 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            # Feasible sets passed in by this package are always bounded.
            raise IntegrityError("linear program is unbounded")
        _pivot(tableau, basis, leave, enter)


def maximize(objective: list[int | Fraction], eq_rows: list[list[int | Fraction]],
             eq_rhs: list[int | Fraction]) -> tuple[Fraction, list[Fraction]] | None:
    """Maximize objective . x subject to eq_rows @ x = eq_rhs and x >= 0.

    Every entry is converted to Fraction here, so ints may be passed.
    Returns (optimal value, optimal x) or None when infeasible.
    """
    n = len(objective)
    m = len(eq_rows)
    tableau: list[list[Fraction]] = []
    for row, b in zip(eq_rows, eq_rhs):
        row = [Fraction(v) for v in row]
        b = Fraction(b)
        if b < 0:
            row = [-v for v in row]
            b = -b
        tableau.append(row + [Fraction(0)] * m + [b])
    for i in range(m):
        tableau[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))

    # Phase 1: drive the artificial variables to zero.
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _optimize(tableau, basis, phase1, n + m)
    value = sum(phase1[basis[i]] * tableau[i][-1] for i in range(m))
    if value < 0:
        return None
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j]), None)
            if col is None:
                continue  # redundant constraint, drop the row
            _pivot(tableau, basis, i, col)
        keep.append(i)
    tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: the real objective, artificial columns gone.
    costs = [Fraction(v) for v in objective]
    _optimize(tableau, basis, costs, n)
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    value = sum(c * v for c, v in zip(costs, x))
    return value, x
