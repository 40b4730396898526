"""Exact two-phase primal simplex with Bland's rule.

Solves min c^T x over {x : W x <= w} with x free, exactly.  Returns exact
optima with dual certificates, exact unboundedness rays, and Farkas
certificates on infeasibility.

The tableau is integer with one common denominator: rows hold Python ints
N and the tableau is N / d, d > 0.  Pivots are fraction-free (Edmonds 1967,
Bareiss 1968; in a simplex, Azulay & Pique 2001): every row becomes
(p row - f pivot_row) / d, an exact division, and d becomes p.  The pivots
are those of the same method on a rational tableau: integer scaling of the
rows and of the phase-1 cost is by positive constants, which leave Bland's
choice, the ratio test and its ties unchanged.  Rationals are read from the
inputs through ``numerator``/``denominator`` and built only for the outputs,
as ``Rat(int, int)``.

Phase 1 depends only on (W, w), not on c, and any feasible basis is a valid
start for phase 2 (Dantzig's two-phase method; Chvatal 1983, ch. 8).  So
``phase1`` turns (W, w) into an ``LpStart`` (the tableau, basis and d after
the artificials are driven out, or the Farkas vector), and ``phase2``
restarts from a copy of it for each cost.  ``solve_lp`` is the one after the
other; a ``Polyhedron`` keeps its start, so many objectives over one
polyhedron pay for phase 1 once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import List, Optional

from .errors import DimensionError
from .linalg import Matrix, Vector, dot, integer_row
from .rational import Rat, ZERO, ONE

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    status: str
    x: Optional[Vector] = None
    value: Optional[Rat] = None
    dual: Optional[Vector] = None     # mu >= 0 with c + W^T mu = 0 at an optimum
    ray: Optional[Vector] = None      # W ray <= 0 and c^T ray < 0 when unbounded
    farkas: Optional[Vector] = None   # mu >= 0, mu^T W = 0, mu^T w < 0 when infeasible

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


@dataclass(frozen=True, slots=True)
class LpStart:
    """Phase 1's outcome on W x <= w with n variables and m rows.

    A feasible system keeps the integer tableau rows, the basis and d after
    the artificials are driven out; an infeasible one keeps only its Farkas
    vector.  Nothing writes to the rows or the basis: ``phase2`` works on a
    shallow copy of both lists, which is enough because a pivot replaces
    rows and never writes into one.
    """

    n: int
    m: int
    rows: List[List[int]]
    basis: List[int]
    d: int = 1
    farkas: Optional[Vector] = None


class _Tableau:
    """The working tableau rows / d over the stored columns.

    Columns are numbered x+ 0..n-1, x- n..2n-1, s 2n..ncols-1, artificial
    from ncols = 2n + m on; Bland's rule and the ties of the ratio test use
    these numbers.  Only the x+ and slack columns and the right-hand side
    (stored index n + m) are stored: the x- column is minus the x+ column,
    and artificial column i is slack column i over sigma_i s_i, so the slack
    reduced costs carry the dual values.
    """

    __slots__ = ("n", "m", "rows", "basis", "d")

    def __init__(self, n: int, rows: List[List[int]], basis: List[int], d: int):
        self.n, self.m, self.rows, self.basis, self.d = n, len(rows), rows, basis, d

    def column(self, j):
        """Stored column and sign of column j."""
        n = self.n
        if j < n:
            return j, 1
        if j < 2 * n:
            return j - n, -1
        return j - n, 1

    def pivot(self, r, j):
        """Bareiss pivot on (r, j); a reduced-cost row in rows[m] rides along.

        Every other row becomes (p row - f prow) / d, an exact division,
        also one with f = 0 in the pivot column; then d = p.  Rows are
        replaced, never written into.
        """
        col, sign = self.column(j)
        tab, d = self.rows, self.d
        prow = tab[r]
        p = sign * prow[col]
        if p < 0:
            p = -p
            prow = tab[r] = [-v for v in prow]
        for i, row in enumerate(tab):
            if i != r:
                f = sign * row[col]
                if f:
                    tab[i] = [(p * v - f * u) // d for v, u in zip(row, prow)]
                elif p != d:
                    tab[i] = [p * v // d for v in row]
        self.d = p
        self.basis[r] = j

    def build_red(self, cost):
        """d times the reduced costs of the integer cost vector, stored columns."""
        n, d = self.n, self.d
        red = [d * cj for cj in cost[:n]] + [d * cj for cj in cost[2 * n:2 * n + self.m]] + [0]
        for cb_col, row in zip(self.basis, self.rows):
            cb = cost[cb_col]
            if cb:
                red = [u - cb * v for u, v in zip(red, row)]
        return red

    def run(self, cost):
        """Bland loop over real columns; returns (status, red_row, enter_col)."""
        n, m, tab = self.n, self.m, self.rows
        rhs = n + m
        tab.append(self.build_red(cost))
        red = tab[m]
        while True:
            enter = next((j for j in range(n) if red[j] < 0), None)
            if enter is None:
                enter = next((n + j for j in range(n) if red[j] > 0), None)
            if enter is None:
                enter = next((n + j for j in range(n, rhs) if red[j] < 0), None)
            if enter is None:
                return OPTIMAL, tab.pop(), None
            # min ratio tab[i][rhs] / a_i over a_i > 0, ties to the lower basis index
            col, sign = self.column(enter)
            basis = self.basis
            leave = None
            for i in range(m):
                a = sign * tab[i][col]
                if a > 0:
                    t = tab[i][rhs]
                    if leave is None:
                        leave, best_t, best_a = i, t, a
                    else:
                        here, best = t * best_a, best_t * a
                        if here < best or (here == best and basis[i] < basis[leave]):
                            leave, best_t, best_a = i, t, a
            if leave is None:
                return UNBOUNDED, tab.pop(), enter
            self.pivot(leave, enter)
            red = tab[m]

    def x_part(self, entries):
        """Rat(z+ - z-, d) from (column, d z_column) pairs."""
        n = self.n
        out = [0] * n
        for b, v in entries:
            if b < n:
                out[b] += v
            elif b < 2 * n:
                out[b - n] -= v
        return [Rat(v, self.d) for v in out]


def phase1(w_mat: Matrix, w_rhs: Vector, n: int) -> LpStart:
    """A feasible start for min c^T x s.t. W x <= w, x in R^n, any c.

    Rows of W must have length n; ``solve_lp`` and ``Polyhedron`` check that.
    """
    m = len(w_mat)
    if m == 0:
        return LpStart(n, 0, [], [])
    if n == 0:
        bad = next((i for i in range(m) if w_rhs[i] < 0), None)
        if bad is None:
            return LpStart(0, m, [], [])
        farkas = [ZERO] * m
        farkas[bad] = ONE
        return LpStart(0, m, [], [], farkas=farkas)

    # Standard form: z = (x+, x-, s) >= 0 with rows scaled so b >= 0, plus
    # artificial variables forming the phase-1 identity basis.  Row i is
    # also multiplied by s_i, the lcm of its denominators: the data turns
    # integer and artificial i becomes s_i a_i, so its column stays e_i.
    # The tableau is tab / d, with d = |det B| > 0 and integer tab
    # (Bareiss 1968).
    sigma = [(-1 if w_rhs[i] < 0 else 1) for i in range(m)]
    ncols = 2 * n + m
    rhs = n + m
    scale = []
    tab = []
    for i in range(m):
        ints, si = integer_row(w_mat[i] + [w_rhs[i]])
        row = [sigma[i] * v for v in ints]
        row[n:n] = [0] * m
        row[n + i] = sigma[i] * si
        tab.append(row)
        scale.append(si)
    t = _Tableau(n, tab, [ncols + i for i in range(m)], 1)

    # Minimize the artificial sum, times ell = lcm(s): artificial i costs
    # ell / s_i in the scaled variable s_i a_i.
    ell = lcm(*scale)
    status, red1, _ = t.run([0] * ncols + [ell // si for si in scale])
    if status != OPTIMAL:
        raise AssertionError("phase 1 is bounded below by 0 but ended " + status)
    if -red1[rhs] > 0:
        # mu = -sigma (1 - y), y the phase-1 duals, is a Farkas certificate;
        # it is the reduced cost of the slack columns
        return LpStart(n, m, [], [], farkas=[Rat(v, ell * t.d) for v in red1[n:rhs]])

    # Drive artificials out of the basis where possible; a row with no real
    # nonzero entry is redundant and stays inert (basic artificial at zero).
    for i in range(m):
        if t.basis[i] >= ncols:
            k = next((k for k in range(rhs) if t.rows[i][k] != 0), None)
            if k is not None:
                t.pivot(i, k if k < n else n + k)
    return LpStart(n, m, t.rows, t.basis, t.d)


def phase2(start: LpStart, c: Vector) -> LpResult:
    """min c^T x from a phase-1 start, which it leaves as it was.

    The result shares no mutable list with the start.
    """
    n, m = start.n, start.m
    if len(c) != n:
        raise DimensionError("phase2: objective length != n")
    if start.farkas is not None:
        return LpResult(INFEASIBLE, farkas=list(start.farkas))
    if m == 0:
        if all(cj == 0 for cj in c):
            return LpResult(OPTIMAL, [ZERO] * n, ZERO, dual=[])
        ray = [(-ONE if cj > 0 else (ONE if cj < 0 else ZERO)) for cj in c]
        return LpResult(UNBOUNDED, x=[ZERO] * n, ray=ray)
    if n == 0:
        return LpResult(OPTIMAL, [], ZERO, dual=[ZERO] * m)

    # the cost scaled to integers by lc = lcm(den c)
    t = _Tableau(n, list(start.rows), list(start.basis), start.d)
    cost_c, lc = integer_row(c)
    status, red2, enter = t.run(cost_c + [-v for v in cost_c] + [0] * (2 * m))
    rhs = n + m
    x = t.x_part(zip(t.basis, [row[rhs] for row in t.rows]))
    if status == UNBOUNDED:
        col, sign = t.column(enter)
        ray = t.x_part([(enter, t.d)] + [(b, -sign * row[col]) for b, row in zip(t.basis, t.rows)])
        return LpResult(UNBOUNDED, x=x, ray=ray)
    return LpResult(OPTIMAL, x, dot(c, x), dual=[Rat(v, lc * t.d) for v in red2[n:rhs]])


def solve_lp(w_mat: Matrix, w_rhs: Vector, c: Vector) -> LpResult:
    """min c^T x s.t. W x <= w, x free in R^n: phase 1, then phase 2."""
    n = len(c)
    if any(len(row) != n for row in w_mat) or len(w_rhs) != len(w_mat):
        raise DimensionError("solve_lp: inconsistent shapes")
    return phase2(phase1(w_mat, w_rhs, n), c)
