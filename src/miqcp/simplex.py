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
as ``Rat(int, int)``; both ``fractions.Fraction`` and gmpy2's ``mpq`` offer
that, though no test run covers the gmpy2 backend yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Optional

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


def solve_lp(w_mat: Matrix, w_rhs: Vector, c: Vector) -> LpResult:
    """min c^T x s.t. W x <= w, x free in R^n."""
    m = len(w_mat)
    n = len(c)
    if any(len(row) != n for row in w_mat) or len(w_rhs) != m:
        raise DimensionError("solve_lp: inconsistent shapes")

    if m == 0:
        if all(cj == 0 for cj in c):
            return LpResult(OPTIMAL, [ZERO] * n, ZERO, dual=[])
        ray = [(-ONE if cj > 0 else (ONE if cj < 0 else ZERO)) for cj in c]
        return LpResult(UNBOUNDED, x=[ZERO] * n, ray=ray)
    if n == 0:
        if all(wi >= 0 for wi in w_rhs):
            return LpResult(OPTIMAL, [], ZERO, dual=[ZERO] * m)
        bad = next(i for i in range(m) if w_rhs[i] < 0)
        farkas = [ZERO] * m
        farkas[bad] = ONE
        return LpResult(INFEASIBLE, farkas=farkas)

    # Standard form: z = (x+, x-, s) >= 0 with rows scaled so b >= 0, plus
    # artificial variables forming the phase-1 identity basis.  Columns are
    # numbered in that order (x+ 0..n-1, x- n..2n-1, s 2n..ncols-1, artificial
    # from ncols on); Bland's rule and the ties of the ratio test use these
    # numbers.  Row i is also multiplied by s_i, the lcm of its denominators:
    # the data turns integer and artificial i becomes s_i a_i, so its column
    # stays e_i.  The tableau is tab / d, with d = |det B| > 0 and integer
    # tab (Bareiss 1968).  Only the x+ and slack columns and the right-hand
    # side are stored: the x- column is minus the x+ column, and artificial
    # column i is slack column i over sigma_i s_i, so the slack reduced costs
    # carry the dual values.
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
    basis = [ncols + i for i in range(m)]
    d = 1

    def column(j):
        """Stored column and sign of column j."""
        if j < n:
            return j, 1
        if j < 2 * n:
            return j - n, -1
        return j - n, 1

    def pivot(r, j):
        """Bareiss pivot on (r, j); a reduced-cost row in tab[m] rides along.

        Every other row becomes (p row - f prow) / d, an exact division,
        also one with f = 0 in the pivot column; then d = p.
        """
        nonlocal d
        col, sign = column(j)
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
        d = p
        basis[r] = j

    def build_red(cost):
        """d times the reduced costs of the integer cost vector, stored columns."""
        red = [d * cj for cj in cost[:n]] + [d * cj for cj in cost[2 * n:ncols]] + [0]
        for i in range(m):
            cb = cost[basis[i]]
            if cb:
                red = [u - cb * v for u, v in zip(red, tab[i])]
        return red

    def run(cost):
        """Bland loop over real columns; returns (status, red_row, enter_col)."""
        tab.append(build_red(cost))
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
            col, sign = column(enter)
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
            pivot(leave, enter)
            red = tab[m]

    # Phase 1: minimize the artificial sum, times ell = lcm(s): artificial i
    # costs ell / s_i in the scaled variable s_i a_i.
    ell = lcm(*scale)
    cost1 = [0] * ncols + [ell // si for si in scale]
    status, red1, _ = run(cost1)
    assert status == OPTIMAL  # bounded below by 0
    if -red1[rhs] > 0:
        # mu = -sigma (1 - y), y the phase-1 duals, is a Farkas certificate;
        # it is the reduced cost of the slack columns
        return LpResult(INFEASIBLE, farkas=[Rat(v, ell * d) for v in red1[n:rhs]])

    # Drive artificials out of the basis where possible; a row with no real
    # nonzero entry is redundant and stays inert (basic artificial at zero).
    for i in range(m):
        if basis[i] >= ncols:
            k = next((k for k in range(rhs) if tab[i][k] != 0), None)
            if k is not None:
                pivot(i, k if k < n else n + k)

    # Phase 2, on the cost scaled to integers by lc = lcm(den c).
    cost_c, lc = integer_row(c)
    cost2 = cost_c + [-v for v in cost_c] + [0] * (2 * m)
    status, red2, enter = run(cost2)

    def x_part(entries):
        """Rat(z+ - z-, d) from (column, d z_column) pairs."""
        out = [0] * n
        for b, v in entries:
            if b < n:
                out[b] += v
            elif b < 2 * n:
                out[b - n] -= v
        return [Rat(v, d) for v in out]

    x = x_part(zip(basis, [row[rhs] for row in tab]))
    if status == UNBOUNDED:
        col, sign = column(enter)
        ray = x_part([(enter, d)] + [(b, -sign * row[col]) for b, row in zip(basis, tab)])
        return LpResult(UNBOUNDED, x=x, ray=ray)
    return LpResult(OPTIMAL, x, dot(c, x), dual=[Rat(v, lc * d) for v in red2[n:rhs]])

