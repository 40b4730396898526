"""Exact two-phase primal simplex with Bland's rule.

Solves min c^T x over {x : W x <= w} with x free, exactly.  Returns exact
optima with dual certificates, exact unboundedness rays, and Farkas
certificates on infeasibility.

The tableau is an integer dictionary over one common denominator, the
integer-pivoting dictionary of lrs (Avis 2000): rows hold Python ints N and
the tableau is N / d, d > 0.  A row stores only the nonbasic columns and the
right-hand side, n + 1 ints after phase 1 where a full tableau has
n + m + 1, because a basic column is d e_r; the list ``keys`` names the
column at each position.  Pivots are fraction-free (Edmonds 1967, Bareiss
1968; in a simplex, Azulay & Pique 2001).  When variable j enters in row r,
with pivot p and column entries f, every entry outside j's column becomes
(p v - f u) / d, an exact division; j's column becomes the leaving
variable's, +-d in row r and -+f in every other row, the sign that of the
row's negation times the leaving column's stored sign; and d becomes p.
The pivots are those of the same method on a rational tableau: integer
scaling of the rows and of the phase-1 cost is by positive constants, which
leave Bland's choice, the ratio test and its ties unchanged.  Rationals are
read from the inputs through ``numerator``/``denominator`` and built only
for the outputs, as ``Rat(int, int)``.

Phase 1 starts n + 1 wide too.  While artificial i is basic, slack i's
column is a multiple of the artificial's, so it is not stored: Bland's scan
computes its reduced cost, a slack that enters is pivoted on as that
column, and when the artificial leaves for another variable, the slack's
column takes the entering column's place.  Duals and Farkas vectors are
read from the slacks' reduced costs: stored, implicit, or 0 when basic.

Phase 1 depends only on (W, w), not on c, and any feasible basis is a valid
start for phase 2 (Dantzig's two-phase method; Chvatal 1983, ch. 8).  So
``phase1`` turns the integer rows of (W, w) into an ``LpStart`` (the rows,
keys, basis and d after the artificials are driven out, or the Farkas
vector), and ``phase2`` restarts from a copy of it for each cost.
``solve_lp`` scales the rows and runs the one after the other; a
``Polyhedron`` keeps its start, so many objectives over one polyhedron pay
for phase 1 once, and hands phase 1 the integer rows it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import List, Optional

from .errors import DimensionError
from .linalg import Matrix, Vector, dot, integer_row, integer_rows
from .rational import Rat, ZERO, ONE

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpResult:
    """An LP's status and certificates.

    x and value at an optimum, where dual is mu >= 0 with c + W^T mu = 0;
    x and ray with W ray <= 0, c^T ray < 0 when unbounded; farkas is
    mu >= 0 with mu^T W = 0, mu^T w < 0 when infeasible.  `phase2` hands
    over the duals as ints over one denominator (``dual_ints``), and the
    list of Rats is built on first read.
    """

    __slots__ = ("status", "x", "value", "_dual", "_dual_ints", "ray", "farkas")
    _FIELDS = ("status", "x", "value", "dual", "ray", "farkas")

    def __init__(self, status: str, x: Optional[Vector] = None, value: Optional[Rat] = None,
                 dual: Optional[Vector] = None, ray: Optional[Vector] = None,
                 farkas: Optional[Vector] = None, dual_ints: Optional[tuple] = None):
        self.status, self.x, self.value, self.ray, self.farkas = status, x, value, ray, farkas
        self._dual, self._dual_ints = dual, dual_ints

    @property
    def dual(self) -> Optional[Vector]:
        if self._dual_ints is not None:
            nums, den = self._dual_ints
            self._dual, self._dual_ints = [Rat(v, den) for v in nums], None
        return self._dual

    @property
    def is_optimal(self):
        return self.status == OPTIMAL

    def __eq__(self, other):
        if not isinstance(other, LpResult):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self):
        return "LpResult(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS) + ")"


@dataclass(frozen=True, slots=True)
class LpStart:
    """Phase 1's outcome on W x <= w with n variables and m rows.

    A feasible system keeps the dictionary after the artificials are driven
    out: the integer rows, n + 1 ints each (the n nonbasic stored columns in
    the order of ``keys``, then the right-hand side), the basis and d; an
    infeasible one keeps only its Farkas vector.  Nothing writes to the
    rows, the basis or the keys: ``phase2`` works on a shallow copy of the
    row list and copies of the basis and the keys, which is enough because
    a pivot replaces rows and never writes into one.
    """

    n: int
    m: int
    rows: List[List[int]]
    basis: List[int]
    keys: List[int]
    d: int = 1
    farkas: Optional[Vector] = None


class _Tableau:
    """The working dictionary rows / d over the nonbasic stored columns.

    Variables are numbered x+ 0..n-1, x- n..2n-1, s 2n..ncols-1, artificial
    from ncols = 2n + m on; Bland's rule and the ties of the ratio test use
    these numbers.  A stored column is the x+ column of pair j (key j; the
    x- column is its negative) or the column of slack i (key n + i).  A row
    holds the stored columns that ``keys`` lists, in its order, then the
    right-hand side; the column of a basic variable is d e_r and is not
    stored.

    In phase 1, ``art[i]`` = sigma_i s_i and artificial i, while basic,
    sits in row i (it starts there and never re-enters); slack i's column
    is then art[i] d e_i, so the slack is implicit: not stored, with
    reduced cost d rho(i).  When artificial i leaves, slack i's column
    takes the entering column's place; when slack i itself enters, it is
    pivoted on as that implicit column and the artificial's is dropped.
    """

    __slots__ = ("n", "m", "rows", "basis", "keys", "d", "art", "cost")

    def __init__(self, n: int, rows: List[List[int]], basis: List[int], keys: List[int], d: int,
                 art: Optional[List[int]] = None):
        self.n, self.m, self.rows, self.basis, self.d = n, len(rows), rows, basis, d
        self.keys, self.art, self.cost = keys, art, None

    def stored(self, b):
        """(key, sigma_b): variable b's column is sigma_b times stored column key;
        for artificial i, slack i's column is art[i] times its column."""
        n = self.n
        if b < n:
            return b, 1
        if b < 2 * n:
            return b - n, -1
        if b < 2 * n + self.m:
            return b - n, 1
        i = b - 2 * n - self.m
        return n + i, self.art[i]

    def rho(self, i):
        """Slack i's reduced cost over d while artificial i is basic."""
        k = 2 * self.n + i
        return self.cost[k] - self.cost[k + self.m] * self.art[i]

    def implicit_column(self, i):
        """Slack i's entries while artificial i is basic: art[i] d in row
        i, and d rho(i) in the reduced-cost row when it rides along."""
        col = [0] * len(self.rows)
        col[i] = self.art[i] * self.d
        if len(col) > self.m:
            col[self.m] = self.d * self.rho(i)
        return col

    def pivot(self, r, col, j, k):
        """Exchange pivot: variable j, with entries col, enters in row r.

        col lists j's entries in every row, the reduced-cost row rows[m]
        too when it rides along; k is j's stored position, or None for an
        implicit slack.  With p = |col[r]| and eps = -1 when the pivot row
        is negated, every entry outside column k becomes (p v - f u) / d,
        an exact division, also one with f = 0; column k becomes the
        leaving variable's stored column, eps sigma_b d in row r and
        -eps sigma_b f in every other row (sigma_b = -1 for x-), or slack
        i's (sigma_b = art[i], plus p rho(i) in the reduced-cost row) when
        artificial i leaves; then d = p.  The same update gives column k
        when u there is the pivot row's entry plus eps sigma_b d.  Rows are
        replaced, never written into.
        """
        n, m, tab, d = self.n, self.m, self.rows, self.d
        prow, p, out = tab[r], col[r], self.basis[r]
        eps = 1
        if p < 0:
            p, eps = -p, -1
            prow = [-v for v in prow]
        upd = prow
        if k is not None:
            key, sigma_b = self.stored(out)
            lead = eps * sigma_b * d
            upd = prow[:]
            upd[k] += lead
            prow = prow[:]
            prow[k] = lead
            self.keys[k] = key
        tab[:] = [[(p * v - f * u) // d for v, u in zip(row, upd)] if f
                  else ([p * v // d for v in row] if p != d else row)
                  for row, f in zip(tab, col)]
        tab[r] = prow
        if k is not None and out >= 2 * n + m and len(tab) > m:
            red = tab[m][:]
            red[k] += p * self.rho(out - 2 * n - m)
            tab[m] = red
        self.d = p
        self.basis[r] = j

    def build_red(self, cost):
        """d times the reduced costs of the integer cost vector, stored columns."""
        n, d = self.n, self.d
        by_key = cost[:n] + cost[2 * n:2 * n + self.m]
        red = [d * by_key[key] for key in self.keys] + [0]
        for b, row in zip(self.basis, self.rows):
            cb = cost[b]
            if cb:
                red = [u - cb * v for u, v in zip(red, row)]
        return red

    def entering(self, red):
        """Bland's choice, (variable, column entries, position), or None.

        The smallest variable number with a negative reduced cost: x+ j
        where red < 0, x- j where red > 0, then a stored or implicit slack
        where red < 0.
        """
        n, m, keys = self.n, self.m, self.keys
        best = at = None
        for k, (key, v) in enumerate(zip(keys, red)):
            if v < 0:
                j = key if key < n else n + key
            elif v > 0 and key < n:
                j = n + key
            else:
                continue
            if best is None or j < best:
                best, at = j, k
        if self.art and (best is None or best >= 2 * n):
            ncols = 2 * n + m
            limit = ncols if best is None else best
            i = next((i for i, b in enumerate(self.basis)
                      if b >= ncols and 2 * n + i < limit and self.rho(i) < 0), None)
            if i is not None:
                return 2 * n + i, self.implicit_column(i), None
        if best is None:
            return None
        if n <= best < 2 * n:
            return best, [-row[at] for row in self.rows], at
        return best, [row[at] for row in self.rows], at

    def run(self, cost):
        """Bland loop over real columns; returns (status, red_row, entering).

        entering is (variable, column entries, position) when unbounded.
        """
        m, tab = self.m, self.rows
        self.cost = cost
        tab.append(self.build_red(cost))
        while True:
            enter = self.entering(tab[m])
            if enter is None:
                return OPTIMAL, tab.pop(), None
            # min ratio tab[i][-1] / a_i over a_i > 0, ties to the lower basis index
            j, col, k = enter
            basis = self.basis
            leave = None
            for i in range(m):
                a = col[i]
                if a > 0:
                    t = tab[i][-1]
                    if leave is None:
                        leave, best_t, best_a = i, t, a
                    else:
                        here, best = t * best_a, best_t * a
                        if here < best or (here == best and basis[i] < basis[leave]):
                            leave, best_t, best_a = i, t, a
            if leave is None:
                return UNBOUNDED, tab.pop(), enter
            self.pivot(leave, col, j, k)

    def slack_reds(self, red):
        """d times the reduced costs of the m slacks: stored, implicit, or 0
        when basic; over the cost scale, the duals or the Farkas vector."""
        n, m = self.n, self.m
        out = [0] * m
        for key, v in zip(self.keys, red):
            if key >= n:
                out[key - n] = v
        if self.art:
            for i, b in enumerate(self.basis):
                if b >= 2 * n + m:
                    out[i] = self.d * self.rho(i)
        return out

    def x_part(self, entries):
        """Rat(z+ - z-, d) from (variable, d z_variable) pairs."""
        n = self.n
        out = [0] * n
        for b, v in entries:
            if b < n:
                out[b] += v
            elif b < 2 * n:
                out[b - n] -= v
        return [Rat(v, self.d) for v in out]


def phase1(ints: tuple, n: int) -> LpStart:
    """A feasible start for min c^T x s.t. W x <= w, x in R^n, any c.

    ints is (rows, scales) with rows[i] = scales[i] [W_i | w_i] as ints and
    scales[i] > 0 the lcm of row i's denominators, as ``integer_rows``
    builds it and ``polyhedra.integer_system`` keeps it.  Rows must have
    length n + 1; ``solve_lp`` and ``Polyhedron`` check that.
    """
    rows, scale = ints
    m = len(rows)
    if m == 0:
        return LpStart(n, 0, [], [], [])
    if n == 0:
        bad = next((i for i in range(m) if rows[i][-1] < 0), None)
        if bad is None:
            return LpStart(0, m, [], [], [])
        farkas = [ZERO] * m
        farkas[bad] = ONE
        return LpStart(0, m, [], [], [], farkas=farkas)

    # Standard form: z = (x+, x-, s) >= 0 with rows scaled so b >= 0, plus
    # artificial variables forming the phase-1 identity basis.  Row i is
    # also multiplied by s_i, the lcm of its denominators: the data turns
    # integer and artificial i becomes s_i a_i, so its column stays e_i and
    # slack i's is sigma_i s_i e_i, implicit.  The dictionary starts with
    # the x+ columns and the right-hand side, d = 1 (Bareiss 1968).
    sigma = [(-1 if row[-1] < 0 else 1) for row in rows]
    ncols = 2 * n + m
    tab = [row if sg == 1 else [-v for v in row] for row, sg in zip(rows, sigma)]
    t = _Tableau(n, tab, [ncols + i for i in range(m)], list(range(n)), 1,
                 [sg * si for sg, si in zip(sigma, scale)])

    # Minimize the artificial sum, times ell = lcm(s): artificial i costs
    # ell / s_i in the scaled variable s_i a_i.
    ell = lcm(*scale)
    status, red1, _ = t.run([0] * ncols + [ell // si for si in scale])
    if status != OPTIMAL:
        raise AssertionError("phase 1 is bounded below by 0 but ended " + status)
    if -red1[-1] > 0:
        # mu = -sigma (1 - y), y the phase-1 duals, is a Farkas certificate;
        # it is the reduced cost of the slack columns
        return LpStart(n, m, [], [], [], farkas=[Rat(v, ell * t.d) for v in t.slack_reds(red1)])

    # Drive the artificials out of the basis, each on the smallest key with
    # a nonzero entry in its row.  There always is one: artificial i is
    # basic only in row i, where its implicit slack's entry art[i] d is
    # nonzero, so no row is left with an artificial.
    for i in range(m):
        if t.basis[i] >= ncols:
            key = min([key for key, v in zip(t.keys, t.rows[i]) if v] + [n + i])
            if key < n + i:
                k = t.keys.index(key)
                t.pivot(i, [row[k] for row in t.rows], key if key < n else n + key, k)
            else:
                t.pivot(i, t.implicit_column(i), 2 * n + i, None)
    if any(b >= ncols for b in t.basis):
        raise AssertionError("phase 1 left an artificial variable basic")
    return LpStart(n, m, t.rows, t.basis, t.keys, t.d)


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
    t = _Tableau(n, list(start.rows), list(start.basis), list(start.keys), start.d)
    cost_c, lc = integer_row(c)
    status, red2, enter = t.run(cost_c + [-v for v in cost_c] + [0] * m)
    x = t.x_part(zip(t.basis, [row[-1] for row in t.rows]))
    if status == UNBOUNDED:
        j, col, _ = enter
        ray = t.x_part([(j, t.d)] + [(b, -a) for b, a in zip(t.basis, col)])
        return LpResult(UNBOUNDED, x=x, ray=ray)
    return LpResult(OPTIMAL, x, dot(c, x), dual_ints=(t.slack_reds(red2), lc * t.d))


def solve_lp(w_mat: Matrix, w_rhs: Vector, c: Vector) -> LpResult:
    """min c^T x s.t. W x <= w, x free in R^n: phase 1, then phase 2."""
    n = len(c)
    if any(len(row) != n for row in w_mat) or len(w_rhs) != len(w_mat):
        raise DimensionError("solve_lp: inconsistent shapes")
    return phase2(phase1(integer_rows(w_mat, w_rhs), n), c)
