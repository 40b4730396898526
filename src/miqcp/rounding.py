"""Sandwiching the projection of a convex quadratic set between two balls.

Seeds a simplex of affinely independent projected points inside the set,
grows it with the 3/2 expansion rule until no facet can be pushed further,
and normalizes by the simplex's edge matrix.  The resulting concentric
balls B(a, r) and B(a, R) satisfy R/r <= 4 ceil(sqrt(p))^3 and sandwich
the projection of the set onto the leading p coordinates.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import List, Optional, Tuple

from .cqs import ConvexQuadraticSet, inner_polytope, quadratic_feasible_point, slice_point
from .errors import PreconditionError
from .lattice import _gram
from .linalg import (
    Matrix,
    Vector,
    _idot,
    dot,
    integer_inverse,
    integer_row,
    lowest_terms,
    mat_vec,
    null_space,
    vec_add,
)
from .polyhedra import Polyhedron, _fulldim_probe, integer_system, lp_min
from .qp import _independent_active_rows, _kkt_multipliers, recession_cone
from .rational import Rat, ZERO, ONE, isqrt_ceil
from .simplex import OPTIMAL, LpResult

_MAX_SWEEPS = 100000


def ceil_sqrt(p: int) -> int:
    """Smallest k with k*k >= p, for p >= 1."""
    if p < 1:
        raise PreconditionError("ceil_sqrt needs p >= 1")
    return isqrt_ceil(p)


@dataclass
class Simplex:
    """Full-dimensional simplex in R^p on copies of its vertices
    v_0..v_p, which nothing writes to after construction.

    One integer inverse (`linalg.integer_inverse`) of D E gives the facts,
    with E the edge matrix (column j is v_{j+1} - v_0) and D the lcm of the
    vertex denominators.  It returns d (D E)^-1 and d = +-det(D E), the last
    Bareiss pivot, so volume = |det E| = |d| / D^p.  (D E)^-1 is reduced
    once to lowest terms K / k, k > 0, so E^-1 = D K / k, and the ints
    D v_j are kept with K, k and D.  Row b_i of E^-1 has
    b_i . (v_j - v_0) = [j = i + 1], so -b_i is normal to the facet
    opposite v_{i+1} and sum_i b_i to the one opposite v_0: each normal is
    -K's row i (or K's row sum) divided by its gcd.  So normals are
    primitive vectors of Python ints (small normals keep the probe
    subproblems small), and facets[i] = (normal, offset) has
    normal . v_j = offset for j != i and normal . v_i < offset.
    Affinely dependent vertices raise PreconditionError (E is singular).
    """

    vertices: List[Vector]
    volume: Rat = field(init=False, repr=False, compare=False)
    facets: List[Tuple[Vector, Rat]] = field(init=False, repr=False, compare=False)
    _ints: list = field(init=False, repr=False, compare=False)
    _inv: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = [list(v) for v in self.vertices]
        p = self.p
        den = lcm(*[x.denominator for v in self.vertices for x in v])
        ints = [[x.numerator * (den // x.denominator) for x in v] for v in self.vertices]
        v0 = ints[0]
        try:
            inv, d = integer_inverse([[ints[j + 1][i] - v0[i] for j in range(p)]
                                      for i in range(p)])
        except PreconditionError:
            raise PreconditionError("Simplex: the vertices are affinely dependent") from None
        flat, k = lowest_terms([v for row in inv for v in row], d)
        inv = [flat[i * p:(i + 1) * p] for i in range(p)]  # K, with E^-1 = D K / k
        self._ints, self._inv = ints, (inv, k, den)
        self.volume = Rat(abs(d), den ** p)
        normals = [[sum(col) for col in zip(*inv)]] + [[-v for v in row] for row in inv]
        self.facets = []
        for i, nrm in enumerate(normals):
            g = gcd(*nrm)
            nrm = [v // g for v in nrm]
            self.facets.append((nrm, Rat(_idot(nrm, ints[1] if i == 0 else v0), den)))

    @property
    def p(self) -> int:
        return len(self.vertices) - 1

    def check_facets(self) -> bool:
        for i, (normal, offset) in enumerate(self.facets):
            for j, v in enumerate(self.vertices):
                val = dot(normal, v)
                if j == i:
                    if not val < offset:
                        return False
                elif val != offset:
                    return False
        return True


def cqs_is_bounded(q: ConvexQuadraticSet) -> bool:
    """Q bounded iff its recession cone C = {Wr <= 0, Hr = 0, h.r <= 0} is {0}.

    The 2n coordinate LPs max +-r_i run over one polyhedron, C capped by
    the unit box [-1, 1]^n, so they share one simplex phase 1.  The verdict
    is C's: a nonzero r in C scales to r / max_i |r_i|, which lies in C and
    in the box and has a coordinate +-1, so some LP has a positive maximum.
    """
    n = q.n
    rows, rhs = recession_cone(q.obj, q.poly)
    capped = Polyhedron(rows, rhs, n=n).with_box([-ONE] * n, [ONE] * n)
    for i in range(n):
        for sign in (ONE, -ONE):
            c = [ZERO] * n
            c[i] = -sign
            res = lp_min(c, capped)
            if res.status != OPTIMAL:  # capped, feasible at r = 0
                raise AssertionError("capped recession-cone LP ended " + res.status)
            if res.value < 0:
                return False
    return True


def _project(x: Vector, p: int) -> Vector:
    return list(x[:p])


def _lift_direction(c_proj: Vector, n: int) -> Vector:
    return list(c_proj) + [ZERO] * (n - len(c_proj))


def seed_simplex(inner: Polyhedron) -> List[Vector]:
    """p+1 affinely independent points of the projection of inner onto its
    leading p = inner.p coordinates.

    inner is a full-dimensional polytope, such as the `inner_polytope` of a
    set Q, so the points lie in proj_p(Q).  The projected set grows one
    direction at a time: minimize and maximize a lifted normal direction
    over inner; at least one of the two optima leaves the current affine
    hull.  The maximum is run only when the minimum stays in the hull, and
    the first minimum, over e_1, is points[0] itself.  An inner that is
    empty, unbounded or flat raises PreconditionError.
    """
    n, p = inner.n, inner.p
    if not 1 <= p <= n:
        raise PreconditionError("seed_simplex needs 1 <= p <= n")
    points = [_project(_inner_argmin(_lift_direction([ONE], n), inner), p)]
    while len(points) < p + 1:
        t = len(points) - 1
        if t == 0:
            c_proj = [ONE] + [ZERO] * (p - 1)
        else:
            rows = [[points[j][i] - points[0][i] for i in range(p)]
                    for j in range(1, t + 1)]
            ns = null_space(rows)
            c_proj = [ns[i][0] for i in range(p)]
        c_full = _lift_direction(c_proj, n)
        lo = points[0] if t == 0 else _project(_inner_argmin(c_full, inner), p)
        base = dot(c_proj, points[0])
        if dot(c_proj, lo) != base:
            points.append(lo)
            continue
        hi = _project(_inner_argmin([-v for v in c_full], inner), p)
        if dot(c_proj, hi) != base:
            points.append(hi)
        else:
            raise PreconditionError(
                "seed_simplex: both extreme points lie in the current hull; "
                "inner is not full-dimensional")
    return points


def _inner_argmin(c: Vector, inner: Polyhedron) -> Vector:
    res = lp_min(c, inner)
    if res.status != OPTIMAL:
        raise PreconditionError(
            "seed_simplex: an LP over inner ended " + res.status
            + "; inner must be a nonempty polytope")
    return res.x


def _simplify_accepted_point(
    q: ConvexQuadraticSet,
    pn: List[int],
    pd: int,
    anchor: Vector,
    cut_row: Vector,
    cut_rhs0,
) -> Vector:
    """A small-bit-size substitute for the point pt = pn / pd (pd > 0),
    still in Q and beyond the base cut, as a Rat vector.

    Probe points are KKT solutions whose denominators compound across grow
    iterations; any point of Q with cut_row . x <= cut_rhs0 expands the
    simplex just as validly, so mix slightly toward an interior anchor and
    round to a coarse grid, verifying everything exactly.

    Every candidate is an int vector over a positive denominator: with
    pt = P / a and anchor = A / b, the mix a fraction 1/k of the way to
    the anchor is ((k - 1) b P + a A) / (k a b), and the grid point of
    2^bits nearest num / den, ties toward +infinity as `rround`, has
    numerators (2^(bits+1) num + den) // (2 den).  Only the point returned
    is built as Rat.
    """
    an, ad = integer_row(anchor)
    r, ell = integer_row(cut_row)
    cn, cd = ell * cut_rhs0.numerator, cut_rhs0.denominator  # the cut is r . x <= cn / cd

    def keeps(num, den):
        return _idot(r, num) * cd <= cn * den and q._contains_ints(num, den)

    base, base_den = pn, pd
    for k in (8, 64):
        mix = [(k - 1) * ad * u + pd * v for u, v in zip(pn, an)]
        if keeps(mix, k * pd * ad):
            base, base_den = mix, k * pd * ad
            break
    for bits in (4, 8, 16, 32, 64):
        twice = 2 * base_den
        rounded = [((v << (bits + 1)) + base_den) // twice for v in base]
        if keeps(rounded, 1 << bits):
            return [Rat(v, 1 << bits) for v in rounded]
    return [Rat(v, pd) for v in pn]


def _half_space_run(q: ConvexQuadraticSet, row: Vector):
    """(below, above): the probes of the cuts row . x <= t and
    -row . x <= t.  Each is probe(t_num, t_den) -> (fits, x_num, x_den):
    the minimizer x = x_num / x_den (x_den > 0) of q over the half-space
    of the cut with t = t_num / t_den (t_den > 0), and whether its value v
    is at most eta.  q's objective must be definite.

    With xbar the free minimizer, q(x) = q(xbar) + (x - xbar)^T H (x - xbar).
    u = H^-1 row, g = row . u > 0, s = row . xbar and the slack
    eta - q(xbar) are computed once for both senses, on ints; the sense
    -row negates u and s and keeps g.  If s <= t the minimizer is xbar;
    otherwise the one active row gives x = xbar - lam u with
    lam = (s - t) / g and v = q(xbar) + (s - t) lam, and v <= eta is
    decided by cross-multiplying (s - t)^2 / g against the slack.
    """
    (xb_num, xb_den), (hi_num, hi_den), q_bar = q.obj.free_minimum()
    r, ell = integer_row(row)  # the cut is r . x <= ell t
    u_num = [_idot(h, r) for h in hi_num]  # u = u_num / hi_den
    g_num = _idot(r, u_num)  # g = g_num / hi_den
    slack = q.eta - q_bar
    e_num, e_den = slack.numerator, slack.denominator

    def run(u_num, s_num):  # s = s_num / xb_den
        def probe(t_num, t_den):
            tn, td = ell * t_num, t_den
            dn = s_num * td - tn * xb_den  # s - t = dn / (xb_den td)
            if dn <= 0:
                return e_num >= 0, xb_num, xb_den
            den = xb_den * td
            # v - q(xbar) = dn^2 hi_den / (den^2 g_num)
            fits = dn * dn * hi_den * e_den <= e_num * den * den * g_num
            return fits, [a * td * g_num - dn * c for a, c in zip(xb_num, u_num)], den * g_num

        return probe

    s_num = _idot(r, xb_num)
    return run(u_num, s_num), run([-v for v in u_num], -s_num)


def _decide_in_closed_form(q: ConvexQuadraticSet, probe, t_num: int,
                           t_den: int) -> Tuple[bool, Optional[tuple]]:
    """(True, answer) when the half-space minimizer decides the probe at the
    right-hand side t_num / t_den, with answer (x_num, x_den), the point
    x_num / x_den (x_den > 0) that `quadratic_feasible_point` returns on the
    cut polyhedron, or None; (False, None) when P binds.

    The half-space contains P and the cut, so v > eta means no point of the
    cut has q <= eta.  A minimizer x in P minimizes q over the cut too, and
    a definite q has one minimizer there, so x is the QP's point.
    """
    fits, x_num, x_den = probe(t_num, t_den)
    if not fits:
        return True, None
    if q.poly.contains_ints(x_num, x_den):
        return True, (x_num, x_den)
    return False, None


@dataclass
class _RowRuns:
    """One row's run LP and the cuts row . x <= t proven to hold no point
    of Q, kept for one grow: t < bound, or t <= bound when closed.

    phi(t) = min {q(x) : x in P, row . x <= t} is convex and nonincreasing
    in t (Ritter 1962; Best 1996), +infinity where the cut misses P, so
    every fact about the row's cuts is one such half-line.  The run LP's
    minimum starts it (open, `_run_lp`); a cut QP that fails at t, and a
    supporting line of phi that crosses eta at t', raise it to (t, closed)
    and (t', open) (`_keep_cut_bound`).  `_push` reads the LP's vertex.
    """

    lp: Optional[LpResult] = None
    bound: Optional[Rat] = None
    closed: bool = False


def _run_lp(q: ConvexQuadraticSet, row: Vector, run: _RowRuns) -> LpResult:
    """min row . x over P (phase 2 on P's kept start), kept on run with its
    minimum as the bound, so a facet normal that survives an accepted push
    runs no LP again."""
    if run.lp is None:
        run.lp = lp_min(row, q.poly)
        if run.lp.is_optimal:
            run.bound = run.lp.value
    return run.lp


def _cut_misses(q: ConvexQuadraticSet, row: Vector, run: _RowRuns, t_num: int, den: int) -> bool:
    """Whether run proves that the cut row . x <= t_num / den (den > 0)
    holds no point of Q, decided on ints; the run LP runs first, and a cut
    left open holds its vertex, as the bound is at least its minimum."""
    _run_lp(q, row, run)
    bound = run.bound
    if bound is None:
        return False
    lhs, rhs = t_num * bound.denominator, bound.numerator * den
    return lhs <= rhs if run.closed else lhs < rhs


def _keep_cut_bound(q: ConvexQuadraticSet, run: _RowRuns, t: Rat, cut: Polyhedron,
                    pt: Optional[tuple]) -> None:
    """Raise run's bound by what the QP on cut (P and row . x <= t) proved:
    (t, closed) when it found no point, pt = None; otherwise, with
    pt = (x_num, x_den), when the cut is tight at x and exact multipliers
    of x's tight rows (`_kkt_multipliers`) are all >= 0, the line
    phi(s) >= q(x) + mu (t - s), mu > 0 being the cut's, gives
    (t + (q(x) - eta) / mu, open), where it crosses eta.  Those
    multipliers certify that x minimizes q + mu row . x over P, so every y
    in P with row . y <= s has q(y) >= q(x) + mu (t - s), whichever tight
    rows the solve picks.
    """
    if pt is None:
        run.bound, run.closed = t, True  # t is not proven empty, so not below the bound
        return
    x_num, x_den = pt
    rows, ells = integer_system(cut)
    active = _independent_active_rows(rows, x_num, x_den)
    if not active or active[-1] != len(rows) - 1:  # the cut is slack or not chosen
        return
    h_int, lin, scale = q.obj.integer_form()
    h_x = [_idot(r, x_num) for r in h_int]
    solved = _kkt_multipliers([rows[i][:-1] for i in active],
                              [2 * u + x_den * c for u, c in zip(h_x, lin)])
    if solved is None or min(solved[0]) < 0 or not solved[0][-1]:
        return
    mult, d = solved
    mu = Rat(ells[-1] * mult[-1], d * scale * x_den)
    value = Rat(_idot(x_num, h_x) + x_den * _idot(lin, x_num), scale * x_den * x_den)
    crossing = t + (value - q.eta) / mu
    if run.bound is None or crossing > run.bound:
        run.bound, run.closed = crossing, False


def _slide(q: ConvexQuadraticSet, a: tuple, v: tuple) -> tuple:
    """a + (v - a) / 2^j in Q for the least j <= 64, else a; (x_num, x_den) ints."""
    (an, ad), (vn, vd) = a, v
    for j in range(1, 65):
        num = [((1 << j) - 1) * vd * x + ad * y for x, y in zip(an, vn)]
        if q._contains_ints(num, (ad * vd) << j):
            return num, (ad * vd) << j
    return a


def _push(q: ConvexQuadraticSet, sim: Simplex, i: int, anchor: Vector,
          runs: defaultdict[tuple, _RowRuns]) -> Optional[Vector]:
    """A point of Q whose projection may replace vertex i of sim at a 3/2
    push, or None when facet i admits none.

    Both expansion sets are one cut row . x <= t on Q, with step 3/2 of the
    gap between vertex i and its facet: sense +1 asks for
    normal . y >= offset + step (beyond the facet), sense -1 for
    normal . y <= offset - step (behind vertex i), so row = -sense normal
    and t = -sense offset - step.  Each sense asks this one question, and
    the first answer stands: a definite q's minimizer over the half-space
    (`_decide_in_closed_form`, both senses from one `_half_space_run`);
    the row's bound (`_cut_misses`, which runs the run LP); the LP's
    vertex v, which lies in P and the cut, when it lies in Q (always, for
    q = 0 and eta >= 0); else one QP on the cut, which raises the bound
    (`_keep_cut_bound`) and whose point a slides toward v (`_slide`), as
    the segment from a to v lies in P and the cut.  runs holds the grow's
    `_RowRuns` by tuple(row).  None comes only from cuts proven to hold no
    point of Q, so the grow ends at the fixed point the sandwich needs.
    Points stay ints until `_simplify_accepted_point` builds the vertex.
    """
    normal, offset = sim.facets[i]
    step = Rat(3, 2) * (offset - dot(normal, sim.vertices[i]))
    (off, stp), den = integer_row([offset, step])
    up = _lift_direction([-v for v in normal], q.n)  # the row of sense +1
    probes = _half_space_run(q, up) if q.obj.definite else (None, None)
    for sense, probe in zip((1, -1), probes):
        row = up if sense == 1 else [-v for v in up]
        t_num = -sense * off - stp  # the cut is row . x <= t_num / den
        decided, pt = ((False, None) if probe is None
                       else _decide_in_closed_form(q, probe, t_num, den))
        if not decided:
            run = runs[tuple(row)]
            if _cut_misses(q, row, run, t_num, den):
                continue
            v = integer_row(run.lp.x) if run.lp.is_optimal else None
            if v is not None and q._contains_ints(*v):
                pt = v
            else:
                t = Rat(t_num, den)
                cut = q.poly.with_rows([row], [t])
                pt = quadratic_feasible_point(q.obj, cut, q.eta)
                pt = None if pt is None else integer_row(pt)
                _keep_cut_bound(q, run, t, cut, pt)
                if pt is not None and v is not None:
                    pt = _slide(q, pt, v)
        if pt is not None:
            return _simplify_accepted_point(q, *pt, anchor, row, Rat(t_num, den))
    return None


def grow_simplex(
    q: ConvexQuadraticSet,
    s0: Simplex,
    anchor: Vector,
    check: bool = True,
) -> Tuple[Simplex, List]:
    """Expand s0 inside proj_p(Q), p = q.p, until no facet admits a 3/2 push.

    Each accepted point is mixed toward anchor, a point of Q that is best
    interior (`sandwich` passes its inner polytope's probe point), and
    rounded, when that keeps it in Q and beyond the push (see `_push`).
    check verifies that every vertex of s0 lies in proj_p(Q).  Returns the
    final simplex and the exact trace of edge-matrix determinants (each
    accepted push multiplies the volume by >= 3/2).
    """
    p = q.p
    if s0.p != p:
        raise PreconditionError("grow_simplex: simplex has wrong vertex count")
    if check and any(slice_point(q, v) is None for v in s0.vertices):
        raise PreconditionError("grow_simplex: seed vertex outside proj(Q)")
    sim = s0
    vol_trace = [sim.volume]
    runs = defaultdict(_RowRuns)  # by tuple(row), for this grow only
    for _ in range(_MAX_SWEEPS):
        for i in range(p + 1):
            found = _push(q, sim, i, anchor, runs)
            if found is not None:
                break
        else:
            return sim, vol_trace
        cand = list(sim.vertices)
        cand[i] = _project(found, p)
        sim = Simplex(cand)
        assert sim.volume * 2 >= vol_trace[-1] * 3, "3/2 volume law violated"
        vol_trace.append(sim.volume)
    raise AssertionError("grow_simplex failed to terminate; is Q bounded?")


@dataclass(frozen=True)
class SandwichResult:
    """B(a, r) <= B (proj_p Q) <= B(a, R) with B = E^-1, E the grown
    simplex's edge matrix, and a = (r, ..., r) + B v_0, both built on read.

    r = 1/(p + ceil_sqrt(p)) and R = 2 ceil_sqrt(p), so R/r <= 4 ceil_sqrt(p)^3.
    """

    r: Rat
    big_r: Rat
    simplex: Simplex

    @cached_property
    def b_mat(self) -> Matrix:
        inv, k, den = self.simplex._inv
        return [[Rat(den * v, k) for v in row] for row in inv]

    @property
    def a(self) -> Vector:
        return vec_add([self.r] * self.simplex.p, mat_vec(self.b_mat, self.simplex.vertices[0]))

    def ellipsoids(self) -> tuple:
        """(metric, shape, center, r^2, R^2): the sandwich in y = E z.  With
        (D E)^-1 = K / k in lowest terms, S = B^T B is the Gram matrix of K's
        columns over k^2 / D^2, S^-1 = E E^T that of D E's rows over D^2."""
        ints, (inv, k, den) = self.simplex._ints, self.simplex._inv  # (K, k, D)
        v0, m = ints[0], self.r.denominator  # m = 1 / r
        edges = [[a - b for a, b in zip(v, v0)] for v in ints[1:]]  # columns of D E
        # c = E a = v_0 + r sum_j (v_j - v_0)
        center = [Rat(m * x + sum(e), m * den) for x, e in zip(v0, zip(*edges))]
        return ((_gram(list(zip(*inv))), Rat(k * k, den * den)),
                (_gram(list(zip(*edges))), den * den), center, self.r ** 2, self.big_r ** 2)


def sandwich(q: ConvexQuadraticSet, check: bool = True) -> SandwichResult:
    """Two concentric balls sandwiching the normalized projection of Q onto
    its leading p = q.p coordinates.

    Seeds and grows a simplex inside Q's `inner_polytope`, which raises
    PreconditionError when Q is not full-dimensional, and normalizes by the
    grown simplex's b_mat.  Growing needs Q bounded; check verifies that
    (2n LPs), for callers that have not shown it.

    The grow loop starts from the seed simplex and the anchor, the inner
    polytope's probe point.  When q is identically zero, the inner polytope
    is P itself, so the seed LPs run on P's phase 1 and the anchor is the
    probe point P keeps, read back rather than solved again.
    """
    inner = inner_polytope(q)
    if check and not cqs_is_bounded(q):
        raise PreconditionError("sandwich: Q is unbounded")
    s0, anchor = Simplex(seed_simplex(inner)), _fulldim_probe(inner).point
    grown, _trace = grow_simplex(q, s0, anchor, check=False)
    k = ceil_sqrt(q.p)
    return SandwichResult(Rat(1, q.p + k), Rat(2 * k), grown)
