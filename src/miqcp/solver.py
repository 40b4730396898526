"""Mixed integer convex quadratic programming: feasibility, boundedness,
exact optimization, and the enumeration oracle.

The feasibility recursion: box the set, reduce it to a full-dimensional
convex quadratic set, sandwich the projection onto the integer variables
between two concentric ellipsoids of shape E E^T, E the grown simplex's
edge matrix, and ask the lattice in their metric (`_lattice_question`)
for either an integer point in the inner ellipsoid (lift it by a slice QP)
or a thin integer direction (enumerate the few hyperplane slices that
meet the outer one, each with at least one fewer integer variable).  Work
grows with the number of integer variables, not with the count of
continuous ones.  When the objective is definite, the slices that meet
the level ellipsoid {q <= eta} form one interval of integers, computed on
ints as the outer ellipsoid's are (`_band_range` of `_level_projection`),
and only the slices in both intervals are opened.

A polyhedral node, one whose objective is identically zero so that Q = P
(the MILP check, and every node below it), rounds P's probe point before it
sandwiches, seeds the sandwich in P itself, and opens only the bands whose
hyperplane meets P (`_feas_rec`).

An ellipsoidal node needs no sandwich.  When the objective is definite and
its level ellipsoid E = {q <= eta} lies inside P (`_ellipsoid_inside`,
decided on ints row by row), the set is E, and its projection onto the
integer variables is the ellipsoid (y - c_I)^T S (y - c_I) <= eta - q(c),
c q's free minimizer and S^-1 = (H^-1)_II.  The same lattice question is
asked of it exactly, in S's metric (`lattice.ellipsoid_flatness`): an
integer point of it is lifted by the slice QP, or a thin direction d opens
exactly the integers gamma whose hyperplane meets it, at most
1 + p 2^(p(p-1)/4) of them, so no band is missed.  A band's child keeps
its ellipsoid inside its polyhedron, so a whole subtree stays on this
path.

Optimization runs the feasibility recursion on level sets of the objective.
Once a candidate value v is in hand (the slice-QP optimum of the best known
integer assignment), a single probe at v - 1/(2 D^2) decides optimality,
where D bounds the denominator of every candidate value; midpoint probes
tighten the bracket when the candidate improves too slowly.  The first
candidate v0 is the better of two slices: at the MILP check's point and at
the continuous minimizer rounded to the nearest integers.

`optimize` runs with one table (`table`): its probes share P cut by the
declared box, the polyhedron reductions and the minima of q over P, which
do not depend on eta.  A shared reduction hands back the same reduced
polyhedron, with the full-dimensionality probe it keeps.  The table is
dropped on return or on an exception.  A lone `feasibility` or
`boundedness` call runs one recursion and opens none.  A thin node
parametrizes its bands from one rhs-free family (`diophantine._param_family`).
"""

from __future__ import annotations

import itertools
import sys
import warnings
from dataclasses import dataclass, field
from math import isqrt
from typing import List, Optional, Tuple

from .cqs import (
    ConvexQuadraticSet,
    _fulldim_reduce_cqs_impl,
    set_feasible_point,
    slice_point,
    theoretical_box,
)
from .diophantine import Empty, _param_family
from .errors import DimensionError, PreconditionError
from .lattice import LATTICE_POINT, ellipsoid_flatness, width_bound_sq
from .linalg import Vector, _idot, dot, integer_inverse, integer_row, lowest_terms
from .polyhedra import Polyhedron, _fulldim_probe, content_key, integer_system, lp_min
from .qp import QpObjective, QpResult, qp_min, qp_min_on_slice
from .rational import Rat, ZERO, rceil, rfloor, rround
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from .rounding import ceil_sqrt, cqs_is_bounded, sandwich
from .table import per_solve, remember

OPTIMAL_STATUS = "optimal"
INFEASIBLE_STATUS = "infeasible"
UNBOUNDED_STATUS = "unbounded"


@dataclass
class MicqpInstance:
    """min x^T H x + h^T x over {W x <= w}, first p variables integer.

    declared_box, when present, promises: if the feasible region has a mixed
    integer point, it has one inside the box, and when the problem is bounded
    an optimal one inside the box.  It is a search certificate, not a
    constraint; without it the symbolic magnitude bounds are used.
    """

    obj: QpObjective
    poly: Polyhedron
    declared_box: Optional[Tuple[Vector, Vector]] = None

    def __post_init__(self):
        if self.obj.n != self.poly.n:
            raise DimensionError("objective and constraints disagree on n")
        if self.declared_box is not None:
            _check_box_shape(self.declared_box, self.poly.n)


def _check_box_shape(declared_box, n: int) -> None:
    """DimensionError unless the box (lo, hi) bounds all n coordinates and
    lo <= hi."""
    lo, hi = declared_box
    if len(lo) != n or len(hi) != n:
        raise DimensionError("declared box has wrong dimension")
    if any(a > b for a, b in zip(lo, hi)):
        raise DimensionError("declared box has lo > hi")


@dataclass
class SolveStatus:
    status: str
    x: Optional[Vector] = None          # optimal point
    value: Optional[Rat] = None         # exact optimal value
    point: Optional[Vector] = None      # feasible point on unbounded instances
    ray: Optional[Vector] = None        # certified descent ray

    @property
    def is_optimal(self):
        return self.status == OPTIMAL_STATUS


@dataclass
class Trace:
    """Recursion telemetry: one entry per feasibility node."""

    nodes: List[dict] = field(default_factory=list)

    def record(self, **kw):
        self.nodes.append(kw)

    def max_depth(self) -> int:
        return max((n["depth"] for n in self.nodes), default=0)

    def band_entries(self):
        return [n for n in self.nodes if n.get("event") == "thin_direction"]

    def as_dict(self):
        def plain(v):
            if isinstance(v, (int, str, bool)) or v is None:
                return v
            return str(v)

        return {"nodes": [{k: plain(v) for k, v in node.items()} for node in self.nodes]}


def gamma_band_bound_sq(p: int) -> Rat:
    """(4 ceil_sqrt(p)^3 p 2^(p(p-1)/4))^2: the sandwich ratio R/r squared
    times the flatness width bound squared, exact."""
    return 16 * ceil_sqrt(p) ** 6 * width_bound_sq(p)


def _merge_duplicate_rows(poly: Polyhedron) -> Polyhedron:
    """Identical constraint rows keep only their tightest right-hand side."""
    seen = {}
    order = []
    for row, b in zip(poly.w_mat, poly.w_rhs):
        key = tuple(row)
        if key in seen:
            seen[key] = min(seen[key], b)
        else:
            seen[key] = b
            order.append(key)
    rows = [list(k) for k in order]
    rhs = [seen[k] for k in order]
    return Polyhedron(rows, rhs, poly.p, poly.n)


def _boxed(q: ConvexQuadraticSet, declared_box) -> ConvexQuadraticSet:
    """Q cut by the declared box, or, without one, by the symbolic bound
    when Q is unbounded and P is not empty (an empty set is bounded, though
    its recession cone may not say so).  P cut by the box, duplicate rows
    merged, is kept in `optimize`'s table (`table`), so all its probes
    share it."""
    if declared_box is not None:
        _check_box_shape(declared_box, q.n)
        lo, hi = declared_box
        poly = remember(lambda: ("box", content_key(q.poly), *lo, *hi),
                        lambda: _merge_duplicate_rows(q.poly.with_box(lo, hi)))
        return ConvexQuadraticSet(poly, q.obj, q.eta)
    if cqs_is_bounded(q) or _fulldim_probe(q.poly).status == "empty":
        return q
    frame, level = sys._getframe(), 1  # warn at the first frame outside miqcp
    while frame is not None and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        "no declared box; appending the symbolic magnitude bound "
        "(arithmetic on numbers with ~2^(2^5 s^2) bits)",
        RuntimeWarning,
        stacklevel=level,
    )
    lo, hi = theoretical_box(q)
    return ConvexQuadraticSet(q.poly.with_box(lo, hi), q.obj, q.eta)


def feasibility(
    q: ConvexQuadraticSet,
    declared_box: Optional[Tuple[Vector, Vector]] = None,
    trace: Optional[Trace] = None,
) -> Optional[Vector]:
    """A point of Q with integer leading coordinates, or None if none exists.

    A declared box that misses a nonempty polyhedron breaks its promise in
    the one way that is cheap to see: instead of None, PreconditionError
    (see `_check_box`), the box held to q's own polyhedron.
    """
    boxed = _boxed(q, declared_box)
    x = _feas_rec(boxed, 0, _ignore if trace is None else trace.record)
    if x is None and declared_box is not None:
        _check_box(boxed.poly, q.poly)
    return x


def _check_box(boxed: Polyhedron, poly: Polyhedron) -> None:
    """PreconditionError when the box that made boxed out of poly misses a
    nonempty poly.

    A box that cut nothing off poly (boxed == poly) cannot miss it.  A
    caller runs it only on a None answer, whose first reduction has probed
    the boxed polyhedron already unless q is linear and nonzero or
    `optimize`'s table handed that reduction back.  The unboxed probe runs
    only when the boxed polyhedron is empty.
    """
    if boxed == poly:
        return
    if (_fulldim_probe(boxed).status == "empty"
            and _fulldim_probe(poly).status != "empty"):
        raise PreconditionError(
            "box: the declared box misses the nonempty constraint polyhedron")


def _ignore(**node) -> None:
    """The node recorder of an untraced solve."""


def _feas_rec(q: ConvexQuadraticSet, depth: int, record) -> Optional[Vector]:
    """A point of Q with integer leading coordinates, or None: one node of
    the recursion, which reports each node it closes to record.

    A node whose reduced objective is identically zero asks about P itself.
    It rounds the leading coordinates of the probe point P keeps and lifts
    them by one slice LP first (simple rounding, Berthold 2006), and is
    sandwiched only when that slice misses P.  Of the bands that meet the
    outer ellipsoid (`band_count`, which `gamma_band_bound_sq` bounds), it
    opens only those whose hyperplane meets P (`open_band_count`), from
    the minimum and maximum of c . x over P, two LPs on P's phase 1.  A
    definite node opens only those whose hyperplane meets {q <= eta}, one
    interval of integers; the others' children would reduce to Empty.
    """
    out = _fulldim_reduce_cqs_impl(
        q, on_descent=lambda dim: record(depth=depth, p=q.p, event="face_descent",
                                         ambient_dim=dim))
    if isinstance(out, Empty):
        record(depth=depth, p=q.p, event="empty_after_reduction")
        return None
    tau, q2 = out
    p2 = q2.p

    if p2 == 0:
        point = set_feasible_point(q2)
        assert point is not None, "full-dimensional reduced set cannot be empty"
        record(depth=depth, p=q.p, event="continuous")
        return tau.apply(point)

    polyhedral = q2.obj.is_zero()  # Q = P
    if polyhedral:
        point = slice_point(q2, [Rat(rround(v)) for v in _fulldim_probe(q2.poly).point[:p2]])
        if point is not None:
            record(depth=depth, p=q.p, event="lattice_point")
            return tau.apply(point)
    inside = q2.obj.definite and _ellipsoid_inside(q2)
    y, bands = (_ellipsoid_question if inside else _sandwich_question)(q2)
    if y is not None:
        point = slice_point(q2, y)
        assert point is not None, "a lattice point of proj Q must lift"
        record(depth=depth, p=q.p, event="lattice_point")
        return tau.apply(point)

    # thin direction: every mixed-integer point lies on one of few hyperplanes
    c_int, gamma_lo, gamma_hi = bands
    count = max(0, gamma_hi - gamma_lo + 1)
    c_ext = list(c_int) + [ZERO] * (q2.n - p2)
    # open only the gamma whose hyperplane meets P (q = 0: two LPs on P's
    # phase 1) or {q <= eta} (q definite: the identity on an ellipsoid node)
    if polyhedral and count:
        gamma_lo = max(gamma_lo, rceil(lp_min(c_ext, q2.poly).value))
        gamma_hi = min(gamma_hi, rfloor(-lp_min([-v for v in c_ext], q2.poly).value))
    elif q2.obj.definite and count:
        lo, hi = _band_range(c_int, *_level_projection(q2))
        gamma_lo, gamma_hi = max(gamma_lo, lo), min(gamma_hi, hi)
    opened = max(0, gamma_hi - gamma_lo + 1)
    record(depth=depth, p=q.p, event="thin_direction", band_count=count,
           open_band_count=opened, band_bound_sq=gamma_band_bound_sq(p2))
    if opened == 0:
        return None
    # The bands share W = [c], so one rhs-free family parametrizes them all,
    # and the parametrizable ones become children.
    family = _param_family([c_ext], p2)
    for gamma in range(gamma_lo, gamma_hi + 1):
        param = family.solve([Rat(gamma)])
        if isinstance(param, Empty):
            continue
        assert param.p_prime <= p2 - 1
        sub = _feas_rec(q2.map_through(param), depth + 1, record)
        if sub is not None:
            return tau.apply(param.apply(sub))
    return None


def _sandwich_question(q: ConvexQuadraticSet) -> tuple:
    """The lattice question asked of Q's sandwich, the pair of concentric
    ellipsoids E(r^2) <= proj_p(Q) <= E(R^2) it is in y (`ellipsoids`)."""
    return _lattice_question(*sandwich(q, check=False).ellipsoids())


def _lattice_question(metric, shape, center, rho_in, rho_out) -> tuple:
    """`ellipsoid_flatness` asked of E(rho) = {y : (y - c)^T S (y - c) <= rho}
    with E(rho_in) <= proj_p(Q) <= E(rho_out), shape = (N, n) and
    S^-1 = N / n: (y, None) with y an integer point of E(rho_in), or
    (None, (d, lo, hi)) with [lo, hi] = `_band_range`(d, shape, c, rho_out),
    exactly the integers gamma whose hyperplane d . y = gamma meets
    E(rho_out).  (hi - lo)^2 <= 4 rho_out d^T S^-1 d <=
    (rho_out / rho_in) width_bound_sq(p), at most `gamma_band_bound_sq`(p).
    """
    outcome = ellipsoid_flatness(metric, shape, center, rho_in)
    if outcome.tag == LATTICE_POINT:
        return outcome.z, None
    return None, (outcome.d, *_band_range(outcome.d, shape, center, rho_out))


def _band_range(d: Vector, shape, center: Vector, rho: Rat) -> Tuple[int, int]:
    """(lo, hi): [lo, hi] is exactly the integers gamma whose hyperplane
    d . y = gamma meets E(rho) = {y : (y - c)^T S (y - c) <= rho}, those
    with (gamma - d . c)^2 <= rho d^T S^-1 d, for an integer d,
    shape = (N, n), S^-1 = N / n and rho >= 0; lo = hi + 1 when there are
    none.  Writing d . c = m / t, they are the gamma with
    |t gamma - m| <= s = isqrt(floor(t^2 rho u)), u = d^T N d / n.
    """
    mc = dot(d, center)
    m, t = mc.numerator, mc.denominator
    (n_ints, n), di = shape, [v.numerator for v in d]
    s = isqrt(rfloor(rho * _idot(di, [_idot(row, di) for row in n_ints]) * t * t / n))
    return -((s - m) // t), (m + s) // t


def _ellipsoid_inside(q: ConvexQuadraticSet) -> bool:
    """Whether the level ellipsoid E = {x : q(x) <= eta} of a definite q
    lies inside P; an E that touches a facet counts as inside.

    With c q's free minimizer and rho = eta - q(c), the most a . x gets on
    E is a . c + sqrt(rho a^T H^-1 a), so the row a . x <= b holds on all
    of E iff a . c <= b and rho a^T H^-1 a <= (b - a . c)^2.  Decided on
    ints, from P's `integer_system` rows and `free_minimum`'s c and H^-1.
    """
    (xb_num, xb_den), (hi_num, hi_den), q_bar = q.obj.free_minimum()
    rho = q.eta - q_bar
    lhs, rhs = rho.numerator * xb_den * xb_den, rho.denominator * hi_den
    for row in integer_system(q.poly)[0]:  # _idot stops at the n entries of a
        slack = row[-1] * xb_den - _idot(row, xb_num)  # xb_den (b - a . c)
        if slack < 0 or lhs * _idot(row, [_idot(h, row) for h in hi_num]) > rhs * slack * slack:
            return False
    return True


def _level_projection(q: ConvexQuadraticSet) -> tuple:
    """(shape, center, rho) of proj_p {q <= eta} for a definite q:
    {y : (y - c_I)^T S (y - c_I) <= rho}, c q's free minimizer,
    S^-1 = (H^-1)_II as shape = (N, n) with S^-1 = N / n, center c_I and
    rho = eta - q(c), read from `free_minimum`."""
    p = q.p
    (xb_num, xb_den), (hi_num, hi_den), q_bar = q.obj.free_minimum()
    return (([row[:p] for row in hi_num[:p]], hi_den),
            [Rat(v, xb_den) for v in xb_num[:p]], q.eta - q_bar)


def _ellipsoid_question(q: ConvexQuadraticSet) -> tuple:
    """The lattice question asked of Q = E, the level ellipsoid of a
    definite q inside P (`_ellipsoid_inside`), with no sandwich.

    proj_p E is `_level_projection`'s ellipsoid, of shape S^-1 = (H^-1)_II,
    so `_lattice_question` asks it with rho_in = rho_out = rho: its bands
    are exactly those that meet proj_p E, and
    (hi - lo)^2 <= width_bound_sq(p).  S is the Schur complement
    H_II - H_IC H_CC^-1 H_CI, H when n = p; on `integer_form`'s s H = H_i
    and I_d = d (H_i)_CC^-1 it is
    (d (H_i)_II - (H_i)_IC I_d (H_i)_CI) / (s d).
    """
    p = q.p
    h_int, _, scale = q.obj.integer_form()
    inv, d = integer_inverse([row[p:] for row in h_int[p:]])  # ([], 1) when n = p
    hic = [row[p:] for row in h_int[:p]]
    flat, den = lowest_terms([d * h_int[i][j] - _idot(a, [_idot(row, b) for row in inv])
                              for i, a in enumerate(hic) for j, b in enumerate(hic)], scale * d)
    shape, center, rho = _level_projection(q)
    return _lattice_question(([flat[i * p:(i + 1) * p] for i in range(p)], den),
                             shape, center, rho, rho)


@dataclass
class BoundednessResult:
    unbounded: bool
    point: Optional[Vector] = None
    ray: Optional[Vector] = None


def boundedness(inst: MicqpInstance, trace: Optional[Trace] = None) -> BoundednessResult:
    """Unbounded iff a mixed-integer feasible point and a descent ray coexist.

    The ray (W r <= 0, H r = 0, h^T r = -1) is the one qp_min certifies
    when the continuous relaxation is unbounded, which, given the point,
    happens exactly when such a ray exists.  On an infeasible instance the
    answer is Bounded (vacuously); callers report infeasibility first.
    """
    x = feasibility(_milp_cqs(inst.poly), inst.declared_box, trace)
    if x is None:
        return BoundednessResult(False)
    cont = qp_min(inst.obj, inst.poly)
    if cont.status != UNBOUNDED:
        return BoundednessResult(False)
    return BoundednessResult(True, point=x, ray=cont.ray)


def _milp_cqs(poly: Polyhedron) -> ConvexQuadraticSet:
    n = poly.n
    zero = QpObjective([[ZERO] * n for _ in range(n)], [ZERO] * n)
    return ConvexQuadraticSet(poly, zero, ZERO)


def _denominator_bound(inst: MicqpInstance) -> int:
    """Integer D with: every candidate optimal value has denominator <= D.

    Candidate values are slice-QP optima.  Their points solve KKT systems
    [2H A^T; A 0] x = rhs with A drawn from rows of W and from unit rows
    e_i^T x = v_i for the pinned coordinates (`qp_min_on_slice` solves in
    the free coordinates, which is the same system with those rows
    eliminated), so after scaling every row by the global lcm L of all
    data denominators the system is integer, Hadamard bounds its
    determinant by (2n Amax^2)^n, and Cramer bounds every point
    denominator by that.  The value q(x*) then has denominator at most
    lcm(H, h denominators) times the point bound squared.
    """
    n = inst.poly.n
    two_h = [2 * v for row in inst.obj.h_mat for v in row]
    w_entries = [v for row in inst.poly.w_mat for v in row]
    _, ell_obj = integer_row(two_h + list(inst.obj.h_vec))
    ints, ell = integer_row(two_h + w_entries + list(inst.obj.h_vec) + list(inst.poly.w_rhs))
    amax = max([ell] + [abs(v) for v in ints[:len(two_h) + len(w_entries)]])
    d_point = (2 * n * amax * amax) ** max(1, n)
    return ell_obj * d_point * d_point


def _rounded_slice(inst: MicqpInstance, x: Vector) -> Optional[QpResult]:
    """The slice-QP optimum at x's integer coordinates rounded to the
    nearest integers, or None when that point leaves the declared box or
    its slice misses P: simple rounding, the first primal heuristic of
    mixed-integer solvers (Berthold 2006), made exact by the slice QP."""
    p = inst.poly.p
    rounded = [Rat(rround(c)) for c in x[:p]]
    box = inst.declared_box
    if box is not None and not all(a <= c <= b for a, c, b in zip(box[0], rounded, box[1])):
        return None
    res = qp_min_on_slice(inst.obj, inst.poly, rounded)
    return res if res.is_optimal else None


@per_solve
def optimize(inst: MicqpInstance, trace: Optional[Trace] = None) -> SolveStatus:
    """Accurate solve: feasibility, boundedness, then the exact optimum.

    One continuous QP over the whole polyhedron decides boundedness (its
    certified ray, with the mixed-integer feasible point) and, when
    bounded, gives the optimum for p = 0 and the lower bracket lo otherwise.

    The first candidate v0 is the slice-QP optimum at the MILP check's
    point, or the one at the continuous minimizer's integer coordinates
    rounded to the nearest integers (`_rounded_slice`) when that is lower.
    The rounded point is often optimal, and then one failing probe ends
    the loop.  It only lowers v0, and a slice-QP optimum is a candidate
    like any other, so the bound below holds as it did without it.

    The probe loop keeps lo < v: lo a level no feasible value is below (the
    continuous minimum, then failed probe levels), v the best candidate (a
    slice-QP optimum).  Candidate denominators are <= D =
    `_denominator_bound`, so distinct candidates differ by >= 1/D^2, and
    the loop ends when v - lo < 1/D^2 or the probe at v - gap,
    gap = 1/(2 D^2), fails.  After every 8th improvement the probe is the
    midpoint (lo + v)/2 if that is below v - gap, except right after a
    failed midpoint, which only raised lo.

    At most 9 M + 17 = O(log((v0 - lo0) D^2)) probes run, M being
    log2((v0 - lo0) D^2) + 1.  v - lo never grows; a midpoint probe needs
    v - lo > 1/D^2 and halves it either way, so at most M run, and every
    failure but the last is a midpoint.  As a success clears
    after_failed_midpoint, the probe after each 8th success is a midpoint
    unless v - lo <= 1/D^2, and then at most one probe follows.
    So at most M + 1 blocks of 8 successes complete: <= 8 (M + 2) successes
    and <= M + 1 failures.

    Every `feasibility` call gets the user's P and box, and the MILP check
    and the probes share one table, opened here and nowhere else (`table`,
    keyed by the content of polyhedra and objectives): P cut by the box is
    built once, so they all run on one boxed polyhedron, whose
    full-dimensionality probe and phase 1 run once; a reduction or a
    minimum of q over P that an earlier probe computed is read back, not
    run again.  Each is independent of the level, so answers and traces
    are those without it.
    """
    box = inst.declared_box
    x_feas = feasibility(_milp_cqs(inst.poly), box, trace)
    if x_feas is None:
        return SolveStatus(INFEASIBLE_STATUS)
    cont = qp_min(inst.obj, inst.poly)
    if cont.status == UNBOUNDED:
        return SolveStatus(UNBOUNDED_STATUS, point=x_feas, ray=cont.ray)
    assert cont.is_optimal, "a feasible polyhedron keeps the QP feasible"
    p = inst.poly.p
    if p == 0:
        return SolveStatus(OPTIMAL_STATUS, x=cont.x, value=cont.value)
    lo = cont.value

    best = qp_min_on_slice(inst.obj, inst.poly, x_feas[:p])
    assert best.is_optimal
    x_best, v = best.x, best.value
    near = _rounded_slice(inst, cont.x)
    if near is not None and near.value < v:
        x_best, v = near.x, near.value

    dbound = _denominator_bound(inst)
    gap = Rat(1, 2 * dbound * dbound)
    min_spacing = Rat(1, dbound * dbound)
    improvements = 0
    after_failed_midpoint = False
    while v > lo:
        if v - lo < min_spacing:
            break  # only one candidate value fits in (lo, v]
        probe_at = v - gap
        if improvements and improvements % 8 == 0 and not after_failed_midpoint:
            midpoint = (lo + v) / 2
            if midpoint < probe_at:
                probe_at = midpoint
        found = feasibility(ConvexQuadraticSet(inst.poly, inst.obj, probe_at), box, trace)
        if found is None:
            if probe_at == v - gap:
                break  # no candidate below v: v is the optimum
            lo = probe_at
            after_failed_midpoint = True
            continue
        improved = qp_min_on_slice(inst.obj, inst.poly, found[:p])
        assert improved.is_optimal and improved.value <= probe_at
        x_best, v = improved.x, improved.value
        improvements += 1
        after_failed_midpoint = False
    return SolveStatus(OPTIMAL_STATUS, x=x_best, value=v)


def oracle_optimize(inst: MicqpInstance) -> SolveStatus:
    """Brute force over all integer assignments inside the declared box.

    Requires declared_box.  Scans assignments lexicographically, so ties
    resolve to the smallest integer part.  Each assignment's slice is P
    with its pins as row pairs (`with_box(v, v)`), and `qp_min` runs on
    that polyhedron in all n coordinates, not `qp_min_on_slice`'s map to
    the free ones, so the differential tests compare two formulations.
    """
    if inst.declared_box is None:
        raise PreconditionError("oracle_optimize requires a declared box")
    p = inst.poly.p
    if p == 0:
        res = qp_min(inst.obj, inst.poly)
        if res.status == INFEASIBLE:
            return SolveStatus(INFEASIBLE_STATUS)
        if res.status == OPTIMAL:
            return SolveStatus(OPTIMAL_STATUS, x=res.x, value=res.value)
        return SolveStatus(UNBOUNDED_STATUS, point=res.point, ray=res.ray)

    lo, hi = inst.declared_box
    ranges = [range(rceil(lo[i]), rfloor(hi[i]) + 1) for i in range(p)]
    cont = qp_min(inst.obj, inst.poly)
    best_x, best_v = None, None
    for assign in itertools.product(*ranges):
        pins = [Rat(v) for v in assign]
        sliced = inst.poly.with_box(pins, pins)
        probe = lp_min([ZERO] * inst.poly.n, sliced)
        if probe.status == INFEASIBLE:
            continue
        if cont.status == UNBOUNDED:
            return SolveStatus(UNBOUNDED_STATUS, point=probe.x, ray=cont.ray)
        res = qp_min(inst.obj, sliced)
        assert res.is_optimal
        if best_v is None or res.value < best_v:
            best_x, best_v = res.x, res.value
    if best_v is None:
        return SolveStatus(INFEASIBLE_STATUS)
    return SolveStatus(OPTIMAL_STATUS, x=best_x, value=best_v)
