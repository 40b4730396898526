"""Convex quadratic sets: classification and full-dimensional reduction.

A convex quadratic set Q is a polyhedron intersected with one convex
quadratic inequality.  Writing eta_bar for the minimum of the quadratic
over the polyhedron and eta_tilde for its minimum over all of space, Q
falls into exactly one of: empty (eta_bar > eta), full-dimensional
(eta_bar < eta), contained in the stationary affine subspace
(eta_bar = eta_tilde = eta), or contained in a proper tangent face of the
polyhedron (eta_tilde < eta_bar = eta).  The reduction maps a
low-dimensional Q through the parametrization of an affine subspace that
contains it (the stationary subspace or the tangent face's hyperplane), as
a thin-direction band is mapped, until the full-dimensional case is
reached, composing the mixed-integer preserving affine maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

from .diophantine import (
    EMPTY, AffineParam, Empty, identity_param, parametrize_mixed_integer_solutions,
)
from .errors import DimensionError, PreconditionError
from .linalg import Matrix, Vector, _idot, dot, integer_row, vec_add, vec_scale
from .polyhedra import (
    Polyhedron,
    _fulldim_probe,
    content_key,
    fulldim_reduce_polyhedron,
    implicit_equalities,
)
from .qp import QpObjective, QpResult, objective_key, qp_min, qp_min_on_slice
from .rational import Rat, ZERO, ONE, rfloor, rround, size_of, size_of_seq
from .simplex import INFEASIBLE
from .table import remember


@dataclass
class ConvexQuadraticSet:
    """{x : W x <= w, x^T H x + h^T x <= eta} with leading integer variables.

    Nothing writes to poly, obj or eta after construction, so a set keeps
    one memo, `_level`, its `_level_case` (computed once per object), which
    takes no part in equality or repr.  What a grow of the sandwich learns
    about the set is kept by the grow (`rounding._RowRuns`).
    """

    poly: Polyhedron
    obj: QpObjective
    eta: Rat
    _level: Optional[Tuple[str, Optional[QpResult]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.obj.n != self.poly.n:
            raise DimensionError("quadratic dimension != polyhedron dimension")
        self.eta = Rat(self.eta)

    @property
    def n(self) -> int:
        return self.poly.n

    @property
    def p(self) -> int:
        return self.poly.p

    def contains(self, x: Vector) -> bool:
        if len(x) != self.n:
            raise DimensionError("contains: point length != n")
        return self._contains_ints(*integer_row(x))

    def _contains_ints(self, num: List[int], den: int) -> bool:
        """x = num / den in Q (den > 0), decided on ints: P's rows by
        `Polyhedron.contains_ints` and q (`integer_form`) as
        num^T H num + den h.num <= eta scale den^2, cleared of eta's
        denominator."""
        if not self.poly.contains_ints(num, den):
            return False
        h_int, lin, scale = self.obj.integer_form()
        lhs = _idot(num, [_idot(row, num) for row in h_int]) + den * _idot(lin, num)
        return lhs * self.eta.denominator <= self.eta.numerator * scale * den * den

    def map_through(self, tau: AffineParam) -> "ConvexQuadraticSet":
        """Substitute x = xbar + M x'; eta' = eta - q(xbar) keeps the set exact."""
        obj, q_xbar = self.obj.substitute(tau)
        return ConvexQuadraticSet(self.poly.map_through(tau), obj, self.eta - q_xbar)


FULL_DIM = "full_dim"
LOW_DIM_AFFINE = "low_dim_affine"
LOW_DIM_FACE = "low_dim_face"
LOW_DIM_POLY = "low_dim_poly"
EMPTY_SET = "empty_set"


def quadratic_feasible_point(obj: QpObjective, poly: Polyhedron, eta) -> Optional[Vector]:
    """A point of {x in poly : q(x) <= eta}, or None (exact decision).

    Minimizes q over the polyhedron (`qp_min`); when that is unbounded
    below, walks the certified descent ray (H r = 0, h.r = -1) far enough
    to clear eta.
    """
    return _point_below(obj, eta, qp_min(obj, poly))


def slice_point(q: ConvexQuadraticSet, y: Vector) -> Optional[Vector]:
    """A point x of Q with leading coordinates x[:len(y)] = y, or None
    (exact decision), read from the slice minimum `qp_min_on_slice`."""
    return _point_below(q.obj, q.eta, qp_min_on_slice(q.obj, q.poly, y))


def set_feasible_point(q: ConvexQuadraticSet) -> Optional[Vector]:
    """A point of Q, or None: `quadratic_feasible_point` on Q's own data,
    read from the minimum of q over P that `_level_case` keeps on q."""
    _, face_min = _level_case(q)
    if face_min is None:  # q is identically zero: no QP was run
        return quadratic_feasible_point(q.obj, q.poly, q.eta)
    return _point_below(q.obj, q.eta, face_min)


def _point_below(obj: QpObjective, eta, res: QpResult) -> Optional[Vector]:
    """A point of the polyhedron with q(x) <= eta, or None, given res, the
    minimum of q over it."""
    if res.status == INFEASIBLE:
        return None
    if res.is_optimal:
        return res.x if res.value <= eta else None
    point, ray = res.point, res.ray
    gap = obj.value(point) - eta
    lam = ZERO if gap <= 0 else Rat(rround(gap) + 1)
    out = vec_add(point, vec_scale(lam, ray))
    return out


@dataclass
class FulldimCertificate:
    tag: str
    polytope: Optional[Polyhedron] = None      # full_dim: polytope inside Q
    eq_rows: Optional[Matrix] = None           # low_dim_affine: 2H x = -h
    eq_rhs: Optional[Vector] = None
    face: Optional[Polyhedron] = None          # low_dim_face: containing face
    implicit_rows: Optional[List[int]] = None  # low_dim_poly: P's implicit equalities


def stationary_affine_subspace(obj: QpObjective) -> Tuple[Matrix, Vector]:
    """The linear system 2 H x = -h (set of global minima of the quadratic)."""
    rows = [[2 * v for v in row] for row in obj.h_mat]
    rhs = [-v for v in obj.h_vec]
    return rows, rhs


def magnitude_bound(s: int) -> Rat:
    """2 ** (2**5 * s**2) as an exact rational: the coordinate bound of the
    feasibility argument for data of bit size s.  It is astronomically
    large and only used when an instance declares no box."""
    if s < 1:
        raise ValueError("size must be >= 1")
    return Rat(1 << (32 * s * s))


def scaled_integer_system_size(matrices: Iterable, vectors: Iterable, scalars: Iterable) -> int:
    """Bit size of the system after scaling all data to integers.

    Each matrix row is scaled by the lcm of its denominators together with
    the matching vector entry; scalars are scaled by their own denominators.
    The result is the total bit size of the integer data plus the dimensions.
    """
    total = 0
    dims = 0
    for a, b in zip(matrices, vectors):
        for row, rhs in zip(a, b + [Rat(0)] * (len(a) - len(b))):
            ints, _ = integer_row(list(row) + [rhs])
            total += sum(size_of(v) for v in ints)
            dims += 1 + len(row)
    for s in scalars:
        ints, ell = integer_row([s])
        total += size_of(ints[0]) + size_of(ell)
    return max(1, total + dims)


def cqs_bit_size(q: ConvexQuadraticSet) -> int:
    return scaled_integer_system_size(
        [q.poly.w_mat, q.obj.h_mat], [q.poly.w_rhs, q.obj.h_vec], [q.eta]
    )


def theoretical_box(q: ConvexQuadraticSet):
    """Symbolic +-2^(2^5 s^2) coordinate box (no declared box given)."""
    bound = magnitude_bound(cqs_bit_size(q))
    n = q.n
    return [-bound] * n, [bound] * n


def inner_polytope(q: ConvexQuadraticSet) -> Polyhedron:
    """A full-dimensional polyhedron inside Q: P itself, or P intersected
    with a cube.

    Requires P full-dimensional, which P's kept probe decides (no LP after
    `classify_fulldim`), and the FULL_DIM case of q's `_level_case`
    (min q over P < eta), whose minimum it reads.  An identically-zero q
    makes Q = P, so P itself is returned, with the probe and phase 1 it
    keeps; it is a polytope when Q is bounded, as the sandwich needs.
    Otherwise the cube is centred at a witness xbar with q(xbar) < eta:
    the minimizer, or, when the minimum over P is -infinity, a point on
    the certified ray (H r = 0 and h.r = -1, so q falls by lambda along
    lambda r).  An exact Lipschitz bound for the quadratic on
    [-beta, beta]^n, with beta set by xbar's bit size, gives the floor
    radius delta; `_enlarge_cube` doubles it while the one-pair certificate
    (||g||_1, sum |H_ij|) keeps the cube inside {q <= eta}, so the witness's
    size sets where that search starts, not where it can reach.
    """
    poly, obj, eta = q.poly, q.obj, q.eta
    n = q.n
    if n == 0:
        raise PreconditionError("inner_polytope: zero-dimensional set")
    probe = _fulldim_probe(poly)
    if probe.status != "full_dim":
        raise PreconditionError("inner_polytope: P is not full-dimensional")
    tag, res = _level_case(q)
    if tag != FULL_DIM:
        raise PreconditionError("inner_polytope: min over P is not below eta")
    if res is None:  # the quadratic is identically zero: Q is the polyhedron itself
        return poly
    if res.is_optimal:
        xbar = res.x
    else:
        # q(point + lam ray) = q(point) - lam, and lam > q(point) - eta
        lam = Rat(max(0, rfloor(obj.value(res.point) - eta)) + 1)
        xbar = vec_add(res.point, vec_scale(lam, res.ray))
    qval = obj.value(xbar)
    alpha = Rat(1 << size_of_seq([v for row in obj.h_mat for v in row] + list(obj.h_vec)))
    beta = Rat(1 << size_of_seq(xbar)) + 1
    lip = 2 * alpha * beta * n * (n + 2)
    delta = min(ONE, (eta - qval) / lip)
    delta = _enlarge_cube(q, xbar, delta)
    lo_box = [v - delta for v in xbar]
    hi_box = [v + delta for v in xbar]
    return poly.with_box(lo_box, hi_box)


def _enlarge_cube(q: ConvexQuadraticSet, xbar: Vector, delta):
    """The largest delta * 2^k <= 1 for which one integer pair certifies
    that the cube around xbar lies in the quadratic level set, made dyadic.

    With g = 2 H xbar + h, the vertex xbar + rho s of sign vector s has
    q(xbar + rho s) - q(xbar) = rho g.s + rho^2 s^T H s, and for every s,
    |g.s| <= G = ||g||_1 and s^T H s <= S = sum |H_ij|.  The maximum of the
    convex quadratic over a box sits at a vertex, so the cube of radius rho
    lies in {q <= eta} when rho G + rho^2 S <= eta - q(xbar).  g, H and the
    slack are scaled to integers by one positive factor, and a radius
    rho = num/den passes when num den G + num^2 S <= slack den^2: O(n^2)
    work at any n.  Both terms grow with the radius, so binary search over
    k applies; the Lipschitz delta stays as the guaranteed floor.

    The radius returned is the certified one, best, shrunk to the nearby
    dyadic floor(best 2^j) / 2^j, whose small denominator keeps every
    downstream subproblem small.  With 0 < best <= 1 and
    j = bitlen(floor(1/best)) + 1 we have 1/best < 2^(j-1), so
    best 2^j > 2 and the dyadic radius lies in (best/2, best], which the
    test certifies too.
    """
    if delta >= 1:
        return delta
    k_max = rfloor(ONE / delta).bit_length() - 1
    if k_max <= 0:
        return delta

    n, obj = q.n, q.obj
    scaled, _ = integer_row(obj.gradient(xbar) + [v for row in obj.h_mat for v in row]
                            + [q.eta - obj.value(xbar)])
    lin_cap = sum(abs(v) for v in scaled[:n])
    quad_cap = sum(abs(v) for v in scaled[n:-1])
    slack = scaled[-1]

    def cube_ok(rad):
        num, den = rad.numerator, rad.denominator
        return num * den * lin_cap + num * num * quad_cap <= slack * den * den

    lo_k, hi_k = 0, k_max
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        if cube_ok(delta * (1 << mid)):
            lo_k = mid
        else:
            hi_k = mid - 1
    best = delta * (1 << lo_k)
    j = rfloor(ONE / best).bit_length() + 1
    return Rat(rfloor(best * (1 << j)), 1 << j)


def _level_case(q: ConvexQuadraticSet) -> Tuple[str, Optional[QpResult]]:
    """The case split of the module docstring: (tag, face_min).

    The tag is EMPTY_SET, FULL_DIM, LOW_DIM_AFFINE or LOW_DIM_FACE as if P
    were full-dimensional.  face_min is the minimum of q over P; a minimum
    of -infinity (or an empty P) is FULL_DIM.  The minimum over all of
    space is computed only when face_min equals eta.  An identically-zero q
    makes Q = P (or empty when eta < 0) and needs no QP; face_min is then
    None.  The answer depends on q alone, so it is kept on q; face_min
    does not depend on eta, so inside `optimize` it is kept for P and q's
    objective (`table`).
    """
    if q._level is None:
        q._level = _split_level(q)
    return q._level


def _split_level(q: ConvexQuadraticSet) -> Tuple[str, Optional[QpResult]]:
    obj, eta = q.obj, q.eta
    if obj.is_zero():
        return (EMPTY_SET if eta < 0 else FULL_DIM), None
    face_min = remember(lambda: ("face_min", content_key(q.poly), objective_key(obj)),
                        lambda: qp_min(obj, q.poly))
    if not face_min.is_optimal or face_min.value < eta:
        return FULL_DIM, face_min
    if face_min.value > eta:
        return EMPTY_SET, face_min
    free_min = qp_min(obj, Polyhedron([], [], n=q.n))
    if free_min.is_optimal and free_min.value == eta:
        return LOW_DIM_AFFINE, face_min
    return LOW_DIM_FACE, face_min


def tangent_face(q: ConvexQuadraticSet) -> Polyhedron:
    """The proper face of P containing Q when min over P equals eta.

    Requires P full-dimensional and the LOW_DIM_FACE case of `_level_case`
    (min over P = eta > min over all of space).  With xbar the minimizer of
    q over P kept in q's level case and g = grad q(xbar) (h when H = 0),
    first-order optimality gives g.x >= g.xbar on P, so the face is P cut
    by its supporting half-space g.x <= g.xbar.
    """
    if _fulldim_probe(q.poly).status != "full_dim":
        raise PreconditionError("tangent_face: P must be full-dimensional")
    tag, face_min = _level_case(q)
    if tag != LOW_DIM_FACE:
        raise PreconditionError(
            "tangent_face: needs min over P = eta > min over all of space"
        )
    normal = q.obj.gradient(face_min.x)
    if all(v == 0 for v in normal):
        raise AssertionError("zero gradient contradicts eta_tilde < eta")
    return q.poly.with_rows([normal], [dot(normal, face_min.x)])


def classify_fulldim(q: ConvexQuadraticSet) -> FulldimCertificate:
    """Three-way classification with a checkable certificate per case.

    P keeps its probe and q its level case, so on a set that
    `fulldim_reduce_cqs` returned this runs no LP or QP beyond the ones the
    inner polytope needs anyway."""
    poly, obj = q.poly, q.obj
    probe = _fulldim_probe(poly)
    if probe.status == "empty":
        return FulldimCertificate(EMPTY_SET)
    tag, _ = _level_case(q)
    if tag == EMPTY_SET:
        return FulldimCertificate(EMPTY_SET)
    if tag == LOW_DIM_AFFINE:
        rows, rhs = stationary_affine_subspace(obj)
        return FulldimCertificate(LOW_DIM_AFFINE, eq_rows=rows, eq_rhs=rhs)
    if probe.status != "full_dim":
        return FulldimCertificate(LOW_DIM_POLY, implicit_rows=implicit_equalities(poly))
    if tag == LOW_DIM_FACE:
        return FulldimCertificate(LOW_DIM_FACE, face=tangent_face(q))
    return FulldimCertificate(FULL_DIM, polytope=inner_polytope(q))


def _reduce_step(
    tau_acc: AffineParam, cur: ConvexQuadraticSet, poly: Polyhedron
) -> Union[Empty, Tuple[AffineParam, ConvexQuadraticSet]]:
    """Reduce poly, a subset of cur's polyhedron, and carry cur's quadratic
    through its map x = xbar + M x' (eta' = eta - q(xbar)).  The reduction
    does not depend on eta, so inside `optimize` it is kept for poly's
    content (`table`)."""
    out = remember(lambda: ("reduce", content_key(poly)),
                   lambda: fulldim_reduce_polyhedron(poly))
    if isinstance(out, Empty):
        return EMPTY
    tau, reduced = out
    obj, q_xbar = cur.obj.substitute(tau)
    return tau_acc.compose(tau), ConvexQuadraticSet(reduced, obj, cur.eta - q_xbar)


def fulldim_reduce_cqs(
    q: ConvexQuadraticSet, on_descent=None,
) -> Union[Empty, Tuple[AffineParam, ConvexQuadraticSet]]:
    """Empty, or tau and a full-dimensional Q' with Q = tau(Q') and
    mixed-integer points in bijection.  on_descent(dim), when given, is
    called at each tangent-face descent.  A low-dimensional Q lies in the
    stationary subspace 2 H x = -h or in the hyperplane g.x = g.xbar, with
    xbar the minimizer over P and g = grad q(xbar) (on Q,
    q(x) <= eta = q(xbar) <= q(xbar) + g.(x - xbar) <= q(x)), and is
    mapped through that subspace's mixed-integer parametrization."""
    tau_acc = identity_param(q.n, q.p)
    cur = q
    for _ in range(q.n + 2):
        if cur.obj.is_zero_quadratic():
            # Q is the polyhedron P with h^T x <= eta: finish as a polyhedron
            h = cur.obj.h_vec
            if any(v != 0 for v in h):
                return _reduce_step(tau_acc, cur, cur.poly.with_rows([h], [cur.eta]))
            tag, _ = _level_case(cur)  # q is identically zero: no QP
            return EMPTY if tag == EMPTY_SET else _reduce_step(tau_acc, cur, cur.poly)

        step = _reduce_step(tau_acc, cur, cur.poly)
        if isinstance(step, Empty):
            return EMPTY
        tau_acc, cur = step

        if cur.obj.is_zero_quadratic():
            continue  # substitution may have killed H; restart on the new face

        tag, face_min = _level_case(cur)
        if tag == EMPTY_SET:
            return EMPTY
        if tag == FULL_DIM:
            return tau_acc, cur
        if tag == LOW_DIM_AFFINE:
            rows, rhs = stationary_affine_subspace(cur.obj)
        else:
            g = cur.obj.gradient(face_min.x)
            rows, rhs = [g], [dot(g, face_min.x)]
            if on_descent is not None:
                on_descent(cur.n)
        tau = parametrize_mixed_integer_solutions(rows, rhs, cur.p)
        if isinstance(tau, Empty):
            return EMPTY
        tau_acc, cur = tau_acc.compose(tau), cur.map_through(tau)
    raise AssertionError("face descent failed to terminate within n iterations")


# the name the solver imports; a benchmark layer hooks it
_fulldim_reduce_cqs_impl = fulldim_reduce_cqs
