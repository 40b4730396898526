"""Exact convex quadratic programming over polyhedra.

Primal active-set method in rational arithmetic: iterate working sets of
constraint rows, solve each equality-constrained subproblem exactly through
its KKT system, and accept only on a verified certificate.  Worst-case
exponential, which is acceptable at desk scale; iteration counts are
reported on every result for observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Optional

from .errors import DimensionError
from .linalg import (
    Matrix,
    Vector,
    dot,
    gauss_solve,
    identity,
    integer_row,
    ldlt_psd_check,
    mat_vec,
    null_space,
    quad_form,
    transpose,
    vec_add,
    vec_scale,
)
from .polyhedra import Polyhedron, lp_min
from .rational import Rat, ZERO, ONE
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

_ITERATION_CAP_FACTOR = 60


@dataclass(frozen=True)
class QpObjective:
    """x^T H x + h^T x with H symmetric positive semidefinite."""

    h_mat: Matrix
    h_vec: Vector

    @property
    def n(self) -> int:
        return len(self.h_vec)

    def value(self, x: Vector):
        return quad_form(self.h_mat, x) + dot(self.h_vec, x)

    def gradient(self, x: Vector) -> Vector:
        return vec_add(vec_scale(2, mat_vec(self.h_mat, x)), self.h_vec)

    def validate_psd(self):
        """Raises NotPsdError (with the failing pivot) if H is not PSD."""
        ldlt_psd_check(self.h_mat)

    def is_zero_quadratic(self) -> bool:
        return all(v == 0 for row in self.h_mat for v in row)

    def map_through(self, tau) -> "QpObjective":
        """Objective in x' coordinates under x = xbar + M x' (constant dropped).

        H' = M^T H M and h' = M^T (2 H xbar + h); the dropped constant is
        xbar^T H xbar + h^T xbar.
        """
        n = len(tau.xbar)
        mt = [[tau.m[i][j] for i in range(n)] for j in range(tau.n_prime)]
        h_cols = [[sum((self.h_mat[a][b] * tau.m[b][j] for b in range(n)), ZERO)
                   for j in range(tau.n_prime)] for a in range(n)]
        h_new = [[sum((mt[i][a] * h_cols[a][j] for a in range(n)), ZERO)
                  for j in range(tau.n_prime)] for i in range(tau.n_prime)]
        lin = self.gradient(tau.xbar)
        h_vec_new = [dot(mt[i], lin) for i in range(tau.n_prime)]
        return QpObjective(h_new, h_vec_new)


@dataclass
class QpResult:
    status: str
    x: Optional[Vector] = None
    value: Optional[Rat] = None
    point: Optional[Vector] = None      # feasible point on unbounded results
    ray: Optional[Vector] = None        # W r <= 0, H r = 0, h^T r <= -1
    active: Optional[List[int]] = None  # working set of the KKT certificate
    lam: Optional[Vector] = None        # multipliers for the active rows
    iterations: int = 0

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


def descent_ray(obj: QpObjective, poly: Polyhedron) -> Optional[Vector]:
    """A ray with W r <= 0, H r = 0, h^T r <= -1, or None.

    Nonemptiness of this set characterizes unboundedness of the objective
    over a nonempty polyhedron.
    """
    n = obj.n
    rows = [row[:] for row in poly.w_mat]
    rhs = [ZERO] * poly.m
    for hrow in obj.h_mat:
        if all(v == 0 for v in hrow):
            continue
        rows.append(hrow[:])
        rhs.append(ZERO)
        rows.append([-v for v in hrow])
        rhs.append(ZERO)
    rows.append(obj.h_vec[:])
    rhs.append(-ONE)
    res = lp_min([ZERO] * n, Polyhedron(rows, rhs, _n_hint=n))
    if res.status == OPTIMAL:
        return res.x
    return None


def _independent_active_rows(poly: Polyhedron, x: Vector) -> List[int]:
    """The tight rows, in order, that are independent of the rows chosen before.

    One incremental pass: each tight row, scaled to integers, is reduced
    against the echelon rows already chosen and kept if anything is left.
    """
    chosen = []
    echelon = []  # (pivot column, primitive integer row)
    for i, s in enumerate(poly.slacks(x)):
        if s != 0:
            continue
        row, _ = integer_row(poly.w_mat[i])
        for col, b in echelon:
            f = row[col]
            if f:
                row = [b[col] * u - f * v for u, v in zip(row, b)]
        col = next((j for j, u in enumerate(row) if u), None)
        if col is not None:
            g = gcd(*row)
            chosen.append(i)
            echelon.append((col, [u // g for u in row]))
    return chosen


def qp_min(
    obj: QpObjective,
    poly: Polyhedron,
    check_psd: bool = True,
    bounded_hint: bool = False,
) -> QpResult:
    """Exact minimum of x^T H x + h^T x over {W x <= w}.

    Returns Infeasible, Unbounded (with a feasible point and a certified
    descent ray), or Optimal with an exact KKT certificate.  bounded_hint
    skips the unboundedness probe; pass it only when the feasible region is
    known bounded (a wrong hint trips an assertion, never a wrong answer).
    """
    if obj.n != poly.n:
        raise DimensionError("qp_min: objective and polyhedron dimensions differ")
    if check_psd:
        obj.validate_psd()
    n = obj.n

    feas = lp_min([ZERO] * n, poly)
    if feas.status == INFEASIBLE:
        return QpResult(INFEASIBLE)
    x = feas.x
    if n == 0:
        return QpResult(OPTIMAL, [], ZERO, active=[], lam=[], iterations=0)

    if not bounded_hint:
        ray = descent_ray(obj, poly)
        if ray is not None:
            return QpResult(UNBOUNDED, point=x, ray=ray)

    active = _independent_active_rows(poly, x)
    iterations = 0
    cap = _ITERATION_CAP_FACTOR * (poly.m + n + 10)
    while True:
        iterations += 1
        if iterations > cap:
            raise RuntimeError("qp_min: active-set iteration cap exceeded")
        w_a = [poly.w_mat[i] for i in active]
        nsp = null_space(w_a) if active else identity(n)
        k = len(nsp[0]) if nsp else 0
        grad = obj.gradient(x)

        step_dir = None
        full_step_len = None
        if k > 0:
            ncols = [[nsp[i][j] for i in range(n)] for j in range(k)]
            gr = [dot(col, grad) for col in ncols]
            hn = [mat_vec(obj.h_mat, col) for col in ncols]  # k vectors in R^n
            hr = [[dot(ncols[i], hn[j]) for j in range(k)] for i in range(k)]
            two_hr = [[2 * v for v in row] for row in hr]
            sol = gauss_solve(two_hr, [-v for v in gr])
            if sol is None:
                # relaxed subproblem unbounded: move along a null direction
                # of the reduced Hessian with nonzero reduced gradient
                for_col = None
                for col in _matrix_columns(null_space(hr)):
                    t = dot(gr, col)
                    if t != 0:
                        for_col = col if t < 0 else [-v for v in col]
                        break
                assert for_col is not None
                step_dir = [sum((ncols[j][i] * for_col[j] for j in range(k)), ZERO)
                            for i in range(n)]
                full_step_len = None  # unbounded direction, must hit a row
            else:
                step = [sum((ncols[j][i] * sol[j] for j in range(k)), ZERO)
                        for i in range(n)]
                if any(v != 0 for v in step):
                    step_dir = step
                    full_step_len = ONE

        if step_dir is None:
            # x is optimal for the working set; check multipliers
            if not active:
                if any(v != 0 for v in grad):
                    raise AssertionError("stationarity must hold with empty working set")
                return QpResult(OPTIMAL, x, obj.value(x), active=[], lam=[],
                                iterations=iterations)
            lam = gauss_solve(transpose(w_a), [-v for v in grad])
            assert lam is not None, "EQP-optimal point must admit multipliers"
            if all(v >= 0 for v in lam):
                return QpResult(OPTIMAL, x, obj.value(x), active=list(active),
                                lam=lam, iterations=iterations)
            drop = min(i for i, v in zip(active, lam) if v < 0)
            active.remove(drop)
            continue

        # ratio test over rows outside the working set
        blocking = None
        best = None
        for i in range(poly.m):
            if i in active:
                continue
            wd = dot(poly.w_mat[i], step_dir)
            if wd > 0:
                ratio = (poly.w_rhs[i] - dot(poly.w_mat[i], x)) / wd
                if best is None or ratio < best:
                    best = ratio
                    blocking = i
        if full_step_len is not None and (best is None or best >= full_step_len):
            x = vec_add(x, step_dir)  # reach the subproblem optimum
            continue
        assert best is not None, "boundedness check excludes free descent rays"
        x = vec_add(x, vec_scale(best, step_dir))
        active.append(blocking)
        active.sort()


def _matrix_columns(a: Matrix):
    if not a:
        return []
    rows = len(a)
    cols = len(a[0])
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def qp_min_on_slice(
    obj: QpObjective,
    poly: Polyhedron,
    fixed: Vector,
    check_psd: bool = True,
    bounded_hint: bool = False,
) -> QpResult:
    """qp_min with the first len(fixed) coordinates pinned by equality rows."""
    if len(fixed) > poly.n:
        raise DimensionError("qp_min_on_slice: more pins than variables")
    return qp_min(
        obj,
        poly.with_first_coords_fixed(fixed),
        check_psd=check_psd,
        bounded_hint=bounded_hint,
    )


def check_kkt(obj: QpObjective, poly: Polyhedron, res: QpResult) -> bool:
    """Independent verification of an Optimal result's certificate."""
    if not res.is_optimal:
        return False
    x = res.x
    if not poly.contains(x):
        return False
    if obj.value(x) != res.value:
        return False
    lam = res.lam or []
    active = res.active or []
    if any(v < 0 for v in lam):
        return False
    stat = obj.gradient(x)
    for idx, v in zip(active, lam):
        stat = vec_add(stat, vec_scale(v, poly.w_mat[idx]))
        if v != 0 and dot(poly.w_mat[idx], x) != poly.w_rhs[idx]:
            return False  # complementarity
    return all(v == 0 for v in stat)
