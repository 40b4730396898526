"""Exact convex quadratic programming over polyhedra.

Primal active-set method: iterate working sets of constraint rows, solve
each equality-constrained subproblem exactly in the null space of the
working rows, and accept only on a verified KKT certificate.  The same loop
certifies unboundedness: a zero-curvature descent step that no row blocks
is a ray r with W r <= 0, H r = 0 and h^T r < 0.  The loop runs on
Python ints: the rows are scaled to integers once per polyhedron and H and
h once per objective (each keeps its scaling), and the iterate is an int
vector over one positive denominator, so scalars are touched only through
``numerator``/``denominator`` and ``Rat(int, int)``.
Every integer system is the rational one with positively scaled rows and a
common column scale, so iterates, tie-breaks and certificates are those of
the rational method.  Worst-case exponential, which is acceptable at desk
scale; iteration counts are reported on every result for observability.

A slice x_I = v of P is a map, not a set of rows: `qp_min_on_slice` maps
P and q through tau(y) = (v, y), as a band child is mapped, and runs the
loop in the n - k free coordinates, so no pin is a constraint row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import List, Optional

from .diophantine import AffineParam
from .errors import DimensionError
from .linalg import (
    Matrix,
    Vector,
    _eliminate,
    _idot,
    dot,
    identity,
    integer_inverse,
    integer_row,
    ldlt_psd_check,
    lowest_terms,
    mat_vec,
    null_basis,
    quad_form,
    vec_add,
    vec_scale,
)
from .polyhedra import Polyhedron, integer_system, lp_min
from .rational import Rat, ZERO
from .simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

_ITERATION_CAP_FACTOR = 60


@dataclass(frozen=True)
class QpObjective:
    """x^T H x + h^T x with H symmetric positive semidefinite.

    Construction checks the shapes and runs the exact LDL^T test once, so
    every objective is PSD: a non-square or mis-sized H raises
    DimensionError, an asymmetric one PreconditionError, and one that is
    not PSD NotPsdError (with the failing pivot).  A reduced objective
    M^T H M is PSD whenever H is, so its check always passes; `substitute`
    skips it for the child of a definite objective.  The same pivots
    decide `definite`: H is positive definite iff every one is positive,
    and then q has one minimizer over any nonempty polyhedron.

    Two memos are computed on first use and, like `definite`, take no part
    in equality or repr: `integer_form` and, for a definite objective,
    `free_minimum`.
    """

    h_mat: Matrix
    h_vec: Vector
    definite: bool = field(init=False, repr=False, compare=False)
    _ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _free: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.h_vec)
        if len(self.h_mat) != n or any(len(row) != n for row in self.h_mat):
            raise DimensionError("QpObjective: H must be n x n with n = len(h)")
        pivots = ldlt_psd_check(self.h_mat)
        object.__setattr__(self, "definite", all(d > 0 for d in pivots))

    def integer_form(self) -> tuple:
        """(h_int, lin, scale): scale H = h_int and scale h = lin as ints,
        scale > 0 the lcm of all their denominators."""
        if self._ints is None:
            n = self.n
            flat, scale = integer_row([v for row in self.h_mat for v in row] + list(self.h_vec))
            object.__setattr__(
                self, "_ints", ([flat[i * n:(i + 1) * n] for i in range(n)], flat[n * n:], scale))
        return self._ints

    def free_minimum(self) -> tuple:
        """((xb_num, xb_den), (hi_num, hi_den), q(xbar)): the minimizer
        xbar = -H^-1 h / 2 of q over all of space and H^-1, each as ints
        over its least positive denominator, as `integer_row` gives them.
        H must be definite: a singular H raises PreconditionError.

        Computed from `integer_form` (s H = H_i, s h = h_i) by one
        `integer_inverse` (d H_i^-1 = I_d): H^-1 = s I_d / d,
        xbar = -I_d h_i / (2 d), and q(xbar) = h . xbar / 2, as
        2 H xbar = -h."""
        if self._free is None:
            h_int, lin, scale = self.integer_form()
            inv, d = integer_inverse(h_int)
            xb_num, xb_den = lowest_terms([-_idot(row, lin) for row in inv], 2 * d)
            flat, hi_den = lowest_terms([scale * v for row in inv for v in row], d)
            n = self.n
            hi_num = [flat[i * n:(i + 1) * n] for i in range(n)]
            q_bar = Rat(_idot(lin, xb_num), 2 * scale * xb_den)
            object.__setattr__(self, "_free", ((xb_num, xb_den), (hi_num, hi_den), q_bar))
        return self._free

    @property
    def n(self) -> int:
        return len(self.h_vec)

    def value(self, x: Vector):
        return quad_form(self.h_mat, x) + dot(self.h_vec, x)

    def gradient(self, x: Vector) -> Vector:
        return vec_add(vec_scale(2, mat_vec(self.h_mat, x)), self.h_vec)

    def is_zero_quadratic(self) -> bool:
        return all(v == 0 for row in self.h_mat for v in row)

    def is_zero(self) -> bool:
        """H = 0 and h = 0: q is identically zero."""
        return self.is_zero_quadratic() and not any(self.h_vec)

    def substitute(self, tau) -> tuple:
        """(child, q(xbar)): x = xbar + M x' turns q into child(x') + q(xbar).

        H' = M^T H M and h' = M^T (2 H xbar + h); the constant is
        q(xbar) = xbar^T H xbar + h^T xbar.  Computed on ints from this
        objective's `integer_form` (H_i, h_i, s) and tau's (M = M_i / m,
        xbar = X / x): H' = M_i^T H_i M_i / (s m^2),
        h' = M_i^T (2 H_i X + x h_i) / (s m x) and
        q(xbar) = (X^T H_i X + x h_i^T X) / (s x^2).
        Over the one denominator s m^2 x, divided by its gcd with every
        numerator, H' and h' are the child's `integer_form`, so the child
        keeps it.  When H is definite and M has full column rank (its
        integer columns have n' pivots), M^T H M is definite: such a child
        skips the LDL^T check.  Any other child runs it, as a rank-deficient
        M gives a singular H' and a semidefinite H may still give a definite
        child (H = diag(1, 0), M = e_1).
        """
        h_int, lin, scale = self.integer_form()
        (cols, m_den), (x_num, x_den) = tau.integer_form()
        hm = [[_idot(row, col) for row in h_int] for col in cols]  # columns of H_i M_i
        h_x = [_idot(row, x_num) for row in h_int]
        grad = [2 * u + x_den * v for u, v in zip(h_x, lin)]
        constant = Rat(_idot(x_num, h_x) + x_den * _idot(lin, x_num), scale * x_den * x_den)
        h_num = [[x_den * _idot(a, b) for b in hm] for a in cols]
        lin_num = [m_den * _idot(a, grad) for a in cols]
        k = len(cols)
        flat, den = lowest_terms([v for row in h_num for v in row] + lin_num,
                                 scale * m_den * m_den * x_den)
        h_num, lin_num = [flat[i * k:(i + 1) * k] for i in range(k)], flat[k * k:]
        h_mat = [[Rat(v, den) for v in row] for row in h_num]
        h_vec = [Rat(v, den) for v in lin_num]
        if self.definite and len(_eliminate(cols, forward_only=True)[1]) == len(cols):
            out = object.__new__(QpObjective)
            for name, value in (("h_mat", h_mat), ("h_vec", h_vec), ("definite", True),
                                ("_free", None)):
                object.__setattr__(out, name, value)
        else:
            out = QpObjective(h_mat, h_vec)
        object.__setattr__(out, "_ints", (h_num, lin_num, den))
        return out, constant


def objective_key(obj: QpObjective) -> tuple:
    """(s, h_i..., H_i rows...): `integer_form` in one flat tuple.  Equal
    for two objectives exactly when their H and h are equal, s being the
    least common denominator."""
    h_int, lin, scale = obj.integer_form()
    return (scale, *lin, *chain.from_iterable(h_int))


@dataclass
class QpResult:
    status: str
    x: Optional[Vector] = None
    value: Optional[Rat] = None
    point: Optional[Vector] = None      # feasible point on unbounded results
    ray: Optional[Vector] = None        # W r <= 0, H r = 0, h^T r = -1
    active: Optional[List[int]] = None  # working set of the KKT certificate
    lam: Optional[Vector] = None        # multipliers for the active rows
    iterations: int = 0

    @property
    def is_optimal(self):
        return self.status == OPTIMAL


def recession_cone(obj: QpObjective, poly: Polyhedron) -> tuple:
    """(rows, rhs) of {r : W r <= 0, H r = 0, h^T r <= 0}: +-H_i r <= 0 for
    each nonzero row of H, and h^T r <= 0 last."""
    rows = [row[:] for row in poly.w_mat]
    for hrow in obj.h_mat:
        if any(v != 0 for v in hrow):
            rows += [hrow[:], [-v for v in hrow]]
    rows.append(obj.h_vec[:])
    return rows, [ZERO] * len(rows)


def _independent_active_rows(rows: List[List[int]], x_num: List[int], x_den: int) -> List[int]:
    """The tight rows, in order, that are independent of the rows chosen before.

    rows are integer [A_i | b_i] (see `polyhedra.integer_system`), the
    point is x_num / x_den.  One incremental pass: each tight row is
    reduced against the echelon rows already chosen and kept if anything
    is left.
    """
    chosen = []
    echelon = []  # (pivot column, primitive integer row)
    for i, full in enumerate(rows):
        row = full[:-1]
        if _idot(row, x_num) != full[-1] * x_den:
            continue
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


def _kkt_multipliers(working: List[List[int]], grad: List[int]) -> Optional[tuple]:
    """(mult, d) with d > 0 and sum_j mult[j] working[j] = -d grad: the
    multipliers of the working rows at a point, as ints over d, or None
    when grad is not in the span of those rows.  The rows must be
    independent, so the multipliers are unique.  At x = x_num / x_den with
    working rows ells[i] W_i and grad = scale x_den (2 H x + h), as in
    `qp_min`, row i's multiplier is ells[i] mult / (d scale x_den).
    """
    m_a = len(working)
    work, pivots, _, d, _, _ = _eliminate(
        [list(col) + [-g] for col, g in zip(zip(*working), grad)])
    if pivots and pivots[-1] == m_a:
        return None
    mult = [0] * m_a
    for row, c in zip(work, pivots):
        mult[c] = row[m_a] if d > 0 else -row[m_a]
    return mult, abs(d)


def qp_min(obj: QpObjective, poly: Polyhedron) -> QpResult:
    """Exact minimum of x^T H x + h^T x over {W x <= w}.

    Returns Infeasible, Optimal with an exact KKT certificate, or Unbounded
    with a feasible point and a ray r (W r <= 0, H r = 0, h^T r = -1).  The
    active-set loop finds the ray itself: when the step of a working set is
    a null direction z of the reduced Hessian with descent and no row
    outside the set blocks it, the working rows give W z = 0 and every
    other row has rate <= 0, z^T H z = 0 gives H z = 0 (H is PSD), and the
    reduced gradient gives h^T z < 0.

    The loop starts at the vertex of the simplex start that `lp_min`
    keeps on the polyhedron: x = 0 when every row holds there, and a
    child's parent's vertex when the new rows hold there.
    """
    if obj.n != poly.n:
        raise DimensionError("qp_min: objective and polyhedron dimensions differ")
    n = obj.n
    feas = lp_min([ZERO] * n, poly)
    if feas.status == INFEASIBLE:
        return QpResult(INFEASIBLE)

    # Integer data, kept on poly and obj: rows[i] = ells[i] [W_i | w_i];
    # scale H = h_int and scale h = lin.  The iterate is x = x_num / x_den
    # in lowest terms, and grad = scale x_den (2 H x + h).  Every system
    # below is the rational one with rows scaled by positive factors and
    # its columns by a common one, so pivots, solutions and tie-breaks are
    # those of the Fraction loop.
    rows, ells = integer_system(poly)
    a_rows = [row[:-1] for row in rows]
    x_num, x_den = integer_row(feas.x)
    if n == 0:
        return QpResult(OPTIMAL, [], ZERO, active=[], lam=[], iterations=0)
    h_int, lin, scale = obj.integer_form()
    h_x = [_idot(row, x_num) for row in h_int]
    grad = [2 * u + x_den * c for u, c in zip(h_x, lin)]

    active = _independent_active_rows(rows, x_num, x_den)
    basis_for = None  # the working set that basis and red_hess belong to
    iterations = 0
    cap = _ITERATION_CAP_FACTOR * (poly.m + n + 10)
    while True:
        iterations += 1
        if iterations > cap:
            raise RuntimeError("qp_min: active-set iteration cap exceeded")
        if active != basis_for:
            basis_for = list(active)
            # the working-set rows are independent, so n of them leave no
            # freedom; scaling the basis by null_basis's d, of either sign,
            # changes neither the step nor the descent orientation
            basis = [] if len(active) == n else null_basis([a_rows[i] for i in active], n)[0]
            h_basis = [[_idot(row, z) for row in h_int] for z in basis]
            red_hess = [[2 * _idot(z, hz) for hz in h_basis] for z in basis]

        # the move is x + t step / step_den; step_den is None for a ray
        step = None
        step_den = None
        if basis:
            k = len(basis)
            red_grad = [_idot(z, grad) for z in basis]
            work, pivots, _, d, _, _ = _eliminate(
                [hrow + [-g] for hrow, g in zip(red_hess, red_grad)])
            if pivots and pivots[-1] == k:
                # relaxed subproblem unbounded: move along a null direction
                # of the reduced Hessian with nonzero reduced gradient
                for col in null_basis(red_hess, k)[0]:
                    t = _idot(red_grad, col)
                    if t != 0:
                        coef = col if t < 0 else [-v for v in col]
                        break
                else:
                    raise AssertionError("unbounded subproblem needs a descent null direction")
                step = [_idot(zrow, coef) for zrow in zip(*basis)]
            else:
                coef = [0] * k
                for row, c in zip(work, pivots):
                    coef[c] = row[k]
                cand = [_idot(zrow, coef) for zrow in zip(*basis)]
                if any(cand):
                    # the subproblem optimum is x + cand / (d x_den)
                    step = cand if d > 0 else [-v for v in cand]
                    step_den = abs(d) * x_den

        if step is None:
            # x is optimal for the working set; check multipliers
            if not active:
                if any(grad):
                    raise AssertionError("stationarity must hold with empty working set")
                return _optimal(x_num, x_den, h_x, lin, scale, [], [], iterations)
            solved = _kkt_multipliers([a_rows[i] for i in active], grad)
            if solved is None:
                raise AssertionError("EQP-optimal point must admit multipliers")
            # lam_i = ells[i] mult_i / (d scale x_den)
            mult, d = solved
            drop = next((i for i, v in zip(active, mult) if v < 0), None)
            if drop is None:
                lam_den = d * scale * x_den
                lam = [Rat(ells[i] * v, lam_den) for i, v in zip(active, mult)]
                return _optimal(x_num, x_den, h_x, lin, scale, list(active), lam, iterations)
            active.remove(drop)
            continue

        # ratio test over rows outside the working set: the slack of row i
        # over its step rate is (b_i x_den - A_i x_num) / (A_i step), up to
        # a factor common to all rows; ties keep the first row
        blocking = None
        best = None  # (num, den) with den > 0
        in_active = set(active)
        for i, row in enumerate(a_rows):
            if i in in_active:
                continue
            rate = _idot(row, step)
            if rate > 0:
                slack = rows[i][-1] * x_den - _idot(row, x_num)
                if best is None or slack * best[1] < best[0] * rate:
                    best = (slack, rate)
                    blocking = i
        if step_den is not None and (best is None or best[0] * step_den >= best[1] * x_den):
            # reach the subproblem optimum
            x_num = [u * step_den + v * x_den for u, v in zip(x_num, step)]
            x_den *= step_den
        else:
            if best is None:
                # no row blocks the ray step: H step = 0, so
                # lin.step = scale h.step < 0 and the ray has h.ray = -1
                h_step = _idot(lin, step)
                return QpResult(
                    UNBOUNDED,
                    point=[Rat(v, x_den) for v in x_num],
                    ray=[Rat(scale * v, -h_step) for v in step],
                    iterations=iterations,
                )
            slack, rate = best
            x_num = [u * rate + slack * v for u, v in zip(x_num, step)]
            x_den *= rate
            active.append(blocking)
            active.sort()
        x_num, x_den = lowest_terms(x_num, x_den)
        h_x = [_idot(row, x_num) for row in h_int]
        grad = [2 * u + x_den * c for u, c in zip(h_x, lin)]


def _optimal(x_num, x_den, h_x, lin, scale, active, lam, iterations) -> QpResult:
    """The Optimal result at x = x_num / x_den, with h_x = scale H x_num."""
    value = Rat(_idot(x_num, h_x) + x_den * _idot(lin, x_num), scale * x_den * x_den)
    x = [Rat(v, x_den) for v in x_num]
    return QpResult(OPTIMAL, x, value, active=active, lam=lam, iterations=iterations)


def qp_min_on_slice(obj: QpObjective, poly: Polyhedron, fixed: Vector) -> QpResult:
    """The minimum of q over the slice {x in P : x_i = v_i, i < k} of P at
    v = fixed, run in the slice's free coordinates.

    The slice is the image of tau(y) = (v, y): xbar = (v, 0), M = [0; I],
    n' = n - k, p' = 0.  P is mapped through tau (`map_through`: a row
    that is constant on the slice is dropped when it holds and kept as a
    0 <= negative witness when it does not) and q is substituted
    (`substitute`), as for a band child, and `qp_min` runs on that child
    in n - k variables.  Its result is lifted: an optimum y* gives
    x = (v, y*) with value child(y*) + q(xbar); an unbounded child's point
    y and ray r give (v, y) and (0, r), a ray of q over P since
    H (0, r) = 0 and h . (0, r) = h' . r = -1.  k = 0 is `qp_min` on P
    itself and k = n an n = 0 child.  `active` and `lam` are None: they
    would index the child's rows.  More pins than coordinates, or an
    objective of another dimension, raise DimensionError.
    """
    n, k = poly.n, len(fixed)
    if k > n or obj.n != n:
        raise DimensionError("qp_min_on_slice: needs len(fixed) <= n = obj.n")
    free = n - k
    tau = AffineParam([Rat(v) for v in fixed] + [ZERO] * free,
                      [[ZERO] * free for _ in range(k)] + identity(free), 0, free)
    child, constant = obj.substitute(tau)
    res = qp_min(child, poly.map_through(tau))
    if res.status == OPTIMAL:
        return QpResult(OPTIMAL, tau.xbar[:k] + res.x, res.value + constant,
                        iterations=res.iterations)
    if res.status == UNBOUNDED:
        return QpResult(UNBOUNDED, point=tau.xbar[:k] + res.point,
                        ray=[ZERO] * k + res.ray, iterations=res.iterations)
    return res


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
