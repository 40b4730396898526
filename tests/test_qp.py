"""Exact convex QP: small cases, oracles, and the integer active-set loop
against the Fraction loop it replaced.

``_reference_qp_min`` is the earlier active-set method on Fraction vectors,
with unboundedness decided up front by a recession-cone LP.  ``qp_min`` must
visit the same iterates, so Optimal and Infeasible results agree field for
field; every Optimal result's KKT certificate is checked independently.
``qp_min`` finds unboundedness in its own loop, so an Unbounded result must
match the reference's status and carry an exact certificate: a feasible
point and a ray r with W r <= 0, H r = 0 and h^T r = -1.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from miqcp.diophantine import AffineParam
from miqcp.errors import DimensionError, NotPsdError, PreconditionError
from miqcp.linalg import (
    dot,
    gauss_solve,
    identity,
    integer_row,
    inverse,
    mat,
    mat_mul,
    mat_vec,
    null_space,
    transpose,
    vec_add,
    vec_scale,
)
from miqcp.polyhedra import Polyhedron, lp_min
import miqcp.qp
from miqcp.qp import (
    QpObjective,
    QpResult,
    _ITERATION_CAP_FACTOR,
    check_kkt,
    qp_min,
    qp_min_on_slice,
    recession_cone,
)
from miqcp.rational import Rat, ZERO, ONE
from miqcp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED

from test_polyhedra import box
from test_simplex import _greedy_rank_rows


def test_qp_interior_minimum():
    obj = QpObjective(mat([[1]]), [Rat(0)])
    res = qp_min(obj, box([-1], [1]))
    assert res.status == OPTIMAL and res.x == [0] and res.value == 0
    assert check_kkt(obj, box([-1], [1]), res)


def test_qp_active_bound():
    obj = QpObjective(mat([[1]]), [Rat(0)])
    poly = Polyhedron(mat([[-1]]), [Rat(-1)])  # x >= 1
    res = qp_min(obj, poly)
    assert res.status == OPTIMAL and res.x == [1] and res.value == 1
    assert check_kkt(obj, poly, res)


def test_qp_linear_descent_unbounded():
    obj = QpObjective(mat([[0, 0], [0, 0]]), [Rat(0), Rat(-1)])
    poly = Polyhedron(mat([[0, -1]]), [Rat(0)])  # x2 >= 0
    res = qp_min(obj, poly)
    assert res.status == UNBOUNDED
    assert poly.contains(res.point)
    r = res.ray
    assert dot(obj.h_vec, r) == -1
    assert all(dot(row, r) <= 0 for row in poly.w_mat)
    # strictly decreasing along the ray
    vals = [obj.value([p + lam * d for p, d in zip(res.point, r)]) for lam in (1, 10, 100)]
    assert vals[0] > vals[1] > vals[2]


def test_qp_scalar_quadratic_stationary():
    # min x^2 - x over [0, 1] -> x = 1/2, value -1/4
    obj = QpObjective(mat([[1]]), [Rat(-1)])
    res = qp_min(obj, box([0], [1]))
    assert res.status == OPTIMAL
    assert res.x == [Rat(1, 2)] and res.value == Rat(-1, 4)


def test_qp_infeasible():
    obj = QpObjective(mat([[1]]), [Rat(0)])
    poly = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(-1)])
    assert qp_min(obj, poly).status == INFEASIBLE


def test_qp_rejects_non_psd():
    # the objective checks itself, so no non-PSD H reaches qp_min
    with pytest.raises(NotPsdError):
        QpObjective(mat([[-1]]), [Rat(0)])


def test_objective_rejects_asymmetric_or_misshapen_h():
    with pytest.raises(PreconditionError):
        QpObjective(mat([[1, 1], [0, 1]]), [Rat(0), Rat(0)])
    with pytest.raises(DimensionError):
        QpObjective(mat([[1, 0], [0, 1]]), [Rat(0)])
    with pytest.raises(DimensionError):
        QpObjective(mat([[1, 0]]), [Rat(0), Rat(0)])
    assert QpObjective([], []).n == 0


def test_qp_unconstrained_min():
    # min over R^2: H = I, h = (-2, 0): minimizer (1, 0), value -1
    obj = QpObjective(mat([[1, 0], [0, 1]]), [Rat(-2), Rat(0)])
    res = qp_min(obj, Polyhedron([], [], n=2))
    assert res.status == OPTIMAL
    assert res.x == [1, 0] and res.value == -1


def test_qp_unconstrained_unbounded_singular():
    obj = QpObjective(mat([[1, 0], [0, 0]]), [Rat(0), Rat(1)])
    res = qp_min(obj, Polyhedron([], [], n=2))
    assert res.status == UNBOUNDED
    assert res.ray == [0, -1]


def test_qp_ray_found_after_dropping_a_row():
    # min x - y over x, y >= 0 starts at the vertex (0, 0) with both rows
    # working; y >= 0 has a negative multiplier, and once it is dropped the
    # step along +y is a free descent ray
    obj = QpObjective(mat([[0, 0], [0, 0]]), [Rat(1), Rat(-1)])
    poly = Polyhedron(mat([[-1, 0], [0, -1]]), [Rat(0), Rat(0)])
    res = qp_min(obj, poly)
    assert res.status == UNBOUNDED and res.iterations == 2
    assert res.point == [0, 0] and res.ray == [0, 1]
    _assert_unbounded_certificate(obj, poly, res)


def test_qp_slice_rejects_too_many_pins():
    obj = QpObjective(mat([[1]]), [Rat(0)])
    with pytest.raises(DimensionError):
        qp_min_on_slice(obj, box([0], [1]), [Rat(0), Rat(0)])


def test_qp_slice_pins():
    obj = QpObjective(mat([[1, 0], [0, 1]]), [Rat(0), Rat(0)])
    poly = box([-2, -2], [2, 2])
    res = qp_min_on_slice(obj, poly, [Rat(0)])
    assert res.status == OPTIMAL and res.x == [0, 0] and res.value == 0

    res2 = qp_min_on_slice(obj, Polyhedron(mat([[1, 0]]), [Rat(1)]), [Rat(2)])
    assert res2.status == INFEASIBLE


def test_qp_slice_separable():
    # pin x1 = 1 in min (x1 - 1/2)^2 + x2^2 with x2 >= 3
    obj = QpObjective(mat([[1, 0], [0, 1]]), [Rat(-1), Rat(0)])
    # objective x1^2 - x1 + x2^2 equals (x1-1/2)^2 + x2^2 - 1/4
    poly = Polyhedron(mat([[0, -1]]), [Rat(-3)])
    res = qp_min_on_slice(obj, poly, [Rat(1)])
    assert res.status == OPTIMAL
    assert res.x == [1, 3]
    assert res.value == Rat(1, 4) + 9 - Rat(1, 4)  # shifted by the -1/4 constant


def _grid_min(obj, lo, hi, steps):
    n = obj.n
    best = None
    import itertools
    axes = []
    for i in range(n):
        axes.append([Rat(lo[i]) + (Rat(hi[i]) - Rat(lo[i])) * k / steps for k in range(steps + 1)])
    for point in itertools.product(*axes):
        v = obj.value(list(point))
        if best is None or v < best:
            best = v
    return best


def test_qp_matches_grid_refinement_on_boxes():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 2)
        l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        h_mat = mat_mul(transpose(l_mat), l_mat)
        h_vec = [Rat(rng.randint(-3, 3)) for _ in range(n)]
        obj = QpObjective(h_mat, h_vec)
        lo, hi = [-3] * n, [3] * n
        res = qp_min(obj, box(lo, hi))
        assert res.status == OPTIMAL
        steps = 24
        gm = _grid_min(obj, lo, hi, steps)
        # grid value within Lipschitz tolerance of the true min
        lip = sum(abs(v) for row in h_mat for v in row) * 12 + sum(abs(v) for v in h_vec)
        tol = lip * Rat(6, steps)
        assert gm >= res.value
        assert gm - res.value <= tol
        assert check_kkt(obj, box(lo, hi), res)


def _qp_oracle_by_active_set_enumeration(obj, poly):
    """Independent oracle: try every working set up to size n, keep the best
    point that is feasible and KKT-certified."""
    import itertools

    from miqcp.linalg import gauss_solve, identity, null_space, transpose

    n = obj.n
    best = None
    for k in range(0, n + 1):
        for subset in itertools.combinations(range(poly.m), k):
            w_a = [poly.w_mat[i] for i in subset]
            rhs_a = [poly.w_rhs[i] for i in subset]
            x_part = gauss_solve(w_a, rhs_a) if subset else [Rat(0)] * n
            if x_part is None:
                continue
            nsp = null_space(w_a) if subset else identity(n)
            kk = len(nsp[0]) if nsp else 0
            if kk:
                cols = [[nsp[i][j] for i in range(n)] for j in range(kk)]
                grad = obj.gradient(x_part)
                hr = [[sum(cols[i][a] * sum(obj.h_mat[a][b] * cols[j][b]
                                            for b in range(n))
                           for a in range(n)) for j in range(kk)] for i in range(kk)]
                gr = [sum(cols[j][a] * grad[a] for a in range(n)) for j in range(kk)]
                z = gauss_solve([[2 * v for v in row] for row in hr], [-v for v in gr])
                if z is None:
                    continue
                x = [x_part[i] + sum(cols[j][i] * z[j] for j in range(kk))
                     for i in range(n)]
            else:
                x = x_part
            if not poly.contains(x):
                continue
            grad_x = obj.gradient(x)
            lam = gauss_solve(transpose(w_a), [-v for v in grad_x]) if subset else (
                [] if all(v == 0 for v in grad_x) else None
            )
            if lam is None or any(v < 0 for v in lam):
                continue
            v = obj.value(x)
            if best is None or v < best:
                best = v
    return best


def test_qp_against_active_set_enumeration_oracle():
    rng = random.Random(99)
    solved = 0
    while solved < 40:
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        h_mat = mat_mul(transpose(l_mat), l_mat)
        h_vec = [Rat(rng.randint(-3, 3)) for _ in range(n)]
        obj = QpObjective(h_mat, h_vec)
        poly = box([-2] * n, [2] * n)
        if rng.random() < 0.5:
            extra = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            poly = poly.with_rows([extra], [Rat(rng.randint(0, 3))])
        res = qp_min(obj, poly)
        if res.status != OPTIMAL:
            continue
        oracle = _qp_oracle_by_active_set_enumeration(obj, poly)
        assert oracle is not None
        assert res.value == oracle
        solved += 1


def test_qp_randomized_kkt_certificates():
    rng = random.Random(21)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        h_mat = mat_mul(transpose(l_mat), l_mat)
        h_vec = [Rat(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
        obj = QpObjective(h_mat, h_vec)
        poly = box([-4] * n, [4] * n)
        extra = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, 2))]
        poly = poly.with_rows(extra, [Rat(rng.randint(0, 5)) for _ in extra])
        res = qp_min(obj, poly)
        if res.status == INFEASIBLE:
            continue
        assert res.status == OPTIMAL
        assert check_kkt(obj, poly, res)
        # sampled global-ness: random feasible perturbation directions
        for _ in range(10):
            d = [Rat(rng.randint(-2, 2), 4) for _ in range(n)]
            y = [a + b for a, b in zip(res.x, d)]
            if poly.contains(y):
                assert obj.value(y) >= res.value
        solved += 1


# ---------------------------------------------------------------------------
# the integer active-set loop against the Fraction loop it replaced

def descent_ray(obj, poly):
    """A ray with W r <= 0, H r = 0, h^T r <= -1, or None.

    Nonemptiness of this set characterizes unboundedness of the objective
    over a nonempty polyhedron.
    """
    n = obj.n
    rows, rhs = recession_cone(obj, poly)
    rhs[-1] = -ONE
    res = lp_min([ZERO] * n, Polyhedron(rows, rhs, n=n))
    if res.status == OPTIMAL:
        return res.x
    return None


def _reference_qp_min(obj, poly):
    """The active-set loop on Fraction vectors that qp_min replaced, with
    unboundedness decided first by the recession-cone LP."""
    n = obj.n

    feas = lp_min([ZERO] * n, poly)
    if feas.status == INFEASIBLE:
        return QpResult(INFEASIBLE)
    x = feas.x
    if n == 0:
        return QpResult(OPTIMAL, [], ZERO, active=[], lam=[], iterations=0)

    ray = descent_ray(obj, poly)
    if ray is not None:
        return QpResult(UNBOUNDED, point=x, ray=ray)

    active = _greedy_rank_rows(poly, x)
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


def _matrix_columns(a):
    if not a:
        return []
    rows = len(a)
    cols = len(a[0])
    return [[a[i][j] for i in range(rows)] for j in range(cols)]


def _rat(rng, big=False):
    den = rng.randint(1, 10**9) if big else rng.choice((1, 1, 1, 2, 3))
    return Fraction(rng.randint(-4 * den, 4 * den), den)


def _random_objective(rng, n, kind):
    """PSD H of full rank, singular (rank < n) or zero, with a random h."""
    big = rng.random() < 0.2
    if kind == "zero":
        h_mat = [[ZERO] * n for _ in range(n)]
    else:
        k = n if kind == "full" else rng.randint(1, max(1, n - 1))
        l_mat = [[_rat(rng, big) for _ in range(n)] for _ in range(k)]
        if kind == "full":
            for i in range(n):
                l_mat[i][i] += 5  # diagonally dominant, so nonsingular
        h_mat = mat_mul(transpose(l_mat), l_mat)
        if kind == "singular" and n == 1:
            h_mat = [[ZERO]]
    return QpObjective(h_mat, [_rat(rng, big) for _ in range(n)])


def _random_qp(rng):
    """(obj, poly) mixing the structures the active set meets.

    A box (half the time) bounds the region; on top come random rows, rows
    through a common vertex (more tight rows than n), equality pairs,
    duplicate and zero rows, and now and then a contradicting pair.
    """
    n = rng.randint(1, 4)
    obj = _random_objective(rng, n, rng.choice(("full", "full", "singular", "zero")))
    bounded = rng.random() < 0.5
    rows, rhs = [], []
    if bounded:
        r = rng.choice((1, 3, 10))
        b = box([-r] * n, [r] * n)
        rows, rhs = [row[:] for row in b.w_mat], list(b.w_rhs)
    vertex = [_rat(rng) for _ in range(n)]
    for _ in range(rng.randint(0, 6)):
        shape = rng.random()
        if shape < 0.35:
            row = [_rat(rng, rng.random() < 0.2) for _ in range(n)]
            rows.append(row)
            rhs.append(dot(row, vertex) + rng.choice((0, 1, Fraction(1, 3))))
        elif shape < 0.65:
            for _ in range(rng.randint(2, n + 2)):  # degenerate vertex
                row = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
                rows.append(row)
                rhs.append(dot(row, vertex))
        elif shape < 0.75:
            row = [_rat(rng) for _ in range(n)]  # equality pair
            rows += [row, [-v for v in row]]
            rhs += [dot(row, vertex), -dot(row, vertex)]
        elif shape < 0.85 and rows:
            i = rng.randrange(len(rows))  # duplicate
            rows.append(rows[i][:])
            rhs.append(rhs[i])
        elif shape < 0.95:
            rows.append([ZERO] * n)  # zero row
            rhs.append(Fraction(rng.randint(0, 2)))
        else:
            row = [_rat(rng) for _ in range(n)]  # contradicting pair
            rows += [row, [-v for v in row]]
            rhs += [ONE, -2 * ONE]
    return obj, Polyhedron(rows, rhs, n=n)


def _assert_unbounded_certificate(obj, poly, res):
    r = res.ray
    assert poly.contains(res.point)
    assert all(dot(row, r) <= 0 for row in poly.w_mat)
    assert all(v == 0 for v in mat_vec(obj.h_mat, r))
    assert dot(obj.h_vec, r) == -1


def _check_against_reference(obj, poly):
    got = qp_min(obj, poly)
    want = _reference_qp_min(obj, poly)
    if want.status == UNBOUNDED:
        assert got.status == UNBOUNDED
        _assert_unbounded_certificate(obj, poly, got)
    else:
        assert got == want
    if got.status == OPTIMAL:
        assert check_kkt(obj, poly, got)
    return got


def test_qp_min_matches_fraction_reference_on_random_qps():
    rng = random.Random(5)
    statuses = {}
    moved = 0
    late_rays = 0
    for _ in range(400):
        got = _check_against_reference(*_random_qp(rng))
        statuses[got.status] = statuses.get(got.status, 0) + 1
        moved += got.status == OPTIMAL and got.iterations > 2
        late_rays += got.status == UNBOUNDED and got.iterations >= 2
    assert statuses[OPTIMAL] >= 200 and statuses[INFEASIBLE] >= 10
    assert statuses[UNBOUNDED] >= 10 and moved >= 50
    assert late_rays >= 5


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _qp_case(draw):
    n = draw(st.integers(1, 3))
    l_mat = draw(st.lists(st.lists(_small, min_size=n, max_size=n), min_size=0, max_size=n))
    h_mat = mat_mul(transpose(l_mat), l_mat) if l_mat else [[ZERO] * n for _ in range(n)]
    h_vec = draw(st.lists(_small, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_small, min_size=n, max_size=n), max_size=6))
    rhs = draw(st.lists(_small, min_size=len(rows), max_size=len(rows)))
    return QpObjective(h_mat, h_vec), Polyhedron(rows, rhs, n=n)


@settings(max_examples=150, deadline=None)
@given(_qp_case())
def test_qp_min_matches_fraction_reference_property(case):
    obj, poly = case
    _check_against_reference(obj, poly)


def test_qp_min_iterate_stays_in_lowest_terms(monkeypatch):
    # A long walk over many facets: the integers handed to the elimination
    # kernel stay as small as the rational data they stand for, which an
    # iterate kept over an ever-growing denominator would break.
    sizes = []
    eliminate = miqcp.qp._eliminate

    def recording(rows):
        sizes.append(max((abs(v) for row in rows for v in row), default=0).bit_length())
        return eliminate(rows)

    monkeypatch.setattr(miqcp.qp, "_eliminate", recording)
    rng = random.Random(3)
    n = 3
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(40)]
    poly = box([-50] * n, [50] * n).with_rows(rows, [Fraction(40)] * len(rows))
    obj = QpObjective(identity(n), [Fraction(-400), Fraction(300), Fraction(-200)])
    res = qp_min(obj, poly)
    assert res.status == OPTIMAL and check_kkt(obj, poly, res)
    assert res.iterations >= 4
    assert max(sizes) <= 64


def test_map_through_matches_triple_loop():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        n_prime = rng.randint(0, n)
        obj = _random_objective(rng, n, rng.choice(("full", "singular", "zero")))
        m = [[_rat(rng, rng.random() < 0.3) for _ in range(n_prime)] for _ in range(n)]
        tau = AffineParam([_rat(rng) for _ in range(n)], m, 0, n_prime)
        mt = [[m[i][j] for i in range(n)] for j in range(n_prime)]
        h_cols = [[sum((obj.h_mat[a][b] * m[b][j] for b in range(n)), ZERO)
                   for j in range(n_prime)] for a in range(n)]
        h_new = [[sum((mt[i][a] * h_cols[a][j] for a in range(n)), ZERO)
                  for j in range(n_prime)] for i in range(n_prime)]
        lin = obj.gradient(tau.xbar)
        mapped, _ = obj.substitute(tau)
        assert mapped.h_mat == h_new
        assert mapped.h_vec == [dot(mt[i], lin) for i in range(n_prime)]


def test_substitute_gives_the_child_and_q_at_xbar():
    # tau of any rank: the constant from the integer products is q(xbar)
    rng = random.Random(1719)
    for _ in range(60):
        n = rng.randint(1, 4)
        n_prime = rng.randint(0, n)
        obj = _random_objective(rng, n, rng.choice(("full", "singular", "zero")))
        m = [[_rat(rng, rng.random() < 0.3) for _ in range(n_prime)] for _ in range(n)]
        tau = AffineParam([_rat(rng) for _ in range(n)], m, 0, n_prime)
        child, constant = obj.substitute(tau)
        assert constant == obj.value(tau.xbar)


def test_mapped_objective_definiteness():
    # M has full column rank, so a definite H maps to a definite M^T H M,
    # but not only then: H = diag(1, 0) is semidefinite and M = e_1 gives [1]
    obj = QpObjective(mat([[1, 0], [0, 0]]), [ZERO, ONE])
    assert not obj.definite
    child, _ = obj.substitute(AffineParam([ZERO, Rat(3)], mat([[1], [0]]), 0, 1))
    assert child.definite
    assert child == QpObjective(mat([[1]]), [ZERO])
    # while the identity map keeps it semidefinite
    assert not obj.substitute(AffineParam([ZERO, ZERO], identity(2), 0, 2))[0].definite
    # n' = 0 from either kind of parent: the empty objective, which is definite
    for parent in (obj, QpObjective(identity(2), [ONE, ZERO])):
        child, _ = parent.substitute(AffineParam([ONE, Rat(-1, 2)], [[], []], 0, 0))
        assert child == QpObjective([], []) and child.definite
        assert child.integer_form() == ([], [], 1)
    # a definite parent's child skips the LDL^T check, and equals, field and
    # flag, the objective the checked constructor builds from its fields
    rng = random.Random(1602)
    for _ in range(60):
        n = rng.randint(1, 4)
        parent = _random_objective(rng, n, "full")
        assert parent.definite
        k = rng.randint(1, n)
        m = [row[:k] for row in _random_objective(rng, n, "full").h_mat]  # full column rank
        child, _ = parent.substitute(AffineParam([_rat(rng, True) for _ in range(n)], m, 0, k))
        fresh = QpObjective(child.h_mat, child.h_vec)
        assert child == fresh and child.definite and fresh.definite
        assert child.integer_form() == fresh.integer_form()


def test_a_rank_deficient_map_gives_a_checked_child():
    # M = [[1, 1], [0, 0]] has rank 1 < n' = 2: the definite identity maps
    # to the singular H' = [[1, 1], [1, 1]], which is not definite
    parent = QpObjective(identity(2), [ZERO, ZERO])
    child, _ = parent.substitute(AffineParam([ZERO, ZERO], mat([[1, 1], [0, 0]]), 0, 2))
    assert child.h_mat == mat([[1, 1], [1, 1]])
    assert not child.definite
    with pytest.raises(PreconditionError):
        child.free_minimum()
    # definite parents under maps of any rank: the flag is the checked one
    rng = random.Random(2038)
    deficient = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        parent = _random_objective(rng, n, "full")
        k = rng.randint(1, n)
        m = [[_rat(rng, rng.random() < 0.5) for _ in range(k)] for _ in range(n)]
        if k > 1 and rng.random() < 0.5:
            for row in m:
                row[-1] = 2 * row[0]
        child, _ = parent.substitute(AffineParam([_rat(rng) for _ in range(n)], m, 0, k))
        assert child.definite == QpObjective(child.h_mat, child.h_vec).definite
        deficient += not child.definite
    assert deficient >= 5


def test_definite_flag_reads_the_psd_pivots():
    assert QpObjective(mat([[2, 1], [1, 2]]), [ZERO, ZERO]).definite
    assert not QpObjective(mat([[1, 1], [1, 1]]), [ZERO, ZERO]).definite  # rank 1
    assert not QpObjective(mat([[0, 0], [0, 0]]), [ONE, ZERO]).definite
    assert QpObjective([], []).definite  # n = 0: no pivot fails


def test_objective_memos_take_no_part_in_equality():
    obj = QpObjective(mat([[2, 1], [1, 2]]), [Rat(1, 2), Rat(-3)])
    (xb_num, xb_den), (hi_num, hi_den), value = obj.free_minimum()
    xbar = [Rat(v, xb_den) for v in xb_num]
    assert obj.gradient(xbar) == [0, 0] and value == obj.value(xbar)
    assert mat_mul(hi_num, obj.h_mat) == [[hi_den, 0], [0, hi_den]]
    h_int, lin, scale = obj.integer_form()
    assert (h_int, lin, scale) == ([[4, 2], [2, 4]], [1, -6], 2)
    fresh = QpObjective(mat([[2, 1], [1, 2]]), [Rat(1, 2), Rat(-3)])
    assert obj == fresh and repr(obj) == repr(fresh)
    with pytest.raises(PreconditionError):  # H singular: no free minimizer
        QpObjective(mat([[1, 1], [1, 1]]), [ZERO, ZERO]).free_minimum()


@st.composite
def _definite_objective(draw):
    """H = (L^T L + I) / k, definite, and h with denominators up to 5."""
    n = draw(st.integers(1, 4))
    l_mat = draw(st.lists(st.lists(_small, min_size=n, max_size=n), max_size=n))
    gram = mat_mul(transpose(l_mat), l_mat) if l_mat else [[ZERO] * n for _ in range(n)]
    k = draw(st.integers(1, 6))
    h_mat = [[Rat(v + (i == j), k) for j, v in enumerate(row)] for i, row in enumerate(gram)]
    h_vec = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=5),
                          min_size=n, max_size=n))
    return QpObjective(h_mat, [Rat(v) for v in h_vec])


@settings(max_examples=150, deadline=None)
@given(_definite_objective())
def test_free_minimum_matches_the_fraction_computation(obj):
    # xbar = -H^-1 h / 2, H^-1 and q(xbar) from Fraction inverse and
    # products, each vector or matrix as ints over its least denominator
    n = obj.n
    h_inv = inverse(obj.h_mat)
    xbar = [-v / 2 for v in mat_vec(h_inv, obj.h_vec)]
    flat, den = integer_row([v for row in h_inv for v in row])
    expected = (integer_row(xbar), ([flat[i * n:(i + 1) * n] for i in range(n)], den),
                obj.value(xbar))
    assert obj.free_minimum() == expected
