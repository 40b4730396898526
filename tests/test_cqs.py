import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from miqcp.cqs import (
    EMPTY_SET,
    FULL_DIM,
    LOW_DIM_AFFINE,
    LOW_DIM_FACE,
    LOW_DIM_POLY,
    ConvexQuadraticSet,
    classify_fulldim,
    fulldim_reduce_cqs,
    inner_polytope,
    quadratic_feasible_point,
    set_feasible_point,
    stationary_affine_subspace,
    tangent_face,
)
from miqcp.diophantine import EMPTY, AffineParam, Empty
from miqcp.errors import DimensionError, PreconditionError
from miqcp.linalg import (
    det, dot, gauss_solve, identity, mat, mat_mul, mat_vec, null_space, rank, transpose,
)
import miqcp.cli
import miqcp.cqs
import miqcp.polyhedra
from miqcp.polyhedra import (
    Polyhedron,
    fulldim_reduce_polyhedron,
    integer_system,
    is_fulldim_polyhedron,
    lp_min,
)
from miqcp.qp import QpObjective, qp_min
from miqcp.rational import ONE, Rat, is_integral, rfloor
from miqcp.simplex import OPTIMAL, UNBOUNDED
from miqcp.solver import _milp_cqs, optimize

from test_polyhedra import box, enumerate_vertices


def cqs(poly, h_rows, h_vec, eta):
    return ConvexQuadraticSet(poly, QpObjective(mat(h_rows), [Rat(v) for v in h_vec]), Rat(eta))


def test_stationary_subspace_identity_hessian():
    rows, rhs = stationary_affine_subspace(QpObjective(mat([[1, 0], [0, 1]]), [Rat(0), Rat(0)]))
    x = gauss_solve(rows, rhs)
    assert x == [0, 0]


def test_stationary_subspace_offset():
    rows, rhs = stationary_affine_subspace(QpObjective(mat([[1, 0], [0, 1]]), [Rat(-2), Rat(0)]))
    assert gauss_solve(rows, rhs) == [1, 0]


def test_stationary_subspace_line():
    rows, rhs = stationary_affine_subspace(QpObjective(mat([[1, 0], [0, 0]]), [Rat(0), Rat(0)]))
    # x1 = 0 is forced, x2 free
    assert gauss_solve(rows, rhs) == [0, 0]
    from miqcp.linalg import null_space
    ns = null_space(rows)
    assert len(ns[0]) == 1


def test_tangent_face_unit_disc_against_halfplane():
    # Q = {x1 >= 1, x1^2 <= 1} in R^2 with a box on x2: face is x1 = 1
    poly = Polyhedron(mat([[-1, 0], [0, 1], [0, -1]]), [Rat(-1), Rat(5), Rat(5)])
    q = cqs(poly, [[1, 0], [0, 0]], [0, 0], 1)
    face = tangent_face(q)
    # row x1 >= 1 got tightened: face contains its negation x1 <= 1
    assert is_fulldim_polyhedron(poly)
    assert not is_fulldim_polyhedron(face)
    res_min = lp_min([Rat(1), Rat(0)], face)
    res_max = lp_min([Rat(-1), Rat(0)], face)
    assert res_min.value == 1 and -res_max.value == 1


def test_tangent_face_shifted_parabola():
    # Q = {x1 >= 2, (x1-1)^2 <= 1}: q(x) = x1^2 - 2x1, eta = 0; face is x1 = 2
    poly = Polyhedron(mat([[-1]]), [Rat(-2)])
    q = cqs(poly, [[1]], [-2], 0)
    face = tangent_face(q)
    res_min = lp_min([Rat(1)], face)
    res_max = lp_min([Rat(-1)], face)
    assert res_min.value == 2 and -res_max.value == 2


def test_tangent_face_precondition_violation():
    # min over P is strictly below eta: precondition broken
    q = cqs(box([0], [1]), [[1]], [0], 1)
    with pytest.raises(PreconditionError):
        tangent_face(q)


def test_tangent_face_needs_full_gradient():
    # H singular and h nonzero on its null space: the supporting hyperplane
    # must use 2Hx + h, not 2Hx alone
    poly = Polyhedron(mat([[-1, 0], [0, -1]]), [Rat(-1), Rat(0)])  # x1 >= 1, x2 >= 0
    q = cqs(poly, [[1, 0], [0, 0]], [0, 1], 1)  # q = x1^2 + x2, eta = 1 = min over P
    face = tangent_face(q)
    # Q = {(1, 0)}: both rows are tight on the face
    pts = enumerate_vertices(face)
    for v in pts:
        assert v == [1, 0]
    # sampled containment: every point of Q satisfies the face's equalities
    assert face.contains([Rat(1), Rat(0)])


def test_inner_polytope_interval():
    q = cqs(box([-1], [1]), [[1]], [0], 1)
    pol = inner_polytope(q)
    assert is_fulldim_polyhedron(pol)
    for v in enumerate_vertices(pol):
        assert q.contains(v)


def test_inner_polytope_inactive_quadratic_box():
    q = cqs(box([0, 0], [1, 1]), [[1, 0], [0, 1]], [0, 0], 10)
    pol = inner_polytope(q)
    assert is_fulldim_polyhedron(pol)
    for v in enumerate_vertices(pol):
        assert q.contains(v)


def test_inner_polytope_precondition():
    # eta equals the min: no interior
    q = cqs(box([0], [1]), [[1]], [0], 0)
    with pytest.raises(PreconditionError):
        inner_polytope(q)


def test_inner_polytope_rejects_a_flat_polyhedron():
    # [0, 1]^2 cut by x1 = 0 is flat, though min q over it (0) is below eta
    flat = box([0, 0], [1, 1]).with_equality([Rat(1), Rat(0)], Rat(0))
    q = cqs(flat, [[1, 0], [0, 1]], [0, 0], 9)
    with pytest.raises(PreconditionError):
        inner_polytope(q)
    # the zero-quadratic branch checks the same probe
    with pytest.raises(PreconditionError):
        inner_polytope(cqs(flat, [[0, 0], [0, 0]], [0, 0], 9))


def test_inner_polytope_of_a_zero_set_is_its_polyhedron():
    # q = 0 makes Q = P, so the sandwich seeds and anchors in P itself, on
    # the probe and phase 1 that P keeps, with no cube cut off it
    poly = box([0, -2], [3, 5], p=1).with_rows([[Rat(1), Rat(1)]], [Rat(6)])
    q = cqs(poly, [[0, 0], [0, 0]], [0, 0], 0)
    assert inner_polytope(q) is q.poly
    assert classify_fulldim(q).polytope is q.poly


def test_inner_polytope_unbounded_min_walks_the_ray():
    # min of x1 over {x1 free} is -inf; the witness is a point on qp_min's
    # certified ray, so no search box is needed
    poly = Polyhedron([], [], n=1)
    q = cqs(poly, [[0]], [1], 0)
    assert qp_min(q.obj, poly).status == UNBOUNDED
    pol = inner_polytope(q)
    assert is_fulldim_polyhedron(pol)
    for v in enumerate_vertices(pol):
        assert q.contains(v)


def _cube_in_level(q, xbar, rad):
    """The vertex loop: q on Fractions at all 2^n vertices of the cube
    xbar +- rad is at most eta (the maximum of a convex q over a box sits
    at a vertex, so this decides the whole cube)."""
    return all(q.obj.value([x + s * rad for x, s in zip(xbar, signs)]) <= q.eta
               for signs in itertools.product((-1, 1), repeat=q.n))


def _reference_enlarge_cube(q, xbar, delta):
    """The exact vertex search `_enlarge_cube` replaced: binary search of
    delta 2^k <= 1 and the dyadic shrink, each cube decided by
    `_cube_in_level`.  It certifies the largest radius a search over those
    cubes can, so it bounds `_enlarge_cube` from above."""
    if delta >= 1:
        return delta
    inv = ONE / delta
    k_max = rfloor(inv).bit_length() - 1
    if k_max <= 0:
        return delta
    lo_k, hi_k = 0, k_max
    while lo_k < hi_k:
        mid = (lo_k + hi_k + 1) // 2
        if _cube_in_level(q, xbar, delta * (1 << mid)):
            lo_k = mid
        else:
            hi_k = mid - 1
    best = delta * (1 << lo_k)
    # shrink to a nearby dyadic radius: containment is monotone, so any
    # radius in [best/2, best] is still certified, and a small denominator
    # keeps every downstream subproblem small
    inv_best = ONE / best
    j = max(1, rfloor(inv_best).bit_length() + 1)
    dyadic = Rat(rfloor(best * (1 << j)), 1 << j)
    if dyadic > 0 and _cube_in_level(q, xbar, dyadic):
        return dyadic
    return best


def _is_dyadic(v):
    d = v.denominator
    return d & (d - 1) == 0


def _cube_case(rng, n, kind, far):
    """(q, xbar, delta): a seeded quadratic of the given kind ("pd",
    "singular" or "linear"), a witness xbar with q(xbar) < eta whose
    entries carry large denominators (and sit near 10^12 when far), and a
    radius delta < 1/2 that the search can grow."""
    if kind == "linear":
        h_mat = [[Rat(0)] * n for _ in range(n)]
    else:
        rank = n if kind == "pd" else rng.randint(0, n - 1)
        l_mat = [[Rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rank)]
        h_mat = mat_mul(transpose(l_mat), l_mat) if rank else [[Rat(0)] * n for _ in range(n)]
        if kind == "pd":
            h_mat = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(h_mat)]
    h_vec = [Rat(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n)]
    obj = QpObjective(h_mat, h_vec)
    offset = 10 ** 12 if far else 0
    xbar = [offset + Rat(rng.randint(-10 ** 6, 10 ** 6), rng.randint(10 ** 8, 10 ** 9))
            for _ in range(n)]
    slack = Rat(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 4))
    eta = obj.value(xbar) + slack
    scale = 1 + sum(abs(v) for v in obj.gradient(xbar)) + n * sum(abs(v) for row in h_mat for v in row)
    delta = min(Rat(1, 3), slack / (scale * rng.randint(1, 1 << 20)))
    q = ConvexQuadraticSet(Polyhedron([], [], n=n), obj, eta)
    return q, xbar, delta


def test_enlarge_cube_matches_vertex_reference():
    # the one-pair certificate is sound: every vertex of the returned cube
    # is in the level set, and it never certifies more than the exact
    # vertex search; it keeps the floor (up to the dyadic shrink, which
    # keeps more than half of any radius) and grows past it on some cases
    rng = random.Random(1212)
    grown = 0
    for n in range(1, 7):
        for kind in ("pd", "singular", "linear"):
            for far in (False, True):
                for _ in range(3):
                    q, xbar, delta = _cube_case(rng, n, kind, far)
                    got = miqcp.cqs._enlarge_cube(q, xbar, delta)
                    assert _cube_in_level(q, xbar, got)
                    assert got <= _reference_enlarge_cube(q, xbar, delta)
                    assert got > delta / 2 and _is_dyadic(got)
                    grown += got > delta
    assert grown > 0  # the search did certify larger cubes, not only the floor


def _aligned_case(rng, n, kind):
    """(q, xbar, s): a seeded quadratic of the given kind whose gradient g
    at xbar and Hessian H have the sign pattern of the sign vector s
    (s_i g_i >= 0 and s_i s_j H_ij >= 0), so s attains both one-pair
    bounds, g.s = ||g||_1 and s^T H s = sum |H_ij|; eta puts the vertex
    xbar + s/16 exactly on q = eta."""
    s = [rng.choice((-1, 1)) for _ in range(n)]
    if kind == "linear":
        a_mat = [[Rat(0)] * n for _ in range(n)]
    else:
        rank = n if kind == "pd" else rng.randint(0, n - 1)
        l_mat = [[Rat(rng.randint(0, 3)) for _ in range(n)] for _ in range(rank)]
        a_mat = mat_mul(transpose(l_mat), l_mat) if rank else [[Rat(0)] * n for _ in range(n)]
        if kind == "pd":
            a_mat = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(a_mat)]
    h_mat = [[s[i] * s[j] * a_mat[i][j] for j in range(n)] for i in range(n)]
    xbar = [Rat(rng.randint(-10 ** 6, 10 ** 6), rng.randint(10 ** 8, 10 ** 9)) for _ in range(n)]
    g = [si * Rat(rng.randint(1, 50), rng.randint(1, 9)) for si in s]
    h_vec = [gi - 2 * hx for gi, hx in zip(g, mat_vec(h_mat, xbar))]
    obj = QpObjective(h_mat, h_vec)
    rad = Rat(1, 16)
    eta = obj.value(xbar) + rad * sum(abs(v) for v in g) + rad * rad * sum(
        abs(v) for row in h_mat for v in row)
    return ConvexQuadraticSet(Polyhedron([], [], n=n), obj, eta), xbar, s


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_enlarge_cube_accepts_a_vertex_on_the_level(n):
    # the one-pair bound is tight at radius 2^-4 (a vertex of that cube has
    # q = eta), and the floor 2^-10 is dyadic, so that radius is certified
    # only if the comparison accepts equality
    rng = random.Random(n)
    rad = Rat(1, 16)
    for kind in ("pd", "singular", "linear"):
        q, xbar, s = _aligned_case(rng, n, kind)
        assert q.obj.value([x + si * rad for x, si in zip(xbar, s)]) == q.eta
        delta = Rat(1, 1 << 10)
        assert miqcp.cqs._enlarge_cube(q, xbar, delta) == rad
        assert _reference_enlarge_cube(q, xbar, delta) == rad


def test_enlarge_cube_early_returns():
    # at n = 13 the cube grows from the floor to the cap 1
    # (13 rho^2 <= 1000); a floor >= 1 is already the cap
    q13 = cqs(Polyhedron([], [], n=13), [[Rat(i == j) for j in range(13)] for i in range(13)],
              [0] * 13, 1000)
    assert miqcp.cqs._enlarge_cube(q13, [Rat(0)] * 13, Rat(1, 1024)) == 1
    q2 = cqs(Polyhedron([], [], n=2), [[1, 0], [0, 1]], [0, 0], 1000)
    for delta in (Rat(1), Rat(3, 2)):
        assert miqcp.cqs._enlarge_cube(q2, [Rat(0)] * 2, delta) is delta


def _windowed(n):
    """perfbench's p = 2, box radius 10 instance `_windowed` at dimension
    n and seed 2024, loaded from its file and parsed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("_perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    entry = module._windowed(random.Random(2024), n, 2, 10, f"windowed_n{n}")
    return miqcp.cli.parse_instance(entry["text"]).micqp


def test_optimize_past_twelve_continuous_dimensions():
    # the inner cube is certified in O(n^2) work at any n, so the sandwich
    # grows from a cube above the Lipschitz floor and n = 13 takes a
    # fraction of a second
    res = optimize(_windowed(13))
    assert res.status == "optimal"
    assert res.value == Rat(-204477973705918201, 176672519347513)


def test_inner_polytope_grows_past_the_floor_at_sixteen_dimensions(monkeypatch):
    inst = _windowed(16)
    q = ConvexQuadraticSet(inst.poly, inst.obj, qp_min(inst.obj, inst.poly).value + 1)
    calls = []
    enlarge = miqcp.cqs._enlarge_cube

    def recording(q_arg, xbar, delta):
        rad = enlarge(q_arg, xbar, delta)
        calls.append((xbar, delta, rad))
        return rad

    monkeypatch.setattr(miqcp.cqs, "_enlarge_cube", recording)
    inner_polytope(q)
    [(xbar, delta, rad)] = calls
    assert rad > delta
    rng = random.Random(16)
    for _ in range(64):
        assert q.contains([x + rng.choice((-1, 1)) * rad for x in xbar])


@pytest.mark.parametrize("n", [2, 6])
def test_enlarge_cube_evaluates_q_once(monkeypatch, n):
    # the search decides every radius on integer pairs: q is evaluated at
    # xbar only, never at a cube vertex
    q, xbar, delta = _cube_case(random.Random(n), n, "pd", far=False)
    calls = []
    value = QpObjective.value

    def counted(self, x):
        calls.append(x)
        return value(self, x)

    monkeypatch.setattr(QpObjective, "value", counted)
    got = miqcp.cqs._enlarge_cube(q, xbar, delta)
    assert got > delta  # the search ran and grew the cube
    assert len(calls) <= 1


def test_classify_fulldim_unbounded_min_over_orthant():
    # P = {x, y >= 0} and q = y^2 - x <= 1: q falls without bound along x
    poly = Polyhedron(mat([[-1, 0], [0, -1]]), [Rat(0), Rat(0)])
    q = cqs(poly, [[0, 0], [0, 1]], [-1, 0], 1)
    res = qp_min(q.obj, poly)
    assert res.status == UNBOUNDED and res.ray == [1, 0]
    cert = classify_fulldim(q)
    assert cert.tag == FULL_DIM
    assert is_fulldim_polyhedron(cert.polytope)
    vertices = enumerate_vertices(cert.polytope)
    assert len(vertices) == 4
    for v in vertices:
        assert q.contains(v)


def test_classify_full_dim_disc():
    q = cqs(box([-2, -2], [2, 2]), [[1, 0], [0, 1]], [0, 0], 1)
    cert = classify_fulldim(q)
    assert cert.tag == FULL_DIM
    assert is_fulldim_polyhedron(cert.polytope)
    for v in enumerate_vertices(cert.polytope):
        assert q.contains(v)


def test_classify_point_quadratic():
    # x1^2 + x2^2 <= 0 forces the origin
    q = cqs(box([-5, -5], [5, 5]), [[1, 0], [0, 1]], [0, 0], 0)
    cert = classify_fulldim(q)
    assert cert.tag == LOW_DIM_AFFINE
    assert gauss_solve(cert.eq_rows, cert.eq_rhs) == [0, 0]


def test_classify_tangent_face():
    poly = Polyhedron(mat([[-1, 0], [0, 1], [0, -1]]), [Rat(-1), Rat(5), Rat(5)])
    q = cqs(poly, [[1, 0], [0, 0]], [0, 0], 1)
    cert = classify_fulldim(q)
    assert cert.tag == LOW_DIM_FACE
    assert not is_fulldim_polyhedron(cert.face)


def test_classify_empty():
    q = cqs(box([0], [1]), [[1]], [0], -1)
    assert classify_fulldim(q).tag == EMPTY_SET


def test_classify_consistency_with_characterization():
    # FullDim iff P full-dim and min over P < eta
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(1, 2)
        poly = box([-2] * n, [2] * n)
        if rng.random() < 0.4:
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            poly = poly.with_rows([row], [Rat(rng.randint(-1, 3))])
        l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        h_mat = mat_mul(transpose(l_mat), l_mat)
        h_vec = [Rat(rng.randint(-2, 2)) for _ in range(n)]
        eta = Rat(rng.randint(-2, 4))
        obj = QpObjective(h_mat, h_vec)
        q = ConvexQuadraticSet(poly, obj, eta)
        cert = classify_fulldim(q)
        res = qp_min(obj, poly)
        full = (
            is_fulldim_polyhedron(poly)
            and res.status != "infeasible"
            and (not res.is_optimal or res.value < eta)
        )
        assert (cert.tag == FULL_DIM) == full


def _random_level_set(rng):
    """A set in a box of R^n, n <= 3, that falls into any of the five cases."""
    n = rng.randint(1, 3)
    poly = box([-2] * n, [2] * n, p=rng.randint(0, n))
    for _ in range(rng.randint(0, 2)):
        row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
        if any(v != 0 for v in row):
            poly = poly.with_rows([row], [Rat(rng.randint(-1, 3))])
    if rng.random() < 0.3:
        row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
        if any(v != 0 for v in row):
            poly = poly.with_equality(row, Rat(rng.randint(-3, 3), rng.choice([1, 2])))
    l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(0, n))]
    h_mat = mat_mul(transpose(l_mat), l_mat) if l_mat else [[Rat(0)] * n for _ in range(n)]
    h_vec = [Rat(rng.randint(-3, 3)) if rng.random() < 0.7 else Rat(0) for _ in range(n)]
    obj = QpObjective(h_mat, h_vec)
    eta = Rat(rng.randint(-2, 4))
    if rng.random() < 0.5:
        # put eta on the minimum over P: the stationary and tangent-face cases
        res = qp_min(obj, poly)
        if res.is_optimal:
            eta = res.value
    return ConvexQuadraticSet(poly, obj, eta)


def test_contains_on_ints_matches_the_rational_test():
    # points on the box faces and on the level set, with mixed denominators
    rng = random.Random(15)
    seen = set()
    for _ in range(150):
        q = _random_level_set(rng)
        res = qp_min(q.obj, q.poly)
        points = [res.x] if res.is_optimal else []
        points += [[Rat(rng.randint(-5, 5), rng.choice([1, 2, 3, 7])) for _ in range(q.n)]
                   for _ in range(6)]
        points += [[Rat(rng.choice([-2, 2, 0])) for _ in range(q.n)]]
        for x in points:
            want = (all(dot(row, x) <= b for row, b in zip(q.poly.w_mat, q.poly.w_rhs))
                    and q.obj.value(x) <= q.eta)
            assert q.contains(x) == want
            seen.add(want)
    assert seen == {True, False}
    with pytest.raises(DimensionError):
        q.contains([Rat(0)] * (q.n + 1))


def test_classify_agrees_with_reduction():
    # FULL_DIM exactly when the reduction keeps the dimension; EMPTY_SET
    # only where the reduction finds no mixed-integer point
    rng = random.Random(4242)
    tags = set()
    for _ in range(400):
        q = _random_level_set(rng)
        tag = classify_fulldim(q).tag
        tags.add(tag)
        out = fulldim_reduce_cqs(q)
        keeps_dim = not isinstance(out, Empty) and out[0].n_prime == q.n
        assert (tag == FULL_DIM) == keeps_dim
        if tag == EMPTY_SET:
            assert out == EMPTY
    assert tags == {FULL_DIM, EMPTY_SET, LOW_DIM_AFFINE, LOW_DIM_FACE, LOW_DIM_POLY}


class _LpCount:
    """Every later LP of the polyhedra module, counted two ways.

    ``solves`` counts LP solves and ``phase1`` simplex phase-1 runs: a
    ``solve_lp`` call is one of each (``direct`` keeps its arguments), and
    ``lp_min`` runs phase 1 once per polyhedron object and phase 2 per call.
    """

    def __init__(self, monkeypatch):
        self.direct, self.starts, self.resumed = [], 0, 0
        solve_lp, phase1, phase2 = (miqcp.polyhedra.solve_lp, miqcp.polyhedra.phase1,
                                    miqcp.polyhedra.phase2)

        def counted_solve(*args):
            self.direct.append(args)
            return solve_lp(*args)

        def counted_phase1(*args):
            self.starts += 1
            return phase1(*args)

        def counted_phase2(*args):
            self.resumed += 1
            return phase2(*args)

        monkeypatch.setattr(miqcp.polyhedra, "solve_lp", counted_solve)
        monkeypatch.setattr(miqcp.polyhedra, "phase1", counted_phase1)
        monkeypatch.setattr(miqcp.polyhedra, "phase2", counted_phase2)

    @property
    def solves(self) -> int:
        return len(self.direct) + self.resumed

    @property
    def phase1(self) -> int:
        return len(self.direct) + self.starts

    def clear(self):
        self.direct, self.starts, self.resumed = [], 0, 0


def test_zero_quadratic_reduction_costs_the_polyhedron_lps(monkeypatch):
    # q identically zero: Q is P (eta >= 0) or empty (eta < 0), so the
    # reduction must cost what reducing P costs, and nothing when eta < 0
    lps = _LpCount(monkeypatch)
    # the baseline runs on an equal, separate polyhedron: a polyhedron keeps
    # its probe, so reducing the same object again would cost no LP
    ref = box([-2, -1, 0], [3, 1, 2], p=2)
    assert fulldim_reduce_polyhedron(ref)[1] is ref
    assert (lps.solves, lps.phase1) == (1, 1)
    lps.clear()
    poly = box([-2, -1, 0], [3, 1, 2], p=2)
    q = _milp_cqs(poly)
    out = fulldim_reduce_cqs(q)
    assert (lps.solves, lps.phase1) == (1, 1)
    tau, q2 = out
    assert (tau.n_prime, tau.xbar) == (3, [0, 0, 0])
    assert q2.poly.w_mat == poly.w_mat and q2.poly.w_rhs == poly.w_rhs
    lps.clear()
    assert fulldim_reduce_cqs(ConvexQuadraticSet(poly, q.obj, Rat(-1))) == EMPTY
    assert (lps.solves, lps.phase1) == (0, 0)


def test_classify_fulldim_probes_its_polyhedron_once(monkeypatch):
    # classify_fulldim probes P, and the inner polytope's witness search
    # reads the same probe instead of running the LP again
    lps = _LpCount(monkeypatch)
    poly = box([-2, -1, 0], [3, 1, 2], p=2)
    q = cqs(poly, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], 4)
    assert classify_fulldim(q).tag == FULL_DIM
    probe_rows = [row + [Rat(1)] for row in poly.w_mat]
    assert sum(1 for w_mat, _, _ in lps.direct if w_mat == probe_rows) == 1


def test_level_case_is_kept_on_the_set(monkeypatch):
    # the reduction's split of Q' serves inner_polytope: no second QP
    q = cqs(box([-2, -2], [2, 2], p=1), [[1, 0], [0, 1]], [-1, 0], 3)
    tau, q2 = fulldim_reduce_cqs(q)
    calls = []
    qp = miqcp.cqs.qp_min
    monkeypatch.setattr(miqcp.cqs, "qp_min", lambda *a, **k: calls.append(a) or qp(*a, **k))
    inner = inner_polytope(q2)
    assert calls == []
    assert is_fulldim_polyhedron(inner)
    # the memos take no part in equality or repr
    fresh = Polyhedron(q2.poly.w_mat, q2.poly.w_rhs, q2.poly.p)
    assert q2.poly._probe is not None and fresh._probe is None
    assert q2 == ConvexQuadraticSet(fresh, q2.obj, q2.eta)
    assert repr(q2) == repr(ConvexQuadraticSet(fresh, q2.obj, q2.eta))


def test_set_feasible_point_reads_the_level_case(monkeypatch):
    # the point is quadratic_feasible_point's, and once the level case is
    # known it costs no QP
    rng = random.Random(77)
    half_plane = Polyhedron(mat([[1, 0]]), [Rat(0)])  # q -> -infinity along -e1
    cases = [_random_level_set(rng) for _ in range(200)]
    cases.append(cqs(half_plane, [[0, 0], [0, 1]], [1, 0], -5))
    calls = []
    qp = miqcp.cqs.qp_min
    monkeypatch.setattr(miqcp.cqs, "qp_min", lambda *a, **k: calls.append(a) or qp(*a, **k))
    found = set()
    for q in cases:
        want = quadratic_feasible_point(q.obj, q.poly, q.eta)
        _, face_min = miqcp.cqs._level_case(q)
        calls.clear()
        x = set_feasible_point(q)
        assert x == want
        assert len(calls) == (face_min is None)  # a zero q runs its LP as a QP
        assert x is None or q.contains(x)
        found.add((x is None, face_min.status if face_min else None))
    assert found >= {(False, OPTIMAL), (True, OPTIMAL), (False, UNBOUNDED), (False, None)}


def substitution_identity_holds(q, tau, q2, samples):
    for xp in samples:
        lhs = q.obj.value(tau.apply(xp)) <= q.eta
        rhs = q2.obj.value(xp) <= q2.eta
        if lhs != rhs:
            return False
    return True


def test_reduce_full_dim_is_identity():
    q = cqs(box([-2, -2], [2, 2], p=1), [[1, 0], [0, 1]], [0, 0], 1)
    out = fulldim_reduce_cqs(q)
    tau, q2 = out
    assert tau.xbar == [0, 0]
    assert q2.poly is q.poly


def test_reduce_point_quadratic_spec_example():
    # Q = {x in R^2: x1^2 + x2^2 <= 0}, p = 1: tau maps R^0 to {(0,0)}
    q = cqs(box([-5, -5], [5, 5], p=1), [[1, 0], [0, 1]], [0, 0], 0)
    out = fulldim_reduce_cqs(q)
    assert not isinstance(out, Empty)
    tau, q2 = out
    assert tau.n_prime == 0
    assert tau.apply([]) == [0, 0]
    assert is_integral(tau.xbar[0])


def test_reduce_tangent_descent_spec_example(monkeypatch):
    # Q = {x1 >= 1, x1^2 <= 1, -5 <= x2 <= 5}, p = 2: descend to x1 = 1 then
    # reduce to a 1-dim full-dim interval with p' = 1
    poly = Polyhedron(mat([[-1, 0], [0, 1], [0, -1]]), [Rat(-1), Rat(5), Rat(5)], p=2)
    q = cqs(poly, [[1, 0], [0, 0]], [0, 0], 1)
    lps = _LpCount(monkeypatch)
    out = fulldim_reduce_cqs(q)
    # the face is reached by one parametrization of the supporting
    # hyperplane, read from the kept face minimum, with no implicit-equality
    # pass on the hyperplane; each polyhedron runs simplex phase 1 once for
    # all of its LPs, and each QP decides unboundedness in its own loop,
    # with no recession-cone LP
    assert (lps.solves, lps.phase1) == (4, 4)
    assert not isinstance(out, Empty)
    tau, q2 = out
    assert tau.p_prime == 1 and tau.n_prime == 1
    assert is_fulldim_polyhedron(q2.poly)
    # bijection against brute-force mixed-integer points of Q
    originals = set()
    for x1 in range(-6, 7):
        for x2 in range(-5, 6):
            if poly.contains([Rat(x1), Rat(x2)]) and x1 * x1 <= 1:
                originals.add((Rat(x1), Rat(x2)))
    mapped = set()
    for k in range(-50, 51):
        xp = [Rat(k)]
        if q2.contains(xp):
            mapped.add(tuple(tau.apply(xp)))
    assert mapped == originals


def test_reduce_keeps_integer_points_through_face_and_stationary_steps():
    # eta on the minimum over P makes Q low-dimensional: it lies in a
    # tangent face or in the stationary subspace, and the reduction maps it
    # through that subspace's parametrization.  tau must carry the reduced
    # set's integer points onto Q's, and Empty must mean Q has none.
    rng = random.Random(7)
    steps = set()
    for _ in range(120):
        n = rng.randint(1, 3)
        poly = box([-2] * n, [2] * n, p=n)
        for _ in range(rng.randint(0, 2)):
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            if any(row):
                poly = poly.with_rows([row], [Rat(rng.randint(-1, 3))])
        h_mat = [[Rat(0)] * n for _ in range(n)]
        while not any(v for row in h_mat for v in row):
            l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(rng.randint(1, n))]
            h_mat = mat_mul(transpose(l_mat), l_mat)
        obj = QpObjective(h_mat, [Rat(rng.randint(-3, 3)) for _ in range(n)])
        res = qp_min(obj, poly)
        if not res.is_optimal:
            continue  # P is empty
        q = ConvexQuadraticSet(poly, obj, res.value)
        originals = {x for x in itertools.product(range(-2, 3), repeat=n)
                     if q.contains([Rat(v) for v in x])}
        descents = []
        out = fulldim_reduce_cqs(q, on_descent=descents.append)
        if isinstance(out, Empty):
            assert originals == set()
            continue
        tau, q2 = out
        mapped = set()
        for xp in itertools.product(range(-12, 13), repeat=tau.n_prime):
            if q2.contains([Rat(v) for v in xp]):
                x = tau.apply([Rat(v) for v in xp])
                assert all(is_integral(v) for v in x)
                mapped.add(tuple(int(v) for v in x))
        assert mapped == originals
        if descents:
            steps.add(LOW_DIM_FACE)
        if classify_fulldim(q).tag == LOW_DIM_AFFINE:
            steps.add(LOW_DIM_AFFINE)
    assert steps == {LOW_DIM_FACE, LOW_DIM_AFFINE}


def test_reduce_fractional_point_empty():
    # x1 = 1/2 slab with any quadratic, p = 1 -> Empty via the reduction
    poly = Polyhedron(mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                      [Rat(1, 2), Rat(-1, 2), Rat(3), Rat(3)], p=1)
    q = cqs(poly, [[1, 0], [0, 1]], [0, 0], 100)
    assert fulldim_reduce_cqs(q) == EMPTY


def test_reduce_substitution_identity_randomized():
    rng = random.Random(77)
    reduced_count = 0
    while reduced_count < 25:
        n = rng.randint(1, 3)
        p = rng.randint(0, n)
        poly = box([-3] * n, [3] * n, p=p)
        # force degeneracy half the time with an equality row
        if rng.random() < 0.5:
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            if any(v != 0 for v in row):
                b = Rat(rng.randint(-2, 2))
                poly = poly.with_equality(row, b)
        l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
        h_mat = mat_mul(transpose(l_mat), l_mat)
        h_vec = [Rat(rng.randint(-2, 2)) for _ in range(n)]
        obj = QpObjective(h_mat, h_vec)
        eta = Rat(rng.randint(0, 6))
        q = ConvexQuadraticSet(poly, obj, eta)
        out = fulldim_reduce_cqs(q)
        if isinstance(out, Empty):
            continue
        tau, q2 = out
        assert is_fulldim_polyhedron(q2.poly)
        res = qp_min(q2.obj, q2.poly)
        if res.is_optimal:
            assert res.value <= q2.eta  # reduced set nonempty
        samples = []
        for _ in range(12):
            xp = [Rat(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(tau.n_prime)]
            samples.append(xp)
        assert substitution_identity_holds(q, tau, q2, samples)
        # mixed-integer preservation on sampled reduced points
        for xp in samples:
            if all(is_integral(v) for v in xp[:tau.p_prime]) and q2.contains(xp):
                x = tau.apply(xp)
                assert q.contains(x)
                assert all(is_integral(v) for v in x[:p])
        reduced_count += 1


def _reference_map_polyhedron(poly, tau):
    """`Polyhedron.map_through` on Fractions, the construction the integer
    one replaced."""
    rows, rhs = [], []
    for row, b in zip(poly.w_mat, poly.w_rhs):
        new_row = [dot(row, [tau.m[i][j] for i in range(len(row))]) for j in range(tau.n_prime)]
        new_b = b - dot(row, tau.xbar)
        if all(v == 0 for v in new_row) and new_b >= 0:
            continue
        rows.append(new_row)
        rhs.append(new_b)
    return Polyhedron(rows, rhs, tau.p_prime, n=tau.n_prime)


def _reference_map_objective(obj, tau):
    """The child of `QpObjective.substitute` on Fractions, through the checked
    constructor."""
    mt = transpose(tau.m) if tau.n_prime else []
    h_cols = [mat_vec(obj.h_mat, col) for col in mt]
    lin = obj.gradient(tau.xbar)
    return QpObjective([[dot(a, b) for b in h_cols] for a in mt], [dot(col, lin) for col in mt])


def _random_param(rng, n):
    """x = xbar + M x' with M of full column rank n' <= n, rational M and
    xbar, and p' <= n'."""
    while True:
        n_prime = rng.randint(0, n)
        m = [[Rat(rng.randint(-4, 4), rng.choice([1, 1, 2, 3, 10 ** 6 + 3])) for _ in range(n_prime)]
             for _ in range(n)]
        if rank(m) == n_prime:
            xbar = [Rat(rng.randint(-9, 9), rng.choice([1, 2, 5, 2 ** 31 - 1])) for _ in range(n)]
            return AffineParam(xbar, m, rng.randint(0, n_prime), n_prime)


def test_map_through_on_ints_matches_the_fraction_reference():
    rng = random.Random(1616)
    seen = set()
    for _ in range(300):
        q = _random_level_set(rng)
        n = q.n
        tau = _random_param(rng, n)
        poly = q.poly
        # rows with r . M = 0 map to 0 <= r . (x - xbar) <= ...: dropped when
        # the right-hand side is >= 0, kept (an infeasibility witness) when < 0
        left = null_space(transpose(tau.m)) if tau.n_prime else identity(n)
        for j in range(len(left[0]) if left else 0):
            row = [left[i][j] for i in range(n)]
            for slack in (0, 1, -Rat(1, 3)):
                poly = poly.with_rows([row], [dot(row, tau.xbar) + slack])
        q = ConvexQuadraticSet(poly, q.obj, q.eta)
        got = q.map_through(tau)
        want_poly = _reference_map_polyhedron(poly, tau)
        want_obj = _reference_map_objective(q.obj, tau)
        assert (got.poly.w_mat, got.poly.w_rhs) == (want_poly.w_mat, want_poly.w_rhs)
        assert (got.poly.n, got.poly.p) == (tau.n_prime, tau.p_prime)
        assert got.obj == want_obj and got.obj.definite == want_obj.definite
        assert got.eta == q.eta - q.obj.value(tau.xbar)
        # the kept integer data is what a fresh computation gives
        assert got.poly._ints == integer_system(want_poly)
        assert got.obj._ints == want_obj.integer_form()
        seen.add(f"n' = {tau.n_prime}" if tau.n_prime == 0 else "n' > 0")
        seen.add("definite" if q.obj.definite else "semidefinite")
        if want_poly.m < poly.m:
            seen.add("row dropped")
        if any(not any(r) and b < 0 for r, b in zip(want_poly.w_mat, want_poly.w_rhs)):
            seen.add("0 <= negative kept")
    assert seen == {"n' = 0", "n' > 0", "definite", "semidefinite", "row dropped",
                    "0 <= negative kept"}
