import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from miqcp.diophantine import EMPTY, AffineParam, Empty
from miqcp.errors import DimensionError, PreconditionError
from miqcp.linalg import det, dot, gauss_solve, integer_row, mat, mat_vec
from miqcp.polyhedra import (
    Polyhedron,
    _fulldim_probe,
    fulldim_reduce_polyhedron,
    implicit_equalities,
    integer_system,
    is_fulldim_polyhedron,
    lp_min,
    recession_ray_check,
)
from miqcp.rational import ONE, ZERO, Rat, is_integral
from miqcp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, solve_lp


def box(lo, hi, p=0):
    """Axis box in len(lo) dims."""
    n = len(lo)
    rows, rhs = [], []
    for i in range(n):
        e = [Rat(0)] * n
        e[i] = Rat(1)
        rows.append(e)
        rhs.append(Rat(hi[i]))
        e2 = [Rat(0)] * n
        e2[i] = Rat(-1)
        rows.append(e2)
        rhs.append(Rat(-Rat(lo[i])))
    return Polyhedron(rows, rhs, p)


def enumerate_vertices(poly):
    """All basic feasible points: solve every n-row subsystem, keep feasible."""
    n = poly.n
    verts = []
    for idx in itertools.combinations(range(poly.m), n):
        a = [poly.w_mat[i] for i in idx]
        b = [poly.w_rhs[i] for i in idx]
        if det(a) == 0:
            continue
        x = gauss_solve(a, b)
        if x is not None and poly.contains(x):
            verts.append(x)
    return verts


def check_dual_certificate(c, poly, res):
    assert res.status == OPTIMAL
    mu = res.dual
    assert all(v >= 0 for v in mu)
    n = poly.n
    for j in range(n):
        stat = c[j] + sum(mu[i] * poly.w_mat[i][j] for i in range(poly.m))
        assert stat == 0
    for i in range(poly.m):
        slack = poly.w_rhs[i] - dot(poly.w_mat[i], res.x)
        assert mu[i] * slack == 0
    assert poly.contains(res.x)


def test_lp_min_box_corner():
    poly = box([0], [1])
    res = lp_min([Rat(1)], poly)
    assert res.status == OPTIMAL and res.x == [0] and res.value == 0
    check_dual_certificate([Rat(1)], poly, res)


def test_lp_min_unbounded_ray():
    poly = Polyhedron(mat([[-1]]), [Rat(0)])  # x >= 0
    res = lp_min([Rat(-1)], poly)
    assert res.status == UNBOUNDED
    assert res.ray is not None and res.ray[0] > 0
    assert recession_ray_check(poly, res.ray)
    assert dot([Rat(-1)], res.ray) < 0


def test_lp_min_simplex_face():
    # min x1 + x2 over {x1 + x2 >= 1/3, x >= 0}: value 1/3 (vertex oracle)
    rows = mat([[-1, -1], [-1, 0], [0, -1]])
    rhs = [Rat(-1, 3), Rat(0), Rat(0)]
    poly = Polyhedron(rows, rhs)
    c = [Rat(1), Rat(1)]
    res = lp_min(c, poly)
    assert res.status == OPTIMAL
    assert res.value == Rat(1, 3)
    verts = enumerate_vertices(poly)
    assert res.value == min(dot(c, v) for v in verts)
    check_dual_certificate(c, poly, res)


def test_lp_min_infeasible_farkas():
    poly = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(-1)])  # x <= 0, x >= 1
    res = lp_min([Rat(1)], poly)
    assert res.status == INFEASIBLE
    mu = res.farkas
    assert all(v >= 0 for v in mu)
    assert all(
        sum(mu[i] * poly.w_mat[i][j] for i in range(poly.m)) == 0 for j in range(poly.n)
    )
    assert sum(mu[i] * poly.w_rhs[i] for i in range(poly.m)) < 0


def test_lp_randomized_against_vertex_oracle():
    rng = random.Random(17)
    solved = 0
    while solved < 80:
        n = rng.randint(1, 3)
        poly = box([-3] * n, [3] * n)
        extra_rows = [[Rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        extra_rhs = [Rat(rng.randint(-2, 6)) for _ in extra_rows]
        poly = poly.with_rows(extra_rows, extra_rhs)
        c = [Rat(rng.randint(-5, 5)) for _ in range(n)]
        res = lp_min(c, poly)
        verts = enumerate_vertices(poly)
        if res.status == INFEASIBLE:
            assert verts == []
            continue
        assert res.status == OPTIMAL  # boxed, never unbounded
        assert verts, "optimal on a boxed polyhedron must have vertices"
        assert res.value == min(dot(c, v) for v in verts)
        check_dual_certificate(c, poly, res)
        solved += 1


def test_implicit_equalities_forced():
    poly = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(0)])  # x <= 0 and x >= 0
    assert implicit_equalities(poly) == [0, 1]


def test_implicit_equalities_none_on_box():
    assert implicit_equalities(box([0], [1])) == []


def test_implicit_equalities_pair():
    rows = mat([[1, 1], [-1, -1], [1, 0]])
    rhs = [Rat(1), Rat(-1), Rat(5)]
    poly = Polyhedron(rows, rhs)
    assert implicit_equalities(poly) == [0, 1]


def test_implicit_equalities_raises_on_empty():
    poly = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(-1)])
    with pytest.raises(PreconditionError):
        implicit_equalities(poly)


def test_is_fulldim():
    assert is_fulldim_polyhedron(box([0, 0], [1, 1]))
    slab = Polyhedron(mat([[1, 0], [-1, 0]]), [Rat(0), Rat(0)])
    assert not is_fulldim_polyhedron(slab)
    empty = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(-1)])
    assert not is_fulldim_polyhedron(empty)


def test_reduce_fulldim_box_is_identity():
    poly = box([0, 0], [1, 1], p=1)
    out = fulldim_reduce_polyhedron(poly)
    assert not isinstance(out, Empty)
    tau, reduced = out
    assert tau.xbar == [0, 0]
    assert tau.p_prime == 1 and tau.n_prime == 2
    assert reduced is poly


def test_reduce_line_segment_spec_example():
    # 2x1 + x2 = 1 (two inequalities), -10 <= x <= 10, p = 1
    poly = box([-10, -10], [10, 10], p=1).with_equality([Rat(2), Rat(1)], Rat(1))
    out = fulldim_reduce_polyhedron(poly)
    assert not isinstance(out, Empty)
    tau, reduced = out
    assert tau.n_prime == 1 and tau.p_prime == 1
    assert is_fulldim_polyhedron(reduced)
    # bijection on mixed-integer points in the box
    originals = set()
    for x1 in range(-10, 11):
        x2 = 1 - 2 * x1
        if -10 <= x2 <= 10:
            originals.add((Rat(x1), Rat(x2)))
    mapped = set()
    for k in range(-100, 101):
        xp = [Rat(k)]
        if reduced.contains(xp):
            x = tau.apply(xp)
            assert all(is_integral(v) for v in x[:1])
            mapped.add(tuple(x))
    assert mapped == originals


def test_reduce_fractional_slab_is_empty():
    poly = Polyhedron(mat([[1], [-1]]), [Rat(1, 2), Rat(-1, 2)], p=1)  # x = 1/2
    assert fulldim_reduce_polyhedron(poly) == EMPTY


def test_reduce_empty_polyhedron_is_empty():
    poly = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(-1)], p=0)
    assert fulldim_reduce_polyhedron(poly) == EMPTY


def test_reduce_furthermore_clause():
    # seeded integer-supported equality x1 = 3 forces p' <= p - 1
    poly = box([-5, -5], [5, 5], p=2).with_equality([Rat(1), Rat(0)], Rat(3))
    out = fulldim_reduce_polyhedron(poly)
    tau, reduced = out
    assert tau.p_prime <= 1
    assert is_fulldim_polyhedron(reduced)


def test_pins_by_with_box_reject_too_many_pins():
    poly = box([0, 0], [1, 1])
    pins = [Rat(0), Rat(1)]
    assert poly.with_box(pins, pins).contains([Rat(0), Rat(1)])
    with pytest.raises(DimensionError):
        poly.with_box([Rat(0)] * 3, [Rat(0)] * 3)


def _reference_with_box(poly, lo, hi):
    """The full-length box as `with_box` built it before it bounded only
    the leading len(lo) coordinates."""
    n = poly.n
    rows, rhs = [], []
    for i in range(n):
        e_pos = [Rat(0)] * n
        e_pos[i] = Rat(1)
        rows.append(e_pos)
        rhs.append(Rat(hi[i]))
        e_neg = [Rat(0)] * n
        e_neg[i] = Rat(-1)
        rows.append(e_neg)
        rhs.append(-Rat(lo[i]))
    return poly.with_rows(rows, rhs)


def _reference_pins(poly, values):
    """One `with_equality` per pin: the loop `with_box(v, v)` replaced."""
    out = poly
    for i, v in enumerate(values):
        row = [Rat(0)] * poly.n
        row[i] = Rat(1)
        out = out.with_equality(row, Rat(v))
    return out


def test_with_box_and_pins_match_the_reference_rows():
    rng = random.Random(3131)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(0, 3)
        poly = Polyhedron([[Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                           for _ in range(m)],
                          [Rat(rng.randint(-5, 5)) for _ in range(m)], rng.randint(0, n), n=n)
        lo = [Rat(rng.randint(-9, 0), rng.randint(1, 4)) for _ in range(n)]
        hi = [a + rng.randint(0, 5) for a in lo]
        for got, want in [
            (poly.with_box(lo, hi), _reference_with_box(poly, lo, hi)),
            (poly.with_box(lo[:n - 1], lo[:n - 1]), _reference_pins(poly, lo[:n - 1])),
            (poly.with_box(hi, hi), _reference_pins(poly, hi)),
        ]:
            assert (got.w_mat, got.w_rhs, got.p, got.n) == (want.w_mat, want.w_rhs, want.p, want.n)
    # a shorter box bounds only the leading coordinates
    short = box([0, 0, 0], [1, 1, 1]).with_box([Rat(2)], [Rat(3)])
    assert short.m == 8 and short.w_mat[6:] == [[1, 0, 0], [-1, 0, 0]]
    assert short.w_rhs[6:] == [3, -2]
    with pytest.raises(DimensionError):
        box([0], [1]).with_box([Rat(0)], [Rat(1), Rat(2)])


def test_with_rows_extends_the_kept_integer_rows():
    rng = random.Random(3132)
    for _ in range(20):
        n = rng.randint(1, 4)
        parent = box([-3] * n, [Rat(5, 2)] * n, p=n)
        rows = [[Rat(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)] for _ in range(2)]
        rhs = [Rat(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
        integer_system(parent)
        child = parent.with_rows(rows, rhs)
        assert child._ints is not None
        fresh = Polyhedron(child.w_mat, child.w_rhs, child.p)
        assert integer_system(child) == integer_system(fresh)
        ints, ells = integer_system(child)
        for r, b, a, ell in zip(child.w_mat, child.w_rhs, ints, ells):
            assert ell > 0 and a == [ell * v for v in r + [b]]
    # a parent that never scaled its rows leaves the child to scale its own
    assert box([0], [1]).with_rows([[Rat(1)]], [Rat(1, 2)])._ints is None


def test_recession_ray_check_cases():
    poly = Polyhedron(mat([[1, -1]]), [Rat(0)])
    assert recession_ray_check(poly, [Rat(0), Rat(0)])
    assert recession_ray_check(poly, [Rat(1), Rat(2)])
    poly2 = Polyhedron(mat([[1]]), [Rat(1)])
    assert not recession_ray_check(poly2, [Rat(1)])


_SMALL = st.sampled_from([Rat(v, d) for v in range(-4, 5) for d in (1, 2, 3, 5)])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_SMALL, min_size=n, max_size=n), max_size=5),
    st.lists(_SMALL, min_size=n, max_size=n),
    st.lists(st.sampled_from([-1, 0, 0, Rat(1, 7), 2]), min_size=5, max_size=5),
)))
def test_contains_ints_agrees_with_contains(data):
    # rows through the point (slack 0) put it on the boundary, a negative
    # slack outside; the reference is the rational test row by row
    rows, x, slacks = data
    rhs = [dot(row, x) + s for row, s in zip(rows, slacks)]
    poly = Polyhedron(rows, rhs, n=len(x))
    want = all(dot(row, x) <= b for row, b in zip(rows, rhs))
    assert poly.contains_ints(*integer_row(x)) == poly.contains(x) == want


def test_contains_refuses_a_point_of_the_wrong_length():
    with pytest.raises(DimensionError):
        Polyhedron([], [], n=2).contains([Rat(1)])
    with pytest.raises(DimensionError):
        Polyhedron(mat([[1, 0]]), [Rat(1)]).contains([Rat(0)] * 3)
    assert Polyhedron([], [], n=2).contains([Rat(1), Rat(-7, 3)])


def test_n_is_read_from_the_rows():
    rows, rhs = mat([[1, -2], [0, 3]]), [Rat(1), Rat(5, 2)]
    assert Polyhedron(rows, rhs).n == 2
    assert Polyhedron(rows, rhs) == Polyhedron(rows, rhs, n=2)
    assert Polyhedron([], []).n == 0
    assert Polyhedron([], [], n=2) != Polyhedron([], [], n=3)
    with pytest.raises(DimensionError):
        Polyhedron(rows, rhs, n=3)
    with pytest.raises(DimensionError):
        Polyhedron([], [], p=1)


def _reference_probe(poly):
    """(status, point, branch) of the probe LP max t : W x + t <= w,
    solved by `solve_lp` on the rational rows [W_i, 1]; branch names the
    way out: no rows, an unbounded ray, or an optimum."""
    n = poly.n
    if poly.m == 0:
        return "full_dim", [ZERO] * n, "no rows"
    res = solve_lp([row + [ONE] for row in poly.w_mat], poly.w_rhs, [ZERO] * n + [-ONE])
    if res.status == UNBOUNDED:
        k = max(ONE, (ONE - res.x[n]) / res.ray[n])
        return "full_dim", [a + k * b for a, b in zip(res.x[:n], res.ray[:n])], "ray"
    tstar = -res.value
    if tstar < 0:
        return "empty", None, "optimum"
    return ("full_dim" if tstar > 0 else "flat"), res.x[:n], "optimum"


def _random_polyhedron(rng, den):
    n = rng.randint(0, 4)
    m = rng.randint(0, 6)
    rows = [[Rat(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(n)] for _ in range(m)]
    rhs = [Rat(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(m)]
    if m and rng.random() < 0.3:  # a pinned coordinate makes P flat
        rows += [rows[0], [-v for v in rows[0]]]
        rhs += [rhs[0], -rhs[0]]
    return Polyhedron(rows, rhs, n=n)


def test_implicit_equalities_match_one_lp_per_row():
    # the pruning by slacks on the kept integer rows drops no row that an LP
    # per row, min W_i x = w_i over P, finds tight on all of P
    rng = random.Random(2426)
    flat = 0
    for _ in range(300):
        poly = _random_polyhedron(rng, 6)
        if _fulldim_probe(poly).status == "empty":
            continue
        ref = Polyhedron(poly.w_mat, poly.w_rhs, n=poly.n)
        want = [i for i, (row, b) in enumerate(zip(ref.w_mat, ref.w_rhs))
                if (res := lp_min(row, ref)).is_optimal and res.value == b]
        assert implicit_equalities(poly) == want
        flat += bool(want)
    assert flat > 20


def test_probe_matches_the_rational_rows_lp():
    # on integer rows [A_i | b_i] (every ell_i = 1) the probe's LP on
    # [A_i, ell_i | b_i] is the reference LP row for row: the same status
    # and the same point, through all branches
    rng = random.Random(2424)
    seen = set()
    for _ in range(300):
        poly = _random_polyhedron(rng, 1)
        probe = _fulldim_probe(poly)
        status, point, branch = _reference_probe(poly)
        assert (probe.status, probe.point) == (status, point)
        seen.add((status, branch, poly.n == 0))
    assert {("full_dim", "ray", False), ("full_dim", "optimum", False), ("flat", "optimum", False),
            ("empty", "optimum", False), ("full_dim", "no rows", False),
            ("full_dim", "optimum", True), ("flat", "optimum", True),
            ("empty", "optimum", True), ("full_dim", "no rows", True)} <= seen


def test_probe_of_rational_rows_decides_like_the_reference():
    # with rational rows, phase 1 weighs row i of [A_i, ell_i | b_i] by 1
    # and the reference weighs it by 1 / ell_i, so the two LPs may end at
    # different optimal points; the status is the same, and the point
    # witnesses it: interior when full_dim, in P when flat
    rng = random.Random(2425)
    for _ in range(300):
        poly = _random_polyhedron(rng, 6)
        probe = _fulldim_probe(poly)
        assert probe.status == _reference_probe(poly)[0]
        if probe.status != "empty":
            slacks = poly.slacks(probe.point)
            assert all(s > 0 for s in slacks) if probe.status == "full_dim" else min(slacks) == 0
