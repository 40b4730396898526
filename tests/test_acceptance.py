"""Acceptance suite: eight criteria, each printed as one pass/fail line.

Every check is exact (tolerance zero) unless the criterion itself states a
runtime budget.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import itertools
import random
import time

import pytest

from miqcp.cqs import (
    ConvexQuadraticSet,
    classify_fulldim,
    fulldim_reduce_cqs,
    slice_point,
    FULL_DIM,
)
from miqcp.diophantine import (
    EMPTY,
    AffineParam,
    Empty,
    integer_reflexive_ginv,
    parametrize_mixed_integer_solutions,
)
from miqcp.lattice import (
    LATTICE_POINT,
    LatticeBasis,
    flatness,
    width_bound_sq,
)
from miqcp.linalg import (
    det,
    dot,
    gauss_solve,
    inverse,
    is_integer_mat,
    mat,
    mat_eq,
    mat_mul,
    mat_vec,
    norm_sq,
    rank,
    transpose,
    vec_sub,
    zeros,
)
from miqcp.polyhedra import Polyhedron, is_fulldim_polyhedron, fulldim_reduce_polyhedron
from miqcp.qp import QpObjective
from miqcp.rational import Rat, is_integral
from miqcp.rounding import ceil_sqrt, sandwich
from miqcp.solver import (
    INFEASIBLE_STATUS,
    OPTIMAL_STATUS,
    UNBOUNDED_STATUS,
    Trace,
    gamma_band_bound_sq,
    optimize,
    oracle_optimize,
)

from corpus import corpus
from test_polyhedra import box


def _report(num, ok, text):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# criterion 1: generalized-inverse identities on 500 random matrices, < 10 s


def test_criterion_1_generalized_inverse_suite():
    rng = random.Random(1001)
    start = time.monotonic()
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[Rat(rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]
        g = integer_reflexive_ginv(a)
        aga = mat_mul(mat_mul(a, g.asharp), a)
        gag = mat_mul(mat_mul(g.asharp, a), g.asharp)
        prod = mat_mul(g.asharp, a)
        assert mat_eq(aga, a)
        assert mat_eq(gag, g.asharp)
        assert is_integer_mat(prod)
        diag = [[Rat(1) if (i == j and i < g.r) else Rat(0) for j in range(n)]
                for i in range(n)]
        assert mat_eq(prod, mat_mul(mat_mul(g.u.u, diag), g.u.uinv))
    elapsed = time.monotonic() - start
    _report(1, elapsed < 10,
            f"500 random ginv identity suites exact in {elapsed:.2f}s (< 10s)")


# ---------------------------------------------------------------------------
# criterion 2: parametrization bijection on 100 random systems, box radius 4


def _solvable_with_free_tail(b_mat, rhs):
    if not b_mat or not b_mat[0]:
        return all(v == 0 for v in rhs)
    return gauss_solve(b_mat, rhs) is not None


def test_criterion_2_parametrization_bijection():
    rng = random.Random(1002)
    radius = 4
    checked = 0
    for _ in range(100):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        p = rng.randint(0, n)
        w = [[Rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.7:
            planted = [Rat(rng.randint(-2, 2)) for _ in range(p)] + [
                Rat(rng.randint(-4, 4), 2) for _ in range(n - p)
            ]
            rhs = mat_vec(w, planted)
        else:
            rhs = [Rat(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(m)]
        param = parametrize_mixed_integer_solutions(w, rhs, p)
        a_blk = [row[:p] for row in w]
        b_blk = [row[p:] for row in w]

        oracle_side = set()
        for y in itertools.product(range(-radius, radius + 1), repeat=p):
            yv = [Rat(v) for v in y]
            resid = vec_sub(rhs, mat_vec(a_blk, yv) if p else [Rat(0)] * m)
            if _solvable_with_free_tail(b_blk, resid):
                oracle_side.add(y)

        if isinstance(param, Empty):
            assert not oracle_side, "Empty but the oracle found solutions"
            checked += 1
            continue

        r_blk = [row[:param.p_prime] for row in param.m[:p]]
        param_side = set()
        for y in itertools.product(range(-radius, radius + 1), repeat=p):
            target = [Rat(v) - param.xbar[i] for i, v in enumerate(y)]
            if param.p_prime == 0:
                hit = all(v == 0 for v in target)
            else:
                sol = gauss_solve(r_blk, target)
                hit = (
                    sol is not None
                    and all(is_integral(v) for v in sol)
                    and mat_vec(r_blk, sol) == target
                )
            if hit:
                param_side.add(y)
                # residual check on a full parametrized point
                if param.p_prime == 0:
                    xprime = [Rat(0)] * param.n_prime
                else:
                    xprime = list(sol) + [Rat(0)] * (param.n_prime - param.p_prime)
                xfull = param.apply(xprime)
                assert mat_vec(w, xfull) == rhs
                assert all(is_integral(v) for v in xfull[:p])
        assert oracle_side == param_side
        checked += 1
    _report(2, checked == 100,
            f"{checked}/100 random systems: integer-part sets equal, residuals zero")


# ---------------------------------------------------------------------------
# criterion 3: full-dimensional reductions on 50 degenerate instances


def _mi_points_box(contains, n, radius):
    pts = set()
    for cand in itertools.product(range(-radius, radius + 1), repeat=n):
        x = [Rat(v) for v in cand]
        if contains(x):
            pts.add(cand)
    return pts


def test_criterion_3_fulldim_reductions():
    rng = random.Random(1003)
    radius = 3
    count = 0
    furthermore_checked = 0
    while count < 50:
        n = rng.randint(1, 3)
        p = n  # all-integer instances keep box enumeration exact and complete
        poly = box([-radius] * n, [radius] * n, p=p)
        seeded_integer_equality = rng.random() < 0.5
        if seeded_integer_equality:
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            if all(v == 0 for v in row):
                row[0] = Rat(1)
            point = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            b = dot(row, point)
            poly = poly.with_equality(row, b)
        use_cqs = rng.random() < 0.5
        if use_cqs:
            l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            h_mat = mat_mul(transpose(l_mat), l_mat)
            h_vec = [Rat(rng.randint(-1, 1)) for _ in range(n)]
            obj = QpObjective(h_mat, h_vec)
            eta = Rat(rng.randint(1, 30))
            q = ConvexQuadraticSet(poly, obj, eta)
            out = fulldim_reduce_cqs(q)
            original_contains = q.contains
        else:
            out = fulldim_reduce_polyhedron(poly)
            original_contains = poly.contains

        originals = _mi_points_box(original_contains, n, radius)
        if isinstance(out, Empty):
            assert not originals
            count += 1
            continue
        tau, reduced = out
        red_poly = reduced.poly if use_cqs else reduced
        red_contains = reduced.contains if use_cqs else reduced.contains
        assert is_fulldim_polyhedron(red_poly)
        if seeded_integer_equality:
            assert tau.p_prime <= p - 1
            furthermore_checked += 1
        # bijection over the box: map reduced mixed-integer points forward
        mapped = set()
        span = 6 * radius + 6
        for cand in itertools.product(range(-span, span + 1), repeat=tau.n_prime):
            xp = [Rat(v) for v in cand]
            if red_contains(xp):
                x = tau.apply(xp)
                if all(abs(v) <= radius for v in x):
                    assert all(is_integral(v) for v in x)
                    key = tuple(int(v) for v in x)
                    assert key not in mapped, "tau not injective on lattice points"
                    mapped.add(key)
        assert mapped == originals
        count += 1
    _report(3, count == 50 and furthermore_checked > 0,
            f"50 degenerate reductions exact; p' <= p-1 fired on "
            f"{furthermore_checked} seeded instances")


# ---------------------------------------------------------------------------
# criterion 4: sandwich radii formulas and containment


def test_criterion_4_sandwich():
    for p in range(1, 9):
        k = ceil_sqrt(p)
        r = Rat(1, p + k)
        big_r = Rat(2 * k)
        assert big_r / r == 2 * k * (p + k)
        assert big_r / r <= 4 * k ** 3

    rng = random.Random(1004)
    instances = 0
    for p in (1, 2, 3):
        built = 0
        while built < 10:
            n = p + rng.randint(0, 2)
            radius = 2
            poly = box([-radius] * n, [radius] * n, p=p)
            l_mat = [[Rat(rng.randint(-1, 1)) for _ in range(n)] for _ in range(n)]
            h_mat = mat_mul(transpose(l_mat), l_mat)
            h_vec = [Rat(rng.randint(-1, 1)) for _ in range(n)]
            obj = QpObjective(h_mat, h_vec)
            eta = Rat(rng.randint(4, 9) * n * radius * radius)
            q = ConvexQuadraticSet(poly, obj, eta)
            if classify_fulldim(q).tag != FULL_DIM:
                continue
            res = sandwich(q)
            assert res.r == Rat(1, p + ceil_sqrt(p))
            assert res.big_r == 2 * ceil_sqrt(p)
            # inner containment: sampled ball points map into proj(Q)
            binv = inverse(res.b_mat)
            samples = []
            for i in range(p):
                for sign in (1, -1):
                    z = list(res.a)
                    z[i] = z[i] + sign * res.r
                    samples.append(z)
            samples.append([v + res.r / p for v in res.a])
            for z in samples:
                y = mat_vec(binv, z)
                assert slice_point(q, y) is not None
            # outer containment: every box-enumerated point of Q lands in B(a, R)
            for cand in itertools.product(range(-radius, radius + 1), repeat=n):
                x = [Rat(v) for v in cand]
                if q.contains(x):
                    z = mat_vec(res.b_mat, x[:p])
                    assert norm_sq(vec_sub(z, res.a)) <= res.big_r ** 2
            built += 1
            instances += 1
    _report(4, instances == 30,
            "r, R exact for p in 1..8; containment verified on 30 instances")


# ---------------------------------------------------------------------------
# criterion 5: flatness dichotomy on 200 random inputs, p <= 5


def test_criterion_5_flatness():
    rng = random.Random(1005)
    done = 0
    while done < 200:
        p = rng.randint(1, 5)
        b_mat = [[Rat(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(p)]
                 for _ in range(p)]
        if det(b_mat) == 0:
            continue
        a = [Rat(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(p)]
        r = Rat(rng.randint(0, 9), rng.choice([1, 2, 3]))
        out = flatness(a, r, LatticeBasis(b_mat))
        if out.tag == LATTICE_POINT:
            coeffs = mat_vec(inverse(b_mat), out.z)
            assert all(is_integral(v) for v in coeffs)
            assert norm_sq(vec_sub(out.z, a)) <= r * r
        else:
            assert any(v != 0 for v in out.d)
            bt_d = mat_vec(transpose(b_mat), out.d)
            assert all(is_integral(v) for v in bt_d)
            assert 4 * r * r * norm_sq(out.d) <= width_bound_sq(p)
        done += 1
    _report(5, done == 200, "200 flatness outcomes satisfy their exact invariants")


# ---------------------------------------------------------------------------
# criteria 6, 7, 8: the solver corpus (shared run)


@pytest.fixture(scope="module")
def corpus_results():
    start = time.monotonic()
    results = []
    for name, inst in corpus():
        tr = Trace()
        main = optimize(inst, tr)
        oracle = oracle_optimize(inst)
        results.append((name, inst, main, oracle, tr))
    elapsed = time.monotonic() - start
    return results, elapsed


def test_criterion_6_solver_vs_oracle(corpus_results):
    results, elapsed = corpus_results
    assert len(results) == 60
    for name, _inst, main, oracle, _tr in results:
        assert main.status == oracle.status, f"{name}: status mismatch"
        if main.status == OPTIMAL_STATUS:
            assert main.value == oracle.value, f"{name}: value mismatch"
    statuses = {main.status for _, _, main, _, _ in results}
    assert statuses == {OPTIMAL_STATUS, INFEASIBLE_STATUS, UNBOUNDED_STATUS}
    _report(6, elapsed < 300,
            f"60-instance corpus: statuses and exact values agree in {elapsed:.1f}s (< 300s)")


def test_criterion_7_accurate_solve_contract(corpus_results):
    results, _ = corpus_results
    for name, inst, main, _oracle, _tr in results:
        if main.status == OPTIMAL_STATUS:
            assert inst.obj.value(main.x) == main.value, name
            assert inst.poly.contains(main.x), name
            assert all(is_integral(v) for v in main.x[:inst.poly.p]), name
        elif main.status == UNBOUNDED_STATUS:
            r = main.ray
            assert all(dot(row, r) <= 0 for row in inst.poly.w_mat), name
            assert all(v == 0 for v in mat_vec(inst.obj.h_mat, r)), name
            assert dot(inst.obj.h_vec, r) <= -1, name
            assert inst.poly.contains(main.point), name
            assert all(is_integral(v) for v in main.point[:inst.poly.p]), name
            vals = [
                inst.obj.value([a + t * b for a, b in zip(main.point, r)])
                for t in (1, 2, 4)
            ]
            assert vals[0] > vals[1] > vals[2], name
    _report(7, True, "every Optimal re-evaluates exactly; every ray certified")


def test_criterion_8_recursion_shape(corpus_results):
    results, _ = corpus_results
    max_depth_seen = 0
    bands_checked = 0
    for name, inst, _main, _oracle, tr in results:
        depth = tr.max_depth()
        assert depth <= inst.poly.p, f"{name}: depth {depth} > p {inst.poly.p}"
        max_depth_seen = max(max_depth_seen, depth)
        for entry in tr.band_entries():
            count = entry["band_count"]
            # the bands opened are those of the count that also meet P
            assert 0 <= entry["open_band_count"] <= count, name
            if count >= 1:
                # count <= bound + 1, compared through the exact squared bound
                assert Rat((count - 1) ** 2) <= entry["band_bound_sq"], name
            bands_checked += 1
    _report(8, True,
            f"recursion depth <= p on all instances (max {max_depth_seen}); "
            f"{bands_checked} gamma bands within the exact width bound")
