import importlib.util
import random
import subprocess
import sys
from collections import Counter, defaultdict
from math import gcd, lcm
from pathlib import Path

import pytest

import miqcp.cli
import miqcp.cqs
import miqcp.qp
import miqcp.rounding as rounding
import miqcp.solver
from miqcp.cqs import (
    ConvexQuadraticSet,
    classify_fulldim,
    fulldim_reduce_cqs,
    quadratic_feasible_point,
    slice_point,
)
from miqcp.diophantine import Empty
from miqcp.errors import PreconditionError
from miqcp.linalg import (
    det, dot, identity, integer_row, inverse, mat, mat_mul, mat_vec, norm_sq, null_space,
    vec_sub,
)
from miqcp.polyhedra import Polyhedron, _fulldim_probe, implicit_equalities, lp_min
from miqcp.qp import QpObjective, recession_cone
from miqcp.rational import Rat, ZERO, ONE, rround
from miqcp.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED
from miqcp.rounding import (
    SandwichResult,
    Simplex,
    ceil_sqrt,
    cqs_is_bounded,
    grow_simplex,
    sandwich,
    seed_simplex,
)

import corpus
from test_cqs import _LpCount
from test_polyhedra import box


def inactive_quadratic_box(lo, hi, p):
    n = len(lo)
    h_mat = [[Rat(1) if i == j else Rat(0) for j in range(n)] for i in range(n)]
    eta = Rat(sum(max(abs(a), abs(b)) ** 2 for a, b in zip(lo, hi)) + 10)
    return ConvexQuadraticSet(box(lo, hi, p=p), QpObjective(h_mat, [Rat(0)] * n), eta)


def test_ceil_sqrt_values():
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(4) == 2
    assert ceil_sqrt(5) == 3  # 2^2 < 5 <= 3^2
    for p in range(1, 200):
        k = ceil_sqrt(p)
        assert k * k >= p and (k - 1) * (k - 1) < p


def _reference_ceil_sqrt(p):
    """The integer binary search `ceil_sqrt` used before `isqrt_ceil`."""
    lo, hi = 0, p
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * mid >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_ceil_sqrt_matches_the_binary_search():
    rng = random.Random(200)
    big = [rng.getrandbits(200) | (1 << 199) for _ in range(5)]
    roots = [rng.getrandbits(100) | (1 << 99) for _ in range(2)]
    big += [k * k + d for k in roots for d in (-1, 0, 1)]  # 200-bit squares and neighbours
    for p in list(range(1, 10 ** 4 + 1)) + big:
        assert ceil_sqrt(p) == _reference_ceil_sqrt(p)
    for p in (0, -3):
        with pytest.raises(PreconditionError):
            ceil_sqrt(p)


def test_exact_ratio_law():
    for p in range(1, 65):
        k = ceil_sqrt(p)
        r = Rat(1, p + k)
        big_r = Rat(2 * k)
        assert big_r / r == 2 * k * (p + k)
        assert big_r / r <= 4 * k ** 3


def _reference_cqs_is_bounded(q):
    """The per-cap rule: one polyhedron per coordinate LP, the recession
    cone with the single cap row +-r_i <= 1."""
    n = q.n
    rows, rhs = recession_cone(q.obj, q.poly)
    for i in range(n):
        for sign in (ONE, -ONE):
            cap = [ZERO] * n
            cap[i] = sign
            res = lp_min([-v for v in cap], Polyhedron(rows + [cap], rhs + [ONE], n=n))
            assert res.status == OPTIMAL
            if res.value < 0:
                return False
    return True


def _random_cone_set(rng):
    """A convex quadratic set whose recession cone is random: W from small
    integers, H = L^T L of random rank, h random or zero."""
    n = rng.randint(1, 4)
    w_mat = [[Rat(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(0, 2 * n))]
    w_rhs = [Rat(rng.randint(-2, 5)) for _ in w_mat]
    ell = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
    h_mat = [[Rat(sum(row[i] * row[j] for row in ell)) for j in range(n)] for i in range(n)]
    h_vec = [Rat(rng.randint(-3, 3)) if rng.random() < 0.6 else ZERO for _ in range(n)]
    poly = Polyhedron(w_mat, w_rhs, n=n)
    return ConvexQuadraticSet(poly, QpObjective(h_mat, h_vec), Rat(rng.randint(0, 9)))


def test_cqs_is_bounded():
    assert cqs_is_bounded(inactive_quadratic_box([0, 0], [1, 1], 1))
    ray_poly = Polyhedron(mat([[0, -1]]), [Rat(0)])  # x2 >= 0 only
    q = ConvexQuadraticSet(ray_poly, QpObjective(mat([[1, 0], [0, 0]]), [Rat(0), Rat(0)]), Rat(9))
    assert not cqs_is_bounded(q)
    # one capped polyhedron gives the verdict of the per-cap rule
    rng = random.Random(808)
    verdicts = set()
    for _ in range(150):
        q = _random_cone_set(rng)
        want = _reference_cqs_is_bounded(q)
        assert cqs_is_bounded(q) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def test_cqs_is_bounded_runs_one_phase1(monkeypatch):
    lps = _LpCount(monkeypatch)
    assert cqs_is_bounded(inactive_quadratic_box([0, 0, 0], [1, 1, 1], 3))
    assert (lps.solves, lps.phase1) == (6, 1)


def test_seed_simplex_runs_one_phase1(monkeypatch):
    # p = 3: the first point's LP, then one or two LPs per direction (the
    # first direction reuses that point as its minimum, and a maximum runs
    # only when the minimum stays in the hull): 6 LPs over the inner
    # polytope here, one phase 1 among them
    q = inactive_quadratic_box([0, 0, 0], [2, 1, 3], 3)
    inner = box([0, 0, 0], [2, 1, 3], p=3)
    lps = _LpCount(monkeypatch)
    points = seed_simplex(inner)
    assert len(points) == 4
    assert (lps.solves, lps.phase1) == (6, 1)


def test_implicit_equalities_run_one_phase1(monkeypatch):
    # the probe is its own LP (one solve_lp); the 4 per-row LPs share one phase 1
    poly = box([0, 0, 0], [2, 2, 2], p=3).with_equality([ONE, -ONE, ZERO], ZERO)
    lps = _LpCount(monkeypatch)
    assert implicit_equalities(poly) == [6, 7]
    assert (lps.solves, lps.phase1) == (5, 2)


def test_seed_simplex_interval():
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    pts = seed_simplex(classify_fulldim(q).polytope)
    assert len(pts) == 2
    assert pts[0] != pts[1]
    for y in pts:
        assert 0 <= y[0] <= 1
        assert slice_point(q, y) is not None


def test_seed_simplex_3d_projected_to_2d():
    q = inactive_quadratic_box([0, 0, 0], [1, 1, 1], 2)
    pts = seed_simplex(classify_fulldim(q).polytope)
    assert len(pts) == 3
    sim = Simplex(pts)
    assert sim.volume > 0


def test_seed_simplex_rejects_flat_set():
    # a flat inner polytope (the segment x1 = 0) is a caller's error
    flat = box([0, 0], [1, 1], p=1).with_equality([Rat(1), Rat(0)], Rat(0))
    with pytest.raises(PreconditionError, match="not full-dimensional"):
        seed_simplex(flat)
    # and so are an empty and an unbounded one
    with pytest.raises(PreconditionError, match="nonempty polytope"):
        seed_simplex(box([0, 0], [1, 1], p=1).with_equality([Rat(1), Rat(0)], Rat(2)))
    with pytest.raises(PreconditionError, match="nonempty polytope"):
        seed_simplex(Polyhedron(mat([[1, 0]]), [Rat(0)], p=1))


def test_sandwich_refuses_flat_or_unbounded_sets():
    # the checks seed_simplex made before it took its polytope from sandwich
    flat = box([0, 0], [1, 1], p=1).with_equality([Rat(1), Rat(0)], Rat(0))
    disc = QpObjective(mat([[1, 0], [0, 1]]), [Rat(0), Rat(0)])
    with pytest.raises(PreconditionError, match="full-dimensional"):
        sandwich(ConvexQuadraticSet(flat, disc, Rat(9)))
    # x1^2 <= 9 over the half-plane x2 >= 0 is full-dimensional but unbounded
    half_plane = Polyhedron(mat([[0, -1]]), [Rat(0)], p=1)
    strip = ConvexQuadraticSet(half_plane, QpObjective(mat([[1, 0], [0, 0]]), [Rat(0), Rat(0)]), Rat(9))
    with pytest.raises(PreconditionError, match="unbounded"):
        sandwich(strip)


def test_compute_facets_normalization():
    sim = Simplex([[Rat(0), Rat(0)], [Rat(1), Rat(0)], [Rat(0), Rat(1)]])
    assert sim.check_facets()


def _reference_primitive(normal):
    ell = lcm(*[v.denominator for v in normal])
    ints = [v.numerator * (ell // v.denominator) for v in normal]
    g = gcd(*[abs(v) for v in ints])
    return [Rat(v // g) for v in ints]


def _reference_compute_facets(vertices):
    """Facet (normal, offset) opposite each vertex from exact null spaces:
    the construction `Simplex` replaced, kept as its reference."""
    p = len(vertices) - 1
    facets = []
    for i in range(p + 1):
        others = [v for j, v in enumerate(vertices) if j != i]
        if p == 1:
            normal = [Rat(1)]
        else:
            rows = [[others[j][t] - others[0][t] for t in range(p)]
                    for j in range(1, p)]
            ns = null_space(rows)
            normal = _reference_primitive([ns[t][0] for t in range(p)])
        offset = dot(normal, others[0])
        val = dot(normal, vertices[i])
        if val == offset:
            raise PreconditionError("degenerate simplex: vertex on opposite facet")
        if val > offset:
            normal = [-v for v in normal]
            offset = -offset
        facets.append((normal, offset))
    return facets


def test_simplex_facts_match_null_space_reference():
    # facets, |det E| and B = E^-1 from one inverse equal the null-space
    # facets, a separate determinant and the true inverse
    rng = random.Random(6060)
    cases = [[[Rat(1)], [Rat(1)]],
             [[Rat(0), Rat(0)], [Rat(1), Rat(2)], [Rat(3), Rat(6)]]]
    for trial in range(300):
        p = 1 + trial % 4
        den = rng.choice([1, 3, 10 ** 9, 2 ** 61 - 1])
        span = rng.choice([2, 10 ** 6])
        cases.append([[Rat(rng.randint(-span, span), rng.randint(1, den)) for _ in range(p)]
                      for _ in range(p + 1)])
    degenerate = 0
    for vertices in cases:
        p = len(vertices) - 1
        e_mat = [[vertices[j + 1][i] - vertices[0][i] for j in range(p)] for i in range(p)]
        if det(e_mat) == 0:
            degenerate += 1
            with pytest.raises(PreconditionError):
                _reference_compute_facets(vertices)
            with pytest.raises(PreconditionError):
                Simplex(vertices)
            continue
        sim = Simplex(vertices)
        assert sim.facets == _reference_compute_facets(vertices)
        assert all(v.denominator == 1 for normal, _ in sim.facets for v in normal)
        edges = [[v[i] - sim.vertices[0][i] for v in sim.vertices[1:]] for i in range(p)]
        assert sim.volume == abs(det(e_mat)) == abs(det(edges))
        assert mat_mul(SandwichResult(ONE, ONE, sim).b_mat, e_mat) == identity(p)
        assert sim.check_facets()
    assert 2 < degenerate < 30


CENTER = [Rat(1, 2), Rat(1, 2)]  # the anchor: an interior point of [0, 1]^2


def test_grow_interval_spec_example():
    # proj interval [0, 1]; seed [0, 1/8] grows to width >= 2/3 quickly
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    s0 = Simplex([[Rat(0)], [Rat(1, 8)]])
    grown, trace = grow_simplex(q, s0, CENTER)
    width = abs(grown.vertices[1][0] - grown.vertices[0][0])
    assert width >= Rat(2, 3)
    # every accepted expansion multiplied the volume by >= 3/2
    for a, b in zip(trace, trace[1:]):
        assert b * 2 >= a * 3
    assert len(trace) - 1 <= 6  # within ceil(log_{3/2} 8) accepted expansions
    # termination bound: (3/2)^accepted * vol_0 <= vol_final
    accepted = len(trace) - 1
    assert Rat(3, 2) ** accepted * trace[0] <= trace[-1]


def test_grow_fixed_point():
    # a simplex already certified maximal stays unchanged
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    s0 = Simplex([[Rat(0)], [Rat(1)]])
    grown, trace = grow_simplex(q, s0, CENTER)
    assert sorted(v[0] for v in grown.vertices) == [0, 1]
    assert len(trace) == 1


def test_grow_rejects_outside_seed():
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    s0 = Simplex([[Rat(0)], [Rat(7)]])
    with pytest.raises(PreconditionError):
        grow_simplex(q, s0, CENTER)


def test_sandwich_formulas_p1():
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    res = sandwich(q)
    assert res.r == Rat(1, 2)
    assert res.big_r == 2
    assert res.big_r / res.r == 4 == 4 * ceil_sqrt(1) ** 3


def test_sandwich_formula_table():
    # r and R depend only on p
    for p, (r_expect, big_expect) in {
        1: (Rat(1, 2), Rat(2)),
        4: (Rat(1, 6), Rat(4)),
    }.items():
        k = ceil_sqrt(p)
        assert Rat(1, p + k) == r_expect
        assert Rat(2 * k) == big_expect
    assert Rat(4) / Rat(1, 6) == 24 <= 32


def _ball_samples_inside(a, r, p):
    """Rational points in B(a, r): axis points on the sphere, scaled diagonal."""
    pts = []
    for i in range(p):
        for sign in (1, -1):
            z = list(a)
            z[i] = z[i] + sign * r
            pts.append(z)
    # all-ones direction scaled strictly inside: |e| = sqrt(p) <= p, use r/p
    diag = [v + r / p for v in a]
    pts.append(diag)
    return pts


def test_sandwich_inner_ball_membership_box2d():
    q = inactive_quadratic_box([0, 0], [1, 1], 2)
    res = sandwich(q)
    from miqcp.linalg import inverse
    binv = inverse(res.b_mat)
    for z in _ball_samples_inside(res.a, res.r, 2):
        y = mat_vec(binv, z)
        assert slice_point(q, y) is not None, f"inner sample {z} escaped"


def test_sandwich_outer_ball_contains_integer_points():
    q = inactive_quadratic_box([-2, -2], [2, 2], 2)
    res = sandwich(q)
    for x1 in range(-2, 3):
        for x2 in range(-2, 3):
            x = [Rat(x1), Rat(x2)]
            if q.contains(x):
                z = mat_vec(res.b_mat, x)
                assert norm_sq(vec_sub(z, res.a)) <= res.big_r ** 2


def test_sandwich_facet_certificate():
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    res = sandwich(q)
    sim = res.simplex
    assert sim.check_facets()
    # certified: for each facet, all of proj(Q) is within 3/2 the facet gap
    for i, (normal, offset) in enumerate(sim.facets):
        gap = offset - dot(normal, sim.vertices[i])
        for yval in (Rat(0), Rat(1, 3), Rat(1)):
            assert abs(offset - normal[0] * yval) <= Rat(3, 2) * gap


# --- the grow loop's closed form and LP bracket ------------------------------


def _reference_cut_feasible_point(q, cut_row, cut_rhs):
    """A point of Q with cut_row . x <= cut_rhs, or None (exact decision)."""
    poly = q.poly.with_rows([list(cut_row)], [cut_rhs])
    return quadratic_feasible_point(q.obj, poly, q.eta)


def _minimizes_over_half_space(obj, row, t, x):
    """Whether x minimizes q over the half-space row . x <= t: KKT with
    gradient 2 H x + h = -mu row, mu >= 0, and the cut tight when mu > 0."""
    grad = [2 * dot(r, x) + c for r, c in zip(obj.h_mat, obj.h_vec)]
    k = next(j for j, r in enumerate(row) if r != 0)
    mu = -grad[k] / row[k]
    return (mu >= 0 and all(g == -mu * r for g, r in zip(grad, row))
            and dot(row, x) <= t and (mu == 0 or dot(row, x) == t))


def _reference_push(q, sim, i, anchor, runs):
    """`rounding._push` from the cut QP alone: one `quadratic_feasible_point`
    on the 3/2 cut of every sense, with no closed form and no kept bound;
    runs, the grow's records, is not read.  A cut that meets Q gives its
    QP point a when a minimizes a definite q over the whole half-space (the
    closed form's point), else the run LP's vertex v when v lies in Q,
    else the first a + (v - a) / 2^j, j = 1..64, in Q, else a."""
    normal, offset = sim.facets[i]
    step = Rat(3, 2) * (offset - dot(normal, sim.vertices[i]))
    for sense in (1, -1):
        row = rounding._lift_direction([-sense * v for v in normal], q.n)
        t = -sense * offset - step
        a = _reference_cut_feasible_point(q, row, t)
        if a is None:
            continue
        lp = lp_min(row, q.poly)
        v = lp.x if lp.is_optimal else None
        if v is None or q.obj.definite and _minimizes_over_half_space(q.obj, row, t, a):
            pt = a
        elif q.contains(v):
            pt = v
        else:
            slid = ([x + (y - x) / 2 ** j for x, y in zip(a, v)] for j in range(1, 65))
            pt = next((x for x in slid if q.contains(x)), a)
        return rounding._simplify_accepted_point(q, *integer_row(pt), anchor, row, t)
    return None


def _grow_inputs(q):
    """The seed simplex and anchor `sandwich` hands `grow_simplex`."""
    inner = classify_fulldim(q).polytope
    return Simplex(seed_simplex(inner)), _fulldim_probe(inner).point


def _assert_same_trajectory(monkeypatch, q):
    s0, anchor = _grow_inputs(q)
    grown, trace = grow_simplex(q, s0, anchor, check=False)
    with monkeypatch.context() as m:
        m.setattr(rounding, "_push", _reference_push)
        ref_grown, ref_trace = grow_simplex(q, s0, anchor, check=False)
    assert grown.vertices == ref_grown.vertices
    assert trace == ref_trace
    return len(trace) - 1


def _gram(rng, k, n):
    ell = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
    return [[Rat(sum(row[i] * row[j] for row in ell)) for j in range(n)] for i in range(n)]


def _seeded_set(rng, n, p, h_mat, h_vec, poly=None):
    """Q = P and q(x) <= eta with P a box cut by a row through an interior
    point, and eta above q at the box centre."""
    if poly is None:
        radius = rng.randint(2, 6)
        row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
        poly = box([-radius] * n, [radius] * n, p=p).with_rows([row], [Rat(rng.randint(1, radius))])
    obj = QpObjective(h_mat, h_vec)
    eta = obj.value([ZERO] * n) + rng.randint(1, 40)
    return ConvexQuadraticSet(poly, obj, eta)


def _pd_set(rng, n, p):
    gram = _gram(rng, rng.randint(0, n), n)
    h_mat = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(gram)]
    return _seeded_set(rng, n, p, h_mat, [Rat(rng.randint(-4, 4), 3) for _ in range(n)])


def test_grow_trajectory_unchanged_on_definite_sets(monkeypatch):
    rng = random.Random(1301)
    moved = 0
    for _ in range(8):
        n = rng.randint(1, 3)
        q = _pd_set(rng, n, rng.randint(1, n))
        assert q.obj.definite
        moved += _assert_same_trajectory(monkeypatch, q)
    assert moved > 8


def test_grow_trajectory_unchanged_on_singular_and_zero_quadratics(monkeypatch):
    rng = random.Random(1302)
    moved = 0
    for _ in range(6):
        n = rng.randint(2, 3)
        gram = _gram(rng, rng.randint(1, n - 1), n)  # rank < n
        q = _seeded_set(rng, n, rng.randint(1, n), gram,
                        [Rat(rng.randint(-3, 3)) for _ in range(n)])
        assert not q.obj.definite
        moved += _assert_same_trajectory(monkeypatch, q)
    for _ in range(4):
        n = rng.randint(1, 3)
        zero = [[ZERO] * n for _ in range(n)]
        q = _seeded_set(rng, n, rng.randint(1, n), zero, [ZERO] * n)
        q = ConvexQuadraticSet(q.poly, q.obj, ZERO)  # q = 0: Q = P
        moved += _assert_same_trajectory(monkeypatch, q)
    assert moved > 8


def test_grow_trajectory_unchanged_when_the_run_lp_is_unbounded(monkeypatch):
    # P = {x2 >= -1, x1 + x2 <= 4} is unbounded; the disc x1^2 + x2^2 <= 9 is not
    statuses = []
    lp = rounding.lp_min

    def recording(c, poly):
        res = lp(c, poly)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(rounding, "lp_min", recording)
    poly = Polyhedron(mat([[0, -1], [1, 1]]), [Rat(1), Rat(4)], p=2)
    q = ConvexQuadraticSet(poly, QpObjective(identity(2), [ZERO, ZERO]), Rat(9))
    assert cqs_is_bounded(q)
    assert _assert_same_trajectory(monkeypatch, q) > 0
    assert UNBOUNDED in statuses and OPTIMAL in statuses


def _load_bench_family(name):
    """perfbench's `<name>_family` builder, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("_perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, name + "_family")


def _bench_entry(source):
    """(kind, parsed) of the seed-2024 bench instance named source, or
    None for a corpus name; parsed as perfbench/run.py parses it."""
    family = source.split("_")[0]
    if family not in ("pdepth", "radius", "msplit"):
        return None
    entry = next(e for e in _load_bench_family(family)(2024) if e["name"] == source)
    return entry["kind"], miqcp.cli.parse_instance(entry["text"])


def _solve(source):
    """Solve the corpus instance named source, or the seed-2024 bench
    instance of that name, as perfbench/run.py solves it."""
    bench = _bench_entry(source)
    if bench is None:
        return miqcp.solver.optimize(dict(corpus.corpus())[source])
    kind, parsed = bench
    if kind == "optimize":
        return miqcp.solver.optimize(parsed.micqp)
    return miqcp.solver.feasibility(parsed.quad, parsed.micqp.declared_box)


def _milp_set(source):
    """The reduced set of source's MILP check, the identically-zero
    objective over its polyhedron cut by its box (`solver._boxed`), or None
    when the reduction leaves it empty or with no integer variable.  The
    solver rounds P's probe point before it sandwiches such a set, so a
    test that grows one builds it here."""
    bench = _bench_entry(source)
    inst = dict(corpus.corpus())[source] if bench is None else bench[1].micqp
    out = fulldim_reduce_cqs(miqcp.solver._boxed(miqcp.solver._milp_cqs(inst.poly),
                                                 inst.declared_box))
    return None if isinstance(out, Empty) or out[1].p == 0 else out[1]


def _solver_sets(monkeypatch, source):
    """Every reduced Q that the solve of source (`_solve`) asks its lattice
    question of: the sets it sandwiches and the level ellipsoids inside P
    it asks directly (`solver._ellipsoid_question`), and its MILP check's
    set (`_milp_set`).  Each is a bounded full-dimensional set that a
    sandwich may be grown in."""
    seen = []
    with monkeypatch.context() as m:
        for name in ("_sandwich_question", "_ellipsoid_question"):
            question = getattr(miqcp.solver, name)
            m.setattr(miqcp.solver, name, lambda q, question=question: seen.append(q) or question(q))
        _solve(source)
    milp = _milp_set(source)
    return seen if milp is None else seen + [milp]


# the pdepth, radius and gen_34 sets are definite and not (the definite
# pdepth and radius sets are level ellipsoids inside P, which the solver
# asks with no sandwich, and their MILP checks' zero sets, which it rounds
# first, are grown here all the same); gen_24 and gen_27 meet only
# semidefinite and zero objectives; only on gen_34 does a definite set
# send a probe past the closed form to a QP
@pytest.mark.parametrize("source", ["pdepth_p2", "pdepth_p3", "radius_1e12", "gen_24", "gen_27",
                                    "gen_34"])
def test_grow_trajectory_unchanged_on_solver_sets(monkeypatch, source):
    sets = _solver_sets(monkeypatch, source)
    assert any(not q.obj.definite for q in sets)
    assert any(q.obj.definite for q in sets) == (source not in ("gen_24", "gen_27"))
    definite_qps = []
    feasible_point = rounding.quadratic_feasible_point
    monkeypatch.setattr(rounding, "quadratic_feasible_point",
                        lambda obj, *a: definite_qps.append(obj.definite) or feasible_point(obj, *a))
    for q in sets:
        _assert_same_trajectory(monkeypatch, q)
    assert any(definite_qps) == (source == "gen_34")


def test_every_grow_ends_at_a_fixed_point(monkeypatch):
    # the sandwich's bound R/r <= 4 ceil(sqrt(p))^3 rests on the grown
    # simplex alone: no facet's 3/2 cut, in either sense, holds a point of
    # Q, and every vertex lies in proj_p(Q)
    grows = []
    grow = rounding.grow_simplex

    def recording(q, *args, **kwargs):
        out = grow(q, *args, **kwargs)
        grows.append((q, out[0]))
        return out

    monkeypatch.setattr(rounding, "grow_simplex", recording)
    sources = ["gen_18", "gen_24", "gen_27", "gen_34", "pdepth_p2", "pdepth_p3", "radius_1e12",
               "msplit_0"]
    facet_senses = 0
    for source in sources:
        before = len(grows)
        _solve(source)
        # the MILP check's zero set is rounded first, so it is sandwiched here
        sandwich(_milp_set(source))
        assert len(grows) > before
    for q, sim in grows:
        assert all(slice_point(q, v) is not None for v in sim.vertices)
        for i, (normal, offset) in enumerate(sim.facets):
            step = Rat(3, 2) * (offset - dot(normal, sim.vertices[i]))
            for sense in (1, -1):
                row = rounding._lift_direction([-sense * v for v in normal], q.n)
                assert _reference_cut_feasible_point(q, row, -sense * offset - step) is None
                facet_senses += 1
    assert len(grows) > len(sources) and facet_senses > 4 * len(grows)


def test_cut_below_the_bracket_runs_no_qp(monkeypatch):
    # [0, 1] is all of proj Q, so every cut of both runs misses P
    q = inactive_quadratic_box([0, 0], [1, 1], 1)
    classify_fulldim(q)  # q's minimum over P, as `sandwich` keeps it
    s0 = Simplex([[Rat(0)], [Rat(1)]])
    qps = []
    qp_min = miqcp.cqs.qp_min
    monkeypatch.setattr(miqcp.cqs, "qp_min", lambda *a: qps.append(a) or qp_min(*a))
    grown, trace = grow_simplex(q, s0, CENTER, check=False)
    assert len(trace) == 1 and qps == []
    monkeypatch.setattr(rounding, "_push", _reference_push)
    grow_simplex(q, s0, CENTER, check=False)
    assert len(qps) == 4  # one infeasible QP per (facet, sense) run


def _zero_set(poly):
    """Q = P: the identically-zero objective with eta = 0."""
    n = poly.n
    return ConvexQuadraticSet(poly, QpObjective([[ZERO] * n for _ in range(n)], [ZERO] * n), ZERO)


def _pushes_match_the_reference(monkeypatch, q, sim, anchor):
    """_push and `_reference_push` agree on every facet of sim.  Returns,
    per facet, the QPs `_push` ran and whether it found a point."""
    qps, found = [], []
    feasible_point = rounding.quadratic_feasible_point
    for i in range(sim.p + 1):
        ran = []
        with monkeypatch.context() as m:
            m.setattr(rounding, "quadratic_feasible_point",
                      lambda *a: ran.append(a) or feasible_point(*a))
            got = rounding._push(q, sim, i, anchor, defaultdict(rounding._RowRuns))
        assert got == _reference_push(q, sim, i, anchor, defaultdict(rounding._RowRuns))
        assert len(ran) <= 2  # at most one QP per sense
        qps.append(len(ran))
        found.append(got is not None)
    return qps, found


def test_zero_objective_push_matches_the_reference_when_the_run_lp_is_unbounded(monkeypatch):
    # P = {x2 >= -1, x1 + x2 <= 4} is unbounded toward x1 = -infinity: a
    # run with no LP vertex asks its cut QP, and the push keeps its point
    poly = Polyhedron(mat([[0, -1], [1, 1]]), [Rat(1), Rat(4)], p=2)
    sim = Simplex([[ZERO, ZERO], [ONE, ZERO], [ZERO, ONE]])
    statuses = []
    lp = rounding.lp_min

    def recording(c, poly):
        res = lp(c, poly)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(rounding, "lp_min", recording)
    qps, found = _pushes_match_the_reference(monkeypatch, _zero_set(poly), sim, [ZERO, ZERO])
    assert UNBOUNDED in statuses
    assert any(n > 0 and f for n, f in zip(qps, found))


def test_zero_objective_push_runs_no_qp_when_the_cut_misses(monkeypatch):
    # [0, 1] is all of proj P, so the cut of each run misses P
    q = _zero_set(box([0, 0], [1, 1], p=1))
    sim = Simplex([[ZERO], [ONE]])
    tests = []
    misses = rounding._cut_misses
    monkeypatch.setattr(rounding, "_cut_misses",
                        lambda *a: tests.append(misses(*a)) or tests[-1])
    qps, found = _pushes_match_the_reference(monkeypatch, q, sim, CENTER)
    assert qps == [0, 0] and found == [False, False]
    # each of the four runs asked one bound test, which missed
    assert tests == [True] * 4


def _unit_cube_inputs(q):
    """The seed simplex and anchor of a zero set q grown from P cut by the
    unit cube around P's probe point, a seed that leaves pushes to accept
    (a seed in P itself may already span the grown simplex)."""
    center = _fulldim_probe(q.poly).point
    inner = q.poly.with_box([v - 1 for v in center], [v + 1 for v in center])
    return Simplex(seed_simplex(inner)), _fulldim_probe(inner).point


def test_zero_objective_push_matches_the_reference_on_ordinary_runs(monkeypatch):
    # Q = P with a bounded P: every cut the run LP leaves open holds its
    # vertex, which lies in Q, so no push runs a QP
    rng = random.Random(2201)
    pushes = Counter()
    for _ in range(6):
        n = rng.randint(1, 3)
        zero = [[ZERO] * n for _ in range(n)]
        q = _zero_set(_seeded_set(rng, n, rng.randint(1, n), zero, [ZERO] * n).poly)
        s0, anchor = _unit_cube_inputs(q)
        qps, found = _pushes_match_the_reference(monkeypatch, q, s0, anchor)
        pushes.update(zip(qps, found))
    assert set(pushes) == {(0, True), (0, False)}


def test_zero_objective_grow_runs_no_qp(monkeypatch):
    rng = random.Random(2202)
    for _ in range(4):
        n = rng.randint(1, 3)
        zero = [[ZERO] * n for _ in range(n)]
        q = _zero_set(_seeded_set(rng, n, rng.randint(1, n), zero, [ZERO] * n).poly)
        s0, anchor = _unit_cube_inputs(q)
        qps = []
        feasible_point = rounding.quadratic_feasible_point
        with monkeypatch.context() as m:
            m.setattr(rounding, "quadratic_feasible_point",
                      lambda *a: qps.append(a) or feasible_point(*a))
            _, trace = grow_simplex(q, s0, anchor, check=False)
        assert qps == [] and len(trace) > 1


def _grow_records(monkeypatch, q, s0, anchor):
    """(vertices, trace, lp_min calls by row, _run_lp calls, the grow's
    records by row) of one grow_simplex of q."""
    lps, run_lps, records = [], [], []
    lp, run_lp, push = rounding.lp_min, rounding._run_lp, rounding._push
    with monkeypatch.context() as m:
        m.setattr(rounding, "lp_min", lambda c, poly: lps.append(tuple(c)) or lp(c, poly))
        m.setattr(rounding, "_run_lp", lambda *a: run_lps.append(a) or run_lp(*a))
        m.setattr(rounding, "_push", lambda *a: records.append(a[-1]) or push(*a))
        grown, trace = grow_simplex(q, s0, anchor, check=False)
    assert all(runs is records[0] for runs in records)  # one record map for the whole grow
    return grown.vertices, trace, lps, len(run_lps), records[0]


def test_the_run_lps_are_kept_by_row_within_one_grow(monkeypatch):
    # a facet normal that survives an accepted push asks for its run LP
    # again; the grow answers from its record of the row
    rng = random.Random(2203)
    reused = 0
    for _ in range(4):
        n = rng.randint(2, 3)
        zero = [[ZERO] * n for _ in range(n)]
        q = _zero_set(_seeded_set(rng, n, n, zero, [ZERO] * n).poly)
        s0, anchor = _grow_inputs(q)
        verts, _, lps, run_lps, runs = _grow_records(monkeypatch, q, s0, anchor)
        reused += run_lps - len(lps)
        # a zero objective asks every run's LP (`_cut_misses` on its cut)
        assert sorted(lps) == sorted(set(lps)) == sorted(runs)
        assert all(run.lp == lp_min(list(row), q.poly) for row, run in runs.items())
        # a second grow of the same set runs the same LPs again
        again, _, lps_again, _, _ = _grow_records(monkeypatch, q, s0, anchor)
        assert again == verts and lps_again == lps
    assert reused > 0


def test_growing_a_set_twice_repeats_the_grow_and_leaves_the_set_as_it_was(monkeypatch):
    # the grow's records are its own: a second grow of the set runs the
    # same LPs and QPs again, and the set holds its data and `_level` only
    rng = random.Random(2601)
    n = rng.randint(2, 3)
    zero = [[ZERO] * n for _ in range(n)]
    sets = [_pd_set(rng, 2, 2), _semidefinite_set(rng), _disc(([ONE, ONE], ONE)),
            _zero_set(_seeded_set(rng, n, n, zero, [ZERO] * n).poly)]
    total = Counter()
    lp, qp_min = rounding.lp_min, miqcp.cqs.qp_min
    for q in sets:
        s0, anchor = _grow_inputs(q)
        grows = []
        for _ in range(2):
            calls = Counter()
            with monkeypatch.context() as m:
                m.setattr(rounding, "lp_min", lambda *a: calls.update(["lp"]) or lp(*a))
                m.setattr(miqcp.cqs, "qp_min", lambda *a: calls.update(["qp"]) or qp_min(*a))
                grown, trace = grow_simplex(q, s0, anchor, check=False)
            grows.append((grown.vertices, trace, calls))
            total += calls
        assert grows[0] == grows[1]
        assert set(vars(q)) == {"poly", "obj", "eta", "_level"}
    assert total["lp"] > 0 and total["qp"] > 0


def _grow_probe_lines(workload):
    """{kind: {column: count}} as `tools/grow_probes.py` prints them."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "grow_probes.py"
    out = subprocess.run([sys.executable, str(tool), "--workload", workload],
                         capture_output=True, text=True, check=True).stdout
    lines = {}
    for line in out.splitlines():
        kind, cols = line.split(": ")
        lines[kind] = {name: int(v) for name, v in (col.split(" ") for col in cols.split(" / "))}
    assert list(lines) == ["definite", "semidefinite", "linear", "zero", "total"]
    assert all(sum(c[k] for c in list(lines.values())[:4]) == lines["total"][k]
               for k in lines["total"])
    return lines


def test_grow_probes_tool_prints_the_four_kinds():
    # radius grows nothing: its MILP checks round P's probe point to a
    # point, and its optimality probes' sets are definite level ellipsoids
    # inside P, asked with no sandwich
    assert not any(any(cols.values()) for cols in _grow_probe_lines("radius").values())
    # msplit grows only zero sets, and the run LP decides every question:
    # it proves the cut empty, or its vertex is the accepted point
    lines = _grow_probe_lines("msplit")
    zero = lines["zero"]
    assert zero["qp"] == 0 and zero["vertex"] == zero["accepted"] > 0 and zero["run_lp"] > 0
    assert zero["closed_form"] == 0
    assert lines["total"] == zero
    # no cut QP runs, so none has kept a bound
    assert zero["kept"] == 0
    # the corpus still sandwiches definite sets that stick out of P: the
    # closed form decides some of their questions, and only theirs
    corpus_lines = _grow_probe_lines("corpus")
    assert corpus_lines["definite"]["closed_form"] > 0
    assert all(corpus_lines[kind]["closed_form"] == 0 for kind in ("semidefinite", "linear", "zero"))


def _primitive_row(rng, n):
    while True:
        ints = [rng.randint(-3, 3) for _ in range(n)]
        if any(ints):
            g = gcd(*ints)
            return [Rat(v // g) for v in ints]


def _cut_rhs_values(obj, poly, row):
    """Right-hand sides t of the cut row . x <= t: xbar on the cut, xbar
    inside the half-space and beyond it, and every t whose half-space
    minimizer lands on the hyperplane of a row of P."""
    h_inv = inverse(obj.h_mat)
    xbar = [-v / 2 for v in mat_vec(h_inv, obj.h_vec)]
    u = mat_vec(h_inv, row)
    s, g = dot(row, xbar), dot(row, u)
    out = [s, s + 1, s - Rat(1, 3), s - 2, s - 7]
    for a, b in zip(poly.w_mat, poly.w_rhs):
        au = dot(a, u)
        if au != 0:
            lam = (dot(a, xbar) - b) / au
            if lam > 0:
                out.append(s - lam * g)
    return out


def test_closed_form_probe_matches_the_cut_qp():
    rng = random.Random(1401)
    seen = set()
    for k in range(30):
        n = 1 + k % 5
        radius = rng.randint(2, 5)
        poly = box([-radius] * n, [radius] * n, p=n)
        if k % 3:
            clip = _primitive_row(rng, n)
            poly = poly.with_rows([clip], [Rat(rng.randint(0, radius))])
        gram = _gram(rng, rng.randint(0, n), n)
        h_mat = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(gram)]
        # the free minimizer c: inside the box, or outside it every other set
        c = [Rat(rng.randint(-2 * radius, 2 * radius), rng.randint(1, 3)) for _ in range(n)]
        if k % 2:
            c[0] = Rat(radius + rng.randint(1, 3))
        obj = QpObjective(h_mat, [-2 * v for v in mat_vec(h_mat, c)])
        (xb_num, xb_den), _, q_bar = obj.free_minimum()
        xbar = [Rat(a, xb_den) for a in xb_num]
        assert xbar == c and q_bar == obj.value(c)
        seen.add("xbar outside P" if not poly.contains(c) else "xbar in P")
        for _ in range(2):
            row = _primitive_row(rng, n)
            for t in _cut_rhs_values(obj, poly, row):
                t_num, t_den = t.numerator, t.denominator
                _, x_num, x_den = rounding._half_space_run(
                    ConvexQuadraticSet(poly, obj, q_bar), row)[0](t_num, t_den)
                x = [Rat(a, x_den) for a in x_num]
                v = obj.value(x)
                for eta in (v, v + rng.randint(0, 30), v - Rat(1, 7)):
                    q = ConvexQuadraticSet(poly, obj, eta)
                    probe = rounding._half_space_run(q, row)[0]
                    decided, answer = rounding._decide_in_closed_form(q, probe, t_num, t_den)
                    ref = quadratic_feasible_point(obj, poly.with_rows([row], [t]), eta)
                    if decided:
                        pt = None if answer is None else [Rat(v, answer[1]) for v in answer[0]]
                        assert pt == ref
                        if pt is not None:
                            assert pt == x
                            seen.add("accepted")
                            seen.add("eta = v" if eta == v else "eta > v")
                            if 0 in poly.slacks(pt):
                                seen.add("on a facet of P")
                            if dot(row, xbar) == t:
                                seen.add("xbar on the cut")
                        else:
                            seen.add("rejected")
                    else:
                        assert v <= eta and not poly.contains(x)
                        seen.add("P binds")
    assert seen == {"xbar outside P", "xbar in P", "accepted", "eta = v", "eta > v",
                    "on a facet of P", "xbar on the cut", "rejected", "P binds"}


def test_the_second_probe_is_the_first_probe_of_the_negated_row():
    # one computation serves both senses: -row negates u and s and keeps g
    rng = random.Random(1402)
    for k in range(20):
        n = 1 + k % 4
        gram = _gram(rng, rng.randint(0, n), n)
        h_mat = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(gram)]
        obj = QpObjective(h_mat, [Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
        q = ConvexQuadraticSet(box([-3] * n, [3] * n, p=n), obj, Rat(rng.randint(-2, 9)))
        row = [Rat(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        if not any(row):
            continue
        above = rounding._half_space_run(q, row)[1]
        negated = rounding._half_space_run(q, [-v for v in row])[0]
        for _ in range(6):
            t_num, t_den = rng.randint(-40, 40), rng.randint(1, 5)
            assert above(t_num, t_den) == negated(t_num, t_den)


def _disc(*cut):
    """x1^2 + x2^2 <= 4 on [-3, 3]^2 (p = 2), with extra rows (row, rhs)."""
    poly = box([-3, -3], [3, 3], p=2)
    if cut:
        poly = poly.with_rows([list(r) for r, _ in cut], [b for _, b in cut])
    return ConvexQuadraticSet(poly, QpObjective(identity(2), [ZERO, ZERO]), Rat(4))


def _grow_costs(monkeypatch, q, push):
    """(qp_min calls, lp_min calls, grow probes through
    quadratic_feasible_point) of one grow_simplex with push as `_push`."""
    s0, anchor = _grow_inputs(q)
    calls = {"qp": 0, "lp": 0, "probe": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(miqcp.cqs, "qp_min", counted("qp", miqcp.cqs.qp_min))
        m.setattr(miqcp.qp, "lp_min", counted("lp", miqcp.qp.lp_min))
        m.setattr(rounding, "lp_min", counted("lp", rounding.lp_min))
        m.setattr(rounding, "quadratic_feasible_point",
                  counted("probe", rounding.quadratic_feasible_point))
        m.setattr(rounding, "_push", push)
        _, trace = grow_simplex(q, s0, anchor, check=False)
    assert len(trace) > 1
    return calls["qp"], calls["lp"], calls["probe"]


def test_disc_grows_in_closed_form(monkeypatch):
    q = _disc()
    assert _grow_costs(monkeypatch, q, rounding._push) == (0, 0, 0)
    qps, lps, _ = _grow_costs(monkeypatch, q, _reference_push)
    assert qps > 0 and lps > 0


def test_clipped_disc_sends_the_probes_where_p_binds_to_the_qp(monkeypatch):
    q = _disc(([ONE, ONE], ONE))
    qps, lps, probes = _grow_costs(monkeypatch, q, rounding._push)
    assert qps == probes > 0 and lps > 0


# --- bounds kept from the grow loop's cut QPs --------------------------------


def _semidefinite_set(rng):
    n = rng.randint(2, 3)
    gram = _gram(rng, rng.randint(1, n - 1), n)  # rank < n
    return _seeded_set(rng, n, rng.randint(1, n), gram, [Rat(rng.randint(-3, 3)) for _ in range(n)])


def _cut_values(kept_t):
    """Right-hand sides of a grid around a kept t."""
    return [kept_t + d for d in (-5, -2, -1, Rat(-1, 7), 0, Rat(1, 3), 1, 3)]


def test_kept_cut_bounds_hold_on_a_grid_of_cuts(monkeypatch):
    # phi(t) = min {q(x) : x in P, row . x <= t}: every bound a cut QP sets,
    # from its failure or from a supporting line of phi, proves only cuts
    # that hold no point of Q
    rng = random.Random(2501)
    seen = Counter()
    for k in range(64):  # definite cut QPs that fail are rare: the closed form decides most
        n = rng.randint(1, 3)
        q = _pd_set(rng, n, rng.randint(1, n)) if k % 2 else _semidefinite_set(rng)
        kind = "definite" if q.obj.definite else "semidefinite"
        s0, anchor = _grow_inputs(q)
        bounds = []  # (row, bound, closed, what set it)
        keep = rounding._keep_cut_bound

        def kept(q, run, t, cut, pt):
            before = (run.bound, run.closed)
            keep(q, run, t, cut, pt)
            if (run.bound, run.closed) != before:
                bounds.append((cut.w_mat[-1], run.bound, run.closed,  # the cut's row is last
                               "failure" if pt is None else "line"))

        with monkeypatch.context() as m:
            m.setattr(rounding, "_keep_cut_bound", kept)
            grow_simplex(q, s0, anchor, check=False)
        for row, bound, closed, source in bounds:
            assert closed == (source == "failure")
            seen[kind, source] += 1
            for t in _cut_values(bound):
                if not (t < bound or closed and t == bound):
                    continue
                res = miqcp.qp.qp_min(q.obj, q.poly.with_rows([list(row)], [t]))
                assert res.status in (OPTIMAL, INFEASIBLE)
                assert not res.is_optimal or res.value > q.eta
                seen[kind, source, "proven empty"] += 1
    # both sources set bounds, on definite and on semidefinite sets, and
    # each source's bounds proved some grid cut empty
    pairs = {(kind, source) for kind in ("definite", "semidefinite")
             for source in ("failure", "line")}
    assert set(seen) == pairs | {pair + ("proven empty",) for pair in pairs}, seen


def _grow_qps(monkeypatch, q, keep):
    """(vertices, trace, qp_min calls) of growing a fresh copy of q with
    keep as `_keep_cut_bound`."""
    q = ConvexQuadraticSet(q.poly, q.obj, q.eta)
    s0, anchor = _grow_inputs(q)
    qps = []
    qp_min = miqcp.cqs.qp_min
    with monkeypatch.context() as m:
        m.setattr(miqcp.cqs, "qp_min", lambda *a: qps.append(a) or qp_min(*a))
        m.setattr(rounding, "_keep_cut_bound", keep)
        grown, trace = grow_simplex(q, s0, anchor, check=False)
    return grown.vertices, trace, len(qps)


@pytest.mark.parametrize("source", ["gen_24", "gen_27"])
def test_kept_cut_bounds_save_qps_and_keep_the_trajectory(monkeypatch, source):
    sets = _solver_sets(monkeypatch, source)
    kept_qps = stubbed_qps = 0
    for q in sets:
        verts, trace, kept = _grow_qps(monkeypatch, q, rounding._keep_cut_bound)
        ref_verts, ref_trace, stubbed = _grow_qps(monkeypatch, q, lambda *a: None)
        assert verts == ref_verts and trace == ref_trace
        kept_qps += kept
        stubbed_qps += stubbed
    assert kept_qps < stubbed_qps


def _reference_simplify_accepted_point(q, pt, anchor, cut_row, cut_rhs0, seen):
    """`rounding._simplify_accepted_point` on Fractions, the construction
    the integer one replaced, with membership read from P's rows and q's
    value; seen collects why candidates failed and which rounded on a tie."""
    def keeps(x):
        if dot(cut_row, x) > cut_rhs0:
            seen.add("rejected by the cut")
            return False
        if not (q.poly.contains(x) and q.obj.value(x) <= q.eta):
            seen.add("rejected by q")
            return False
        return True

    base = pt
    for theta in (Rat(1, 8), Rat(1, 64)):
        mix = [a + theta * (b - a) for a, b in zip(pt, anchor)]
        if keeps(mix):
            seen.add("mixed")
            base = mix
            break
    for bits in (4, 8, 16, 32, 64):
        scale = 1 << bits
        if any((v * scale).denominator == 2 for v in base):
            seen.add("half-grid tie")
        rounded = [Rat(rround(v * scale), scale) for v in base]
        if keeps(rounded):
            seen.add("rounded")
            return rounded
    seen.add("kept pt")
    return pt


def _grid_entry(rng, radius):
    """A coordinate in [-radius, radius] on a grid that makes ties likely."""
    den = rng.choice([1, 2, 4, 32, 64, 3, 7, 2 ** 17 + 1])
    return Rat(rng.randint(-radius * den, radius * den), den)


def test_simplify_accepted_point_matches_the_fraction_reference():
    rng = random.Random(1616)
    seen = set()
    for k in range(400):
        n = 1 + k % 3
        radius = rng.randint(1, 4)
        poly = box([-radius] * n, [radius] * n, p=n)
        if k % 2:
            poly = poly.with_rows([_primitive_row(rng, n)], [Rat(rng.randint(0, radius))])
        gram = _gram(rng, rng.randint(0, n), n)
        h_mat = [[v + (i == j) * rng.randint(0, 1) for j, v in enumerate(row)]
                 for i, row in enumerate(gram)]
        obj = QpObjective(h_mat, [_grid_entry(rng, 2) for _ in range(n)])
        pt = [_grid_entry(rng, radius) for _ in range(n)]
        anchor = [_grid_entry(rng, radius) for _ in range(n)]
        if any(v < 0 for v in pt):
            seen.add("negative coordinate")
        eta = obj.value(pt) + rng.choice([0, 0, Rat(1, 64), 1, 10])
        q = ConvexQuadraticSet(poly, obj, eta)
        row = _primitive_row(rng, n)
        rhs = dot(row, pt) + rng.choice([0, 0, Rat(1, 16), 1, -Rat(1, 32)])
        want = _reference_simplify_accepted_point(q, pt, anchor, row, rhs, seen)
        got = rounding._simplify_accepted_point(q, *integer_row(pt), anchor, row, rhs)
        assert got == want
        assert all(isinstance(v, Rat) for v in got)
    assert seen == {"negative coordinate", "rejected by the cut", "rejected by q", "mixed",
                    "half-grid tie", "rounded", "kept pt"}
