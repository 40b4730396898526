import math
import random
import sys
import warnings
from math import isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

import miqcp.polyhedra
import miqcp.solver
import miqcp.table
from miqcp.cli import parse_instance
from miqcp.cqs import (
    ConvexQuadraticSet,
    fulldim_reduce_cqs,
    magnitude_bound,
    scaled_integer_system_size,
    slice_point,
)
from miqcp.diophantine import AffineParam, Empty, _ParamFamily, parametrize_mixed_integer_solutions
from miqcp.errors import DimensionError, PreconditionError
from miqcp.lattice import LATTICE_POINT, LatticeBasis, flatness, width_bound_sq
from miqcp.linalg import dot, identity, inverse, mat, mat_mul, mat_vec, norm_sq, transpose
from miqcp.polyhedra import Polyhedron, lp_min
from miqcp.qp import QpObjective, qp_min, qp_min_on_slice
from miqcp.rational import Rat, is_integral, rceil, rfloor, size_of
from miqcp.rounding import ceil_sqrt
from miqcp.simplex import INFEASIBLE
from miqcp.solver import (
    INFEASIBLE_STATUS,
    OPTIMAL_STATUS,
    UNBOUNDED_STATUS,
    MicqpInstance,
    Trace,
    _check_box,
    _denominator_bound,
    _ellipsoid_inside,
    _merge_duplicate_rows,
    _rounded_slice,
    boundedness,
    feasibility,
    gamma_band_bound_sq,
    optimize,
    oracle_optimize,
)

from corpus import corpus
from test_polyhedra import box
from test_rounding import _bench_entry, _load_bench_family, _milp_set, _primitive_row, _solve


def cqs_of(poly, h_rows, h_vec, eta):
    return ConvexQuadraticSet(poly, QpObjective(mat(h_rows), [Rat(v) for v in h_vec]), Rat(eta))


BOX5_1D = ([Rat(-5)], [Rat(5)])
BOX5_2D = ([Rat(-5), Rat(-5)], [Rat(5), Rat(5)])


def test_magnitude_bound_values():
    assert magnitude_bound(1) == Rat(2) ** 32
    assert magnitude_bound(2) == Rat(2) ** 128
    assert magnitude_bound(3) == Rat(2) ** 288


def test_feasibility_no_integer_in_open_interval():
    # 1/3 <= x <= 2/3 with x^2 <= 1, p = 1: empty
    poly = Polyhedron(mat([[1], [-1]]), [Rat(2, 3), Rat(-1, 3)], p=1)
    q = cqs_of(poly, [[1]], [0], 1)
    assert feasibility(q, BOX5_1D) is None


def test_feasibility_unit_box_disc():
    poly = box([0, 0], [1, 1], p=1)
    q = cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 2)
    x = feasibility(q, BOX5_2D)
    assert x is not None
    assert q.contains(x)
    assert is_integral(x[0]) and x[0] in (0, 1)


def test_feasibility_fractional_slab_empty():
    poly = Polyhedron(mat([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                      [Rat(1, 2), Rat(-1, 2), Rat(4), Rat(4)], p=1)
    q = cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 100)
    assert feasibility(q, BOX5_2D) is None


def test_feasibility_diagonal_gap_p2():
    # x1 + x2 in [1/3, 2/3], both integer: infeasible though continuously fat
    poly = box([-4, -4], [4, 4], p=2).with_rows(
        mat([[1, 1], [-1, -1]]), [Rat(2, 3), Rat(-1, 3)]
    )
    q = cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 200)
    trace = Trace()
    assert feasibility(q, BOX5_2D, trace) is None
    assert trace.max_depth() <= 2


def test_feasibility_needs_lattice_offset():
    # even sum constraint: 2x1 + 2x2 = 3 has no integer solutions
    poly = box([-4, -4], [4, 4], p=2).with_equality([Rat(2), Rat(2)], Rat(3))
    q = cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 200)
    assert feasibility(q, BOX5_2D) is None


def test_feasibility_finds_point_on_line():
    # 2x1 + x2 = 1 inside a box, p = 2
    poly = box([-4, -4], [4, 4], p=2).with_equality([Rat(2), Rat(1)], Rat(1))
    q = cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 200)
    x = feasibility(q, BOX5_2D)
    assert x is not None
    assert q.contains(x)
    assert all(is_integral(v) for v in x)
    assert 2 * x[0] + x[1] == 1


def test_continuous_leaf_reuses_the_reduction_qp(monkeypatch):
    # p = 0: the reduction's minimum of q over P is already a point of Q
    import miqcp.cqs

    calls = []
    qp_min = miqcp.cqs.qp_min

    def counted(*args, **kwargs):
        calls.append(1)
        return qp_min(*args, **kwargs)

    monkeypatch.setattr(miqcp.cqs, "qp_min", counted)
    q = cqs_of(box([-1, -1], [1, 1]), [[1, 0], [0, 1]], [-1, 0], 1)
    x = feasibility(q, BOX5_2D)
    assert x is not None and q.contains(x)
    assert len(calls) == 1


def test_a_set_on_a_tangent_face_descends_once():
    # the unit disc on [1, 3] x [-3, 3] (p = 1) is the point (1, 0), on
    # P's face x1 = 1: one tangent-face descent in R^2, then a continuous leaf
    def disc():
        return cqs_of(box([1, -3], [3, 3], p=1), [[1, 0], [0, 1]], [0, 0], 1)

    calls = []
    out = fulldim_reduce_cqs(disc(), on_descent=calls.append)
    assert not isinstance(out, Empty) and out[1].n == 0
    assert calls == [2]
    trace = Trace()
    assert feasibility(disc(), trace=trace) == [1, 0]
    assert [(node["event"], node.get("ambient_dim")) for node in trace.nodes] == [
        ("face_descent", 2), ("continuous", None)]


def test_feasibility_trace_depth_le_p():
    poly = box([-3, -3, -3], [3, 3, 3], p=2)
    q = cqs_of(poly, [[2, 1, 0], [1, 2, 0], [0, 0, 1]], [0, 0, 1], 3)
    trace = Trace()
    x = feasibility(q, ([Rat(-3)] * 3, [Rat(3)] * 3), trace)
    assert x is not None and q.contains(x)
    assert trace.max_depth() <= 2
    for entry in trace.band_entries():
        assert entry["band_count"] ** 2 <= entry["band_bound_sq"] + 2 * entry["band_count"] + 1


def test_boundedness_unbounded_ray():
    # min -x2 over x2 >= 0, p = 1
    poly = Polyhedron(mat([[0, -1]]), [Rat(0)], p=1)
    obj = QpObjective(mat([[0, 0], [0, 0]]), [Rat(0), Rat(-1)])
    inst = MicqpInstance(obj, poly, BOX5_2D)
    res = boundedness(inst)
    assert res.unbounded
    assert res.point is not None and is_integral(res.point[0])
    assert dot(obj.h_vec, res.ray) <= -1


def test_boundedness_quadratic_blocks_ray():
    # min x^2 over R: H r = 0 forces r = 0, conflicts h r <= -1
    poly = Polyhedron([], [], p=1, n=1)
    obj = QpObjective(mat([[1]]), [Rat(0)])
    inst = MicqpInstance(obj, poly, BOX5_1D)
    assert not boundedness(inst).unbounded


def test_optimize_parabola_integer_pins():
    # min x^2 - x over [0, 1], p = 1: both 0 and 1 give value 0
    poly = box([0], [1], p=1)
    obj = QpObjective(mat([[1]]), [Rat(-1)])
    inst = MicqpInstance(obj, poly, BOX5_1D)
    res = optimize(inst)
    assert res.status == OPTIMAL_STATUS
    assert res.value == 0
    assert res.x[0] in (0, 1)


def test_optimize_shifted_parabola_with_continuous():
    # min (x1 - 1/2)^2 + x2^2 over [-2, 2]^2, p = 1: value 1/4
    poly = box([-2, -2], [2, 2], p=1)
    obj = QpObjective(mat([[1, 0], [0, 1]]), [Rat(-1), Rat(0)])
    # objective = x1^2 - x1 + x2^2 = (x1 - 1/2)^2 + x2^2 - 1/4
    inst = MicqpInstance(obj, poly, BOX5_2D)
    res = optimize(inst)
    assert res.status == OPTIMAL_STATUS
    assert res.value == 0  # shifted: true min 1/4 - 1/4
    assert res.x[0] in (0, 1) and res.x[1] == 0


def test_optimize_infeasible():
    poly = Polyhedron(mat([[1], [-1]]), [Rat(2, 3), Rat(-1, 3)], p=1)
    obj = QpObjective(mat([[1]]), [Rat(0)])
    inst = MicqpInstance(obj, poly, BOX5_1D)
    assert optimize(inst).status == INFEASIBLE_STATUS


def test_optimize_unbounded():
    poly = Polyhedron(mat([[0, -1]]), [Rat(0)], p=1)
    obj = QpObjective(mat([[0, 0], [0, 0]]), [Rat(0), Rat(-1)])
    inst = MicqpInstance(obj, poly, BOX5_2D)
    res = optimize(inst)
    assert res.status == UNBOUNDED_STATUS
    vals = [
        obj.value([a + t * b for a, b in zip(res.point, res.ray)]) for t in (1, 2, 4)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_oracle_requires_box():
    poly = box([0], [1], p=1)
    obj = QpObjective(mat([[1]]), [Rat(0)])
    with pytest.raises(PreconditionError):
        oracle_optimize(MicqpInstance(obj, poly, None))


def test_oracle_four_point_example():
    # box {0..3}, min (x - 3/2)^2 = x^2 - 3x + 9/4: value 1/4 at x in {1, 2}
    poly = box([0], [3], p=1)
    obj = QpObjective(mat([[1]]), [Rat(-3)])
    inst = MicqpInstance(obj, poly, ([Rat(0)], [Rat(3)]))
    res = oracle_optimize(inst)
    assert res.status == OPTIMAL_STATUS
    assert res.value == Rat(1, 4) - Rat(9, 4)  # constant 9/4 dropped from the objective
    assert res.x[0] == 1  # lexicographically smallest optimum


def test_oracle_keeps_the_pin_rows(monkeypatch):
    """The oracle solves each slice as P with pin rows, never through
    `qp_min_on_slice`, so comparing it with `optimize` compares the two
    slice formulations; an unbounded instance still gets a feasible
    slice point as its witness."""
    def no_slice_map(*args):
        raise AssertionError("oracle_optimize called qp_min_on_slice")

    monkeypatch.setattr(miqcp.solver, "qp_min_on_slice", no_slice_map)
    poly = box([0], [3], p=1)
    obj = QpObjective(mat([[1]]), [Rat(-3)])
    assert oracle_optimize(MicqpInstance(obj, poly, ([Rat(0)], [Rat(3)]))).value == -2
    # min -x2 over 0 <= x1 <= 1, x2 >= 2 x1 - 1/2: unbounded along x2
    ray_poly = Polyhedron(mat([[1, 0], [-1, 0], [2, -1]]), [Rat(1), Rat(0), Rat(1, 2)], p=1)
    res = oracle_optimize(MicqpInstance(
        QpObjective(mat([[0, 0], [0, 0]]), [Rat(0), Rat(-1)]), ray_poly, BOX5_2D))
    assert res.status == UNBOUNDED_STATUS and res.ray == [0, 1]
    assert ray_poly.contains(res.point) and is_integral(res.point[0])


def test_oracle_p0_degenerates_to_qp():
    poly = box([0, 0], [1, 1], p=0)
    obj = QpObjective(mat([[1, 0], [0, 1]]), [Rat(0), Rat(0)])
    inst = MicqpInstance(obj, poly, BOX5_2D)
    res = oracle_optimize(inst)
    assert res.status == OPTIMAL_STATUS and res.value == 0


def test_optimize_matches_oracle_small():
    poly = box([-2, -2], [2, 2], p=2)
    obj = QpObjective(mat([[2, 1], [1, 2]]), [Rat(1), Rat(-1)])
    inst = MicqpInstance(obj, poly, ([Rat(-2), Rat(-2)], [Rat(2), Rat(2)]))
    a = optimize(inst)
    b = oracle_optimize(inst)
    assert a.status == b.status == OPTIMAL_STATUS
    assert a.value == b.value
    assert is_integral(a.x[0]) and is_integral(a.x[1])


@st.composite
def _boxed_instances(draw):
    """n <= 3, 1 <= p <= n, H a Gram matrix of rank at most 0..n, fractional
    h and w: 0-3 rows, an optional equality as a row pair, and a box of
    radius 1-3 that is also a row block of P, so the declared box keeps
    its promise."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, n))
    small = st.integers(-2, 2)
    frac = st.builds(Rat, st.integers(-6, 6), st.integers(1, 4))
    ell = draw(st.lists(st.lists(small, min_size=n, max_size=n), max_size=n))
    h_mat = [[Rat(sum(r[i] * r[j] for r in ell)) for j in range(n)] for i in range(n)]
    h_vec = draw(st.lists(frac, min_size=n, max_size=n))
    nonzero = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    rows = draw(st.lists(nonzero, max_size=3))
    rhs = draw(st.lists(frac, min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        a, b = draw(nonzero), draw(frac)
        rows, rhs = rows + [a, [-v for v in a]], rhs + [b, -b]
    radius = draw(st.integers(1, 3))
    lo, hi = [Rat(-radius)] * n, [Rat(radius)] * n
    poly = box(lo, hi, p=p).with_rows([[Rat(v) for v in r] for r in rows], rhs)
    return MicqpInstance(QpObjective(h_mat, h_vec), poly, (lo, hi))


@settings(max_examples=60, deadline=None)
@given(_boxed_instances())
def test_optimize_matches_the_oracle_on_random_boxed_instances(inst):
    got, want = optimize(inst), oracle_optimize(inst)
    assert got.status == want.status  # P lies in the box, so never unbounded
    if got.is_optimal:
        assert got.value == want.value
        assert inst.poly.contains(got.x) and all(is_integral(v) for v in got.x[:inst.poly.p])
        assert inst.obj.value(got.x) == got.value


def test_feasibility_without_declared_box_bounded_set():
    # bounded even without a box: no warning, no magnitude bound needed
    poly = box([0], [1], p=1)
    q = cqs_of(poly, [[1]], [0], 2)
    x = feasibility(q, None)
    assert x is not None and q.contains(x)


def test_feasibility_without_declared_box_unbounded_set():
    # the symbolic magnitude box kicks in, with a cost warning
    poly = Polyhedron(mat([[-1]]), [Rat(-7, 2)], p=1)  # x >= 7/2
    q = cqs_of(poly, [[0]], [0], 0)
    with pytest.warns(RuntimeWarning):
        x = feasibility(q, None)
    assert x is not None
    assert is_integral(x[0]) and x[0] >= Rat(7, 2)


def test_the_no_box_warning_names_the_caller():
    # the warning points at the line that called into miqcp, whichever
    # entry point and however deep inside the package it was raised
    text = '{"n":2,"p":1,"W":[[1,0]],"w":[1],"objective":{"H":[[1,0],[0,1]],"h":[0,0]}}'
    inst = parse_instance(text).micqp
    q = cqs_of(inst.poly, [[0, 0], [0, 0]], [0, 0], 0)  # Q = P, unbounded
    for call in (lambda: optimize(inst), lambda: feasibility(q, None),
                 lambda: boundedness(inst)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [RuntimeWarning]
        assert caught[0].filename == __file__


def test_an_empty_polyhedron_takes_no_symbolic_box():
    # P = {x : 0 x <= -1} is empty, but its recession cone is all of R, so
    # `cqs_is_bounded` calls Q unbounded; an empty set is bounded, and no
    # entry point warns about or builds the symbolic box
    poly = Polyhedron(mat([[0]]), [Rat(-1)], p=1)
    inst = MicqpInstance(QpObjective(mat([[1]]), [Rat(0)]), poly)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimize(inst).status == INFEASIBLE_STATUS
        assert feasibility(cqs_of(poly, [[0]], [0], 1), None) is None
        assert boundedness(inst).unbounded is False


def test_optimize_without_declared_box():
    poly = box([0], [3], p=1)
    obj = QpObjective(mat([[1]]), [Rat(-3)])
    inst = MicqpInstance(obj, poly, None)
    res = optimize(inst)
    assert res.status == OPTIMAL_STATUS
    assert res.value == -2


def test_optimize_without_any_bound_starts_at_the_rounded_minimizer():
    # min x^2 - x over the integers: the MILP check's point is a vertex of
    # the symbolic box, thousands of bits long, and a probe loop descending
    # from its value ran for minutes; the continuous minimizer 1/2 rounds
    # to an optimal point, so one failing probe ends the loop
    inst = parse_instance('{"n":1,"p":1,"W":[],"w":[],"objective":{"H":[[1]],"h":[-1]}}').micqp
    with pytest.warns(RuntimeWarning):
        res = optimize(inst)
    assert res.status == OPTIMAL_STATUS and res.value == 0


# Unboxed instances that once ran away on the symbolic box: the MILP
# check's point now comes from P's rounded probe point, or from bands cut to
# those that meet P, so each answers its boxed optimum.  An infeasible
# unboxed instance still searches the whole symbolic box (ROADMAP item 3).
_STRIP = ('{"n":2,"p":2,"W":[[1,-3],[-1,3]],"w":["1/3","1/3"],'
          '"objective":{"H":[[1,0],[0,1]],"h":["-39/5","-12/5"]}}')
_EQ4 = ('{"n":4,"p":3,"W":[[2,3,1,1],[-2,-3,-1,-1]],"w":[1,-1],'
        '"objective":{"H":[[1,1,0,0],[1,1,0,0],[0,0,1,0],[0,0,0,1]],"h":[-1,0,0,0]}}')
_EQ3 = ('{"n":3,"p":2,"W":[[2,3,1],[-2,-3,-1]],"w":[1,-1],'
        '"objective":{"H":[[1,1,0],[1,1,0],[0,0,1]],"h":[-1,0,0]}}')


@pytest.mark.parametrize("text, value", [(_STRIP, Rat(-79, 5)), (_EQ3, Rat(-1)), (_EQ4, Rat(-1))],
                         ids=["strip", "eq3", "eq4"])
def test_an_unboxed_instance_answers_its_boxed_optimum(text, value):
    inst = parse_instance(text).micqp
    with pytest.warns(RuntimeWarning):
        res = optimize(inst)
    assert res.status == OPTIMAL_STATUS and res.value == value
    assert inst.poly.contains(res.x) and all(is_integral(v) for v in res.x[:inst.poly.p])
    assert inst.obj.value(res.x) == value


def _record_feasibility_answers(monkeypatch) -> list:
    """A list that gets the answer of every later `feasibility` call of
    `optimize`, the MILP check's first."""
    answers = []
    feas = miqcp.solver.feasibility
    monkeypatch.setattr(miqcp.solver, "feasibility",
                        lambda *args: answers.append(feas(*args)) or answers[-1])
    return answers


def test_the_rounded_minimizer_becomes_the_incumbent(monkeypatch):
    # x1^2 - 7 x1 + x2^2 - 13 x2 in a box of radius 10^6: the continuous
    # minimizer (7/2, 13/2) rounds to (4, 7), an integer optimum, so after
    # the MILP check only the probe that proves it optimal runs
    r = Rat(10 ** 6)
    poly = box([-r, -r], [r, r], p=2)
    obj = QpObjective(mat([[1, 0], [0, 1]]), [Rat(-7), Rat(-13)])
    answers = _record_feasibility_answers(monkeypatch)
    res = optimize(MicqpInstance(obj, poly, ([-r, -r], [r, r])))
    assert res.status == OPTIMAL_STATUS
    assert res.value == -54 and res.x == [Rat(4), Rat(7)]
    assert len(answers) == 2 and answers[1] is None


def test_a_rounding_outside_the_box_or_off_p_gives_no_incumbent():
    # 7/2 rounds to 4: outside the box [0, 3] no slice is solved, inside
    # [0, 5] the slice is the point 4; on 16/5 <= x <= 18/5 the slice at 4
    # misses P
    wide = Polyhedron(mat([[1], [-1]]), [Rat(10), Rat(10)], p=1)
    obj = QpObjective(mat([[1]]), [Rat(-7)])
    half = [Rat(7, 2)]
    assert _rounded_slice(MicqpInstance(obj, wide, ([Rat(0)], [Rat(3)])), half) is None
    near = _rounded_slice(MicqpInstance(obj, wide, ([Rat(0)], [Rat(5)])), half)
    assert near.x == [Rat(4)] and near.value == -12
    narrow = Polyhedron(mat([[1], [-1]]), [Rat(18, 5), Rat(-16, 5)], p=1)
    assert _rounded_slice(MicqpInstance(obj, narrow), half) is None


def test_the_rounded_incumbent_never_raises_the_value(monkeypatch):
    # optimize returns at most the slice value at the MILP check's point
    answers = _record_feasibility_answers(monkeypatch)
    checked = 0
    for name, inst in corpus():
        answers.clear()
        res = optimize(inst)
        p = inst.poly.p
        if res.status != OPTIMAL_STATUS or p == 0:
            continue
        milp = qp_min_on_slice(inst.obj, inst.poly, answers[0][:p])
        assert res.value <= milp.value, name
        checked += 1
    assert checked > 30


def test_optimize_matches_oracle_randomized():
    import random

    from miqcp.linalg import mat_mul, transpose

    rng = random.Random(777)
    done = 0
    while done < 20:
        p = rng.choice([1, 1, 2])
        n = min(4, p + rng.randint(0, 2))
        radius = rng.randint(2, 4)
        k = rng.randint(1, n)
        l_mat = [[Rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        h_mat = mat_mul(transpose(l_mat), l_mat)
        h_vec = [Rat(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
        poly = box([-radius] * n, [radius] * n, p=p)
        if rng.random() < 0.4:
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            poly = poly.with_rows([row], [Rat(rng.randint(-1, 3), rng.choice([1, 2]))])
        inst = MicqpInstance(
            QpObjective(h_mat, h_vec), poly,
            ([Rat(-radius)] * n, [Rat(radius)] * n),
        )
        a = optimize(inst)
        b = oracle_optimize(inst)
        assert a.status == b.status
        if a.status == OPTIMAL_STATUS:
            assert a.value == b.value
        done += 1


# A radius-10^11 instance (p = 2, n = 3) whose probe loop used to stall:
# every probe after a failed midpoint was another midpoint, 208 feasibility
# calls in all.  Its exact optimum at x = (46371068989, -18430764205,
# -18714425032) is the value below.
STALL_INSTANCE = (
    '{"W": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], '
    '"box": {"hi": [100000000000, 100000000000, 100000000000], '
    '"lo": [-100000000000, -100000000000, -100000000000]}, "n": 3, '
    '"objective": {"H": [[5, 1, 2], [1, 4, 0], [2, 0, 4]], '
    '"h": ["-2463940229482/7", "382927829622/7", -35768875700]}, "p": 2, '
    '"w": [100000000000, 100000000000, 100000000000, 100000000000, 100000000000, '
    '100000000000]}'
)


def test_probe_after_failed_midpoint_is_the_optimality_probe(monkeypatch):
    import miqcp.solver
    from miqcp.cli import parse_instance

    inst = parse_instance(STALL_INSTANCE).micqp
    calls = []
    feas = miqcp.solver.feasibility

    def counted(*args):
        calls.append(args)
        return feas(*args)

    monkeypatch.setattr(miqcp.solver, "feasibility", counted)
    # the rounded minimizer is optimal here; without it the loop descends
    # from the MILP check's point through failed midpoints, as it stalled
    monkeypatch.setattr(miqcp.solver, "_rounded_slice", lambda inst, x: None)
    res = optimize(inst)
    assert res.is_optimal
    assert res.value == Rat(-8330531235901806030625)
    assert res.x == [Rat(46371068989), Rat(-18430764205), Rat(-18714425032)]
    assert inst.obj.value(res.x) == res.value and inst.poly.contains(res.x)
    assert len(calls) <= 30


def test_declared_box_that_misses_the_polyhedron_raises():
    # x in [0, 3] with p = 1 has integer points, none of them in [5, 6]
    poly = box([0], [3], p=1)
    obj = QpObjective(mat([[1]]), [Rat(0)])
    far = ([Rat(5)], [Rat(6)])
    with pytest.raises(PreconditionError, match="box"):
        optimize(MicqpInstance(obj, poly, far))
    with pytest.raises(PreconditionError, match="box"):
        feasibility(cqs_of(poly, [[1]], [0], 100), far)
    # an empty polyhedron is infeasible whatever the box
    empty = Polyhedron(mat([[1], [-1]]), [Rat(0), Rat(-1)], p=1)
    assert feasibility(cqs_of(empty, [[1]], [0], 100), far) is None
    assert optimize(MicqpInstance(obj, empty, far)).status == INFEASIBLE_STATUS


def test_a_box_that_cuts_nothing_off_is_not_checked(monkeypatch):
    # an empty P that is its own box: the answer None costs no probe of P
    # itself, since such a box cannot miss P
    poly = box([0, 0], [1, 1], p=2).with_rows([[Rat(1), Rat(1)]], [Rat(-1)])
    probed = []
    probe_lp = miqcp.polyhedra._probe_lp
    monkeypatch.setattr(miqcp.polyhedra, "_probe_lp",
                        lambda poly: probed.append(poly) or probe_lp(poly))
    unit = ([Rat(0), Rat(0)], [Rat(1), Rat(1)])
    assert feasibility(cqs_of(poly, [[0, 0], [0, 0]], [0, 0], 0), unit) is None
    assert probed == [poly] and probed[0] is not poly


def test_optimize_probes_the_boxed_polyhedron_once(monkeypatch):
    # the MILP check and every level-set probe share one boxed polyhedron,
    # built once and kept in the solve's table, with its probe; boxing
    # afresh for each of them gives the same answer and the same recursion.
    # Each arm runs on its own build of the instance, so that nothing kept
    # on the user's polyhedron by one arm serves the other.
    merged, probed = [], []
    merge = miqcp.solver._merge_duplicate_rows
    monkeypatch.setattr(miqcp.solver, "_merge_duplicate_rows",
                        lambda poly: merged.append(poly) or merge(poly))
    probe_lp = miqcp.polyhedra._probe_lp
    monkeypatch.setattr(miqcp.polyhedra, "_probe_lp",
                        lambda poly: probed.append(poly) or probe_lp(poly))
    ref_cases, cases = ([inst for _, inst in corpus() if inst.poly.p and inst.declared_box][:24]
                        for _ in range(2))
    repeated = 0
    for ref_inst, inst in zip(ref_cases, cases):
        boxed = merge(inst.poly.with_box(*inst.declared_box))
        with monkeypatch.context() as m:
            m.setattr(miqcp.solver, "remember", lambda key, compute: compute())
            merged.clear()
            ref_trace = Trace()
            ref = optimize(ref_inst, ref_trace)
            ref_boxings = len(merged)
        merged.clear()
        probed.clear()
        trace = Trace()
        assert optimize(inst, trace) == ref
        assert trace.nodes == ref_trace.nodes
        assert len(merged) == 1
        assert sum(poly == boxed for poly in probed) == 1
        repeated += ref_boxings > 1
    assert repeated >= 8


def _closure_cases():
    """(name, instance) for every corpus instance and the pdepth and radius
    families at family seed 2024, built afresh on each call."""
    cases = list(corpus())
    for family in ("pdepth", "radius"):
        cases += [(e["name"], parse_instance(e["text"]).micqp)
                  for e in _load_bench_family(family)(2024)]
    return cases


@pytest.fixture(scope="module")
def level_clips():
    """One `optimize` pass over `_closure_cases` as it runs: {name: (answer,
    trace nodes)}, and (q, c, gamma) for every gamma of a definite
    sandwiched node's [lo, hi] that the level clip leaves closed."""
    runs, closed = {}, []
    question = miqcp.solver._sandwich_question

    def asked(q):
        y, bands = question(q)
        if bands is not None and q.obj.definite:
            d, lo, hi = bands
            level_lo, level_hi = miqcp.solver._band_range(d, *miqcp.solver._level_projection(q))
            c = list(d) + [Rat(0)] * (q.n - q.p)
            closed.extend((q, c, gamma) for gamma in range(lo, hi + 1)
                          if not level_lo <= gamma <= level_hi)
        return y, bands

    with pytest.MonkeyPatch.context() as m:
        m.setattr(miqcp.solver, "_sandwich_question", asked)
        for name, inst in _closure_cases():
            trace = Trace()
            runs[name] = (optimize(inst, trace), trace.nodes)
    return runs, closed


def _without_level_clip(monkeypatch, inst):
    """(answer, nodes, dropped) of `optimize`(inst) with the level clip made
    vacuous, so a definite node builds the child of every band of [lo, hi]:
    dropped holds the (start, end) span of trace nodes of each child whose
    gamma the clip would have left closed."""
    band_range, feas_rec, solve = (miqcp.solver._band_range, miqcp.solver._feas_rec,
                                   _ParamFamily.solve)
    trace, calls, dropped = Trace(), [], []

    def clip(*args):
        lo_hi = band_range(*args)
        if sys._getframe(1).f_code.co_name == "_lattice_question":
            return lo_hi
        calls[-1]["clip"] = lo_hi
        return -math.inf, math.inf

    def node(q, depth, record):
        parent = calls[-1] if calls else {}
        calls.append({})
        start = len(trace.nodes)
        out = feas_rec(q, depth, record)
        calls.pop()
        if "clip" in parent and not parent["clip"][0] <= parent["gamma"] <= parent["clip"][1]:
            assert out is None
            dropped.append((start, len(trace.nodes)))
        return out

    def solved(family, rhs):
        calls[-1]["gamma"] = rhs[0]
        return solve(family, rhs)

    with monkeypatch.context() as m:
        m.setattr(miqcp.solver, "_band_range", clip)
        m.setattr(miqcp.solver, "_feas_rec", node)
        m.setattr(_ParamFamily, "solve", solved)
        answer = optimize(inst, trace)
    return answer, trace.nodes, dropped


def test_clipping_to_the_level_ellipsoid_keeps_every_answer(level_clips, monkeypatch):
    # a definite node opens only the bands whose hyperplane meets
    # {q <= eta}; building every band instead gives the same answer and
    # the same trace, but for open_band_count and one empty_after_reduction
    # node for each child the clip leaves closed
    runs, _ = level_clips
    closed = 0
    for name, inst in _closure_cases():
        answer, nodes = runs[name]
        got, all_nodes, dropped = _without_level_clip(monkeypatch, inst)
        assert got == answer, name
        for start, end in dropped:
            assert [n["event"] for n in all_nodes[start:end]] == ["empty_after_reduction"], name
        skip = {start for start, _ in dropped}
        kept = [n for i, n in enumerate(all_nodes) if i not in skip]
        assert len(kept) == len(nodes), name
        for got_node, want in zip(kept, nodes):
            assert ({k: v for k, v in got_node.items() if k != "open_band_count"}
                    == {k: v for k, v in want.items() if k != "open_band_count"}), name
            assert want.get("open_band_count", 0) <= got_node.get("open_band_count", 0)
        closed += len(dropped)
    assert closed > 30


def test_every_closed_band_reduces_to_empty(level_clips):
    # every gamma of [lo, hi] outside the level range has a hyperplane
    # that misses {q <= eta}, so the child it would build reduces to Empty
    _, closed = level_clips
    assert len(closed) > 30
    for q2, c, gamma in closed:
        param = parametrize_mixed_integer_solutions([c], [Rat(gamma)], q2.p)
        assert isinstance(fulldim_reduce_cqs(q2.map_through(param)), Empty)


def test_the_bands_of_a_thin_node_share_one_parametrization(monkeypatch):
    # a thin node with bands builds one rhs-free family for W = [c], and
    # every band it parametrizes takes that family's M, which nothing writes
    # to; each parametrization is the one a lone call gives
    families, solved = [], []
    build = miqcp.solver._param_family
    solve = _ParamFamily.solve

    def built(w, p):
        family = build(w, p)
        families.append((family, w, p, [list(row) for row in family.m]))
        return family

    def recorded(family, rhs):
        out = solve(family, rhs)
        solved.append((family, rhs, out))
        return out

    nodes = []
    with monkeypatch.context() as m:
        m.setattr(miqcp.solver, "_param_family", built)
        m.setattr(_ParamFamily, "solve", recorded)
        for _, inst in _closure_cases():
            trace = Trace()
            optimize(inst, trace)
            nodes += trace.band_entries()
    assert len(families) == sum(node["open_band_count"] > 0 for node in nodes) > 50
    shared = 0
    for family, w, p, m in families:
        params = [(rhs, out) for f, rhs, out in solved if f is family]
        assert params
        for rhs, out in params:
            assert out == parametrize_mixed_integer_solutions(w, rhs, p)
            if isinstance(out, AffineParam):
                assert out.m is family.m
        shared += sum(isinstance(out, AffineParam) for _, out in params) > 1
        assert family.m == m
    assert shared > 30


def test_a_polyhedral_node_opens_exactly_the_bands_that_meet_p(monkeypatch):
    # on Q = P a thin answer's range [lo, hi] in a random primitive d is
    # cut to the gamma whose hyperplane d . y = gamma meets P: each of them
    # is opened, by one solve of the band family, and no other gamma is,
    # where an LP over P cut by the hyperplane decides which gamma meet P;
    # band_count stays the count of [lo, hi]
    rng = random.Random(37)
    feas_rec, solve = miqcp.solver._feas_rec, _ParamFamily.solve
    opened = clipped = 0
    for _ in range(40):
        n = rng.randint(1, 3)
        p = rng.randint(1, n)
        lo = [Rat(rng.randint(-6, 0), rng.randint(1, 2)) for _ in range(n)]
        poly = box(lo, [a + Rat(rng.randint(1, 6), rng.randint(1, 2)) for a in lo], p=p)
        if rng.random() < 0.5:
            row = [Rat(rng.randint(-2, 2)) for _ in range(n)]
            poly = poly.with_rows([row], [dot(row, lo) + Rat(rng.randint(1, 4), 2)])
        d = _primitive_row(rng, p)
        band_lo = rng.randint(-30, 2)
        band_hi = rng.choice([30, band_lo + rng.randint(-1, 6)])
        asked, gammas = [], []
        trace = Trace()
        with monkeypatch.context() as m:
            m.setattr(miqcp.solver, "slice_point", lambda q, y: None)  # rounding finds no point
            m.setattr(miqcp.solver, "_sandwich_question",
                      lambda q: asked.append(q) or (None, (d, band_lo, band_hi)))
            m.setattr(miqcp.solver, "_feas_rec", lambda q, depth, record: None)  # no child has one
            m.setattr(_ParamFamily, "solve", lambda f, rhs: gammas.append(rhs[0]) or solve(f, rhs))
            assert feas_rec(miqcp.solver._milp_cqs(poly), 0, trace.record) is None
        reduced = asked[0].poly
        c = d + [Rat(0)] * (reduced.n - p)
        meets = [g for g in range(band_lo, band_hi + 1)
                 if lp_min([Rat(0)] * reduced.n, reduced.with_equality(c, Rat(g))).status != INFEASIBLE]
        assert gammas == meets
        assert trace.nodes[-1] == {"depth": 0, "p": p, "event": "thin_direction",
                                   "band_count": max(0, band_hi - band_lo + 1),
                                   "open_band_count": len(meets),
                                   "band_bound_sq": gamma_band_bound_sq(p)}
        opened += len(meets) > 0
        clipped += len(meets) < band_hi - band_lo + 1
    assert opened > 20 and clipped > 20


def test_the_milp_check_rounds_p_s_probe_point_before_any_sandwich(monkeypatch):
    # on radius_1e12 the MILP check's set is P, and the rounded leading
    # coordinates of the probe point P keeps lift to a point of P: one
    # lattice_point node and no sandwich; the optimality probes ask level
    # ellipsoids inside P, so the whole solve sandwiches nothing
    asked = []
    question = miqcp.solver._sandwich_question
    monkeypatch.setattr(miqcp.solver, "_sandwich_question", lambda q: asked.append(q) or question(q))
    inst = _bench_entry("radius_1e12")[1].micqp
    trace = Trace()
    x = feasibility(miqcp.solver._milp_cqs(inst.poly), inst.declared_box, trace)
    assert inst.poly.contains(x) and all(is_integral(v) for v in x[:inst.poly.p])
    assert trace.nodes == [{"depth": 0, "p": inst.poly.p, "event": "lattice_point"}]
    assert optimize(inst).status == OPTIMAL_STATUS
    assert asked == []


def _definite_objective(rng, n):
    """x^T H x + h^T x with H = L^T L + I, L of 0..n rows in [-2, 2]."""
    ell = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
    h_mat = [[Rat(sum(r[i] * r[j] for r in ell) + (i == j)) for j in range(n)] for i in range(n)]
    return QpObjective(h_mat, [Rat(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)])


def _reference_row_holds_on_level_set(obj, eta, a, b):
    """a . x <= b on all of {q <= eta} iff q >= eta on {a . x >= b}: the
    QP minimum of q over that half-space, a touching row giving eta (a
    zero row with b > 0 gives an empty one)."""
    res = qp_min(obj, Polyhedron([[-v for v in a]], [-b]))
    return res.status == INFEASIBLE or res.value >= eta


def test_the_ellipsoid_decision_matches_the_half_space_minima():
    # random definite H with n <= 5; one row a touches E = {q <= eta} at
    # both ends (eta - q(c) = t^2 / (a^T H^-1 a), so b = a . c + t and
    # -a . c + t), and rows near them lie inside E's slab, cut it or touch it
    rng = random.Random(34)
    inside = outside = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        obj = _definite_objective(rng, n)
        h_inv = inverse(obj.h_mat)
        c = [-v / 2 for v in mat_vec(h_inv, obj.h_vec)]
        a = [Rat(rng.randint(-3, 3)) for _ in range(n)]
        if not any(a):
            a[0] = Rat(1)
        t = Rat(rng.randint(1, 9), rng.randint(1, 4))
        eta = obj.value(c) + t * t / dot(a, mat_vec(h_inv, a))
        rows = [(a, dot(a, c) + t), ([-v for v in a], t - dot(a, c))]
        for _ in range(rng.randint(0, 4)):
            row = [Rat(rng.randint(-3, 3)) for _ in range(n)]
            rows.append((row, dot(row, c) + Rat(rng.randint(-4, 30), rng.randint(1, 3))))
        want = [_reference_row_holds_on_level_set(obj, eta, row, b) for row, b in rows]
        assert want[0] and want[1]
        for row, b in rows:
            q = ConvexQuadraticSet(Polyhedron([row], [b], p=rng.randint(0, n)), obj, eta)
            single = _ellipsoid_inside(q)
            assert single == _reference_row_holds_on_level_set(obj, eta, row, b)
            inside += single
            outside += not single
        for k in range(2, len(rows) + 1):
            poly = Polyhedron([row for row, _ in rows[:k]], [b for _, b in rows[:k]], p=n)
            assert _ellipsoid_inside(ConvexQuadraticSet(poly, obj, eta)) == all(want[:k])
    assert inside > 150 and outside > 20


def _ellipsoid_nodes(monkeypatch):
    """(q, outcome) for every `_ellipsoid_question` of one `optimize` pass
    over `_closure_cases`."""
    asked = []
    question = miqcp.solver._ellipsoid_question
    with monkeypatch.context() as m:
        m.setattr(miqcp.solver, "_ellipsoid_question",
                  lambda q: asked.append((q, question(q))) or asked[-1][1])
        for _, inst in _closure_cases():
            optimize(inst)
    return asked


def test_an_ellipsoid_node_opens_exactly_the_bands_that_meet_it(monkeypatch):
    # every gamma in [lo, hi] gives a hyperplane d . y = gamma that meets
    # E = {q <= eta} and lo - 1, hi + 1 do not, in Fractions: with c q's
    # free minimizer, (gamma - d . c_I)^2 <= (eta - q(c)) d^T (H^-1)_II d;
    # the count obeys flatness in S's metric, (count - 1)^2 <= width_bound_sq(p)
    asked = _ellipsoid_nodes(monkeypatch)
    thin = [(q, bands) for q, (y, bands) in asked if y is None]
    points = [(q, y) for q, (y, _) in asked if y is not None]
    assert len(thin) > 60 and len(points) > 5
    for q, (d, lo, hi) in thin:
        assert all(is_integral(v) for v in d) and any(d)
        count = max(0, hi - lo + 1)
        assert (count - 1) ** 2 <= width_bound_sq(q.p) <= gamma_band_bound_sq(q.p)
        h_inv = inverse(q.obj.h_mat)
        c = [-v / 2 for v in mat_vec(h_inv, q.obj.h_vec)]
        mid = dot(d, c[:q.p])
        reach = (q.eta - q.obj.value(c)) * dot(d, mat_vec([row[:q.p] for row in h_inv[:q.p]], d))
        for gamma in range(lo - 1, hi + 2):
            assert ((gamma - mid) ** 2 <= reach) == (lo <= gamma <= hi)
    for q, y in points:
        assert all(is_integral(v) for v in y)
        assert slice_point(q, y) is not None


def test_band_range_is_the_brute_force_scan():
    # [lo, hi] holds exactly the integers gamma with
    # (gamma - d . c)^2 <= rho d^T S^-1 d, S^-1 = N / n for an integer
    # shape N over a positive scale n, scanned in Fractions; a third of the
    # cases put an integer gamma0 on the boundary, rho being
    # (gamma0 - d . c)^2 / (d^T S^-1 d), so that end is tangent, and a
    # third take a small rho, so that the range is often empty
    rng = random.Random(38)
    tangent = empty = 0
    for _ in range(400):
        p = rng.randint(1, 4)
        ell = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(rng.randint(0, p))]
        n_ints = [[sum(r[i] * r[j] for r in ell) + (i == j) for j in range(p)] for i in range(p)]
        scale = rng.randint(1, 12)
        d = _primitive_row(rng, p)
        center = [Rat(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(p)]
        mid = dot(d, center)
        u = Rat(sum(d[i] * n_ints[i][j] * d[j] for i in range(p) for j in range(p)), scale)
        kind = rng.randrange(3)
        if kind == 0:
            rho = (rfloor(mid) + rng.randint(-3, 4) - mid) ** 2 / u
        else:
            rho = Rat(rng.randint(0, 40), rng.randint(1, 9) * (1 if kind == 1 else 100))
        lo, hi = miqcp.solver._band_range(d, (n_ints, scale), center, rho)
        reach = rho * u
        radius = isqrt(rceil(reach)) + 1  # at least sqrt(reach)
        want = [g for g in range(rfloor(mid) - radius, rceil(mid) + radius + 1)
                if (g - mid) ** 2 <= reach]
        assert list(range(lo, hi + 1)) == want
        assert lo <= hi + 1
        tangent += any((g - mid) ** 2 == reach for g in (lo, hi)) and bool(want)
        empty += not want
    assert tangent > 100 and empty > 40


def _sandwich_answers(monkeypatch):
    """(sw, answer) for every `_sandwich_question` of one `optimize` pass
    over the corpus and one solve of each seed-2024 `msplit` instance, and
    of each one's MILP check set (`_milp_set`), which the solver rounds
    before it sandwiches: the sandwich it grew and the (y, bands) it
    returned."""
    sws, answers = [], []
    question, grow = miqcp.solver._sandwich_question, miqcp.solver.sandwich
    sources = [name for name, _ in corpus()] + [e["name"] for e in _load_bench_family("msplit")(2024)]
    with monkeypatch.context() as m:
        m.setattr(miqcp.solver, "sandwich",
                  lambda q, check: sws.append(grow(q, check=check)) or sws[-1])
        m.setattr(miqcp.solver, "_sandwich_question",
                  lambda q: answers.append(question(q)) or answers[-1])
        for source in sources:
            _solve(source)
            milp = _milp_set(source)
            if milp is not None:
                miqcp.solver._sandwich_question(milp)
    assert len(sws) == len(answers)
    return list(zip(sws, answers))


def _edges(sim):
    """E, column j = v_{j+1} - v_0, from the simplex's vertices."""
    v0 = sim.vertices[0]
    return [[v[i] - v0[i] for v in sim.vertices[1:]] for i in range(sim.p)]


def _over_scale(pair):
    """M / m, the Rat matrix of an (M, m) pair: ints over a positive scale."""
    ints, scale = pair
    assert scale > 0
    return [[Rat(v) / scale for v in row] for row in ints]


def test_the_sandwich_pair_is_its_metric_and_its_shape(monkeypatch):
    # the pair read by `_sandwich_question` is the sandwich in y = E z:
    # metric B^T B and shape E E^T, exactly inverse, center E a and
    # rho r^2 inside, R^2 outside
    sws = [sw for sw, _ in _sandwich_answers(monkeypatch)]
    assert len(sws) > 100
    for sw in sws:
        metric, shape, center, rho_in, rho_out = sw.ellipsoids()
        s_mat, s_inv, e = _over_scale(metric), _over_scale(shape), _edges(sw.simplex)
        assert mat_mul(s_mat, s_inv) == identity(sw.simplex.p)
        assert s_mat == mat_mul(transpose(sw.b_mat), sw.b_mat)
        assert s_inv == mat_mul(e, transpose(e))
        assert center == mat_vec(e, sw.a)
        assert (rho_in, rho_out) == (sw.r ** 2, sw.big_r ** 2)


def _ellipsoid_pair(monkeypatch, q):
    """The pair `_ellipsoid_question` hands `_lattice_question` for q."""
    pairs = []
    with monkeypatch.context() as m:
        m.setattr(miqcp.solver, "_lattice_question", lambda *pair: pairs.append(pair) or (None, None))
        miqcp.solver._ellipsoid_question(q)
    return pairs[0]


def test_the_ellipsoid_pair_is_the_schur_complement_and_its_inverse(monkeypatch):
    # for a definite H the projection of {q <= eta} onto the first p
    # coordinates has shape (H^-1)_II and metric its inverse, the Schur
    # complement H_II - H_IC H_CC^-1 H_CI, which is H when n = p
    rng = random.Random(36)
    wide = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        p = rng.randint(1, n)
        ell = [[Rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        h_mat = [[sum((r[i] * r[j] for r in ell), Rat(int(i == j), rng.randint(1, 5)))
                  for j in range(n)] for i in range(n)]
        h_vec = [Rat(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        obj = QpObjective(h_mat, h_vec)
        eta = Rat(rng.randint(0, 50))
        metric, shape, center, rho_in, rho_out = _ellipsoid_pair(
            monkeypatch, ConvexQuadraticSet(box([-9] * n, [9] * n, p=p), obj, eta))
        s_mat, s_inv = _over_scale(metric), _over_scale(shape)
        h_inv = inverse(h_mat)
        assert s_inv == [row[:p] for row in h_inv[:p]]
        assert s_mat == inverse(s_inv)
        assert mat_mul(s_mat, s_inv) == identity(p)
        if n == p:
            assert s_mat == h_mat
        c = [-v / 2 for v in mat_vec(h_inv, h_vec)]
        assert center == c[:p] and rho_in == rho_out == eta - obj.value(c)
        wide += n > p
    assert 20 < wide < 70


def test_the_sandwich_question_keeps_the_ball_answers(monkeypatch):
    # in y = E z the sandwich B(a, r) <= B proj Q <= B(a, R), B = E^-1, is
    # a pair of concentric ellipsoids of shape E E^T: the lattice point is
    # E z and the direction c = B^T d for flatness's answer on the inner
    # ball, and [lo, hi] are exactly the integers gamma with
    # (gamma - c . E a)^2 <= R^2 c^T E E^T c, which the symmetric range
    # holds, if any, at floor or ceil of c . E a
    points = thin = 0
    for sw, (y, bands) in _sandwich_answers(monkeypatch):
        p = len(sw.a)
        e = _edges(sw.simplex)
        want = flatness(sw.a, sw.r, LatticeBasis(sw.b_mat))
        if want.tag == LATTICE_POINT:
            assert bands is None and y == mat_vec(e, want.z)
            points += 1
            continue
        assert y is None
        c, lo, hi = bands
        assert c == [dot([sw.b_mat[i][j] for i in range(p)], want.d) for j in range(p)]
        mid = dot(c, mat_vec(e, sw.a))
        reach = sw.big_r ** 2 * norm_sq(mat_vec(transpose(e), c))
        for gamma in {lo - 1, hi + 1, rfloor(mid), rceil(mid), *range(lo, hi + 1)}:
            assert ((gamma - mid) ** 2 <= reach) == (lo <= gamma <= hi)
        assert (max(0, hi - lo + 1) - 1) ** 2 <= gamma_band_bound_sq(p)
        thin += 1
    assert points > 50 and thin > 60


@st.composite
def _wide_definite_instances(draw):
    """n <= 3, 1 <= p <= min(n, 2), H = L^T L + I with L in [-1, 1], q's
    free minimizer c with half-integral integer coordinates and the others
    in [-2, 2], and a box of radius 5 or 6, cut by at most one row r . x
    <= b with b in [18, 24].  The rounded c's value is below
    q(c) + 10 p / 4, and the eigenvalues of H are at least 1, so that level
    set lies within sqrt(5) < 2.3 of c, inside the box and the row: the
    first optimality probe asks its question of an ellipsoid."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(1, min(n, 2)))
    unit = st.integers(-1, 1)
    ell = draw(st.lists(st.lists(unit, min_size=n, max_size=n), max_size=n))
    h_mat = [[Rat(sum(r[i] * r[j] for r in ell) + (i == j)) for j in range(n)] for i in range(n)]
    c = draw(st.lists(st.integers(-2, 1).map(lambda k: Rat(2 * k + 1, 2)), min_size=p, max_size=p))
    c += draw(st.lists(st.integers(-6, 6).map(lambda k: Rat(k, 3)), min_size=n - p, max_size=n - p))
    h_vec = [-2 * v for v in mat_vec(h_mat, c)]
    radius = draw(st.integers(5, 6))
    lo, hi = [Rat(-radius)] * n, [Rat(radius)] * n
    poly = box(lo, hi, p=p)
    if draw(st.booleans()):
        row = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any))
        poly = poly.with_rows([[Rat(v) for v in row]], [Rat(draw(st.integers(18, 24)))])
    return MicqpInstance(QpObjective(h_mat, h_vec), poly, (lo, hi))


@settings(max_examples=40, deadline=None)
@given(_wide_definite_instances())
def test_optimize_matches_the_oracle_on_wide_definite_instances(inst):
    asked = []
    question = miqcp.solver._ellipsoid_question
    with pytest.MonkeyPatch.context() as m:
        m.setattr(miqcp.solver, "_ellipsoid_question", lambda q: asked.append(q) or question(q))
        got = optimize(inst)
    want = oracle_optimize(inst)
    assert got.status == want.status == OPTIMAL_STATUS
    assert got.value == want.value
    assert inst.poly.contains(got.x) and all(is_integral(v) for v in got.x[:inst.poly.p])
    assert asked


def test_a_set_boxed_by_the_solver_is_not_boxed_again():
    # inside one solve's table, equal polyhedra under one box share one
    # boxed object; another box gets another one
    poly = box([0, 0], [4, 4], p=2).with_rows([[Rat(1), Rat(1)]], [Rat(5)])
    twin = Polyhedron(poly.w_mat, poly.w_rhs, 2)
    declared = ([Rat(1), Rat(0)], [Rat(3), Rat(4)])
    other = ([Rat(2), Rat(0)], [Rat(3), Rat(4)])
    with miqcp.table.open_table():
        boxed = miqcp.solver._boxed(cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 9), declared).poly
        assert boxed == _merge_duplicate_rows(poly.with_box(*declared))
        assert miqcp.solver._boxed(cqs_of(twin, [[1, 0], [0, 0]], [1, 0], 2), declared).poly is boxed
        again = miqcp.solver._boxed(cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 9), other).poly
        assert again == _merge_duplicate_rows(poly.with_box(*other)) and again is not boxed
    # outside a solve nothing is kept
    assert miqcp.solver._boxed(cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 9), declared).poly is not boxed


def _assert_bad_box(declared):
    poly = box([0, 0], [4, 4], p=2)
    with pytest.raises(DimensionError):
        feasibility(cqs_of(poly, [[1, 0], [0, 1]], [0, 0], 100), declared)
    with pytest.raises(DimensionError):
        MicqpInstance(QpObjective(mat([[1, 0], [0, 1]]), [Rat(0), Rat(0)]), poly, declared)


def test_a_declared_box_must_bound_every_coordinate():
    # n = 2 under a box on x1 alone
    _assert_bad_box(([Rat(1)], [Rat(2)]))


def test_a_declared_box_must_have_lo_at_most_hi():
    # lo > hi on x1: a shape error, not a box that misses the polyhedron
    _assert_bad_box(([Rat(3), Rat(0)], [Rat(1), Rat(4)]))


def _reference_gamma_band_bound_sq(p):
    """The formula `gamma_band_bound_sq` had before it reused
    `width_bound_sq`."""
    k = ceil_sqrt(p)
    base = 4 * k ** 3 * p
    return Rat(base * base * (1 << (p * (p - 1) // 2)))


def test_gamma_band_bound_sq_matches_the_reference():
    for p in range(1, 17):
        assert gamma_band_bound_sq(p) == _reference_gamma_band_bound_sq(p)


def _reference_denominator_bound(inst):
    """`_denominator_bound` as it was before it scaled through `integer_row`."""
    n = inst.poly.n
    ell_obj = 1
    for row in inst.obj.h_mat:
        for v in row:
            ell_obj = lcm(ell_obj, (2 * v).denominator)
    for v in inst.obj.h_vec:
        ell_obj = lcm(ell_obj, v.denominator)
    ell = ell_obj
    for row, b in zip(inst.poly.w_mat, inst.poly.w_rhs):
        for v in row:
            ell = lcm(ell, v.denominator)
        ell = lcm(ell, b.denominator)
    amax = ell
    for row in inst.obj.h_mat:
        for v in row:
            amax = max(amax, abs((2 * v).numerator) * (ell // (2 * v).denominator))
    for row in inst.poly.w_mat:
        for v in row:
            amax = max(amax, abs(v.numerator) * (ell // v.denominator))
    d_point = (2 * n * amax * amax) ** max(1, n)
    return ell_obj * d_point * d_point


def _reference_scaled_integer_system_size(matrices, vectors, scalars):
    """`scaled_integer_system_size` as it was before it scaled through
    `integer_row`."""
    total = 0
    dims = 0
    for a, b in zip(list(matrices), list(vectors)):
        for row, rhs in zip(a, b + [Rat(0)] * (len(a) - len(b))):
            ell = lcm(*([v.denominator for v in row] + [rhs.denominator]))
            for v in row:
                total += size_of(Rat(v.numerator * (ell // v.denominator)))
            total += size_of(Rat(rhs.numerator * (ell // rhs.denominator)))
            dims += 1 + len(row)
    for s in scalars:
        total += size_of(Rat(s.numerator)) + size_of(Rat(s.denominator))
    return max(1, total + dims)


def _random_rational_instance(rng):
    n = rng.randint(1, 4)
    m = rng.randint(0, 4)

    def r():
        return Rat(rng.randint(-10 ** 6, 10 ** 6), rng.choice([1, 2, 3, 7, 10 ** 9, 2 ** 61 - 1]))

    l_mat = [[r() for _ in range(n)] for _ in range(rng.randint(0, n))]
    h_mat = [[sum((row[i] * row[j] for row in l_mat), Rat(0)) for j in range(n)]
             for i in range(n)]
    poly = Polyhedron([[r() for _ in range(n)] for _ in range(m)], [r() for _ in range(m)],
                      rng.randint(0, n), n=n)
    return MicqpInstance(QpObjective(h_mat, [r() for _ in range(n)]), poly), r()


def test_scaled_sizes_match_the_references():
    insts = [(inst, Rat(-7, 3)) for _, inst in corpus()]
    rng = random.Random(4242)
    insts += [_random_rational_instance(rng) for _ in range(60)]
    for inst, eta in insts:
        assert _denominator_bound(inst) == _reference_denominator_bound(inst)
        args = ([inst.poly.w_mat, inst.obj.h_mat], [inst.poly.w_rhs, inst.obj.h_vec], [eta])
        assert scaled_integer_system_size(*args) == _reference_scaled_integer_system_size(*args)


def _probes_inside_box_checks(monkeypatch) -> list:
    """[checks, probe LPs]: `_check_box` runs, and `_probe_lp` runs inside them."""
    counts = [0, 0]
    inside = [False]
    check_box = miqcp.solver._check_box

    def counted_check(boxed, poly):
        counts[0] += 1
        inside[0] = True
        try:
            return check_box(boxed, poly)
        finally:
            inside[0] = False

    probe_lp = miqcp.polyhedra._probe_lp

    def counted_probe(poly):
        counts[1] += inside[0]
        return probe_lp(poly)

    monkeypatch.setattr(miqcp.solver, "_check_box", counted_check)
    monkeypatch.setattr(miqcp.polyhedra, "_probe_lp", counted_probe)
    return counts


def test_the_box_check_of_a_linear_objective_runs_no_lp(monkeypatch):
    # min x1 + x2 over x1 + 2 x2 >= 3/2, 0 <= x <= 5: the level-set probes
    # below the optimum answer None, and their box check runs no LP: a box
    # equal to P's bounds cuts nothing off, and one that cuts P reads the
    # probe the MILP check ran on the one boxed polyhedron of the solve
    counts = _probes_inside_box_checks(monkeypatch)
    obj = QpObjective(mat([[0, 0], [0, 0]]), [Rat(1), Rat(1)])
    for hi in (5, 4):
        poly = box([0, 0], [5, 5], p=2).with_rows([[Rat(-1), Rat(-2)]], [Rat(-3, 2)])
        counts[:] = [0, 0]
        res = optimize(MicqpInstance(obj, poly, ([Rat(0)] * 2, [Rat(hi)] * 2)))
        assert (res.status, res.value) == (OPTIMAL_STATUS, 1)
        assert counts == [1, 0], hi
    # a direct call whose level set is empty has probed only the cut set,
    # so there the probe of the boxed polyhedron is the check itself
    poly = box([0, 0], [5, 5], p=2).with_rows([[Rat(-1), Rat(-2)]], [Rat(-3, 2)])
    counts[:] = [0, 0]
    q = ConvexQuadraticSet(poly, obj, Rat(1, 2))
    assert feasibility(q, ([Rat(0)] * 2, [Rat(4)] * 2)) is None
    assert counts == [1, 1]


def test_a_box_that_cuts_nothing_off_is_not_probed():
    # the boxed polyhedron equals P whether or not P was given n, so the
    # box check returns before either probe LP
    poly = box([0, -1], [3, 2], p=2)
    boxed = _merge_duplicate_rows(poly.with_box([Rat(0), Rat(-1)], [Rat(3), Rat(2)]))
    assert boxed == poly
    _check_box(boxed, poly)
    assert boxed._probe is None and poly._probe is None
