import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from miqcp.diophantine import (
    EMPTY,
    AffineParam,
    Empty,
    _param_family,
    identity_param,
    integer_reflexive_ginv,
    parametrize_mixed_integer_solutions,
)
from miqcp.linalg import (
    column_reduce_unimodular,
    identity,
    inverse,
    is_integer_mat,
    mat,
    mat_eq,
    mat_mul,
    mat_vec,
    rank,
    rank_with_basis,
    shape,
    zeros,
)
from miqcp.polyhedra import Polyhedron
from miqcp.qp import QpObjective
from miqcp.rational import Rat, is_integral


def ginv_identities_hold(a, g):
    asharp = g.asharp
    if not a or not a[0]:
        return shape(asharp) == (len(a[0]) if a else 0, len(a))
    aga = mat_mul(mat_mul(a, asharp), a)
    gag = mat_mul(mat_mul(asharp, a), asharp)
    prod = mat_mul(asharp, a)
    n = len(a[0])
    d = [[Rat(1) if (i == j and i < g.r) else Rat(0) for j in range(n)] for i in range(n)]
    fact = mat_mul(mat_mul(g.u.u, d), g.u.uinv)
    return (
        mat_eq(aga, a)
        and mat_eq(gag, asharp)
        and is_integer_mat(prod)
        and mat_eq(prod, fact)
    )


def test_ginv_identity_matrix():
    g = integer_reflexive_ginv(identity(3))
    assert mat_eq(g.asharp, identity(3))
    assert g.r == 3


def test_ginv_single_row():
    a = mat([[1, 2]])
    g = integer_reflexive_ginv(a)
    assert mat_eq(g.asharp, mat([[1], [0]]))
    assert mat_eq(mat_mul(g.asharp, a), mat([[1, 2], [0, 0]]))
    assert ginv_identities_hold(a, g)


def test_ginv_rank_deficient_diagonal():
    a = mat([[2, 0], [0, 0]])
    g = integer_reflexive_ginv(a)
    assert mat_eq(g.asharp, mat([["1/2", 0], [0, 0]]))
    assert mat_eq(mat_mul(g.asharp, a), mat([[1, 0], [0, 0]]))
    assert ginv_identities_hold(a, g)


def test_ginv_zero_matrix():
    a = zeros(2, 3)
    g = integer_reflexive_ginv(a)
    assert g.r == 0
    assert mat_eq(g.asharp, zeros(3, 2))


def test_ginv_zero_row_above_basis():
    # the basis row sits below a zero row: its column of A# is filled and
    # the zero row's column stays zero
    a = mat([[0, 0], [1, 2]])
    g = integer_reflexive_ginv(a)
    assert g.r == 1
    assert mat_eq(g.asharp, mat([[0, 1], [0, 0]]))
    assert ginv_identities_hold(a, g)


def _random_ginv_cases():
    rng = random.Random(42)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        yield [[Rat(rng.randint(-9, 9)) for _ in range(n)] for _ in range(m)]


def test_ginv_randomized_identities():
    for a in _random_ginv_cases():
        g = integer_reflexive_ginv(a)
        assert ginv_identities_hold(a, g)
        assert g.r == rank(a)


def _asharp_by_permutation(a):
    """A# = U [[K1^-1, 0], [0, 0]] Wperm by two dense products, Wperm the
    permutation matrix moving the row basis of A to the top."""
    m, n = shape(a)
    r, basis = rank_with_basis(a)
    if r == 0:
        return zeros(n, m)
    wperm = zeros(m, m)
    for i, j in enumerate(list(basis) + [i for i in range(m) if i not in basis]):
        wperm[i][j] = Rat(1)
    u, k1 = column_reduce_unimodular([a[i][:] for i in basis])
    k1_inv = inverse(k1)
    ksharp = zeros(n, m)
    for i in range(r):
        for j in range(r):
            ksharp[i][j] = k1_inv[i][j]
    return mat_mul(mat_mul(u.u, ksharp), wperm)


def test_ginv_places_the_columns_of_the_permutation_formula():
    fixed = [identity(3), mat([[1, 2]]), mat([[2, 0], [0, 0]]), zeros(2, 3),
             mat([[0, 0], [1, 2]])]
    for a in fixed + list(_random_ginv_cases()):
        assert mat_eq(integer_reflexive_ginv(a).asharp, _asharp_by_permutation(a))


def tau_points(param, y_range, z_values):
    """All tau(x') with integer part in y_range^p' and continuous part in z_values."""
    pts = []
    cont = param.n_prime - param.p_prime
    for ypart in itertools.product(y_range, repeat=param.p_prime):
        for zpart in itertools.product(z_values, repeat=cont):
            xp = [Rat(v) for v in ypart] + [Rat(v) for v in zpart]
            pts.append((xp, param.apply(xp)))
    return pts


def test_parametrize_unconstrained():
    param = parametrize_mixed_integer_solutions(mat([[0, 0]]), [Rat(0)], 1)
    assert isinstance(param, AffineParam)
    assert param.xbar == [0, 0]
    assert mat_eq(param.m, identity(2))
    assert param.p_prime == 1 and param.n_prime == 2


def test_parametrize_fractional_forced_integer():
    out = parametrize_mixed_integer_solutions(mat([[1, 0]]), [Rat(1, 2)], 1)
    assert out == EMPTY


def test_parametrize_spec_example_2x_plus_z():
    param = parametrize_mixed_integer_solutions(mat([[2, 1]]), [Rat(1)], 1)
    assert isinstance(param, AffineParam)
    assert param.p_prime == 1 and param.n_prime == 1
    assert param.xbar == [0, 1]
    assert mat_eq(param.m, mat([[1], [-2]]))
    # brute-force oracle: y in {-3..3}, z = 1 - 2y must all be hit by tau(Z)
    hits = {tuple(param.apply([Rat(k)])) for k in range(-5, 6)}
    for y in range(-3, 4):
        z = 1 - 2 * y
        assert (Rat(y), Rat(z)) in hits


def test_parametrize_infeasible_rational_system():
    # x + y = 1/2 with both integer: C = W, d stays 1/2
    out = parametrize_mixed_integer_solutions(mat([[1, 1]]), [Rat(1, 2)], 2)
    assert out == EMPTY


def test_parametrize_p0_consistency_only():
    # pure continuous: solvable system
    param = parametrize_mixed_integer_solutions(mat([[1, 1]]), [Rat(1, 2)], 0)
    assert isinstance(param, AffineParam)
    assert param.p_prime == 0 and param.n_prime == 1
    # inconsistent system
    out = parametrize_mixed_integer_solutions(
        mat([[1, 1], [2, 2]]), [Rat(1), Rat(3)], 0
    )
    assert out == EMPTY


def test_parametrize_formulas_and_properties_randomized():
    rng = random.Random(99)
    done = 0
    while done < 150:
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        p = rng.randint(0, n)
        w = [[Rat(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
        # half the time build a consistent rhs from a planted mixed-integer point
        if rng.random() < 0.7:
            planted = [Rat(rng.randint(-3, 3)) for _ in range(p)] + [
                Rat(rng.randint(-6, 6), 2) for _ in range(n - p)
            ]
            rhs = mat_vec(w, planted)
        else:
            rhs = [Rat(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(m)]
        out = parametrize_mixed_integer_solutions(w, rhs, p)
        done += 1
        if isinstance(out, Empty):
            continue
        b = [row[p:] for row in w]
        r_w, r_b = rank(w), rank(b) if n - p > 0 else 0
        assert out.p_prime == p - r_w + r_b
        assert out.n_prime == n - r_w
        assert rank(out.m) == out.n_prime
        assert all(is_integral(v) for v in out.xbar[:p])
        # every parametrized point solves the system with integer leading part
        for xp, x in tau_points(out, range(-2, 3), [Rat(0), Rat(1, 2), Rat(-3, 2)])[:60]:
            assert mat_vec(w, x) == rhs
            assert all(is_integral(v) for v in x[:p])


def test_parametrize_hits_all_solutions_in_box():
    # 2D lattice slice: x1 + 2x2 = 3, both integer
    w = mat([[1, 2]])
    rhs = [Rat(3)]
    param = parametrize_mixed_integer_solutions(w, rhs, 2)
    assert isinstance(param, AffineParam)
    sols = set()
    for x1 in range(-9, 10):
        for x2 in range(-9, 10):
            if x1 + 2 * x2 == 3:
                sols.add((Rat(x1), Rat(x2)))
    hit = set()
    for k in range(-40, 41):
        x = param.apply([Rat(k)])
        if all(-9 <= v <= 9 for v in x):
            hit.add(tuple(x))
    assert hit == sols


def test_furthermore_clause_integer_supported_equality():
    # valid equality x1 = 2 supported on integer variables forces p' <= p-1
    w = mat([[1, 0], [1, 1]])
    rhs = [Rat(2), Rat(3)]
    param = parametrize_mixed_integer_solutions(w, rhs, 2)
    assert isinstance(param, AffineParam)
    assert param.p_prime <= 1


def test_apply_inverse_roundtrip():
    param = parametrize_mixed_integer_solutions(mat([[2, 1]]), [Rat(1)], 1)
    for k in (-3, 0, 5):
        x = param.apply([Rat(k)])
        assert param.apply_inverse(x) == [Rat(k)]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    st.integers(0, 3),
    st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_parametrized_points_always_solve_system(rows, planted, p, coeffs):
    w = mat(rows)
    x_plant = [Rat(v) for v in planted]
    rhs = mat_vec(w, x_plant)
    out = parametrize_mixed_integer_solutions(w, rhs, p)
    assert isinstance(out, AffineParam)  # integer planted point exists
    xprime = [Rat(c) for c in coeffs[: out.p_prime]] + [
        Rat(c, 2) for c in coeffs[out.p_prime : out.n_prime]
    ]
    x = out.apply(xprime)
    assert mat_vec(w, x) == rhs
    assert all(is_integral(v) for v in x[:p])


def _reference_parametrize(w, rhs, p):
    """`parametrize_mixed_integer_solutions` before its split into an
    rhs-free family and an rhs step: every matrix built afresh per call."""
    m = len(w)
    n = len(w[0])
    q = n - p
    a = [row[:p] for row in w]
    b = [row[p:] for row in w]

    if q > 0:
        b_g = integer_reflexive_ginv(b)
        bsharp, r_b, u_b = b_g.asharp, b_g.r, b_g.u.u
        bb = mat_mul(b, bsharp)
    else:
        bsharp, r_b, u_b = None, 0, []
        bb = zeros(m, m)
    proj = [[(Rat(1) if i == j else Rat(0)) - bb[i][j] for j in range(m)] for i in range(m)]
    d = mat_vec(proj, rhs)

    if p > 0:
        c = mat_mul(proj, a)
        c_g = integer_reflexive_ginv(c)
        ybar = mat_vec(c_g.asharp, d)
        if any(not is_integral(v) for v in ybar):
            return EMPTY
        if mat_vec(c, ybar) != d:
            return EMPTY
        r_c, u_c = c_g.r, c_g.u.u
    else:
        if any(v != 0 for v in d):
            return EMPTY
        ybar, r_c, u_c = [], 0, []

    p_prime = p - r_c
    q_prime = q - r_b
    n_prime = p_prime + q_prime
    r_blk = [[u_c[i][r_c + j] for j in range(p_prime)] for i in range(p)]
    t_blk = [[u_b[i][r_b + j] for j in range(q_prime)] for i in range(q)]

    if q > 0:
        if p > 0:
            ba = mat_mul(bsharp, a)
            s_blk = [[-v for v in row] for row in mat_mul(ba, r_blk)]
            ba_ybar = mat_vec(ba, ybar)
        else:
            s_blk = [[] for _ in range(q)]
            ba_ybar = [Rat(0)] * q
        zbar = [u - v for u, v in zip(mat_vec(bsharp, rhs), ba_ybar)]
    else:
        s_blk, zbar = [], []

    xbar = list(ybar) + list(zbar)
    m_map = [r_blk[i] + [Rat(0)] * q_prime for i in range(p)] + [
        s_blk[i] + t_blk[i] for i in range(q)
    ]
    return AffineParam(xbar, m_map, p_prime, n_prime)


_entry = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _systems(draw):
    """W (1-3 rows, n <= 4, entries of denominator <= 3), p, and several
    right-hand sides: some of a planted mixed-integer point, some drawn."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=1, max_size=3))
    w = [[Rat(v) for v in row] for row in rows]
    p = draw(st.integers(0, n))
    rhs_list = []
    for planted in draw(st.lists(st.booleans(), min_size=2, max_size=5)):
        if planted:
            x = [Rat(draw(st.integers(-3, 3))) for _ in range(p)] + [
                Rat(draw(_entry)) for _ in range(n - p)]
            rhs_list.append(mat_vec(w, x))
        else:
            rhs_list.append([Rat(draw(_entry)) for _ in w])
    return w, p, rhs_list


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_the_split_parametrization_matches_the_reference(case):
    # one family per W and p, solved for every rhs as a thin node solves
    # its bands: each answer is the reference's, and the parametrizations
    # of one family share its M
    w, p, rhs_list = case
    expected = [_reference_parametrize(w, rhs, p) for rhs in rhs_list]
    family = _param_family(w, p)
    got = [family.solve(rhs) for rhs in rhs_list]
    assert got == expected
    assert [parametrize_mixed_integer_solutions(w, rhs, p) for rhs in rhs_list] == expected
    params = [(g, e) for g, e in zip(got, expected) if isinstance(g, AffineParam)]
    assert all(g.m is family.m for g, _ in params)
    # nothing that reads a parametrization writes to its (shared) M
    n = len(w[0])
    poly = Polyhedron([[Rat(1)] * n, [Rat(-1)] * n], [Rat(5), Rat(5)], p)
    obj = QpObjective(identity(n), [Rat(1)] * n)
    for g, _ in params:
        g.integer_form()
        g.apply_inverse(g.apply([Rat(1)] * g.n_prime))
        g.compose(identity_param(g.n_prime, g.p_prime))
        if g.n_prime:
            identity_param(n, p).compose(g)
        poly.map_through(g)
        obj.substitute(g)
    for g, e in params:
        assert g.m == e.m and g.xbar == e.xbar
