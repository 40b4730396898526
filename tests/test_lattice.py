"""LLL reduction, nearest plane and flatness, and integral LLL against the
Fraction Gram-Schmidt LLL it replaced.

``_reference_lll_reduce`` and ``_reference_babai_nearest_plane`` recompute
the whole Gram-Schmidt basis in Fractions after every step.  The integral
versions must take the same steps, so the reduced basis, U, U^-1, Babai's
point and every flatness outcome agree field for field.  ``ellipsoid_flatness``
on the Gram matrix B^T B must take the steps of the Fraction reference
flatness on B, since ``flatness`` itself wraps it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from miqcp.errors import DimensionError, PreconditionError
from miqcp.lattice import (
    LATTICE_POINT,
    THIN_DIRECTION,
    FlatnessOutcome,
    LatticeBasis,
    babai_nearest_plane,
    ellipsoid_flatness,
    flatness,
    lll_reduce,
    width_bound_sq,
)
from miqcp.linalg import UnimodularCert
from miqcp.linalg import (
    det,
    dot,
    identity,
    integer_row,
    inverse,
    is_integer_mat,
    mat,
    mat_eq,
    mat_mul,
    mat_vec,
    norm_sq,
    vec_sub,
)
from miqcp.rational import Rat, ZERO, is_integral, rround


def _reference_gram_schmidt(cols):
    star = []
    mu = [[ZERO] * len(cols) for _ in cols]
    for i, b in enumerate(cols):
        v = list(b)
        for j in range(i):
            denom = norm_sq(star[j])
            mu[i][j] = dot(b, star[j]) / denom
            v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
        star.append(v)
    return star, mu


def assert_lll_reduced(basis):
    star, mu = _reference_gram_schmidt(basis.columns())
    p = basis.p
    for i in range(p):
        for j in range(i):
            assert 2 * abs(mu[i][j]) <= 1
    for k in range(1, p):
        assert norm_sq(star[k]) >= (Rat(3, 4) - mu[k][k - 1] ** 2) * norm_sq(star[k - 1])


def test_lll_identity_unchanged():
    red, u = lll_reduce(LatticeBasis(identity(3)))
    assert mat_eq(red.b_mat, identity(3))
    assert u.check()


def test_lll_skew_basis():
    b = LatticeBasis(mat([[1, 1000001], [0, 1]]))
    red, u = lll_reduce(b)
    assert abs(det(red.b_mat)) == abs(det(b.b_mat))
    assert mat_eq(mat_mul(b.b_mat, u.u), red.b_mat)
    assert u.check()
    assert_lll_reduced(red)
    assert all(abs(v) <= 2 for row in red.b_mat for v in row)


def test_lll_diagonal_already_reduced():
    b = LatticeBasis(mat([[2, 0], [0, 3]]))
    red, _ = lll_reduce(b)
    assert abs(det(red.b_mat)) == 6
    assert_lll_reduced(red)


def test_lll_rejects_singular():
    with pytest.raises(PreconditionError):
        lll_reduce(LatticeBasis(mat([[1, 2], [2, 4]])))


def test_lll_randomized_invariants():
    rng = random.Random(101)
    done = 0
    while done < 60:
        p = rng.randint(1, 5)
        b_mat = [[Rat(rng.randint(-8, 8), rng.choice([1, 1, 2])) for _ in range(p)]
                 for _ in range(p)]
        if det(b_mat) == 0:
            continue
        basis = LatticeBasis(b_mat)
        red, u = lll_reduce(basis)
        assert is_integer_mat(u.u) and is_integer_mat(u.uinv)
        assert abs(det(u.u)) == 1
        assert mat_eq(mat_mul(basis.b_mat, u.u), red.b_mat)
        assert abs(det(red.b_mat)) == abs(det(basis.b_mat))
        assert_lll_reduced(red)
        done += 1


def test_babai_simple():
    basis = LatticeBasis(identity(2))
    z = babai_nearest_plane(basis, [Rat(3, 4), Rat(-1, 3)])
    assert z == [1, 0]


def test_flatness_1d_lattice_point():
    out = flatness([Rat(2, 5)], Rat(3, 5), LatticeBasis(mat([[1]])))
    assert out.tag == LATTICE_POINT
    assert out.z == [0]


def test_flatness_1d_thin_direction():
    out = flatness([Rat(1, 2)], Rat(1, 4), LatticeBasis(mat([[1]])))
    assert out.tag == THIN_DIRECTION
    assert abs(out.d[0]) == 1
    # width 2 * (1/4) * 1 = 1/2 <= 1 * 2^0 = 1
    assert 4 * Rat(1, 4) ** 2 * norm_sq(out.d) <= width_bound_sq(1)


def test_flatness_2d_identity():
    out = flatness([Rat(1, 2), Rat(1, 2)], Rat(1), LatticeBasis(identity(2)))
    assert out.tag == LATTICE_POINT
    z = out.z
    assert all(is_integral(v) for v in z)
    assert norm_sq(vec_sub(z, [Rat(1, 2), Rat(1, 2)])) <= 1


def test_flatness_invariants_randomized():
    rng = random.Random(7)
    done = 0
    while done < 200:
        p = rng.randint(1, 5)
        b_mat = [[Rat(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(p)]
                 for _ in range(p)]
        if det(b_mat) == 0:
            continue
        basis = LatticeBasis(b_mat)
        a = [Rat(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(p)]
        r = Rat(rng.randint(0, 8), rng.choice([1, 2, 3]))
        out = flatness(a, r, basis)
        binv = inverse(b_mat)
        if out.tag == LATTICE_POINT:
            coeffs = mat_vec(binv, out.z)
            assert all(is_integral(v) for v in coeffs)
            assert norm_sq(vec_sub(out.z, a)) <= r * r
        else:
            assert any(v != 0 for v in out.d)
            bt_d = [dot([b_mat[i][j] for i in range(p)], out.d) for j in range(p)]
            assert all(is_integral(v) for v in bt_d)
            assert 4 * r * r * norm_sq(out.d) <= width_bound_sq(p)
        done += 1


# ---------------------------------------------------------------------------
# integral LLL against the Fraction Gram-Schmidt LLL it replaced


def _reference_lll_reduce(basis):
    if det(basis.b_mat) == 0:
        raise PreconditionError("lattice basis is singular")
    p = basis.p
    cols = basis.columns()
    u = identity(p)
    uinv = identity(p)

    def col_addmul(dst, src, k):
        cols[dst] = [a + k * b for a, b in zip(cols[dst], cols[src])]
        for row in u:
            row[dst] += k * row[src]
        uinv[src] = [x - k * y for x, y in zip(uinv[src], uinv[dst])]

    def col_swap(c1, c2):
        cols[c1], cols[c2] = cols[c2], cols[c1]
        for row in u:
            row[c1], row[c2] = row[c2], row[c1]
        uinv[c1], uinv[c2] = uinv[c2], uinv[c1]

    star, mu = _reference_gram_schmidt(cols)
    k = 1
    while k < p:
        for j in range(k - 1, -1, -1):
            if 2 * abs(mu[k][j]) > 1:
                col_addmul(k, j, -rround(mu[k][j]))
                star, mu = _reference_gram_schmidt(cols)
        if norm_sq(star[k]) >= (Rat(3, 4) - mu[k][k - 1] ** 2) * norm_sq(star[k - 1]):
            k += 1
        else:
            col_swap(k, k - 1)
            star, mu = _reference_gram_schmidt(cols)
            k = max(k - 1, 1)

    reduced = [[cols[j][i] for j in range(p)] for i in range(p)]
    return LatticeBasis(reduced), UnimodularCert(u, uinv)


def _reference_babai_nearest_plane(reduced, target):
    cols = reduced.columns()
    star, _mu = _reference_gram_schmidt(cols)
    t = list(target)
    z = [ZERO] * reduced.p
    for i in range(reduced.p - 1, -1, -1):
        coeff = rround(dot(t, star[i]) / norm_sq(star[i]))
        t = [a - coeff * b for a, b in zip(t, cols[i])]
        z = [a + coeff * b for a, b in zip(z, cols[i])]
    return z


def _reference_flatness(a, r, reduced):
    """`flatness` on the basis whose reference reduction is reduced."""
    z = _reference_babai_nearest_plane(reduced, a)
    if norm_sq(vec_sub(z, a)) <= r * r:
        return FlatnessOutcome(LATTICE_POINT, z=list(z))
    return FlatnessOutcome(THIN_DIRECTION, d=list(min(inverse(reduced.b_mat), key=norm_sq)))


def _assert_matches_reference(b_mat, a, r):
    """Both LLLs on B, then Babai and flatness; the tag of the flatness
    outcome, or None when B is singular (both must then refuse it)."""
    try:
        want_red, want_u = _reference_lll_reduce(LatticeBasis(b_mat))
    except PreconditionError:
        with pytest.raises(PreconditionError):
            lll_reduce(LatticeBasis(b_mat))
        with pytest.raises(PreconditionError):
            flatness(a, r, LatticeBasis(b_mat))
        return None
    red, u = lll_reduce(LatticeBasis(b_mat))
    assert red.b_mat == want_red.b_mat
    assert u.u == want_u.u and u.uinv == want_u.uinv
    # the reduced basis carries its integral data; a plain basis computes it
    assert babai_nearest_plane(red, a) == _reference_babai_nearest_plane(want_red, a)
    assert babai_nearest_plane(LatticeBasis(b_mat), a) == \
        _reference_babai_nearest_plane(LatticeBasis(b_mat), a)
    out = flatness(a, r, LatticeBasis(b_mat))
    assert out == _reference_flatness(a, r, want_red)
    return out.tag


_BIG_DEN = (1 << 61) - 1


def _rational_matrix(rng, p, den):
    return [[Rat(rng.randint(-99, 99), rng.randint(1, den)) for _ in range(p)]
            for _ in range(p)]


def _random_case(rng, kind, p):
    """(B, a, r) of one kind: rational, market split, near-dependent or singular.

    Denominators reach 2^61 - 1 for p <= 5; larger p keep them small, since
    the Fraction reference costs seconds per basis there.
    """
    den = rng.choice((1, 7, 1 << 20, _BIG_DEN) if p <= 5 else (1, 2, 7))
    b_mat = _rational_matrix(rng, p, den)
    if kind == "msplit":
        # the knapsack lattice of a . x = rhs: identity over a weighted last row
        weights = [rng.randint(0, 100) for _ in range(p - 1)]
        rhs = sum(w for w in weights if rng.random() < 0.5) or 1
        b_mat = [[Rat(int(i == j)) for j in range(p)] for i in range(p - 1)]
        b_mat.append([Rat(1000 * w) for w in weights] + [Rat(1000 * rhs)])
    elif kind == "near" and p > 1:
        # column k a multiple of column j, then moved off it by 2^-40
        j, k = rng.sample(range(p), 2)
        c = Rat(rng.randint(-5, 5), rng.randint(1, 3))
        for row in b_mat:
            row[k] = c * row[j]
        b_mat[rng.randrange(p)][k] += Rat(rng.choice((-1, 1)), 1 << 40)
    elif kind == "singular":
        # column k a rational combination of the others (zero when p = 1)
        k = rng.randrange(p)
        coef = [Rat(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(p)]
        for row in b_mat:
            row[k] = sum((c * v for i, (c, v) in enumerate(zip(coef, row)) if i != k), ZERO)
    a_den = rng.choice((1, 4, _BIG_DEN))
    a = [Rat(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, a_den)) for _ in range(p)]
    r = rng.choice((ZERO, Rat(rng.randint(1, 40), rng.randint(1, 9)), Rat(10 ** 6)))
    return b_mat, a, r


def test_integral_lll_matches_fraction_reference():
    rng = random.Random(2027)
    tags = []
    for kind in ("rational", "msplit", "near", "singular"):
        for p in range(1, 9):
            for _ in range(10):
                tags.append((kind, _assert_matches_reference(*_random_case(rng, kind, p))))
    assert len(tags) == 320
    assert all(tag is None for kind, tag in tags if kind == "singular")
    found = {tag for kind, tag in tags if kind != "singular"}
    assert found == {LATTICE_POINT, THIN_DIRECTION}
    assert sum(tag is None for _, tag in tags) <= 90
    # p = 0: the empty basis's one lattice point, z = [], lies in every ball
    assert _assert_matches_reference([], [], Rat(1)) == LATTICE_POINT


_entry = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def _lattice_case(draw):
    p = draw(st.integers(1, 5))
    b_mat = draw(st.lists(st.lists(_entry, min_size=p, max_size=p), min_size=p, max_size=p))
    a = draw(st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=50),
                      min_size=p, max_size=p))
    r = draw(st.fractions(min_value=0, max_value=30, max_denominator=7))
    return b_mat, a, r


@settings(max_examples=100, deadline=None)
@given(_lattice_case())
def test_integral_lll_matches_fraction_reference_property(case):
    _assert_matches_reference(*case)


def test_lll_lovasz_equality_keeps_the_pair():
    # |b*_1|^2 = (3/4 - mu^2) |b*_0|^2 exactly, once with mu = 1/2 and once
    # with mu = 0: the test passes and, the later columns being orthogonal
    # and long, the basis is already reduced
    for cols in ([[2, 0, 0], [1, 1, 1], [0, 5, -5]],
                 [[2, 0, 0, 0], [0, 1, 1, 1], [0, 4, -4, 0], [0, 4, 4, -8]]):
        b_mat = [list(row) for row in zip(*mat(cols))]
        red, u = lll_reduce(LatticeBasis(b_mat))
        want_red, want_u = _reference_lll_reduce(LatticeBasis(b_mat))
        assert red.b_mat == want_red.b_mat == b_mat
        assert u.u == want_u.u == identity(len(cols))


def test_babai_rounds_ties_up():
    # the target sits halfway between lattice points in both coordinates
    assert babai_nearest_plane(LatticeBasis(identity(2)), [Rat(1, 2), Rat(-3, 2)]) == [1, -1]
    skew = LatticeBasis(mat([[2, 1], [0, 2]]))
    target = [Rat(3, 2), Rat(1)]
    assert babai_nearest_plane(skew, target) == _reference_babai_nearest_plane(skew, target)


def test_lll_result_keeps_no_shared_state():
    # the reduction leaves its input alone, and Babai reads b_mat as it is
    # at the call, also after an edit in place
    basis = LatticeBasis(mat([[1, 1000001], [0, 1]]))
    red, _ = lll_reduce(basis)
    assert basis.b_mat == mat([[1, 1000001], [0, 1]])
    again, u = lll_reduce(red)
    assert again.b_mat == red.b_mat and u.u == identity(2)
    target = [Rat(7, 3), Rat(-5, 2)]
    assert babai_nearest_plane(red, target) == _reference_babai_nearest_plane(red, target)
    red.b_mat[1][1] *= 3
    edited = babai_nearest_plane(red, target)
    assert edited == _reference_babai_nearest_plane(red, target)
    assert edited != _reference_babai_nearest_plane(again, target)


# ---------------------------------------------------------------------------
# flatness of an ellipsoid in its own metric


def _ints(s_mat):
    """(M, m) with s_mat = M / m, M ints and m > 0: a Rat matrix in the
    form `ellipsoid_flatness` takes its metric and its shape."""
    p = len(s_mat)
    flat, m = integer_row([v for row in s_mat for v in row])
    return [flat[i * p:(i + 1) * p] for i in range(p)], m


def _assert_gram_form_is_flatness(b_mat, a, r):
    """Z^p with the inner product S = B^T B is the lattice B Z^p, and the
    ball B(a, r) is the ellipsoid (y - B^-1 a)^T S (y - B^-1 a) <= r^2:
    `ellipsoid_flatness` on metric S and shape S^-1 takes the steps of the
    Fraction reference flatness on B's reference reduction, so its point
    is B^-1 z and its direction B^T d.  The tag, or None when B is
    singular."""
    if det(b_mat) == 0:
        return None
    p = len(b_mat)
    gram = mat_mul([list(col) for col in zip(*b_mat)], b_mat)
    out = ellipsoid_flatness(_ints(gram), _ints(inverse(gram)), mat_vec(inverse(b_mat), a), r * r)
    want = _reference_flatness(a, r, _reference_lll_reduce(LatticeBasis(b_mat))[0])
    assert out.tag == want.tag
    if out.tag == LATTICE_POINT:
        assert mat_vec(b_mat, out.z) == want.z
    else:
        assert out.d == [dot([b_mat[i][j] for i in range(p)], want.d) for j in range(p)]
    return out.tag


def test_ellipsoid_flatness_is_flatness_in_the_gram_metric():
    rng = random.Random(34)
    tags = [_assert_gram_form_is_flatness(*_random_case(rng, kind, p))
            for kind in ("rational", "msplit", "near") for p in range(1, 7) for _ in range(6)]
    assert {LATTICE_POINT, THIN_DIRECTION} <= set(tags)


@settings(max_examples=100, deadline=None)
@given(_lattice_case())
def test_ellipsoid_flatness_is_flatness_in_the_gram_metric_property(case):
    _assert_gram_form_is_flatness(*case)


def test_ellipsoid_flatness_invariants_randomized():
    # a point of E, or an integral d along which E is at most
    # p 2^(p(p-1)/4) wide
    rng = random.Random(35)
    tags = []
    for _ in range(200):
        p = rng.randint(1, 5)
        ell = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(p + 1)]
        shape = [[sum(r[i] * r[j] for r in ell) + (Rat(1, rng.randint(1, 4)) if i == j else ZERO)
                  for j in range(p)] for i in range(p)]
        center = [Rat(rng.randint(-40, 40), rng.randint(1, 7)) for _ in range(p)]
        rho = Rat(rng.randint(0, 30), rng.randint(1, 5))
        s_mat = inverse(shape)
        out = ellipsoid_flatness(_ints(s_mat), _ints(shape), center, rho)
        if out.tag == LATTICE_POINT:
            assert all(is_integral(v) for v in out.z)
            off = vec_sub(out.z, center)
            assert dot(off, mat_vec(s_mat, off)) <= rho
        else:
            assert all(is_integral(v) for v in out.d) and any(out.d)
            assert 4 * rho * dot(out.d, mat_vec(shape, out.d)) <= width_bound_sq(p)
        tags.append(out.tag)
    assert len(set(tags)) == 2


def test_ellipsoid_flatness_refuses_bad_input():
    unit = _ints(identity(2))
    with pytest.raises(PreconditionError):
        ellipsoid_flatness(unit, unit, [ZERO, ZERO], Rat(-1))
    with pytest.raises(DimensionError):
        ellipsoid_flatness(unit, unit, [ZERO], Rat(1))
    with pytest.raises(DimensionError):
        ellipsoid_flatness(_ints(identity(3)), unit, [ZERO, ZERO], Rat(1))
    with pytest.raises(PreconditionError):
        ellipsoid_flatness(_ints(mat([[1, 1], [1, 1]])), unit, [ZERO, ZERO], Rat(1))
