import random

import pytest
from hypothesis import given, settings, strategies as st

from miqcp.errors import DimensionError, NotPsdError, PreconditionError
from miqcp.linalg import (
    UnimodularCert,
    _eliminate,
    column_reduce_unimodular,
    det,
    gauss_solve,
    identity,
    integer_inverse,
    inverse,
    is_integer_mat,
    is_psd,
    ldlt_psd_check,
    mat,
    mat_eq,
    mat_mul,
    mat_vec,
    null_basis,
    null_space,
    rank,
    rank_with_basis,
    shape,
    transpose,
    zeros,
)
from miqcp.rational import Rat


def rmat(rng, m, n, lo=-9, hi=9, denoms=(1,)):
    return [[Rat(rng.randint(lo, hi), rng.choice(denoms)) for _ in range(n)] for _ in range(m)]


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero():
    assert rank(zeros(2, 4)) == 0


def test_rank_dependent_rows():
    # second row is half the first
    assert rank(mat([[2, 4], [1, 2]])) == 1


def test_row_basis_pivots_on_smallest_magnitude():
    # the pivot rule fixes which rows form the basis, and with it every
    # integer reflexive generalized inverse
    assert rank_with_basis(mat([[2, 4], [1, 2]])) == (1, [1])
    assert rank_with_basis(mat([[1, 0], [-1, 0], [0, 3]])) == (2, [0, 2])
    assert rank_with_basis(mat([[0, 5], [3, 1], [-2, 1]])) == (2, [1, 2])


def test_rank_matches_transpose_randomized():
    rng = random.Random(7)
    for _ in range(120):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = rmat(rng, m, n, denoms=(1, 2, 3))
        assert rank(a) == rank(transpose(a))


def _gauss_rank(a):
    # independent oracle: plain rational elimination
    work = [row[:] for row in a]
    m = len(work)
    n = len(work[0]) if work else 0
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, m):
            f = work[i][col] / work[r][col]
            work[i] = [vi - f * vr for vi, vr in zip(work[i], work[r])]
        r += 1
    return r


def test_rank_against_plain_elimination():
    rng = random.Random(13)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = rmat(rng, m, n, lo=-4, hi=4, denoms=(1, 2, 5))
        assert rank(a) == _gauss_rank(a)


def test_column_reduce_single_row():
    u, k1 = column_reduce_unimodular(mat([[1, 2]]))
    assert mat_eq(u.u, mat([[1, -2], [0, 1]]))
    assert k1 == mat([[1]])
    assert u.check()


def test_column_reduce_identity():
    u, k1 = column_reduce_unimodular(identity(3))
    assert mat_eq(u.u, identity(3))
    assert mat_eq(k1, identity(3))


def test_column_reduce_already_reduced():
    u, k1 = column_reduce_unimodular(mat([[2, 0]]))
    assert mat_eq(u.u, identity(2))
    assert k1 == mat([[2]])


def test_column_reduce_rejects_rank_deficient():
    for a1 in (
        [[1, 2], [2, 4]],
        [[0, 0], [1, 2]],  # zero first row
        [[1, 2, 0], [0, 1, 3], [1, 3, 3]],  # third row = first + second
        [[1, 0], [0, 1], [1, 1]],  # more rows than columns
    ):
        with pytest.raises(PreconditionError):
            column_reduce_unimodular(mat(a1))


def test_column_reduce_randomized_contract():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 5)
        r = rng.randint(1, n)
        while True:
            a1 = rmat(rng, r, n, lo=-6, hi=6, denoms=(1, 2, 3))
            if rank(a1) == r:
                break
        u, k1 = column_reduce_unimodular(a1)
        prod = mat_mul(a1, u.u)
        # [K1 | 0] with K1 invertible
        for i in range(r):
            for j in range(r, n):
                assert prod[i][j] == 0
            assert prod[i][:r] == k1[i]
        assert det(k1) != 0
        assert is_integer_mat(u.u) and is_integer_mat(u.uinv)
        assert abs(det(u.u)) == 1
        assert mat_eq(mat_mul(u.u, u.uinv), identity(n))


def test_rank_invariant_under_unimodular():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rmat(rng, m, n)
        r = rng.randint(1, n)
        a1 = rmat(rng, r, n)
        if rank(a1) < r:
            continue
        u, _ = column_reduce_unimodular(a1)
        assert rank(mat_mul(a, u.u)) == rank(a)


def test_det_small_cases():
    assert det(mat([[2, 0], [0, 3]])) == 6
    assert det(mat([[1, 2], [2, 4]])) == 0
    assert det(mat([["1/2", 0], [0, "1/3"]])) == Rat(1, 6)
    assert det(identity(0)) == 1


def test_det_matches_cofactor_expansion():
    rng = random.Random(31)

    def cofactor(a):
        n = len(a)
        if n == 0:
            return Rat(1)
        if n == 1:
            return a[0][0]
        total = Rat(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            term = a[0][j] * cofactor(minor)
            total += term if j % 2 == 0 else -term
        return total

    for _ in range(60):
        n = rng.randint(1, 4)
        a = rmat(rng, n, n, lo=-5, hi=5, denoms=(1, 2))
        assert det(a) == cofactor(a)


def _rational_matrix_with_dependencies(rng, m, n):
    """Random rational m x n matrix, some rows zero or multiples of others."""
    a = rmat(rng, m, n, lo=-5, hi=5, denoms=(1, 2, 3, 7))
    for i in range(m):
        u = rng.random()
        if u < 0.2 and i > 0:
            c = Rat(rng.randint(-3, 3), rng.randint(1, 3))
            a[i] = [c * v for v in a[rng.randrange(i)]]
        elif u < 0.3:
            a[i] = [Rat(0)] * n
    return a


def _gauss_jordan_rank_with_basis(a):
    """`rank_with_basis` as it was: the full Gauss-Jordan elimination."""
    _, pivots, rows, _, _, _ = _eliminate(a)
    return len(pivots), sorted(rows[:len(pivots)])


def test_forward_elimination_keeps_rank_basis_and_pivots():
    # clearing only below each pivot leaves the unused rows, and with them
    # every pivot choice, as they were; det reads the same last pivot
    rng = random.Random(4242)
    cases = [zeros(3, 2), [[Rat(0)] * 4, [Rat(1), Rat(2), Rat(0), Rat(0)]]]
    for _ in range(300):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(_rational_matrix_with_dependencies(rng, m, n))
    for _ in range(40):
        n = rng.randint(1, 5)
        cases.append(rmat(rng, n, n, lo=-10 ** 6, hi=10 ** 6, denoms=(1, 3, 10 ** 9)))
    deficient = 0
    for a in cases:
        m, n = shape(a)
        assert rank_with_basis(a) == _gauss_jordan_rank_with_basis(a)
        full = _eliminate(a)
        work, pivots, rows, d, sign, scale = _eliminate(a, forward_only=True)
        assert (pivots, rows, d, sign, scale) == full[1:]
        r = len(pivots)
        deficient += r < min(m, n)
        # an echelon form: zero below each pivot, and zero rows after the rank
        for k, col in enumerate(pivots):
            assert work[k][col] != 0 and all(work[i][col] == 0 for i in range(k + 1, m))
        assert all(v == 0 for row in work[r:] for v in row)
        if m == n:
            gj_det = Rat(sign * d, scale) if r == n else Rat(0)
            assert det(a) == gj_det
    assert deficient > 50


def _free_columns(a, n):
    """Columns that do not raise the rank of the columns before them."""
    cols = [[row[:j] for row in a] for j in range(n + 1)]
    return [j for j in range(n) if _gauss_rank(cols[j + 1]) == _gauss_rank(cols[j])]


def test_gauss_solve_and_null_space():
    a = mat([[1, 2, 3], [2, 4, 6]])
    b = [Rat(1), Rat(2)]
    x = gauss_solve(a, b)
    assert x is not None
    assert mat_vec(a, x) == b
    ns = null_space(a)
    assert shape(ns) == (3, 2)
    for j in range(2):
        col = [ns[i][j] for i in range(3)]
        assert mat_vec(a, col) == [0, 0]
    assert gauss_solve(a, [Rat(1), Rat(3)]) is None

    # canonical forms the callers rely on: null column j is the unit vector of
    # the j-th free variable completed to A v = 0; free variables of a
    # solution are zero.  A matrix with no rows is [] and carries no width, so
    # the empty shapes are 0 x 0 and m x 0.
    assert null_space([]) == [] and gauss_solve([], []) == []
    assert null_space([[], []]) == [] and rank_with_basis([[], []]) == (0, [])
    assert gauss_solve([[], []], [Rat(0), Rat(0)]) == []
    assert gauss_solve([[], []], [Rat(0), Rat(1)]) is None
    rng = random.Random(41)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = _rational_matrix_with_dependencies(rng, m, n)
        r = _gauss_rank(a)
        free = _free_columns(a, n)
        assert len(free) == n - r

        ns = null_space(a)
        assert len(ns) == n and all(len(row) == len(free) for row in ns)
        for j, fj in enumerate(free):
            v = [ns[i][j] for i in range(n)]
            assert mat_vec(a, v) == [0] * m
            assert [v[f] for f in free] == [Rat(int(f == fj)) for f in free]

        if rng.random() < 0.5:
            b = mat_vec(a, rmat(rng, 1, n, lo=-3, hi=3, denoms=(1, 2))[0])
        else:
            b = rmat(rng, 1, m, lo=-4, hi=4, denoms=(1, 5))[0]
        x = gauss_solve(a, b)
        consistent = _gauss_rank([row + [bi] for row, bi in zip(a, b)]) == r
        assert (x is not None) == consistent
        if x is not None:
            assert mat_vec(a, x) == b
            assert all(x[f] == 0 for f in free)

        rk, basis = rank_with_basis(a)
        assert rk == r == len(basis) == len(set(basis))
        assert basis == sorted(basis) and all(0 <= i < m for i in basis)
        assert _gauss_rank([a[i] for i in basis]) == r


def test_inverse_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = rmat(rng, n, n, denoms=(1, 2, 3))
        if det(a) == 0:
            continue
        assert mat_eq(mat_mul(a, inverse(a)), identity(n))


def test_psd_checks():
    assert is_psd(mat([[2, 0], [0, 0]]))
    assert is_psd(zeros(3, 3))
    assert is_psd(mat([[2, 1], [1, 2]]))
    assert not is_psd(mat([[-1]]))
    assert not is_psd(mat([[0, 1], [1, 0]]))
    assert not is_psd(mat([[1, 2], [2, 1]]))


def test_psd_pivot_report():
    with pytest.raises(NotPsdError) as exc:
        ldlt_psd_check(mat([[0, 1], [1, 0]]))
    assert exc.value.pivot_index in (0, 1)


def test_psd_check_is_exact_on_plain_ints():
    # a singular Gram matrix (rank 1) given as Python ints: no step of the
    # factorization may divide them to floats
    v = [19, -10, -16, -25]
    assert is_psd([[a * b for b in v] for a in v])


def test_psd_randomized_gram_matrices():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        l_mat = rmat(rng, k, n, lo=-3, hi=3, denoms=(1, 2))
        gram = mat_mul(transpose(l_mat), l_mat)
        assert is_psd(gram)
        pivots = ldlt_psd_check(gram)
        assert all(piv >= 0 for piv in pivots)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=2, max_size=5))
def test_rank_transpose_property(rows):
    a = mat(rows)
    assert rank(a) == rank(transpose(a))


@st.composite
def rational_matrices(draw, square=False):
    """m x n matrices, 1 <= m, n <= 4, of small fractions; the few values
    make singular and rank-deficient ones common."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 4))
    entry = st.sampled_from([Rat(v, d) for v in range(-3, 4) for d in (1, 2, 3)])
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_null_space_is_the_integer_basis_over_d(a):
    n = shape(a)[1]
    cols, d = null_basis(a, n)
    assert all(type(v) is int for col in cols for v in col)
    ns = null_space(a)
    assert ns == [[Rat(col[i], d) for col in cols] for i in range(n)]
    assert len(cols) == n - rank(a)
    assert all(v == 0 for col in cols for v in mat_vec(a, col))


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_matrices(square=True), rational_matrices()))
def test_inverse_times_a_is_the_identity(a):
    m, n = shape(a)
    if m != n:
        with pytest.raises(DimensionError):
            inverse(a)
        return
    if rank(a) < n:
        with pytest.raises(PreconditionError):
            integer_inverse(a)
        return
    inv, d = integer_inverse(a)
    assert all(type(v) is int for row in inv for v in row)
    assert inverse(a) == [[Rat(v, d) for v in row] for row in inv]
    assert mat_eq(mat_mul(inverse(a), a), identity(n))
