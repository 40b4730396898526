"""Dense exact-rational vectors, matrices, and unimodular transforms.

Matrices are row-major lists of lists of Rat; vectors are lists of Rat.
Instances are desk scale, so everything is dense and copied freely.
One fraction-free kernel, ``_eliminate``, serves rank, det, solve, null space, inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mul
from typing import Optional

from .errors import DimensionError, NotPsdError, PreconditionError
from .rational import Rat, ZERO, ONE, is_integral, rround

Vector = list
Matrix = list


# ---------------------------------------------------------------------------
# construction and elementwise helpers

def mat(rows) -> Matrix:
    out = [[Rat(e) for e in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise DimensionError("ragged matrix")
    return out


def zeros(m: int, n: int) -> Matrix:
    return [[ZERO] * n for _ in range(m)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def shape(a: Matrix) -> tuple:
    return (len(a), len(a[0]) if a else 0)


def copy_mat(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def transpose(a: Matrix) -> Matrix:
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m, k = shape(a)
    k2, n = shape(b)
    if k != k2:
        raise DimensionError(f"mat_mul {m}x{k} by {k2}x{n}")
    bt = transpose(b)
    return [[_dot(arow, bcol) for bcol in bt] for arow in a]


def mat_vec(a: Matrix, x: Vector) -> Vector:
    m, n = shape(a)
    if n != len(x):
        raise DimensionError(f"mat_vec {m}x{n} by {len(x)}")
    return [_dot(row, x) for row in a]


def vec_add(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionError("vec_add lengths differ")
    return [a + b for a, b in zip(x, y)]


def vec_sub(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise DimensionError("vec_sub lengths differ")
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x: Vector) -> Vector:
    c = Rat(c)
    return [c * a for a in x]


def dot(x: Vector, y: Vector):
    if len(x) != len(y):
        raise DimensionError("dot lengths differ")
    return _dot(x, y)


def _dot(x, y):
    """sum x_i y_i as one unreduced fraction num / den, reduced once at the end.

    Reads only ``numerator``/``denominator``, so int entries work too; the
    result is always a Rat.
    """
    num, den = 0, 1
    for a, b in zip(x, y):
        t = a.numerator * b.numerator
        if t:
            td = a.denominator * b.denominator
            if td == den:
                num += t
            else:
                num = num * td + t * den
                den *= td
    return Rat(num, den)


def _idot(x, y) -> int:
    """sum x_i y_i of two int vectors."""
    return sum(map(mul, x, y))


def norm_sq(x: Vector):
    return _dot(x, x)


def is_integer_mat(a: Matrix) -> bool:
    return all(is_integral(e) for row in a for e in row)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def quad_form(h_mat: Matrix, x: Vector):
    """x^T H x, exact."""
    return _dot(x, mat_vec(h_mat, x))


# ---------------------------------------------------------------------------
# elimination: rank, row basis, determinant, solving

def integer_row(row: Vector) -> tuple:
    """(ell row, ell): the row as integers, scaled by the lcm ell of its denominators."""
    dens = [e.denominator for e in row]
    ell = lcm(*dens)
    if ell == 1:
        return [e.numerator for e in row], 1
    return [e.numerator * (ell // de) for e, de in zip(row, dens)], ell


def integer_rows(w_mat: Matrix, w_rhs: Vector) -> tuple:
    """(rows, ells): rows[i] = ells[i] [W_i | w_i] as ints, by `integer_row`."""
    pairs = [integer_row(list(row) + [b]) for row, b in zip(w_mat, w_rhs)]
    return [row for row, _ in pairs], [ell for _, ell in pairs]


def integer_columns(m: Matrix, n: int, k: int) -> tuple:
    """(cols, m_den): the k columns of the n x k matrix M as ints over one
    positive denominator, M = cols^T / m_den."""
    flat, m_den = integer_row([m[i][j] for j in range(k) for i in range(n)])
    return [flat[j * n:(j + 1) * n] for j in range(k)], m_den


def lowest_terms(num: list, den: int) -> tuple:
    """(num, den) divided by the gcd of den and every entry, den made
    positive: the ints over the least positive common denominator."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    return [v // g for v in num], den // g


def _eliminate(a: Matrix, forward_only: bool = False) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) on integer-scaled rows.

    Pivots go left to right, each on the unused row of smallest magnitude
    (first on ties); every other row, also one with f = 0, becomes
    (p row - f pivot_row) / prev, an exact division.  Returns (work, pivots,
    rows, d, sign, scale): work[:rank] = d RREF(A) and the rest is zero,
    work[i] came from input row rows[i], d is the last pivot (1 if none),
    sign the parity of the swaps, scale the product of the row scalings.
    A row that already holds ints is used as it is, not copied, so a row of
    work may be an input row: neither this loop nor a caller writes to one.

    forward_only eliminates only below each pivot, so work[:rank] is an
    echelon form, not d RREF(A).  Pivot choice reads only unused rows, and
    those are updated the same way either way, so pivots, rows, d, sign and
    scale are those of the full elimination.
    """
    m, n = shape(a)
    scaled = [(row, 1) if all(type(e) is int for e in row) else integer_row(row)
              for row in a]
    work = [row for row, _ in scaled]
    rows, pivots, sign, prev = list(range(m)), [], 1, 1
    for col in range(n):
        r = len(pivots)
        nonzero = [i for i in range(r, m) if work[i][col] != 0]
        if not nonzero:
            continue
        piv = min(nonzero, key=lambda i: abs(work[i][col]))
        work[r], work[piv] = work[piv], work[r]
        rows[r], rows[piv] = rows[piv], rows[r]
        sign = sign if piv == r else -sign
        prow, p = work[r], work[r][col]
        for i in range(r + 1 if forward_only else 0, m):
            if i != r:
                row = work[i]
                f = row[col]
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(col)
        prev = p
    return work, pivots, rows, prev, sign, prod(ell for _, ell in scaled)


def rank_with_basis(a: Matrix) -> tuple:
    """Rank over Q and the indices of a set of linearly independent rows."""
    _, pivots, rows, _, _, _ = _eliminate(a, forward_only=True)
    return len(pivots), sorted(rows[: len(pivots)])


def rank(a: Matrix) -> int:
    return rank_with_basis(a)[0]


def det(a: Matrix):
    """Exact determinant of a square matrix."""
    m, n = shape(a)
    if m != n:
        raise DimensionError("det of a non-square matrix")
    _, pivots, _, d, sign, scale = _eliminate(a, forward_only=True)
    return Rat(sign * d, scale) if len(pivots) == n else ZERO


def gauss_solve(a: Matrix, b: Vector) -> Optional[Vector]:
    """One exact solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    m, n = shape(a)
    if len(b) != m:
        raise DimensionError("gauss_solve shape mismatch")
    work, pivots, _, d, _, _ = _eliminate([row + [bi] for row, bi in zip(a, b)])
    if pivots and pivots[-1] == n:
        return None
    x = [ZERO] * n
    for row, col in zip(work, pivots):
        x[col] = Rat(row[n], d)
    return x


def null_basis(rows: Matrix, n: int) -> tuple:
    """(cols, d): int columns spanning {z in Q^n : rows z = 0}, one per free
    column j, d times the basis vector that is 1 at j (d the last Bareiss
    pivot, of either sign; 1 without rows).  rows may hold Rats or ints."""
    work, pivots, _, d, _, _ = _eliminate(rows)
    cols = []
    for j in range(n):
        if j in pivots:
            continue
        col = [0] * n
        col[j] = d
        for row, c in zip(work, pivots):
            col[c] = -row[j]
        cols.append(col)
    return cols, d


def null_space(a: Matrix) -> Matrix:
    """Columns spanning {x : A x = 0}, as an n x k matrix (k = n - rank):
    `null_basis` over its d."""
    n = shape(a)[1]
    cols, d = null_basis(a, n)
    return [[Rat(col[i], d) for col in cols] for i in range(n)]


def integer_inverse(a: Matrix) -> tuple:
    """(d A^-1 as ints, d) from one elimination of [A | I], d the last
    Bareiss pivot; raises if A is singular.  A may hold Rats or ints."""
    m, n = shape(a)
    if m != n:
        raise DimensionError("inverse of a non-square matrix")
    work, pivots, _, d, _, _ = _eliminate(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise PreconditionError("matrix is singular")
    return [row[n:] for row in work], d


def inverse(a: Matrix) -> Matrix:
    """A^-1: `integer_inverse` over its d."""
    inv, d = integer_inverse(a)
    return [[Rat(x, d) for x in row] for row in inv]


# ---------------------------------------------------------------------------
# unimodular transforms

@dataclass(frozen=True)
class UnimodularCert:
    """A unimodular matrix together with its exact inverse.

    Invariants: U and Uinv are integer, U Uinv = I, |det U| = 1.
    """

    u: Matrix
    uinv: Matrix

    def check(self) -> bool:
        n = len(self.u)
        return (
            is_integer_mat(self.u)
            and is_integer_mat(self.uinv)
            and mat_eq(mat_mul(self.u, self.uinv), identity(n))
            and abs(det(self.u)) == 1
        )


def column_reduce_unimodular(a1: Matrix) -> tuple:
    """Unimodular U with A1 U = [K1 | 0], K1 square invertible.

    A1 must have full row rank.  Integer elementary column operations only
    (nearest-quotient Euclidean reduction per row, smallest pivot first),
    so U stays unimodular; entries of A1 may be rational.  Rows 0..i-1 are
    lower triangular with a nonzero diagonal once reduced, so row i depends
    on them exactly when its columns i..n-1 are zero; the loop raises
    PreconditionError there, which covers every rank-deficient A1.
    """
    r, n = shape(a1)
    work = copy_mat(a1)
    u = identity(n)
    uinv = identity(n)

    def col_swap(c1, c2):
        if c1 == c2:
            return
        for row in work:
            row[c1], row[c2] = row[c2], row[c1]
        for row in u:
            row[c1], row[c2] = row[c2], row[c1]
        uinv[c1], uinv[c2] = uinv[c2], uinv[c1]

    def col_addmul(dst, src, k):
        # column dst += k * column src; inverse tracked as a row operation
        if k == 0:
            return
        for row in work:
            row[dst] += k * row[src]
        for row in u:
            row[dst] += k * row[src]
        uinv[src] = [x - k * y for x, y in zip(uinv[src], uinv[dst])]

    for i in range(r):
        while True:
            nz = [j for j in range(i, n) if work[i][j] != 0]
            if not nz:
                raise PreconditionError("row became zero; input not full row rank")
            if len(nz) == 1:
                col_swap(i, nz[0])
                break
            piv = min(nz, key=lambda j: (abs(work[i][j]), j))
            for j in nz:
                if j != piv:
                    # |ratio| >= 1 since piv has the smallest magnitude, so
                    # k != 0 and each pass strictly shrinks the row
                    k = rround(work[i][j] / work[i][piv])
                    col_addmul(j, piv, -k)
    k1 = [row[:r] for row in work]
    return UnimodularCert(u, uinv), k1


# ---------------------------------------------------------------------------
# PSD certification

def ldlt_psd_check(h: Matrix):
    """Exact LDL^T with symmetric pivoting for a symmetric matrix.

    Returns the list of nonnegative pivots if H is PSD; raises NotPsdError
    (with the failing pivot) otherwise.  A zero diagonal with a nonzero
    residual row proves H is not PSD.
    """
    m, n = shape(h)
    if m != n:
        raise DimensionError("ldlt_psd_check needs a square matrix")
    if not mat_eq(h, transpose(h)):
        raise PreconditionError("ldlt_psd_check needs a symmetric matrix")
    a = [[Rat(v) for v in row] for row in h]  # int entries must not divide to floats
    idx = list(range(n))
    pivots = []
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] > 0), None)
        if piv is None:
            for i in range(k, n):
                if a[i][i] < 0:
                    raise NotPsdError(idx[i], f"negative diagonal {a[i][i]}")
            for i in range(k, n):
                for j in range(k, n):
                    if a[i][j] != 0:
                        raise NotPsdError(
                            idx[i], f"zero pivot with nonzero residual at ({idx[i]},{idx[j]})"
                        )
            pivots.extend([ZERO] * (n - k))
            break
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
            idx[k], idx[piv] = idx[piv], idx[k]
        d = a[k][k]
        pivots.append(d)
        for i in range(k + 1, n):
            f = a[i][k] / d
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
            a[i][k] = ZERO
    return pivots


def is_psd(h: Matrix) -> bool:
    try:
        ldlt_psd_check(h)
        return True
    except NotPsdError:
        return False
