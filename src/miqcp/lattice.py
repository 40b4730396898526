"""Exact LLL reduction and the flatness dichotomy.

The lattice generated by the columns of an invertible rational matrix is
reduced with delta = 3/4 by integral LLL (de Weger 1987; Cohen 1993,
Alg. 2.6.7) on its Gram matrix: the columns are scaled by the lcm s of
their denominators, and from their integer inner products the Gram
determinants d_i and the numbers lambda_ij = d_{j+1} mu_ij, all Python
ints, are updated in place by each size reduction and each swap, so no
Gram-Schmidt vector is ever formed.

As Cohen's steps read only d_i and lambda_ij, the same loop reduces Z^p
under the inner product of a positive definite S, given by any positive
multiple of S on ints.  `ellipsoid_flatness` asks the flatness question of
an ellipsoid {(y - c)^T S (y - c) <= rho} in S's own metric, where it is
a ball (Lenstra 1983): it either places an integer point inside it
(Babai's nearest plane, on the same integers) or certifies a thin integer
direction along which it is at most p * 2^(p(p-1)/4) wide.  This is the
one implementation of the dichotomy.  `flatness`, for a ball B(a, r) and
the lattice B Z^p, is its case S = B^T B, of shape E E^T, E = B^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DimensionError, PreconditionError
from .linalg import (
    Matrix, UnimodularCert, Vector, _idot, dot, integer_columns, integer_inverse, integer_row,
)
from .rational import Rat


@dataclass(frozen=True)
class LatticeBasis:
    """Lattice {B mu : mu integer}, generated by the columns of b_mat."""

    b_mat: Matrix

    @property
    def p(self) -> int:
        return len(self.b_mat)

    def columns(self) -> List[Vector]:
        p = self.p
        return [[self.b_mat[i][j] for i in range(p)] for j in range(p)]

    def validate(self):
        if any(len(row) != self.p for row in self.b_mat):
            raise DimensionError("lattice basis must be square")


def _integral_gso(gram: List[List[int]]) -> tuple:
    """(d, lam) of the lattice whose integer Gram matrix is gram: the Gram
    determinants d[0] = 1, d[i+1] = |b*_0|^2 ... |b*_i|^2 and
    lam[i][j] = d[j+1] mu_ij for j < i, all ints (Cohen 1993, 2.6.7).
    Only gram[k][j] with j <= k is read.

    Raises PreconditionError when some d_i is 0, that is, when the basis
    is linearly dependent.
    """
    p = len(gram)
    d = [1] + [0] * p
    lam = [[0] * p for _ in range(p)]
    for k in range(p):
        lk = lam[k]
        for j in range(k + 1):
            u = gram[k][j]
            lj = lam[j]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = u
            elif u == 0:
                raise PreconditionError("lattice basis is singular")
            else:
                d[k + 1] = u
    return d, lam


def _gram(vecs) -> List[List[int]]:
    """The Gram matrix [a . b] of the int vectors vecs."""
    return [[_idot(a, b) for b in vecs] for a in vecs]


def _combine(coefs: List[int], cols: List[List[int]]) -> List[int]:
    """sum_i coefs[i] cols[i]."""
    return [_idot(coefs, entries) for entries in zip(*cols)]


def _lll(gram: List[List[int]]) -> tuple:
    """(d, lam, ucols, uinv): integral LLL with delta = 3/4 on the basis
    whose integer Gram matrix is gram.  ucols are the columns of U, the
    reduced basis being B U, uinv the rows of U^-1, and d, lam the reduced
    basis's `_integral_gso` data.

    Column k is size-reduced against j = k-1 down to 0 (Cohen's REDI,
    q = round(mu_kj) with ties toward +infinity, only where 2 |mu_kj| > 1),
    then tested by Lovasz's condition |b*_k|^2 >= (3/4 - mu_{k,k-1}^2)
    |b*_{k-1}|^2, which reads 4 d_{k+1} d_{k-1} >= 3 d_k^2 - 4 lam_{k,k-1}^2
    on the integers; a failed test swaps columns k-1 and k (Cohen's SWAPI)
    and steps back to max(k-1, 1).  Every step reads only d and lam, so the
    basis itself is never needed.
    """
    d, lam = _integral_gso(gram)
    p = len(gram)
    ucols = [[int(i == j) for i in range(p)] for j in range(p)]  # columns of U
    uinv = [[int(i == j) for j in range(p)] for i in range(p)]  # rows of U^-1

    k = 1
    while k < p:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj, l = d[j + 1], lk[j]
            if 2 * abs(l) > dj:
                q = (2 * l + dj) // (2 * dj)
                ucols[k] = [a - q * b for a, b in zip(ucols[k], ucols[j])]
                uinv[j] = [a + q * b for a, b in zip(uinv[j], uinv[k])]
                lk[j] = l - q * dj
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
        l = lk[k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] * d[k] - 4 * l * l:
            k += 1
            continue
        ucols[k - 1], ucols[k] = ucols[k], ucols[k - 1]
        uinv[k - 1], uinv[k] = uinv[k], uinv[k - 1]
        lk1 = lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        dk, dk1 = d[k], d[k + 1]
        b = (d[k - 1] * dk1 + l * l) // dk
        for i in range(k + 1, p):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - l * t) // dk
            li[k - 1] = (b * t + l * li[k]) // dk1
        d[k] = b
        k = max(k - 1, 1)
    return d, lam, ucols, uinv


def _nearest_plane(d: List[int], lam: List[List[int]], lt: List[int], t: int) -> List[int]:
    """Babai's coefficients: the integers c with sum c_i b_i the
    nearest-plane point of a target, given the basis's `_integral_gso`
    data and lt[j], t times the target's inner product with b_j (t > 0).

    This is size reduction of one more vector, the target, against the
    basis, from the last column down, rounding every coefficient (ties
    toward +infinity); lt becomes t times the target's lam row.
    """
    p = len(lt)
    lt = list(lt)
    for j in range(p):
        u = lt[j]
        lj = lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lt[i] * lj[i]) // d[i]
        lt[j] = u
    coefs = [0] * p
    for i in range(p - 1, -1, -1):
        tdi = t * d[i + 1]
        q = (2 * lt[i] + tdi) // (2 * tdi)
        if q:
            coefs[i] = q
            li = lam[i]
            for j in range(i):
                lt[j] -= q * t * li[j]
    return coefs


def lll_reduce(basis: LatticeBasis) -> Tuple[LatticeBasis, UnimodularCert]:
    """LLL with delta = 3/4; returns the reduced basis and U with Bred = B U.

    The columns, scaled to ints by the lcm s of their denominators, give
    the integer Gram matrix that `_lll` reduces (de Weger 1987; Cohen
    1993, Alg. 2.6.7); the reduced columns are B U.
    """
    basis.validate()
    p = basis.p
    cols, s = integer_columns(basis.b_mat, p, p)
    _, _, ucols, uinv = _lll(_gram(cols))
    red = [_combine(u, cols) for u in ucols]
    reduced = LatticeBasis([[Rat(red[j][i], s) for j in range(p)] for i in range(p)])
    u = [[Rat(ucols[j][i]) for j in range(p)] for i in range(p)]
    return reduced, UnimodularCert(u, [[Rat(x) for x in row] for row in uinv])


def babai_nearest_plane(reduced: LatticeBasis, target: Vector) -> Vector:
    """Nearest-plane rounding of target in the (reduced) basis; a lattice point.

    `_nearest_plane` on the integral Gram-Schmidt data of b_mat as it is at
    the call.  The target is scaled by the lcm t of its denominators on
    top of the basis scale s, so its inner products are t times the true
    ones in the basis's scale.
    """
    reduced.validate()
    p = reduced.p
    cols, s = integer_columns(reduced.b_mat, p, p)
    d, lam = _integral_gso(_gram(cols))
    if len(target) != p:
        raise DimensionError("babai_nearest_plane: target has wrong dimension")
    num, t = integer_row(target)
    vec = [x * s for x in num]
    z = _combine(_nearest_plane(d, lam, [_idot(vec, c) for c in cols], t), cols)
    return [Rat(x, s) for x in z]


LATTICE_POINT = "lattice_point"
THIN_DIRECTION = "thin_direction"


@dataclass(frozen=True)
class FlatnessOutcome:
    tag: str
    z: Optional[Vector] = None  # lattice point inside the ball
    d: Optional[Vector] = None  # dual direction with bounded width


def width_bound_sq(p: int) -> Rat:
    """(p * 2^(p(p-1)/4))^2 = p^2 * 2^(p(p-1)/2), an exact rational."""
    return Rat(p * p * (1 << (p * (p - 1) // 2)))


def flatness(a: Vector, r, basis: LatticeBasis) -> FlatnessOutcome:
    """Either a lattice point in B(a, r), or a thin integral direction.

    The ball case of `ellipsoid_flatness`: in y = E z, E = B^-1, the
    lattice B Z^p is Z^p and B(a, r) is the ellipsoid of metric B^T B,
    shape E E^T, center E a and rho = r^2.  Its point y gives z = B y; its
    direction c gives d = E^T c, the dual row of the reduced basis of
    smallest norm, with B^T d = c integral and 4 r^2 |d|^2 <= (p 2^(p(p-1)/4))^2.
    """
    r = Rat(r)
    if r < 0:
        raise PreconditionError("flatness needs r >= 0")
    if len(a) != basis.p:
        raise DimensionError("flatness: center has wrong dimension")
    basis.validate()
    cols, s = integer_columns(basis.b_mat, basis.p, basis.p)  # s B = cols^T
    inv, d = integer_inverse(basis.b_mat)  # d E
    out = ellipsoid_flatness((_gram(cols), s * s), (_gram(inv), d * d),
                             [dot(row, a) / d for row in inv], r * r)
    if out.tag == LATTICE_POINT:
        return FlatnessOutcome(LATTICE_POINT, z=[dot(row, out.z) for row in basis.b_mat])
    return FlatnessOutcome(THIN_DIRECTION, d=[dot(col, out.d) / d for col in zip(*inv)])


def ellipsoid_flatness(metric: tuple, shape: tuple, center: Vector, rho) -> FlatnessOutcome:
    """Either an integer point of E = {y : (y - c)^T S (y - c) <= rho},
    S positive definite, or a thin integral direction of E.

    This is flatness for Z^p in S's metric, where E is a ball.  metric =
    (gram, sigma) is S = gram / sigma and shape = (ishape, ell) must be
    S^-1 = ishape / ell (unchecked), symmetric ints over rationals > 0.
    `_lll` reduces gram, and Babai's nearest plane to c runs on the same
    integers.  Its point z is returned when it lies in E.  Otherwise d is
    the row of U^-1 (an integral dual basis vector) with the least
    d^T ishape d, the first on ties, and 4 rho d^T S^-1 d <= width_bound_sq(p):
    the width of E along d, 2 sqrt(rho d^T S^-1 d), is at most p 2^(p(p-1)/4).
    """
    rho = Rat(rho)
    if rho < 0:
        raise PreconditionError("ellipsoid_flatness needs rho >= 0")
    p = len(center)
    (gram, sigma), (ishape, ell) = metric, shape
    if len(gram) != p or len(ishape) != p:
        raise DimensionError("ellipsoid_flatness: center has wrong dimension")
    d, lam, ucols, uinv = _lll(gram)
    num, t = integer_row(center)
    g_c = [_idot(row, num) for row in gram]  # t sigma S c
    z = _combine(_nearest_plane(d, lam, [_idot(g_c, u) for u in ucols], t), ucols)
    w = [t * a - b for a, b in zip(z, num)]  # t (z - c)
    if Rat(_idot(w, [_idot(row, w) for row in gram]), t * t) <= rho * sigma:
        return FlatnessOutcome(LATTICE_POINT, z=[Rat(v) for v in z])
    norms = [_idot(row, [_idot(s, row) for s in ishape]) for row in uinv]  # ell d^T S^-1 d
    k = norms.index(min(norms))
    if 4 * rho * norms[k] > ell * width_bound_sq(p):
        raise AssertionError("flatness width bound violated; LLL reduction broken")
    return FlatnessOutcome(THIN_DIRECTION, d=[Rat(v) for v in uinv[k]])
