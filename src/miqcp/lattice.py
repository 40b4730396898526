"""Exact LLL reduction and the flatness dichotomy.

The lattice generated by the columns of an invertible rational matrix is
reduced with delta = 3/4 by integral LLL (de Weger 1987; Cohen 1993,
Alg. 2.6.7): the columns are scaled by the lcm s of their denominators, and
the Gram determinants d_i and the numbers lambda_ij = d_{j+1} mu_ij, all
Python ints, are updated in place by each size reduction and each swap, so
no Gram-Schmidt vector is ever formed.  The flatness routine then either
places a lattice point inside a given ball (Babai's nearest plane, on the
same integers of the reduced basis) or certifies a thin integer direction
whose width over the ball is at most p * 2^(p(p-1)/4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import DimensionError, PreconditionError
from .linalg import (
    Matrix, UnimodularCert, Vector, _idot, integer_columns, integer_row, inverse, norm_sq, vec_sub,
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


def _integral_gso(basis: LatticeBasis) -> tuple:
    """(s, cols, d, lam): the columns times the lcm s of every denominator,
    as ints, their Gram determinants d[0] = 1, d[i+1] = |b*_0|^2 ... |b*_i|^2,
    and lam[i][j] = d[j+1] mu_ij for j < i, all ints (Cohen 1993, 2.6.7).

    Raises PreconditionError when some d_i is 0, that is, when the columns
    are linearly dependent.
    """
    basis.validate()
    b_mat, p = basis.b_mat, basis.p
    cols, s = integer_columns(b_mat, p, p)
    d = [1] + [0] * p
    lam = [[0] * p for _ in range(p)]
    for k in range(p):
        lk = lam[k]
        for j in range(k + 1):
            u = _idot(cols[k], cols[j])
            lj = lam[j]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = u
            elif u == 0:
                raise PreconditionError("lattice basis is singular")
            else:
                d[k + 1] = u
    return s, cols, d, lam


def lll_reduce(basis: LatticeBasis) -> Tuple[LatticeBasis, UnimodularCert]:
    """LLL with delta = 3/4; returns the reduced basis and U with Bred = B U.

    Column k is size-reduced against j = k-1 down to 0 (Cohen's REDI,
    q = round(mu_kj) with ties toward +infinity, only where 2 |mu_kj| > 1),
    then tested by Lovasz's condition |b*_k|^2 >= (3/4 - mu_{k,k-1}^2)
    |b*_{k-1}|^2, which reads 4 d_{k+1} d_{k-1} >= 3 d_k^2 - 4 lam_{k,k-1}^2
    on the integers; a failed test swaps columns k-1 and k (Cohen's SWAPI)
    and steps back to max(k-1, 1).
    """
    s, cols, d, lam = _integral_gso(basis)
    p = basis.p
    ucols = [[int(i == j) for i in range(p)] for j in range(p)]  # columns of U
    uinv = [[int(i == j) for j in range(p)] for i in range(p)]  # rows of U^-1

    k = 1
    while k < p:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj, l = d[j + 1], lk[j]
            if 2 * abs(l) > dj:
                q = (2 * l + dj) // (2 * dj)
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
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
        cols[k - 1], cols[k] = cols[k], cols[k - 1]
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

    reduced = LatticeBasis([[Rat(cols[j][i], s) for j in range(p)] for i in range(p)])
    u = [[Rat(ucols[j][i]) for j in range(p)] for i in range(p)]
    return reduced, UnimodularCert(u, [[Rat(x) for x in row] for row in uinv])


def babai_nearest_plane(reduced: LatticeBasis, target: Vector) -> Vector:
    """Nearest-plane rounding of target in the (reduced) basis; a lattice point.

    This is size reduction of one more vector, the target, against the
    basis, from the last column down, rounding every coefficient
    (ties toward +infinity), on the integral Gram-Schmidt data of b_mat as
    it is at the call.  The target is scaled by the lcm t of its
    denominators on top of the basis scale s, so its lam_j are t times the
    true ones.
    """
    s, cols, d, lam = _integral_gso(reduced)
    p = reduced.p
    if len(target) != p:
        raise DimensionError("babai_nearest_plane: target has wrong dimension")
    num, t = integer_row(target)
    vec = [x * s for x in num]
    lt = [0] * p
    for j in range(p):
        u = _idot(vec, cols[j])
        lj = lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lt[i] * lj[i]) // d[i]
        lt[j] = u
    z = [0] * p
    for i in range(p - 1, -1, -1):
        tdi = t * d[i + 1]
        q = (2 * lt[i] + tdi) // (2 * tdi)
        if q:
            z = [a + q * b for a, b in zip(z, cols[i])]
            li = lam[i]
            for j in range(i):
                lt[j] -= q * t * li[j]
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

    The returned direction d has B^T d integral and satisfies
    4 r^2 |d|^2 <= (p 2^(p(p-1)/4))^2 exactly; among the dual rows of the
    reduced basis the one of smallest norm is chosen.
    """
    r = Rat(r)
    if r < 0:
        raise PreconditionError("flatness needs r >= 0")
    if len(a) != basis.p:
        raise DimensionError("flatness: center has wrong dimension")
    reduced, _u = lll_reduce(basis)
    z = babai_nearest_plane(reduced, a)
    if norm_sq(vec_sub(z, a)) <= r * r:
        return FlatnessOutcome(LATTICE_POINT, z=list(z))
    dual_rows = inverse(reduced.b_mat)
    best = min(dual_rows, key=norm_sq)
    p = basis.p
    if 4 * r * r * norm_sq(best) > width_bound_sq(p):
        raise AssertionError("flatness width bound violated; LLL reduction broken")
    return FlatnessOutcome(THIN_DIRECTION, d=list(best))
