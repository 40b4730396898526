"""Integer reflexive generalized inverses and mixed-integer parametrization.

The two public operations here are the arithmetic heart of every reduction
in the package: ``integer_reflexive_ginv`` builds a reflexive generalized
inverse A# with A#A integer, and ``parametrize_mixed_integer_solutions``
turns the solution set of W x = w with leading integer variables into an
affine image of a lower-dimensional mixed-integer space.

A parametrization is two steps.  The rhs-free one (`_param_family`) builds
the two g-inverses, the projector, M, p' and n' from W and p alone; the
rhs step turns one right-hand side into d, ybar, the integrality test and
zbar.  A thin node of the solver asks for many right-hand sides of one W:
it builds the family once and solves it for each band.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .errors import DimensionError
from .linalg import (
    Matrix,
    UnimodularCert,
    Vector,
    column_reduce_unimodular,
    identity,
    integer_columns,
    integer_row,
    inverse,
    mat_mul,
    mat_vec,
    rank_with_basis,
    shape,
    vec_add,
    vec_sub,
    zeros,
)
from .rational import ZERO, ONE, is_integral


@dataclass(frozen=True)
class IntegerReflexiveGinv:
    """A#, the unimodular factor U, and the rank r of A.

    Satisfies A A# A = A, A# A A# = A#, A# A integer, and
    A# A = U diag(I_r, 0) U^-1 exactly.
    """

    asharp: Matrix
    u: UnimodularCert
    r: int


def integer_reflexive_ginv(a: Matrix) -> IntegerReflexiveGinv:
    """Integer reflexive generalized inverse of a rational matrix.

    Construction: take a row basis A1 (rows basis[0..r-1] of A),
    column-reduce it with a unimodular U so A1 U = [K1 | 0], then
    A# = U [[K1^-1, 0], [0, 0]] Wperm with Wperm the permutation moving the
    basis rows to the top.  Wperm only places columns: column i of
    U[:, :r] K1^-1 becomes column basis[i] of A#, and the rest are zero.
    """
    m, n = shape(a)
    r, basis = rank_with_basis(a)
    asharp = zeros(n, m)
    if r == 0:
        return IntegerReflexiveGinv(asharp, UnimodularCert(identity(n), identity(n)), 0)
    u, k1 = column_reduce_unimodular([a[i] for i in basis])
    uk = mat_mul([u_row[:r] for u_row in u.u], inverse(k1))  # U[:, :r] K1^-1
    for row, uk_row in zip(asharp, uk):
        for col, v in zip(basis, uk_row):
            row[col] = v
    return IntegerReflexiveGinv(asharp, u, r)


@dataclass(frozen=True)
class AffineParam:
    """Affine map tau(x') = xbar + M x' with mixed-integer bookkeeping.

    The first p entries of xbar are integers, M has full column rank, and
    tau restricts to a bijection between Z^p' x R^(n'-p') and the
    mixed-integer points of the target set.
    """

    xbar: Vector
    m: Matrix
    p_prime: int
    n_prime: int
    _ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def integer_form(self) -> tuple:
        """((cols, m_den), (x_num, x_den)): the columns of M and xbar, each
        as ints over one positive denominator; kept on first use."""
        if self._ints is None:
            cols = integer_columns(self.m, len(self.xbar), self.n_prime)
            object.__setattr__(self, "_ints", (cols, integer_row(self.xbar)))
        return self._ints

    def apply(self, xprime: Vector) -> Vector:
        return vec_add(self.xbar, mat_vec(self.m, xprime))

    def apply_inverse(self, x: Vector) -> Vector:
        """tau^-1(x) = (M^T M)^-1 M^T (x - xbar); valid on the image of tau."""
        if self.n_prime == 0:
            return []
        n = len(self.xbar)
        mt = [[self.m[i][j] for i in range(n)] for j in range(self.n_prime)]
        gram = mat_mul(mt, self.m)
        rhs = mat_vec(mt, vec_sub(x, self.xbar))
        return mat_vec(inverse(gram), rhs)

    def compose(self, inner: "AffineParam") -> "AffineParam":
        """The map x'' -> self(inner(x''))."""
        return AffineParam(
            self.apply(inner.xbar),
            mat_mul(self.m, inner.m),
            inner.p_prime,
            inner.n_prime,
        )


def identity_param(n: int, p: int) -> AffineParam:
    return AffineParam([ZERO] * n, identity(n), p, n)


class Empty:
    """Certified absence of mixed-integer solutions."""

    def __repr__(self):
        return "Empty()"

    def __eq__(self, other):
        return isinstance(other, Empty)

    def __hash__(self):
        return hash(Empty)


EMPTY = Empty()


@dataclass(frozen=True)
class _ParamFamily:
    """The rhs-free part of parametrizing W x = rhs: everything that depends
    on W and p alone.  proj = I - B B#, C = proj A and its integer reflexive
    g-inverse C#, B#, B# A, and the map M = [[R, 0], [S, T]] with p' and n'.
    C and C# are None when p = 0, B# when p = n, and B# A when either is.
    Nothing writes to a family after it is built, so every parametrization
    it makes shares M.
    """

    proj: Matrix
    c: Optional[Matrix]
    csharp: Optional[Matrix]
    bsharp: Optional[Matrix]
    ba: Optional[Matrix]
    m: Matrix
    p_prime: int
    n_prime: int

    def solve(self, rhs: Vector) -> Union[Empty, AffineParam]:
        """The rhs step: d = proj rhs, ybar = C# d, the two tests of
        `parametrize_mixed_integer_solutions`, and zbar = B# rhs - B# A ybar."""
        d = mat_vec(self.proj, rhs)
        if self.c is not None:
            ybar = mat_vec(self.csharp, d)
            if any(not is_integral(v) for v in ybar):
                return EMPTY
            if mat_vec(self.c, ybar) != d:
                return EMPTY
        else:
            # condition (i) is vacuous; (ii) degenerates to linear consistency
            if any(v != 0 for v in d):
                return EMPTY
            ybar = []
        if self.bsharp is None:
            zbar = []
        elif self.ba is None:
            zbar = mat_vec(self.bsharp, rhs)
        else:
            zbar = vec_sub(mat_vec(self.bsharp, rhs), mat_vec(self.ba, ybar))
        return AffineParam(ybar + zbar, self.m, self.p_prime, self.n_prime)


def _param_family(w: Matrix, p: int) -> _ParamFamily:
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
    proj = [[(ONE if i == j else ZERO) - bb[i][j] for j in range(m)] for i in range(m)]

    if p > 0:
        c = mat_mul(proj, a)
        c_g = integer_reflexive_ginv(c)
        csharp, r_c, u_c = c_g.asharp, c_g.r, c_g.u.u
    else:
        c, csharp, r_c, u_c = None, None, 0, []

    p_prime = p - r_c
    q_prime = q - r_b

    # The trailing n - r columns of each unimodular factor span the solution
    # lattice of the homogeneous system; negating them is a bijection of the
    # free variables, chosen so that M = I on unconstrained instances.
    r_blk = [[u_c[i][r_c + j] for j in range(p_prime)] for i in range(p)]
    t_blk = [[u_b[i][r_b + j] for j in range(q_prime)] for i in range(q)]

    ba = None
    if q > 0 and p > 0:
        ba = mat_mul(bsharp, a)
        s_blk = [[-v for v in row] for row in mat_mul(ba, r_blk)]
    else:
        s_blk = [[] for _ in range(q)]

    m_map = [r_blk[i] + [ZERO] * q_prime for i in range(p)] + [
        s_blk[i] + t_blk[i] for i in range(q)
    ]
    return _ParamFamily(proj, c, csharp, bsharp, ba, m_map, p_prime, p_prime + q_prime)


def parametrize_mixed_integer_solutions(
    w: Matrix, rhs: Vector, p: int
) -> Union[Empty, AffineParam]:
    """Mixed-integer solutions of W x = rhs with x in Z^p x R^(n-p).

    Splits W = [A | B] at column p, forms C = (I - B B#) A and d = (I - B B#) rhs,
    and tests (i) C#_I d integer, (ii) C C#_I d = d.  On success returns the
    affine parametrization assembled from the trailing columns of the
    unimodular factors U_C, U_B; on failure returns Empty.

    The g-inverses, the projector, M, p' and n' depend on W and p alone
    (`_param_family`); this builds them and takes the rhs step once.
    """
    m = len(w)
    if m == 0:
        raise DimensionError("parametrize: empty system (caller handles m = 0)")
    n = len(w[0])
    if len(rhs) != m:
        raise DimensionError("parametrize: len(rhs) != rows of W")
    if not 0 <= p <= n:
        raise DimensionError(f"parametrize: p={p} out of range for n={n}")
    return _param_family(w, p).solve(rhs)
