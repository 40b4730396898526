"""Polyhedra: exact LP access, implicit equalities, full-dimensional reduction.

A polyhedron is W x <= w together with the count p of leading integer
variables.  The reduction maps a non-full-dimensional polyhedron to a
full-dimensional isomorphic one in lower dimension while preserving the
mixed-integer points, via the implicit-equality system and the diophantine
parametrization.

A polyhedron keeps what it costs to learn about itself (its probe, its
phase-1 start, its integer rows).  The probe has one path,
`_fulldim_probe`, kept per object.  `content_key` keys a polyhedron by its
content; `optimize`'s table (`table`) keeps reductions under it, so equal
polyhedra that the optimality probes build again share one answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Tuple, Union

from .diophantine import (
    EMPTY,
    AffineParam,
    Empty,
    identity_param,
    parametrize_mixed_integer_solutions,
)
from .errors import DimensionError, PreconditionError
from .linalg import Matrix, Vector, _idot, dot, integer_row, integer_rows, lowest_terms
from .rational import Rat, ZERO, ONE
from .simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    LpStart,
    phase1,
    phase2,
    solve_lp,
)


@dataclass
class Polyhedron:
    """{x in R^n : W x <= w} with the first p variables marked integer.

    n is read from the rows; an explicit n is needed only when there are
    none, and one that differs from the rows' length raises DimensionError.
    Nothing writes to w_mat or w_rhs after construction, so a polyhedron
    keeps four memos, each computed at most once per object and taking no
    part in equality or repr:

    - `_probe`, its `_fulldim_probe` (one LP);
    - `_start`, the simplex phase-1 state of W x <= w (tableau, basis and
      d, or the Farkas vector), built from `_ints`, from which `lp_min`
      runs only phase 2;
    - `_ints`, its `integer_system`, which `with_rows` extends by the new
      rows when the parent already holds it;
    - `_key`, its `content_key`, built when `optimize`'s table is first
      asked about it.
    """

    w_mat: Matrix
    w_rhs: Vector
    p: int = 0
    n: Optional[int] = None

    def __post_init__(self):
        if self.w_mat:
            n = len(self.w_mat[0])
            if any(len(r) != n for r in self.w_mat):
                raise DimensionError("ragged constraint matrix")
            if self.n not in (None, n):
                raise DimensionError(f"n={self.n} but the rows have length {n}")
            self.n = n
        elif self.n is None:
            self.n = 0
        if len(self.w_rhs) != len(self.w_mat):
            raise DimensionError("len(w) != number of rows")
        if not 0 <= self.p <= self.n:
            raise DimensionError(f"p={self.p} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.w_mat)

    _probe: Optional[_FulldimProbe] = field(
        default=None, init=False, repr=False, compare=False)
    _start: Optional[LpStart] = field(
        default=None, init=False, repr=False, compare=False)
    _ints: Optional[Tuple[List[List[int]], List[int]]] = field(
        default=None, init=False, repr=False, compare=False)
    _key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def contains(self, x: Vector) -> bool:
        """x in P, decided by `contains_ints` on x's integer form; a point
        whose length is not n raises DimensionError."""
        if len(x) != self.n:
            raise DimensionError("contains: point length != n")
        return self.contains_ints(*integer_row(x))

    def contains_ints(self, num: List[int], den: int) -> bool:
        """x = num / den in P (den > 0), decided on the rows of
        `integer_system` [A_i | b_i] as A_i . num <= b_i den."""
        # _idot stops at the n entries of num, before b_i
        return all(_idot(row, num) <= row[-1] * den for row in integer_system(self)[0])

    def slacks(self, x: Vector) -> Vector:
        return [b - dot(row, x) for row, b in zip(self.w_mat, self.w_rhs)]

    def with_rows(self, rows: Matrix, rhs: Vector) -> "Polyhedron":
        out = Polyhedron(
            [r[:] for r in self.w_mat] + [r[:] for r in rows],
            list(self.w_rhs) + list(rhs),
            self.p,
            self.n,
        )
        if self._ints is not None:
            new_rows, new_ells = integer_rows(rows, rhs)
            out._ints = (self._ints[0] + new_rows, self._ints[1] + new_ells)
        return out

    def with_equality(self, row: Vector, b) -> "Polyhedron":
        return self.with_rows([row, [-v for v in row]], [b, -b])

    def with_box(self, lo: Vector, hi: Vector) -> "Polyhedron":
        """P with lo_i <= x_i <= hi_i on the leading len(lo) coordinates,
        as the row pairs x_i <= hi_i, -x_i <= -lo_i in coordinate order."""
        n = self.n
        if len(lo) != len(hi) or len(lo) > n:
            raise DimensionError("with_box: bounds need equal lengths <= n")
        rows, rhs = [], []
        for i, (a, b) in enumerate(zip(lo, hi)):
            e_pos = [ZERO] * n
            e_pos[i] = ONE
            rows.append(e_pos)
            rhs.append(Rat(b))
            e_neg = [ZERO] * n
            e_neg[i] = -ONE
            rows.append(e_neg)
            rhs.append(-Rat(a))
        return self.with_rows(rows, rhs)

    def map_through(self, tau: AffineParam) -> "Polyhedron":
        """Image description {x' : W M x' <= w - W xbar}.

        Rows that map to 0 <= nonnegative are dropped; a row mapping to
        0 <= negative is kept as an explicit infeasibility witness (this
        happens when tau parametrizes a hyperplane missing the set).

        Computed on ints from this polyhedron's `integer_system` [A_i | b_i]
        (ell_i times row i) and tau's integer form (M = M_i / m,
        xbar = X / x): row i maps to [x A_i M_i | m (x b_i - A_i . X)] over
        ell_i m x.  Divided by the gcd of that denominator and the row, it
        is the child's integer row, which the child keeps.
        """
        (cols, m_den), (x_num, x_den) = tau.integer_form()
        rows, rhs, int_rows, ells = [], [], [], []
        for full, ell in zip(*integer_system(self)):
            # _idot stops at the n entries of a column, before b_i
            new = [x_den * _idot(full, col) for col in cols]
            new.append(m_den * (x_den * full[-1] - _idot(full, x_num)))
            if new[-1] >= 0 and not any(new[:-1]):
                continue
            new, den = lowest_terms(new, ell * m_den * x_den)
            rows.append([Rat(v, den) for v in new[:-1]])
            rhs.append(Rat(new[-1], den))
            int_rows.append(new)
            ells.append(den)
        out = Polyhedron(rows, rhs, tau.p_prime, tau.n_prime)
        out._ints = (int_rows, ells)
        return out


def lp_min(c: Vector, poly: Polyhedron) -> LpResult:
    """Exact min of c^T x over the polyhedron, with certificates.

    Phase 1 runs on the first call for a polyhedron object, on the rows
    of its `integer_system`, and each call runs phase 2 from its start, so
    the result equals solve_lp's.
    """
    if len(c) != poly.n:
        raise DimensionError("lp_min: objective length != n")
    if poly._start is None:
        poly._start = phase1(integer_system(poly), poly.n)
    return phase2(poly._start, c)


def integer_system(poly: Polyhedron) -> Tuple[List[List[int]], List[int]]:
    """(rows, ells): rows[i] = ells[i] [W_i | w_i] as ints, ells[i] > 0,
    computed once per polyhedron object.  Nothing writes to the lists."""
    if poly._ints is None:
        poly._ints = integer_rows(poly.w_mat, poly.w_rhs)
    return poly._ints


def content_key(poly: Polyhedron) -> tuple:
    """(p, n, ells..., rows...): p, n and `integer_system` in one flat
    tuple, the rows one after another (m is len // (n + 2)).  Equal for two
    polyhedra exactly when their w_mat, w_rhs, p and n are equal, because
    ells[i] is the least common denominator of row i.  Built once per
    polyhedron object."""
    if poly._key is None:
        rows, ells = integer_system(poly)
        poly._key = (poly.p, poly.n, *ells, *chain.from_iterable(rows))
    return poly._key


def recession_ray_check(poly: Polyhedron, ray: Vector) -> bool:
    """Membership of ray in the recession cone {r : W r <= 0}."""
    if len(ray) != poly.n:
        raise DimensionError("recession_ray_check: ray length != n")
    return all(dot(row, ray) <= 0 for row in poly.w_mat)


@dataclass
class _FulldimProbe:
    status: str                     # "empty" | "flat" | "full_dim"
    point: Optional[Vector] = None  # feasible point; interior when full_dim


def _fulldim_probe(poly: Polyhedron) -> _FulldimProbe:
    """One LP (max t : Wx + t <= w) deciding empty / flat / full-dimensional,
    run once per polyhedron object."""
    if poly._probe is None:
        poly._probe = _probe_lp(poly)
    return poly._probe


def _probe_lp(poly: Polyhedron) -> _FulldimProbe:
    """The LP on the rows of `integer_system`: row i of Wx + t <= w times
    ell_i is [A_i, ell_i | b_i].  Phase 1 weighs these rows alike, so when
    the ell_i differ the point may not be the one the rational rows
    [W_i, 1] would give; the status is the same."""
    n = poly.n
    if poly.m == 0:
        return _FulldimProbe("full_dim", [ZERO] * n)
    rows, ells = integer_system(poly)
    res = solve_lp([row[:-1] + [ell] for row, ell in zip(rows, ells)],
                   [row[-1] for row in rows], [ZERO] * n + [-ONE])
    if res.status == UNBOUNDED:
        # push along the ray until the slack variable is >= 1
        t0, dt = res.x[n], res.ray[n]
        if dt <= 0:  # ray improves -t, so dt > 0 always
            raise AssertionError("interior LP ray does not increase slack")
        k = max(ONE, (ONE - t0) / dt)
        x = [a + k * b for a, b in zip(res.x[:n], res.ray[:n])]
        return _FulldimProbe("full_dim", x)
    tstar = -res.value
    if tstar > 0:
        return _FulldimProbe("full_dim", res.x[:n])
    if tstar == 0:
        return _FulldimProbe("flat", res.x[:n])
    return _FulldimProbe("empty")


def is_fulldim_polyhedron(poly: Polyhedron) -> bool:
    """True iff the polyhedron is nonempty and has no implicit equality."""
    return _fulldim_probe(poly).status == "full_dim"


def implicit_equalities(poly: Polyhedron) -> List[int]:
    """Indices i with W_i x = w_i on all of P, found by per-row LPs.

    Rows with positive slack at any discovered feasible point are pruned
    without an LP.  Raises on an empty polyhedron.
    """
    probe = _fulldim_probe(poly)
    if probe.status == "empty":
        raise PreconditionError("implicit_equalities: polyhedron is empty")
    if probe.status == "full_dim":
        return []
    candidates = set()
    for i, s in enumerate(poly.slacks(probe.point)):
        if s == 0:
            candidates.add(i)
    out = []
    for i in sorted(candidates):
        if i not in candidates:
            continue
        res = lp_min(poly.w_mat[i], poly)
        assert res.status != INFEASIBLE  # the polyhedron is nonempty
        if res.status == OPTIMAL and res.value == poly.w_rhs[i]:
            out.append(i)
        # any feasible point prunes every row it keeps slack on
        for j, s in enumerate(poly.slacks(res.x)):
            if s > 0:
                candidates.discard(j)
    return out


def fulldim_reduce_polyhedron(
    poly: Polyhedron,
) -> Union[Empty, Tuple[AffineParam, Polyhedron]]:
    """Full-dimensional reduction preserving mixed-integer points.

    Returns Empty when P has no mixed-integer point detectable from the
    implicit-equality system (including P = empty set); otherwise a map
    tau with P = tau(P') and P' full-dimensional.  Inside `optimize`,
    `cqs._reduce_step` shares one answer among polyhedra of equal content
    (`table`).
    """
    probe = _fulldim_probe(poly)
    if probe.status == "empty":
        return EMPTY
    if probe.status == "full_dim":
        return identity_param(poly.n, poly.p), poly
    eq_idx = implicit_equalities(poly)
    if not eq_idx:
        raise AssertionError("flat polyhedron must have an implicit equality")
    w_eq = [poly.w_mat[i] for i in eq_idx]
    rhs_eq = [poly.w_rhs[i] for i in eq_idx]
    tau = parametrize_mixed_integer_solutions(w_eq, rhs_eq, poly.p)
    if isinstance(tau, Empty):
        return EMPTY
    reduced = poly.map_through(tau)
    return tau, reduced
