"""The integer simplex tableau against the Fraction tableau it replaced.

``_reference_solve_lp`` is the earlier two-phase simplex on a Fraction
tableau.  ``solve_lp`` must take the same pivots, so the two results agree
field for field; each result also carries a certificate that is checked
here without trusting either solver.
"""

import copy
import random
from fractions import Fraction

import pytest

import miqcp.polyhedra
import miqcp.simplex
from miqcp.linalg import _dot, integer_row, integer_rows, rank
from miqcp.polyhedra import Polyhedron, integer_system, lp_min
from miqcp.qp import _independent_active_rows
from miqcp.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpResult, extend, phase1, phase2,
                           solve_lp)

ZERO, ONE = Fraction(0), Fraction(1)


def _reference_solve_lp(w_mat, w_rhs, c, trace=None):
    """min c^T x s.t. W x <= w on a Fraction tableau (Bland's rule).

    Each pivot appends (row, entering variable) to trace when one is given.
    """
    m = len(w_mat)
    n = len(c)
    if m == 0:
        if all(cj == 0 for cj in c):
            return LpResult(OPTIMAL, [ZERO] * n, ZERO, dual=[])
        ray = [(-ONE if cj > 0 else (ONE if cj < 0 else ZERO)) for cj in c]
        return LpResult(UNBOUNDED, x=[ZERO] * n, ray=ray)
    if n == 0:
        if all(wi >= 0 for wi in w_rhs):
            return LpResult(OPTIMAL, [], ZERO, dual=[ZERO] * m)
        bad = next(i for i in range(m) if w_rhs[i] < 0)
        farkas = [ZERO] * m
        farkas[bad] = ONE
        return LpResult(INFEASIBLE, farkas=farkas)

    sigma = [(-ONE if w_rhs[i] < 0 else ONE) for i in range(m)]
    ncols = 2 * n + m
    total = ncols + m
    tab = []
    for i in range(m):
        row = [ZERO] * (total + 1)
        for j in range(n):
            v = sigma[i] * w_mat[i][j]
            row[j] = v
            row[n + j] = -v
        row[2 * n + i] = sigma[i]
        row[ncols + i] = ONE
        row[total] = sigma[i] * w_rhs[i]
        tab.append(row)
    # slack i basic where w_i >= 0, artificial i where w_i < 0
    basis = [(2 * n if sigma[i] == 1 else ncols) + i for i in range(m)]

    def pivot(r, jcol):
        if trace is not None:
            trace.append((r, jcol))
        inv = ONE / tab[r][jcol]
        rr = tab[r]
        if inv != 1:
            for j in range(total + 1):
                if rr[j] != 0:
                    rr[j] *= inv
        nz = [j for j in range(total + 1) if rr[j] != 0]
        for i in range(m):
            if i != r:
                ti = tab[i]
                f = ti[jcol]
                if f != 0:
                    for j in nz:
                        ti[j] -= f * rr[j]
        basis[r] = jcol

    def build_red(cost):
        red = cost[:] + [ZERO]
        for i in range(m):
            cb = cost[basis[i]]
            if cb != 0:
                ti = tab[i]
                for j in range(total + 1):
                    if ti[j] != 0:
                        red[j] -= cb * ti[j]
        return red

    def run(cost):
        red = build_red(cost)
        while True:
            enter = next((j for j in range(ncols) if red[j] < 0), None)
            if enter is None:
                return OPTIMAL, red, None
            leave = None
            best = None
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    key = (tab[i][total] / a, basis[i])
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave is None:
                return UNBOUNDED, red, enter
            pivot(leave, enter)
            f = red[enter]
            if f != 0:
                rr = tab[leave]
                for j in range(total + 1):
                    if rr[j] != 0:
                        red[j] -= f * rr[j]

    # phase 1 costs only the basic artificials; an artificial never enters
    cost1 = [ZERO] * ncols + [ZERO if sigma[i] == 1 else ONE for i in range(m)]
    status, red1, _ = run(cost1)
    assert status == OPTIMAL
    if -red1[total] > 0:
        # the slacks' reduced costs are a Farkas certificate
        return LpResult(INFEASIBLE, farkas=red1[2 * n:ncols])

    for i in range(m):
        if basis[i] >= ncols:
            jnew = next((j for j in range(ncols) if tab[i][j] != 0), None)
            if jnew is not None:
                pivot(i, jnew)

    cost2 = [ZERO] * (total)
    for j in range(n):
        cost2[j] = c[j]
        cost2[n + j] = -c[j]
    status, red2, enter = run(cost2)

    def current_x():
        zvals = [ZERO] * total
        for i in range(m):
            zvals[basis[i]] = tab[i][total]
        return [zvals[j] - zvals[n + j] for j in range(n)]

    if status == UNBOUNDED:
        d = [ZERO] * total
        d[enter] = ONE
        for i in range(m):
            d[basis[i]] = -tab[i][enter]
        ray = [d[j] - d[n + j] for j in range(n)]
        return LpResult(UNBOUNDED, x=current_x(), ray=ray)

    x = current_x()
    return LpResult(OPTIMAL, x, sum((a * b for a, b in zip(c, x)), ZERO), dual=red2[2 * n:ncols])


def _naive_dot(x, y):
    acc = ZERO
    for a, b in zip(x, y):
        acc += a * b
    return acc


def _entry(rng, big):
    if rng.random() < 0.3:
        return ZERO
    den = rng.choice((1, 1, 2, 3, 7)) if not big else rng.randint(1, 10**12)
    return Fraction(rng.randint(-9 * den, 9 * den), den)


def _random_lp(rng):
    """A small LP mixing the structures the solver meets.

    Rows are random, or pass through a common vertex (degenerate), or come
    as an equality pair, a duplicate or a zero row; large denominators and
    contradicting pairs appear too.
    """
    n = rng.randint(1, 4)
    m = rng.randint(1, 9)
    big = rng.random() < 0.3
    vertex = [_entry(rng, big) for _ in range(n)]
    rows, rhs = [], []
    while len(rows) < m:
        kind = rng.random()
        if kind < 0.1 and rows:
            i = rng.randrange(len(rows))
            rows.append(rows[i][:])
            rhs.append(rhs[i])
        elif kind < 0.2 and rows:
            i = rng.randrange(len(rows))
            shift = ZERO if rng.random() < 0.7 else Fraction(rng.randint(1, 3))
            rows.append([-v for v in rows[i]])
            rhs.append(-rhs[i] - shift)  # an equality pair, or an empty slab
        elif kind < 0.25:
            rows.append([ZERO] * n)
            rhs.append(Fraction(rng.randint(-1, 2)))
        else:
            row = [_entry(rng, big) for _ in range(n)]
            at_vertex = _naive_dot(row, vertex)
            rows.append(row)
            rhs.append(at_vertex if kind < 0.6 else at_vertex + _entry(rng, big))
    c = [_entry(rng, big) for _ in range(n)]
    return rows, rhs, c


def _check_certificate(res, w_mat, w_rhs, c):
    m, n = len(w_mat), len(c)
    cols = [[w_mat[i][j] for i in range(m)] for j in range(n)]
    if res.status == OPTIMAL:
        slack = [b - _naive_dot(row, res.x) for row, b in zip(w_mat, w_rhs)]
        assert all(s >= 0 for s in slack)
        assert all(mu >= 0 for mu in res.dual)
        assert all(cj + _naive_dot(col, res.dual) == 0 for cj, col in zip(c, cols))
        assert all(mu * s == 0 for mu, s in zip(res.dual, slack))
        assert res.value == _naive_dot(c, res.x)
    elif res.status == INFEASIBLE:
        mu = res.farkas
        assert all(v >= 0 for v in mu)
        assert all(_naive_dot(col, mu) == 0 for col in cols)
        assert _naive_dot(mu, w_rhs) < 0
    else:
        assert res.status == UNBOUNDED
        assert all(_naive_dot(row, res.x) <= b for row, b in zip(w_mat, w_rhs))
        assert all(_naive_dot(row, res.ray) <= 0 for row in w_mat)
        assert _naive_dot(c, res.ray) < 0


def test_integer_tableau_matches_fraction_tableau():
    rng = random.Random(20231101)
    seen = set()
    for _ in range(400):
        w_mat, w_rhs, c = _random_lp(rng)
        res = solve_lp(w_mat, w_rhs, c)
        assert res == _reference_solve_lp(w_mat, w_rhs, c)
        _check_certificate(res, w_mat, w_rhs, c)
        seen.add(res.status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def _msplit_lp(rng):
    """An LP shaped like a market-split node: n = 5..9 in the 0/1 box, m =
    16..28 rows, equality pairs a.x = b with integer a in 0..20, written
    as a.x <= b, -a.x <= -b and, every other pair, in the reverse order.

    Most systems put a 0/1 vertex on every pair, where the box rows are
    tight too (a degenerate vertex); the others take b = floor(sum a / 2),
    the market-split choice, some with a last pair beyond sum a, which
    empties the box.  Some upper bounds are dropped; when x_0's is, and no
    pair holds x_0, the LP can be unbounded.
    """
    n = rng.randint(5, 9)
    m = rng.randint(max(16, 2 * n + 2), 28)
    vertex = [rng.randint(0, 1) for _ in range(n)]
    free = rng.random() < 0.2
    rows, rhs = [], []
    for i in range(n):
        if rng.random() < 0.9 and not (free and i == 0):
            rows.append([ONE if j == i else ZERO for j in range(n)])
            rhs.append(ONE)
        rows.append([-ONE if j == i else ZERO for j in range(n)])
        rhs.append(ZERO)
    kind, box = rng.random(), len(rows)
    while len(rows) < m:
        a = [Fraction(0 if free and j == 0 else rng.randint(0, 20)) for j in range(n)]
        if kind < 0.6:
            b = _naive_dot(a, vertex)
        elif kind < 0.9 or len(rows) + 2 < m:
            b = Fraction(int(sum(a)) // 2)
        else:
            b = sum(a) + 1
        pair = [(a, b), ([-v for v in a], -b)]
        if (len(rows) - box) % 4 == 2:
            pair.reverse()
        for row, side in pair[:m - len(rows)]:
            rows.append(row)
            rhs.append(side)
    c = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
    return rows, rhs, c


def _record_pivots(monkeypatch):
    """(trace, kinds): the (row, entering variable) list of every pivot
    ``solve_lp`` takes, and the set of its kinds seen: an implicit slack
    entering, an artificial leaving for a stored column, a negated row."""
    trace, kinds = [], set()
    tableau = miqcp.simplex._Tableau
    pivot = tableau.pivot

    def recorded(self, r, col, j, k):
        trace.append((r, j))
        artificial = self.basis[r] >= 2 * self.n + self.m
        kinds.update(kind for kind, here in (("implicit", k is None),
                                             ("artificial", artificial and k is not None),
                                             ("negated", col[r] < 0)) if here)
        return pivot(self, r, col, j, k)

    monkeypatch.setattr(tableau, "pivot", recorded)
    return trace, kinds


@pytest.mark.parametrize("shape", ["random", "msplit"])
def test_same_pivots_as_the_fraction_tableau(monkeypatch, shape):
    # the compact integer dictionary takes the reference's pivots, one by
    # one, through phase 1, the drive-out and phase 2; every feasible start
    # keeps n + 1 ints per row
    got, kinds = _record_pivots(monkeypatch)
    rng = random.Random(1999)
    make, count = (_random_lp, 300) if shape == "random" else (_msplit_lp, 40)
    seen = set()
    for _ in range(count):
        w_mat, w_rhs, c = make(rng)
        want = []
        got.clear()
        res = solve_lp(w_mat, w_rhs, c)
        assert res == _reference_solve_lp(w_mat, w_rhs, c, want)
        assert got == want
        _check_certificate(res, w_mat, w_rhs, c)
        seen.add(res.status)
        n = len(c)
        start = phase1(integer_rows(w_mat, w_rhs), n)
        if start.farkas is None:
            assert len(start.keys) == n
            assert all(len(row) == n + 1 and all(type(v) is int for v in row)
                       for row in start.rows)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert kinds == {"implicit", "artificial", "negated"}


@pytest.mark.parametrize("w_mat, w_rhs, c", [
    ([], [], [ONE, ZERO, -ONE]),
    ([], [], [ZERO, ZERO]),
    ([[], []], [ONE, ZERO], []),
    ([[], []], [ONE, -ONE], []),
    ([[ONE], [-ONE]], [Fraction(1, 3), Fraction(-1, 3)], [Fraction(5, 7)]),
    ([[ONE], [-ONE]], [ZERO, -ONE], [ONE]),
    ([[ONE, ONE]], [ONE], [-ONE, -ONE]),
    ([[ZERO, ZERO], [ONE, ZERO]], [ZERO, ONE], [-ONE, ZERO]),
])
def test_edge_shapes_match_reference(w_mat, w_rhs, c):
    res = solve_lp(w_mat, w_rhs, c)
    assert res == _reference_solve_lp(w_mat, w_rhs, c)
    if w_mat and c:
        _check_certificate(res, w_mat, w_rhs, c)


def test_int_entries_give_the_same_result():
    w_mat = [[1, 2], [-3, 1], [0, -1]]
    w_rhs = [4, 3, 0]
    c = [-1, -1]
    frac = solve_lp([[Fraction(v) for v in r] for r in w_mat],
                    [Fraction(v) for v in w_rhs], [Fraction(v) for v in c])
    assert solve_lp(w_mat, w_rhs, c) == frac
    assert frac.x == [4, 0] and frac.value == -4


def _random_objective(rng, n):
    if rng.random() < 0.1:
        return [ZERO] * n
    big = rng.random() < 0.3
    return [_entry(rng, big) for _ in range(n)]


def _count_phase1(monkeypatch):
    """The list of arguments of each later phase-1 run that lp_min keeps."""
    runs = []
    phase1 = miqcp.polyhedra.phase1

    def counted(*args):
        runs.append(args)
        return phase1(*args)

    monkeypatch.setattr(miqcp.polyhedra, "phase1", counted)
    return runs


def test_lp_min_from_the_kept_start_matches_reference(monkeypatch):
    # one Polyhedron per LP system, many objectives: phase 1 runs once, and
    # every phase 2 from its start gives the reference result
    runs = _count_phase1(monkeypatch)
    rng = random.Random(20261018)
    systems = [_random_lp(rng)[:2] for _ in range(240)]
    systems += [([], [], 3), ([], [], 0), ([[], []], [ONE, ZERO], 0),
                ([[], []], [ONE, -ONE], 0),
                ([[ONE], [-ONE]], [Fraction(1, 3), Fraction(-1, 3)], 1)]
    seen = set()
    for system in systems:
        w_mat, w_rhs = system[:2]
        n = len(w_mat[0]) if w_mat else system[2]
        poly = Polyhedron(w_mat, w_rhs, n=n)
        farkas = set()
        runs.clear()
        for c in [_random_objective(rng, n) for _ in range(5)] + [[ZERO] * n]:
            res = lp_min(c, poly)
            assert res == _reference_solve_lp(w_mat, w_rhs, c)
            if w_mat and c:
                _check_certificate(res, w_mat, w_rhs, c)
            seen.add((res.status, len(w_mat) == 0, n == 0))
            if res.status == INFEASIBLE:
                farkas.add(tuple(res.farkas))
        assert len(runs) == 1
        assert len(farkas) <= 1  # one Farkas vector for every c
    assert {(OPTIMAL, False, False), (INFEASIBLE, False, False), (UNBOUNDED, False, False),
            (OPTIMAL, True, False), (UNBOUNDED, True, False), (OPTIMAL, True, True),
            (OPTIMAL, False, True), (INFEASIBLE, False, True)} <= seen


def test_phase1_runs_once_per_object(monkeypatch):
    runs = _count_phase1(monkeypatch)
    rows = [[ONE, ZERO], [ZERO, ONE], [-ONE, -ONE]]
    rhs = [ONE, ONE, ZERO]
    first = Polyhedron(rows, rhs)
    for c in ([ONE, ZERO], [ZERO, -ONE], [ONE, ONE]):
        lp_min(c, first)
    assert len(runs) == 1
    # an equal polyhedron is another object: the start is kept on the
    # object, not looked up by equality
    second = Polyhedron([r[:] for r in rows], list(rhs))
    assert second == first and second._start is None
    assert lp_min([ONE, ZERO], second) == lp_min([ONE, ZERO], first)
    assert len(runs) == 2
    assert second._start is not first._start
    # the memo takes no part in equality or repr
    assert first == Polyhedron(rows, rhs) and repr(first) == repr(Polyhedron(rows, rhs))


def test_a_child_of_a_started_parent_extends_its_start(monkeypatch):
    # with_rows, with_box and with_equality children of a parent that holds
    # its start run `extend` by their new rows and no phase 1, with the
    # status and value of solve_lp on all their rows; a child of an
    # unstarted parent runs phase 1 and leaves the parent unstarted
    runs = _count_phase1(monkeypatch)
    extended = []
    monkeypatch.setattr(miqcp.polyhedra, "extend",
                        lambda start, ints: extended.append(ints) or extend(start, ints))
    rng = random.Random(20261023)
    for _ in range(120):
        w_mat, w_rhs, c = _random_lp(rng)
        (rows, rhs), (new_rows, new_rhs) = _split(rng, w_mat, w_rhs, 2)
        n = len(c)
        parent = Polyhedron(rows, rhs, n=n)
        kinds = [lambda p: p.with_rows(new_rows, new_rhs),
                 lambda p: p.with_box([w_rhs[0]] * n, [w_rhs[0] + 1] * n),
                 lambda p: p.with_equality(w_mat[0], w_rhs[0])]
        for make in kinds:
            child = make(parent)
            want = solve_lp(child.w_mat, child.w_rhs, c)
            started = parent._start is not None
            runs.clear()
            extended.clear()
            res = lp_min(c, child)
            assert (res.status, res.value) == (want.status, want.value)
            _check_certificate(res, child.w_mat, child.w_rhs, c)
            assert child._parent is None
            if started:
                assert runs == [] and len(extended) == 1
                assert extended[0] == tuple(part[parent.m:] for part in integer_system(child))
            else:
                assert len(runs) == 1 and extended == [] and parent._start is None
            lp_min(c, parent)


def test_results_share_no_list_with_the_start():
    # mutating what lp_min returned must leave the next result and the
    # kept start unchanged: rows, basis and keys, which phase 2's pivots
    # rewrite in its copies
    rng = random.Random(7)
    statuses = set()
    for _ in range(150):
        w_mat, w_rhs, _ = _random_lp(rng)
        n = len(w_mat[0])
        poly = Polyhedron(w_mat, w_rhs)
        objectives = [_random_objective(rng, n) for _ in range(4)]
        lp_min(objectives[0], poly)
        kept = copy.deepcopy(poly._start)
        for c in objectives:
            want = _reference_solve_lp(w_mat, w_rhs, c)
            got = lp_min(c, poly)
            assert got == want
            statuses.add(got.status)
            for vec in (got.x, got.dual, got.ray, got.farkas):
                if vec:
                    vec[0] += 1
                    vec.append(ONE)
            assert lp_min(c, poly) == want
            assert poly._start.keys == kept.keys
            assert poly._start == kept
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def _split(rng, w_mat, w_rhs, parts):
    """The rows of W x <= w as parts consecutive (rows, rhs) blocks, each
    maybe empty."""
    cuts = sorted(rng.randint(0, len(w_mat)) for _ in range(parts - 1))
    bounds = list(zip([0] + cuts, cuts + [len(w_mat)]))
    return [(w_mat[a:b], w_rhs[a:b]) for a, b in bounds]


def _extended(blocks, n):
    """The start of all blocks' rows: `phase1` of the first block, then one
    `extend` per later block."""
    start = phase1(integer_rows(*blocks[0]), n)
    for rows, rhs in blocks[1:]:
        start = extend(start, integer_rows(rows, rhs))
    return start


@pytest.mark.parametrize("parts", [2, 3])
def test_extend_gives_the_status_and_value_of_the_joined_rows(parts):
    # a child (parts = 2) and a grandchild (parts = 3) that extend their
    # parent's start by rational rows: the same status and value as
    # solve_lp on all the rows, and a certificate that holds on them
    rng = random.Random(20261022 + parts)
    seen, scales = set(), set()
    for _ in range(300):
        w_mat, w_rhs, c = _random_lp(rng)
        blocks = _split(rng, w_mat, w_rhs, parts)
        start = _extended(blocks, len(c))
        res = phase2(start, c)
        want = solve_lp(w_mat, w_rhs, c)
        assert (res.status, res.value) == (want.status, want.value)
        _check_certificate(res, w_mat, w_rhs, c)
        assert start.m == len(w_mat)
        seen.add(res.status)
        scales.update(integer_rows(*blocks[-1])[1])
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert max(scales) > 1  # rows with denominators, where ell != 1


def test_extend_of_an_infeasible_start_pads_its_farkas_vector():
    rng = random.Random(31)
    padded = 0
    for _ in range(300):
        w_mat, w_rhs, c = _random_lp(rng)
        (rows, rhs), child = _split(rng, w_mat, w_rhs, 2)
        parent = phase1(integer_rows(rows, rhs), len(c))
        if parent.farkas is None or not child[0]:
            continue
        res = phase2(extend(parent, integer_rows(*child)), c)
        assert res.farkas == parent.farkas + [ZERO] * len(child[0])
        _check_certificate(res, w_mat, w_rhs, c)
        padded += 1
    assert padded > 10


def test_extend_by_no_row_returns_the_start():
    rng = random.Random(32)
    for _ in range(20):
        w_mat, w_rhs, c = _random_lp(rng)
        start = phase1(integer_rows(w_mat, w_rhs), len(c))
        assert extend(start, ([], [])) is start


@pytest.mark.parametrize("w_mat, w_rhs, new_rhs, status", [
    ([[], []], [ONE, ZERO], [ONE], OPTIMAL),
    ([[], []], [ONE, ZERO], [ZERO, -ONE, -ONE], INFEASIBLE),
    ([], [], [-ONE], INFEASIBLE),
])
def test_extend_with_no_variable(w_mat, w_rhs, new_rhs, status):
    # n = 0: a new row 0 <= b holds exactly when b >= 0, and the first
    # that fails is the Farkas vector
    start = extend(phase1(integer_rows(w_mat, w_rhs), 0), integer_rows([[]] * len(new_rhs), new_rhs))
    assert phase2(start, []) == _reference_solve_lp(w_mat + [[]] * len(new_rhs), w_rhs + new_rhs, [])
    assert phase2(start, []).status == status


def test_extend_leaves_the_parent_start_as_it_was():
    rng = random.Random(33)
    for _ in range(150):
        w_mat, w_rhs, c = _random_lp(rng)
        (rows, rhs), child = _split(rng, w_mat, w_rhs, 2)
        parent = phase1(integer_rows(rows, rhs), len(c))
        kept = copy.deepcopy(parent)
        start = extend(parent, integer_rows(*child))
        phase2(start, c)
        assert parent == kept


def test_dot_matches_naive_fraction_sum():
    rng = random.Random(5)
    assert _dot([], []) == 0 and isinstance(_dot([], []), Fraction)
    assert _dot([2, 3], [4, -1]) == 5
    assert _dot([Fraction(1, 3), 2], [3, Fraction(1, 2)]) == 2
    for _ in range(500):
        k = rng.randint(0, 7)
        big = rng.random() < 0.5
        x = [_entry(rng, big) for _ in range(k)]
        y = [_entry(rng, big) if rng.random() < 0.7 else rng.randint(-5, 5) for _ in range(k)]
        got = _dot(x, y)
        assert got == _naive_dot(x, y)
        assert isinstance(got, Fraction)


def _greedy_rank_rows(poly, x):
    chosen, rows = [], []
    for i, s in enumerate(poly.slacks(x)):
        if s == 0 and rank(rows + [poly.w_mat[i]]) > len(chosen):
            chosen.append(i)
            rows.append(poly.w_mat[i])
    return chosen


def test_independent_active_rows_match_greedy_rank():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 5)
        x = [_entry(rng, False) for _ in range(n)]
        rows, rhs = [], []
        for _ in range(rng.randint(0, 9)):
            if rows and rng.random() < 0.3:
                a, b = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
                row = [Fraction(rng.randint(-2, 2)) * u + v for u, v in zip(rows[a], rows[b])]
            else:
                row = [_entry(rng, rng.random() < 0.3) for _ in range(n)]
            rows.append(row)
            tight = rng.random() < 0.7
            rhs.append(_naive_dot(row, x) + (0 if tight else Fraction(rng.randint(1, 4))))
        poly = Polyhedron(rows, rhs, n=n)
        rows, _ = integer_system(poly)
        chosen = _independent_active_rows(rows, *integer_row(x))
        assert chosen == _greedy_rank_rows(poly, x)
