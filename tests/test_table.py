"""`optimize`'s table (`miqcp.table`) and the data a corpus solve builds.

With the table open, `optimize` gives the answers and the recursion it
gives with the table shut; only `optimize` opens it, and nothing is kept
between solves or after one raises.  The same pass records every objective
substitution and every phase 1 on kept integer rows, which are checked
against their rational definitions.
"""

import contextlib
import subprocess
import sys
from pathlib import Path

import pytest

import miqcp.cli
import miqcp.cqs
import miqcp.polyhedra
import miqcp.solver
import miqcp.table
from miqcp.errors import PreconditionError
from miqcp.linalg import integer_rows, mat, rank
from miqcp.polyhedra import _fulldim_probe
from miqcp.cqs import ConvexQuadraticSet
from miqcp.qp import QpObjective
from miqcp.rational import Rat
from miqcp.simplex import extend, phase1
from miqcp.solver import MicqpInstance, Trace, boundedness, feasibility, optimize

from corpus import corpus
from test_polyhedra import box
from test_rounding import _load_bench_family


def _count_probe_lps(monkeypatch) -> list:
    """A list that grows by one per later `_probe_lp` run."""
    probed = []
    probe_lp = miqcp.polyhedra._probe_lp
    monkeypatch.setattr(miqcp.polyhedra, "_probe_lp",
                        lambda poly: probed.append(poly) or probe_lp(poly))
    return probed


@pytest.fixture(scope="module")
def open_pass():
    """One pass of `optimize` over the corpus with the table open.

    Returns {name: (status, trace nodes)}, the number of `_probe_lp` runs,
    every (objective, tau, child, q(xbar)) of `QpObjective.substitute` and
    every (w_mat, w_rhs, kept integer rows) of a polyhedron that `lp_min`
    ran phase 1 on or built a start for by `extend`.
    """
    maps, starts = [], []
    substitute = QpObjective.substitute
    integer_system = miqcp.polyhedra.integer_system
    asked = [None]  # the polyhedron of the last `integer_system` in polyhedra

    def recorded_substitute(self, tau):
        child, constant = substitute(self, tau)
        maps.append((self, tau, child, constant))
        return child, constant

    def recorded_integer_system(poly):
        asked[0] = poly
        return integer_system(poly)

    def recorded_phase1(ints, n):
        # lp_min hands phase 1 the rows it has just asked its polyhedron for
        poly = asked[0]
        assert poly._ints is ints and poly.n == n
        starts.append((poly.w_mat, poly.w_rhs, ints))
        return phase1(ints, n)

    def recorded_extend(start, ints):
        # a child's start extends its parent's by the child's last rows
        poly = asked[0]
        rows, ells = poly._ints
        assert ints == (rows[start.m:], ells[start.m:]) and start.m + len(ints[0]) == poly.m
        starts.append((poly.w_mat, poly.w_rhs, poly._ints))
        return extend(start, ints)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(QpObjective, "substitute", recorded_substitute)
        m.setattr(miqcp.polyhedra, "integer_system", recorded_integer_system)
        m.setattr(miqcp.polyhedra, "phase1", recorded_phase1)
        m.setattr(miqcp.polyhedra, "extend", recorded_extend)
        probed = _count_probe_lps(m)
        runs = {}
        for name, inst in corpus():
            trace = Trace()
            runs[name] = (optimize(inst, trace), trace.nodes)
    return runs, len(probed), maps, starts


def test_the_table_changes_no_answer_and_no_node(open_pass, monkeypatch):
    runs, open_probes, _, _ = open_pass
    monkeypatch.setattr(miqcp.table, "open_table", contextlib.nullcontext)
    probed = _count_probe_lps(monkeypatch)
    for name, inst in corpus():
        trace = Trace()
        assert (optimize(inst, trace), trace.nodes) == runs[name], name
    # the table was in use: equal polyhedra of later probes shared a
    # reduction, and with it the reduced polyhedron's probe LP
    assert open_probes < len(probed)


@pytest.mark.parametrize("family", ["radius", "pdepth"])
def test_the_table_changes_no_answer_and_no_node_on_a_bench_family(monkeypatch, family):
    # each arm solves its own build of the family, so probes kept on the
    # user's polyhedra by the first arm do not serve the second: only a
    # table that pays probes less
    def fresh():
        return [miqcp.cli.parse_instance(e["text"]).micqp
                for e in _load_bench_family(family)(2024)]

    probed = _count_probe_lps(monkeypatch)
    runs = []
    for inst in fresh():
        trace = Trace()
        runs.append((optimize(inst, trace), trace.nodes))
    open_probes = len(probed)
    monkeypatch.setattr(miqcp.table, "open_table", contextlib.nullcontext)
    probed.clear()
    for inst, run in zip(fresh(), runs):
        trace = Trace()
        assert (optimize(inst, trace), trace.nodes) == run
    assert open_probes < len(probed)


def test_a_second_solve_repeats_the_first(monkeypatch):
    # on an equal instance built afresh (an instance's own polyhedron keeps
    # its probe and phase-1 start), so only a table kept between solves
    # could save a probe
    probed = _count_probe_lps(monkeypatch)
    first, second = ([inst for _, inst in corpus() if inst.poly.p][:12] for _ in range(2))
    for a, b in zip(first, second):
        counts = []
        for inst in (a, b):
            probed.clear()
            optimize(inst)
            counts.append(len(probed))
        assert counts[0] == counts[1] > 0


def test_the_table_is_dropped_when_a_solve_raises(monkeypatch):
    poly = box([0], [3], p=1)
    obj = QpObjective(mat([[1]]), [Rat(0)])
    with pytest.raises(PreconditionError, match="box"):
        optimize(MicqpInstance(obj, poly, ([Rat(5)], [Rat(6)])))
    assert miqcp.table._TABLE.get() is None
    # outside a solve equal polyhedra are probed one by one, as before
    probed = _count_probe_lps(monkeypatch)
    _fulldim_probe(box([0], [3], p=1))
    _fulldim_probe(box([0], [3], p=1))
    assert len(probed) == 2


def test_remember_with_no_table_open_computes_every_time():
    keys = []

    def compute():
        keys.append("computed")
        return len(keys)

    assert miqcp.table.remember(lambda: keys.append("key"), compute) == 1
    assert miqcp.table.remember(lambda: keys.append("key"), compute) == 2
    assert keys == ["computed", "computed"]  # no table: no key, no entry


def _tables_at_remember(monkeypatch) -> list:
    """A list that grows by the open table (or None) at each later
    `remember`, in every module that imports it."""
    seen = []
    remember = miqcp.table.remember

    def recorded(key, compute):
        seen.append(miqcp.table._TABLE.get())
        return remember(key, compute)

    for module in (miqcp.cqs, miqcp.solver):
        monkeypatch.setattr(module, "remember", recorded)
    return seen


def test_only_optimize_opens_the_table(monkeypatch):
    holders = sorted(name for name, module in sys.modules.items()
                     if name.startswith("miqcp.") and name != "miqcp.table"
                     and getattr(module, "remember", None) is miqcp.table.remember)
    assert holders == ["miqcp.cqs", "miqcp.solver"]
    seen = _tables_at_remember(monkeypatch)
    cases = [inst for _, inst in corpus() if inst.poly.p and inst.declared_box][:12]
    # a lone recursion keeps nothing
    for inst in cases:
        feasibility(ConvexQuadraticSet(inst.poly, inst.obj, Rat(100)), inst.declared_box)
        boundedness(inst)
    assert len(seen) > 50 and all(table is None for table in seen)
    # the MILP check and every probe of one `optimize` share one table
    at_feasibility = []
    feasible = miqcp.solver.feasibility
    monkeypatch.setattr(
        miqcp.solver, "feasibility",
        lambda *args: at_feasibility.append(miqcp.table._TABLE.get()) or feasible(*args))
    probes = 0
    for _, inst in corpus():
        seen.clear()
        at_feasibility.clear()
        optimize(inst)
        table = at_feasibility[0]
        assert table is not None
        assert all(t is table for t in at_feasibility + seen)
        assert miqcp.table._TABLE.get() is None
        probes += len(at_feasibility) - 1
    assert probes > 30


def test_every_solver_substitution_keeps_its_contract(open_pass):
    # each tau has full column rank, so a definite objective's child, built
    # without the LDL^T check, is as definite as the checked constructor
    # says; and q(xbar) from the integer products is the rational value
    _, _, maps, _ = open_pass
    assert sum(obj.definite for obj, *_ in maps) > 90
    for obj, tau, child, constant in maps:
        assert constant == obj.value(tau.xbar)
        assert tau.n_prime == 0 or rank(tau.m) == tau.n_prime
        if obj.definite:
            assert child.definite == QpObjective(child.h_mat, child.h_vec).definite


def test_phase1_on_kept_integer_rows_matches_the_rational_rows(open_pass):
    # every polyhedron the corpus solve ran phase 1 or `extend` on, mapped
    # children among them: the kept rows, after the whole pass, are the rows
    # scaled afresh
    _, _, _, starts = open_pass
    assert len(starts) > 500
    for w_mat, w_rhs, ints in starts:
        assert ints == integer_rows(w_mat, w_rhs)


def _table_traffic(workload: str) -> dict:
    tool = Path(__file__).resolve().parent.parent / "tools" / "table_traffic.py"
    out = subprocess.run([sys.executable, str(tool), "--workload", workload],
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split(": ") for line in out.splitlines())


def test_table_traffic_tool_prints_the_three_kinds():
    lines = _table_traffic("pdepth")
    assert list(lines) == ["reduce", "face_min", "box", "total"]
    # later probes meet the reductions, the minima of q over P and the
    # boxed polyhedron of earlier ones
    for kind in ("reduce", "face_min", "box"):
        assert not lines[kind].startswith("hits 0 "), kind
    # msplit solves by lone feasibility calls, which open no table
    assert _table_traffic("msplit")["total"] == "hits 0 / lookups 0"
