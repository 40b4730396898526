"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import instances  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402

import miqcp  # noqa: E402
import miqcp.cli  # noqa: E402
from miqcp.solver import SolveStatus, Trace, optimize  # noqa: E402


def _run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_corpus_family_reproduces_test_corpus():
    import corpus

    expected = corpus.corpus()
    got = instances.corpus_family(2024)
    assert [e["name"] for e in got] == [name for name, _ in expected]
    for entry, (name, inst) in zip(got, expected):
        parsed = miqcp.cli.parse_instance(entry["text"]).micqp
        assert parsed.poly.p == inst.poly.p, name
        assert parsed.poly.n == inst.poly.n, name
        assert parsed.poly.w_mat == inst.poly.w_mat, name
        assert parsed.poly.w_rhs == inst.poly.w_rhs, name
        assert parsed.obj.h_mat == inst.obj.h_mat, name
        assert parsed.obj.h_vec == inst.obj.h_vec, name
        assert parsed.declared_box == inst.declared_box, name


def test_workloads_are_fixed_and_parse():
    for name, build in instances.WORKLOADS.items():
        first, second = build(), build()
        assert [e["text"] for e in first] == [e["text"] for e in second], name
        for entry in first:
            miqcp.cli.parse_instance(entry["text"])


def test_tracer_rebinds_every_alias_and_restores():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in layers.LAYERS}
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        rebound = set(tracer.rebound())
        for name in ("miqcp.solver.sandwich", "miqcp.cqs.qp_min",
                     "miqcp.rounding.quadratic_feasible_point", "miqcp.polyhedra.solve_lp",
                     "miqcp.solver._fulldim_reduce_cqs_impl", "miqcp.cli.parse_instance"):
            assert name in rebound
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "miqcp" or mod_name.startswith("miqcp.")):
                continue
            for key, value in vars(mod).items():
                assert all(value is not f for f in originals.values()), f"{mod_name}.{key}"
    finally:
        tracer.uninstall()
    for (m, a), f in originals.items():
        assert getattr(sys.modules[m], a) is f


def test_span_times_nest():
    entry = instances.pdepth_family(2024)[1]
    inst = miqcp.cli.parse_instance(entry["text"]).micqp
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        trace = Trace()
        miqcp.solver.optimize(inst, trace)
        tracer.record_trace(trace)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    for label in layers.TIMED:
        assert 0 <= m[label + ".self_s"][0] <= m[label + ".incl_s"][0] + 1e-9, label
    assert m["rounding.sandwich.incl_s"][0] >= m["rounding.grow_simplex.incl_s"][0]
    assert m["solver.nodes"][0] == sum(m["solver.nodes." + e][0] for e in layers.NODE_EVENTS)
    assert m["solver.probes"][0] >= 1


def test_corpus_counters_at_seed_2024():
    """The whole test corpus: 301 sandwiches and 658 recursion nodes."""
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        for entry in instances.corpus_family(2024):
            inst = miqcp.cli.parse_instance(entry["text"]).micqp
            trace = Trace()
            miqcp.solver.optimize(inst, trace)
            tracer.record_trace(trace)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["rounding.sandwich.calls"][0] == 301
    assert m["solver.nodes"][0] == 658
    assert m["solver.nodes.empty_after_reduction"][0] == 346
    assert m["solver.nodes.thin_direction"][0] == 165
    assert m["solver.nodes.lattice_point"][0] == 136
    assert m["solver.nodes.continuous"][0] == 11


@pytest.mark.parametrize("index", [0, 1])
def test_gershgorin_window_matches_full_box_oracle(index):
    entry = instances.pdepth_family(2024)[index]
    inst = miqcp.cli.parse_instance(entry["text"]).micqp
    ref = reference.reference(entry, miqcp)
    full = miqcp.solver.oracle_optimize(inst)
    assert ref["status"] == full.status == "optimal"
    assert ref["value"] == full.value


def test_checks_reject_wrong_answers():
    entry = instances.pdepth_family(2024)[0]
    inst = miqcp.cli.parse_instance(entry["text"]).micqp
    ref = reference.reference(entry, miqcp)
    good = optimize(inst)
    assert reference.check(entry, good, ref) is None
    worse = SolveStatus("optimal", x=good.x, value=good.value + 1)
    assert reference.check(entry, worse, ref) is not None
    moved = SolveStatus("optimal", x=[good.x[0] + Fraction(1, 2)] + good.x[1:], value=good.value)
    assert reference.check(entry, moved, ref) is not None
    assert reference.check(entry, SolveStatus("infeasible"), ref) is not None

    split = instances.msplit_family(2024)[0]  # right-hand side from a 0-1 point
    split_ref = reference.reference(split, miqcp)
    assert split_ref["status"] == "feasible"
    assert reference.check(split, None, split_ref) is not None
    n = json.loads(split["text"])["n"]
    assert reference.check(split, [Fraction(1, 2)] * n, split_ref) is not None


def test_traced_counters_repeat_across_hash_seeds():
    counts = []
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = _run_bench("--workload", "corpus", "--seed", hash_seed, "--seconds", "1",
                         "--trace", "1", env=env)
        assert out.returncode == 0, out.stderr
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if v["unit"] in ("count", "ratio", "bits")})
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "correct" not in out.stdout
