"""`tools/bench_diff.py` lists the deterministic metrics two runs disagree on."""

import importlib.util
import json
from pathlib import Path

BENCH_DIFF_PY = Path(__file__).resolve().parent.parent / "tools" / "bench_diff.py"


def _bench_diff():
    spec = importlib.util.spec_from_file_location("_bench_diff", BENCH_DIFF_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(**metrics):
    """A ``perfbench/run.py --trace 1`` result with the given (value, unit) metrics."""
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


PARENT = _run(**{"solver.nodes": (33, "count"), "lattice.flatness.point_ratio": (0.5, "ratio"),
                 "simplex.solve_lp.max_bits": (31, "bits"), "traced.solve_s": (0.7, "s")})


def test_times_differ_but_no_counter_does(tmp_path):
    tool = _bench_diff()
    change = _run(**{"solver.nodes": (33, "count"), "lattice.flatness.point_ratio": (0.5, "ratio"),
                     "simplex.solve_lp.max_bits": (31, "bits"), "traced.solve_s": (0.5, "s")})
    assert tool.differences(PARENT, change) == []
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(PARENT))
    b.write_text(json.dumps(change))
    assert tool.main([str(a), str(b)]) == 0


def test_changed_and_missing_metrics_are_listed(tmp_path, capsys):
    tool = _bench_diff()
    change = _run(**{"solver.nodes": (34, "count"), "lattice.flatness.point_ratio": (0.5, "ratio"),
                     "solver.bands": (2, "count"), "traced.solve_s": (0.7, "s")})
    want = ["simplex.solve_lp.max_bits: 31 -> missing",
            "solver.bands: missing -> 2",
            "solver.nodes: 33 -> 34"]
    assert tool.differences(PARENT, change) == want
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(PARENT))
    b.write_text(json.dumps(change))
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == want
