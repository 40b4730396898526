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
    assert tool.differences(PARENT, change, {}) == []
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
    assert tool.differences(PARENT, change, {}) == want
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(PARENT))
    b.write_text(json.dumps(change))
    assert tool.main([str(a), str(b)]) == 1
    # the printed lines tag what BENCHMARK.json ranks, when both runs have it
    want[-1] += " (worse)"
    assert capsys.readouterr().out.splitlines() == want


def _bench(**runs):
    """A ``tools/bench_json.py`` file holding the given traced runs."""
    return {"command": "python3 tools/bench_json.py --out BENCH.json", "seed": 1,
            "workloads": {name: {"trace0": _run(), "trace1": run} for name, run in runs.items()}}


def test_bench_files_compare_workload_by_workload(tmp_path, capsys):
    tool = _bench_diff()
    moved = _run(**{"solver.nodes": (34, "count"), "lattice.flatness.point_ratio": (0.5, "ratio"),
                    "simplex.solve_lp.max_bits": (31, "bits"), "traced.solve_s": (0.9, "s")})
    parent = _bench(pdepth=PARENT, radius=PARENT)
    assert tool.differences(parent, _bench(pdepth=PARENT, radius=PARENT), {}) == []
    want = ["msplit: missing -> present",
            "pdepth: solver.nodes: 33 -> 34",
            "radius: present -> missing"]
    assert tool.differences(parent, _bench(pdepth=moved, msplit=PARENT), {}) == want
    a, b = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(_bench(pdepth=moved, msplit=PARENT)))
    assert tool.main([str(a), str(b)]) == 1
    want[1] += " (worse)"
    assert capsys.readouterr().out.splitlines() == want
    # the committed files of two changes that kept every counter
    root = BENCH_DIFF_PY.parent.parent
    assert tool.main([str(root / "BENCH_14.json"), str(root / "BENCH_15.json")]) == 0


def test_per_layer_differences_are_tagged_by_direction(tmp_path, capsys):
    tool = _bench_diff()
    better = tool.directions(json.loads(tool.BENCHMARK.read_text()))
    assert better["qp.qp_min.calls"] == "lower"
    assert better["lattice.flatness.point_ratio"] == "higher"
    parent = _run(**{"qp.qp_min.calls": (419, "count"), "lattice.flatness.point_ratio": (0.5, "ratio"),
                     "rounding.grow_simplex.accept_ratio": (0.9, "ratio"),
                     "simplex.solve_lp.max_bits": (31, "bits"), "unranked.count": (1, "count")})
    change = _run(**{"qp.qp_min.calls": (306, "count"), "lattice.flatness.point_ratio": (0.25, "ratio"),
                     "rounding.grow_simplex.accept_ratio": (1.0, "ratio"),
                     "simplex.solve_lp.max_bits": (40, "bits"), "unranked.count": (2, "count")})
    want = ["lattice.flatness.point_ratio: 0.5 -> 0.25 (worse)",
            "qp.qp_min.calls: 419 -> 306 (better)",
            "rounding.grow_simplex.accept_ratio: 0.9 -> 1.0 (better)",
            "simplex.solve_lp.max_bits: 31 -> 40 (worse)",
            "unranked.count: 1 -> 2"]
    assert tool.differences(parent, change, better) == want
    # the exit code does not read the tags
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(parent))
    b.write_text(json.dumps(change))
    assert tool.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == want
