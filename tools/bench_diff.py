"""List the deterministic benchmark metrics that differ between two runs.

Run from the repository root:

    python3 tools/bench_diff.py PARENT.json CHANGE.json

Each file is the output of ``perfbench/run.py --trace 1``, or a
``BENCH_*.json`` file of ``tools/bench_json.py``, whose traced run of each
workload (``workloads.<name>.trace1``) is compared with the other file's
run of the same workload.  Every metric whose unit is count, ratio or bits
is compared; times and memory are not, because they vary from run to run.
Each difference is printed as ``metric: parent -> change``, prefixed with
``workload: `` for BENCH files, with ``missing`` for a metric or workload
only one file has.  A per-layer metric of ``BENCHMARK.json`` present in
both runs is tagged ``(better)`` or ``(worse)`` by its ``better``
direction.  Exit code 0 means no difference, 1 means some.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

UNITS = ("count", "ratio", "bits")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def deterministic_metrics(run: dict) -> dict:
    """{metric: value} over the count, ratio and bits metrics of a run."""
    return {name: entry["value"] for name, entry in run["metrics"].items()
            if entry["unit"] in UNITS}


def traced_runs(doc: dict) -> dict:
    """{workload: traced run} of a BENCH file, or {"": doc} for one run."""
    if "workloads" in doc:
        return {name: runs["trace1"] for name, runs in doc["workloads"].items()}
    return {"": doc}


def directions(benchmark: dict) -> dict:
    """{metric: "lower" or "higher"} over the per-layer metrics of a
    ``BENCHMARK.json`` document."""
    return {entry["name"]: entry["better"] for entry in benchmark["per_layer"]}


def _tag(name: str, a, b, better: dict) -> str:
    """`` (better)`` or `` (worse)`` when name has a direction and both
    values are present, else nothing."""
    if name not in better or "missing" in (a, b):
        return ""
    return " (better)" if (b < a) == (better[name] == "lower") else " (worse)"


def differences(parent: dict, change: dict, better: dict) -> list:
    """Lines ``metric: parent -> change`` for every metric that differs,
    tagged by the directions in better (see `directions`)."""
    old_runs, new_runs = traced_runs(parent), traced_runs(change)
    lines = []
    for workload in sorted(old_runs.keys() | new_runs.keys()):
        prefix = f"{workload}: " if workload else ""
        if workload not in old_runs or workload not in new_runs:
            lines.append(f"{workload or 'run'}: {'missing' if workload not in old_runs else 'present'}"
                         f" -> {'missing' if workload not in new_runs else 'present'}")
            continue
        old = deterministic_metrics(old_runs[workload])
        new = deterministic_metrics(new_runs[workload])
        for name in sorted(old.keys() | new.keys()):
            a, b = old.get(name, "missing"), new.get(name, "missing")
            if a != b:
                lines.append(f"{prefix}{name}: {a} -> {b}{_tag(name, a, b, better)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    lines = differences(json.loads(args.parent.read_text()), json.loads(args.change.read_text()),
                        directions(json.loads(BENCHMARK.read_text())))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
