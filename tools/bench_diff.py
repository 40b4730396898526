"""List the deterministic benchmark metrics that differ between two runs.

Run from the repository root:

    python3 tools/bench_diff.py PARENT.json CHANGE.json

Each file is the output of ``perfbench/run.py --trace 1``.  Every metric
whose unit is count, ratio or bits is compared; times and memory are not,
because they vary from run to run.  Each difference is printed as
``metric: parent -> change``, with ``missing`` for a metric only one file
has.  Exit code 0 means no difference, 1 means some.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

UNITS = ("count", "ratio", "bits")


def deterministic_metrics(run: dict) -> dict:
    """{metric: value} over the count, ratio and bits metrics of a run."""
    return {name: entry["value"] for name, entry in run["metrics"].items()
            if entry["unit"] in UNITS}


def differences(parent: dict, change: dict) -> list:
    """Lines ``metric: parent -> change`` for every metric that differs."""
    old, new = deterministic_metrics(parent), deterministic_metrics(change)
    lines = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, "missing"), new.get(name, "missing")
        if a != b:
            lines.append(f"{name}: {a} -> {b}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    lines = differences(json.loads(args.parent.read_text()), json.loads(args.change.read_text()))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
