"""Run every benchmark workload untraced and traced; write the results as one JSON file.

Run from the repository root:

    python3 tools/bench_json.py --out BENCH_9.json

Each workload named in ``BENCHMARK.json`` runs once through
``perfbench/run.py`` at ``--trace 0`` (end-to-end metrics: ``solve_s``,
``solve_p50_s``, ``ok_ratio``, ``peak_rss_mb``, ``setup_s``) and once at
``--trace 1`` (per-layer spans and the deterministic counters), always on
seed 1 with a 25 s budget, so that the files of successive changes
compare.  The file keeps each run's result object as printed, with the
seed, the time budget and the host it ran on.  Exit code 1 means some run
failed or gave a wrong answer; the file is not written then.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 25.0


def run(workload: str, trace: int) -> Optional[dict]:
    """The run's result object, or None (with its standard error printed) if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        print(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}", file=sys.stderr)
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="file to write, relative to the repo root")
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    results = {}
    for name in workloads:
        results[name] = {}
        for trace in (0, 1):
            res = run(name, trace)
            if res is None or not res["correct"]:
                print(f"{name} --trace {trace} failed; no file written", file=sys.stderr)
                return 1
            print(f"{name} --trace {trace}: {res['attempted']} answers correct", file=sys.stderr)
            results[name][f"trace{trace}"] = res
    doc = {
        "command": "python3 tools/bench_json.py " + " ".join(argv or sys.argv[1:]),
        "seed": SEED,
        "seconds": SECONDS,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": results,
    }
    (ROOT / args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
