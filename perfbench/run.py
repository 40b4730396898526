"""Benchmark of the miqcp exact solver.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Workloads (``instances.py``): ``corpus``, ``radius``, ``pdepth`` and
``msplit``, each a fixed instance set; ``--seed`` orders the solves.  One
process, one thread.  Every instance enters as CLI JSON text through
``miqcp.cli.parse_instance``.

``--trace 0`` measures end to end.  It repeats whole passes over the
instances while they fit in ``--seconds`` (at least one pass) and prints:

* ``setup_s`` -- import of miqcp plus instance build, median of 9;
* ``solve_s`` -- the sum over instances of each one's median solve time;
* ``solve_p50_s`` -- the median of those per-instance times;
* ``ok_ratio`` -- correct answers over attempted solves;
* ``peak_rss_mb`` -- the process's peak resident set after the solves.

Times are corrected to a reference host speed (``clock.py``); the wall
times are printed to standard error.  ``--trace 1`` makes one pass with
every layer function wrapped (``layers.py``) and prints the per-layer
metrics.

Either way every answer is then checked against a reference computed without
``optimize`` (``reference.py``), outside every timed region.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import clock
import instances
import layers
import reference

SRC = Path(__file__).resolve().parent.parent / "src"

# import + instance build is repeated this many times; setup_s is the median
SETUP_REPEATS = 9


class SetupError(Exception):
    pass


def fresh_import():
    """Import miqcp from this checkout's ``src``, dropping any loaded copy."""
    if not (SRC / "miqcp" / "__init__.py").is_file():
        raise SetupError(f"no miqcp package under {SRC}")
    for name in [m for m in sys.modules if m == "miqcp" or m.startswith("miqcp.")]:
        del sys.modules[name]
    miqcp = importlib.import_module("miqcp")
    importlib.import_module("miqcp.cli")
    if not Path(miqcp.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"miqcp imported from {miqcp.__file__}, not {SRC}")
    return miqcp


def setup(workload, tracer=None):
    """Import miqcp and build the instances: (miqcp, entries, parsed)."""
    miqcp = fresh_import()
    if tracer is not None:
        tracer.install()
    entries = instances.WORKLOADS[workload]()
    return miqcp, entries, [miqcp.cli.parse_instance(e["text"]) for e in entries]


def solve(miqcp, entry, inst, trace=None):
    if entry["kind"] == "optimize":
        return miqcp.solver.optimize(inst.micqp, trace)
    return miqcp.solver.feasibility(inst.quad, inst.micqp.declared_box, trace)


def attempt(miqcp, entry, inst, trace=None):
    """The solver's answer, or the exception it raised (a failed answer)."""
    try:
        return solve(miqcp, entry, inst, trace)
    except Exception as exc:
        return exc


def timed_passes(miqcp, entries, parsed, seconds, rng):
    """Whole passes, each in a fresh order from ``rng``, while they fit in
    ``seconds`` (at least one).

    Returns per-instance lists of wall times, of times at the reference speed
    (``clock.py``) and of answers.
    """
    timer = clock.SpeedClock()
    wall = [[] for _ in entries]
    scaled = [[] for _ in entries]
    answers = [[] for _ in entries]
    start = perf_counter()
    while True:
        t_pass = perf_counter()
        for i in rng.sample(range(len(entries)), len(entries)):
            answer, secs, ref_secs = timer.time(attempt, miqcp, entries[i], parsed[i])
            answers[i].append(answer)
            wall[i].append(secs)
            scaled[i].append(ref_secs)
        now = perf_counter()
        if now - start + (now - t_pass) > seconds:
            return wall, scaled, answers


def check_all(miqcp, entries, answers):
    """(attempted, failed); prints the reason for each failure to stderr."""
    attempted = failed = 0
    for entry, got in zip(entries, answers):
        try:
            ref = reference.reference(entry, miqcp)
        except Exception as exc:  # the oracle is the program's code too
            ref = exc
        for ans in got:
            attempted += 1
            if isinstance(ref, Exception):
                why = f"reference raised {ref!r}"
            elif isinstance(ans, Exception):
                why = f"raised {ans!r}"
            else:
                why = reference.check(entry, ans, ref)
            if why is not None:
                failed += 1
                print(f"FAIL {entry['name']}: {why}", file=sys.stderr)
    return attempted, failed


def run_untraced(workload, seed, seconds):
    timer = clock.SpeedClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        (miqcp, entries, parsed), _, secs = timer.time(setup, workload)
        setups.append(secs)
    wall, scaled, answers = timed_passes(miqcp, entries, parsed, seconds,
                                         random.Random(seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = check_all(miqcp, entries, answers)
    per_instance = [statistics.median(s) for s in scaled]
    print(f"{workload}: {len(entries)} instances x {len(wall[0])} passes; "
          f"wall {sum(map(statistics.median, wall)):.3f} s, calibrated "
          f"{sum(per_instance):.3f} s; solve_p50_s over {len(per_instance)} instances",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "solve_s": (sum(per_instance), "s"),
        "solve_p50_s": (statistics.median(per_instance), "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, failed, metrics


def run_traced(workload, seed):
    """One pass with every layer wrapped; times at the reference speed."""
    tracer = layers.LayerTracer()

    def bracketed(fn, *args):
        snap = tracer.snapshot()
        before = clock.kernel()
        t0 = perf_counter()
        out = fn(*args)
        secs = perf_counter() - t0
        factor = clock.REFERENCE_S * 2 / (before + clock.kernel())
        tracer.rescale_since(snap, factor)
        return out, secs * factor

    (miqcp, entries, parsed), _ = bracketed(setup, workload, tracer)
    answers = [None] * len(entries)
    solve_s = 0.0
    for i in random.Random(seed).sample(range(len(entries)), len(entries)):
        tracer.new_instance()
        trace = miqcp.solver.Trace()
        answer, secs = bracketed(attempt, miqcp, entries[i], parsed[i], trace)
        answers[i] = [answer]
        solve_s += secs
        tracer.record_trace(trace)
    tracer.uninstall()
    attempted, failed = check_all(miqcp, entries, answers)
    metrics = tracer.metrics()
    metrics["traced.solve_s"] = (solve_s, "s")
    metrics["traced.overhead_s"] = (tracer.overhead_s, "s")
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            attempted, failed, metrics = run_traced(args.workload, args.seed)
        else:
            attempted, failed, metrics = run_untraced(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
