"""Count what decides the sandwich's grow pushes, per objective kind, over one pass of a workload.

Run from the repository root:

    python3 tools/grow_probes.py --workload radius

Every instance of the ``perfbench/instances.py`` family is solved once, as
``perfbench/run.py`` solves it, with the deciders of ``miqcp.rounding._push``
wrapped from the outside.  A push asks one question per facet and sense:
does the 3/2 cut row . x <= t hold a point of Q (see ``_push``)?  Each
question is decided by the first of:

- ``closed_form``: the half-space minimizer of a definite objective
  (``_decide_in_closed_form`` answered);
- ``run_lp``: a cut below the minimum of the run's LP min row . x over P,
  which the row's bound proves empty (``_cut_misses``);
- ``kept``: a cut at or above the LP minimum that the row's bound proves
  empty, as earlier cut QPs of the same row on the same set raised it, by
  a failing cut at or above this one or a supporting line of the cut
  minimum above eta (``_cut_misses``);
- ``vertex``: the run LP's vertex, which lies in Q;
- ``qp``: a ``quadratic_feasible_point`` on the cut polyhedron.

``accepted`` counts the pushes that found a point.  One line per objective
kind is printed,
``kind: closed_form C / run_lp L / kept K / vertex V / qp Q / accepted A``,
for the kinds of ``KINDS`` in that order, and a total line.  The kind is
the set's objective: ``definite`` (H positive definite), ``semidefinite``
(H != 0 singular), ``linear`` (H = 0, h != 0) or ``zero`` (H = 0, h = 0).
The benchmark's ``rounding.grow_simplex.probes`` counts only the ``qp``
column.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import instances  # noqa: E402
import miqcp.cli  # noqa: E402
import miqcp.rounding as rounding  # noqa: E402
import miqcp.solver  # noqa: E402
from miqcp.rational import Rat  # noqa: E402

KINDS = ("definite", "semidefinite", "linear", "zero")
COLUMNS = ("closed_form", "run_lp", "kept", "vertex", "qp", "accepted")


def objective_kind(obj) -> str:
    if obj.definite:
        return "definite"
    if not obj.is_zero_quadratic():
        return "semidefinite"
    return "zero" if obj.is_zero() else "linear"


def count_probes(workload: str) -> dict:
    """kind -> Counter of COLUMNS over one pass of workload."""
    counts = {kind: Counter() for kind in KINDS}
    names = ("_decide_in_closed_form", "_cut_misses", "quadratic_feasible_point", "_push")
    originals = {name: getattr(rounding, name) for name in names}
    push_counts = [None]  # the Counter of the running push's objective kind

    def closed_form(*args):
        out = originals["_decide_in_closed_form"](*args)
        push_counts[0]["closed_form"] += out[0]
        return out

    def cut_misses(q, row, run, t_num, den):
        out = originals["_cut_misses"](q, row, run, t_num, den)
        if out:
            below_lp = run.lp.is_optimal and Rat(t_num, den) < run.lp.value
            push_counts[0]["run_lp" if below_lp else "kept"] += 1
        else:  # the vertex decides an open cut unless a cut QP follows
            push_counts[0]["vertex"] += 1
        return out

    def feasible_point(obj, cut, eta):
        push_counts[0]["vertex"] -= 1
        push_counts[0]["qp"] += 1
        return originals["quadratic_feasible_point"](obj, cut, eta)

    def push(q, *args):
        push_counts[0] = counts[objective_kind(q.obj)]
        out = originals["_push"](q, *args)
        push_counts[0]["accepted"] += out is not None
        return out

    rounding._decide_in_closed_form = closed_form
    rounding._cut_misses = cut_misses
    rounding.quadratic_feasible_point = feasible_point
    rounding._push = push
    try:
        for entry in instances.WORKLOADS[workload]():
            parsed = miqcp.cli.parse_instance(entry["text"])
            if entry["kind"] == "optimize":
                miqcp.solver.optimize(parsed.micqp)
            else:
                miqcp.solver.feasibility(parsed.quad, parsed.micqp.declared_box)
    finally:
        for name, original in originals.items():
            setattr(rounding, name, original)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    args = ap.parse_args(argv)
    counts = count_probes(args.workload)
    total = sum(counts.values(), Counter())
    for kind, c in list(counts.items()) + [("total", total)]:
        print(f"{kind}: " + " / ".join(f"{col} {c[col]}" for col in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
