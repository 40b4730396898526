"""Count what decides the sandwich's grow probes, per objective kind, over one pass of a workload.

Run from the repository root:

    python3 tools/grow_probes.py --workload radius

Every instance of the ``perfbench/instances.py`` family is solved once, as
``perfbench/run.py`` solves it, with the deciders of ``miqcp.rounding._push``
wrapped from the outside.  A grow probe is one cut of a push run (see
``_push``): the k-th cut row . x <= rhs0 - 2^k step0 of a facet and sense,
for k = 0, 1, ... until a cut misses Q.  Each probe is decided by one of:

- ``closed_form``: the half-space minimizer of a definite objective
  (``_decide_in_closed_form`` answered);
- ``run_lp``: the run's LP min row . x over P, either a cut below its
  minimum (``_cut_misses``) or, for an identically-zero objective with
  eta >= 0, every cut before the last one that meets P, where the run
  starts (``_last_meeting_cut``), or the first cut when none meets P;
- ``kept``: what earlier cut QPs of the same row on the same set proved,
  a failing cut at or above this one or a supporting line of the cut
  minimum above eta (``_kept_bound_misses``);
- ``qp``: a ``quadratic_feasible_point`` on the cut polyhedron.

``accepted`` counts the pushes that found a point.  One line per objective
kind is printed,
``kind: closed_form C / run_lp L / kept K / qp Q / accepted A``,
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

KINDS = ("definite", "semidefinite", "linear", "zero")
COLUMNS = ("closed_form", "run_lp", "kept", "qp", "accepted")


def objective_kind(obj) -> str:
    if obj.definite:
        return "definite"
    if not obj.is_zero_quadratic():
        return "semidefinite"
    return "zero" if obj.is_zero() else "linear"


def _last_cut(tally, k):
    # the run LP decides the cuts before k, or the first cut when k is None;
    # the miss after k is a `_cut_misses`
    tally["run_lp"] += 1 if k is None else k


# what each decider adds to its set's Counter, given what it returned; each
# is called only inside `_push`
TALLIES = {
    "_decide_in_closed_form": lambda c, out: c.update(closed_form=out[0]),
    "_cut_misses": lambda c, out: c.update(run_lp=out),
    "_kept_bound_misses": lambda c, out: c.update(kept=out),
    "_last_meeting_cut": _last_cut,
    "quadratic_feasible_point": lambda c, out: c.update(qp=1),
}


def count_probes(workload: str) -> dict:
    """kind -> Counter of COLUMNS over one pass of workload."""
    counts = {kind: Counter() for kind in KINDS}
    pushing = [None]  # the kind of the set whose push runs
    originals = {name: getattr(rounding, name) for name in (*TALLIES, "_push")}

    def tallied(name, tally):
        def wrapper(*args):
            out = originals[name](*args)
            tally(counts[pushing[0]], out)
            return out
        return wrapper

    def push(q, *args):
        pushing[0] = objective_kind(q.obj)
        out = originals["_push"](q, *args)
        counts[pushing[0]]["accepted"] += out is not None
        return out

    for name, tally in TALLIES.items():
        setattr(rounding, name, tallied(name, tally))
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
