"""Count `optimize`'s table hits and misses, per kind, over one pass of a workload.

Run from the repository root:

    python3 tools/table_traffic.py --workload msplit

Every instance of the ``perfbench/instances.py`` family is solved once, as
``perfbench/run.py`` solves it, with ``miqcp.table.remember`` wrapped from
the outside in every module that imported it.  A lookup is a call of
``remember`` with a table open; it is a hit when the table held the key.
One line per kind is printed, ``kind: hits H / lookups L``, and a total:
the kinds of ``KINDS`` always, in that order, and then any other kind a
lookup used.  Calls with no table open (outside `optimize`, as in a lone
`feasibility` solve) are not lookups.
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
import miqcp.table  # noqa: E402

# the kinds of result the table holds, as `miqcp.table` lists them
KINDS = ("reduce", "face_min", "box")


def count_traffic(workload: str) -> tuple:
    """(hits, lookups): Counters by table kind over one pass of workload."""
    hits, lookups = Counter(), Counter()
    remember = miqcp.table.remember

    def counted(key, compute):
        asked, missed = [], []

        def keyed():
            k = key()
            asked.append(k[0])
            return k

        def computed():
            missed.append(True)
            return compute()

        out = remember(keyed, computed)
        for kind in asked:  # empty when no table is open
            lookups[kind] += 1
            hits[kind] += not missed
        return out

    patched = [m for name, m in sys.modules.items()
               if name.startswith("miqcp.") and getattr(m, "remember", None) is remember]
    for module in patched:
        module.remember = counted
    try:
        for entry in instances.WORKLOADS[workload]():
            parsed = miqcp.cli.parse_instance(entry["text"])
            if entry["kind"] == "optimize":
                miqcp.solver.optimize(parsed.micqp)
            else:
                miqcp.solver.feasibility(parsed.quad, parsed.micqp.declared_box)
    finally:
        for module in patched:
            module.remember = remember
    return hits, lookups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    args = ap.parse_args(argv)
    hits, lookups = count_traffic(args.workload)
    for kind in KINDS + tuple(sorted(set(lookups) - set(KINDS))):
        print(f"{kind}: hits {hits[kind]} / lookups {lookups[kind]}")
    print(f"total: hits {sum(hits.values())} / lookups {sum(lookups.values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
