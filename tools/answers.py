"""Print every answer the program gives on the corpus and on ``fixtures/``, as one canonical JSON.

Run from the repository root:

    python3 tools/answers.py > ANSWERS.json

Two trees that print the same bytes give the same answers and traces:
a change meant to leave the program as it is can be checked by running
this on both and comparing the outputs (``cmp``).  The document holds

- ``corpus``: for each instance of ``instances.corpus_family(2024)``
  (``perfbench/instances.py``), in order, its name, the solver's answer
  and the trace dict of the solve (``Trace.as_dict``);
- ``fixtures``: for each ``fixtures/*.json`` file and each command of
  ``miqcp.cli.COMMANDS``, the exit code and payload of ``miqcp.cli.run``
  without and with ``--trace``.

Every rational is printed as ``rat_str`` prints it, and keys are sorted.
A corpus pass takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import instances  # noqa: E402
import miqcp.cli  # noqa: E402
import miqcp.solver  # noqa: E402
from miqcp.rational import rat_str  # noqa: E402

CORPUS_SEED = 2024


def _plain(v):
    """v with every rational as its `rat_str`, lists and dicts kept."""
    if isinstance(v, (list, tuple)):
        return [_plain(u) for u in v]
    if isinstance(v, dict):
        return {k: _plain(u) for k, u in v.items()}
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return rat_str(v)


def corpus_answers() -> list:
    out = []
    for entry in instances.corpus_family(CORPUS_SEED):
        parsed = miqcp.cli.parse_instance(entry["text"])
        trace = miqcp.solver.Trace()
        if entry["kind"] == "optimize":
            res = miqcp.solver.optimize(parsed.micqp, trace)
            answer = {k: _plain(getattr(res, k))
                      for k in ("status", "x", "value", "point", "ray")}
        else:
            answer = _plain(miqcp.solver.feasibility(parsed.quad, parsed.micqp.declared_box,
                                                     trace))
        out.append({"name": entry["name"], "answer": answer, "trace": trace.as_dict()})
    return out


def fixture_outputs() -> dict:
    out = {}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        out[path.name] = {
            command: {mode: list(miqcp.cli.run(command, str(path), trace=mode == "trace"))
                      for mode in ("plain", "trace")}
            for command in miqcp.cli.COMMANDS}
    return out


def main() -> int:
    doc = {"corpus": corpus_answers(), "fixtures": fixture_outputs()}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
