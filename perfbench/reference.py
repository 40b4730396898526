"""Reference answers computed without ``optimize``, and answer checks.

References:

* ``corpus`` -- ``oracle_optimize`` over the instance's declared box.
* ``radius``, ``pdepth`` -- H is strictly diagonally dominant, so with
  lam = min_i (H_ii - sum_j |H_ij|) and c the continuous minimizer,
  q(x) >= q(c) + lam |x - c|^2 for every x.  ``oracle_optimize`` enumerates
  the integer window |y_i - c_i| <= k; once its best value is at most
  q(c) + lam k^2, every assignment outside the window is strictly worse,
  so the window optimum is the global one.  k grows until that holds.
* ``msplit`` -- enumeration of {0,1}^n in integer arithmetic.

Checks use only ``fractions.Fraction`` on the instance JSON, never the
solver's own certificate code.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import Dict, Optional

OPTIMAL, INFEASIBLE, UNBOUNDED, FEASIBLE = "optimal", "infeasible", "unbounded", "feasible"


class Data:
    """The instance JSON as exact rationals."""

    def __init__(self, text: str):
        d = json.loads(text)
        self.n, self.p = d["n"], d["p"]
        self.w_mat = [[Fraction(v) for v in r] for r in d["W"]]
        self.w_rhs = [Fraction(v) for v in d["w"]]
        self.h_mat = [[Fraction(v) for v in r] for r in d["objective"]["H"]]
        self.h_vec = [Fraction(v) for v in d["objective"]["h"]]

    def value(self, x) -> Fraction:
        n = self.n
        return (sum(x[i] * self.h_mat[i][j] * x[j] for i in range(n) for j in range(n))
                + sum(a * b for a, b in zip(self.h_vec, x)))

    def feasible(self, x) -> bool:
        return len(x) == self.n and all(
            sum(a * v for a, v in zip(r, x)) <= b for r, b in zip(self.w_mat, self.w_rhs))

    def mixed_integer(self, x) -> bool:
        return self.feasible(x) and all(v.denominator == 1 for v in x[: self.p])


def reference(entry: Dict, miqcp) -> Dict:
    """{"status": ..., "value": Fraction or None} for one instance."""
    if entry["kind"] == "feasibility":
        a, d = entry["ref_data"]["A"], entry["ref_data"]["d"]
        n = len(a[0])
        for x in itertools.product((0, 1), repeat=n):
            if all(sum(r[j] * x[j] for j in range(n)) == b for r, b in zip(a, d)):
                return {"status": FEASIBLE, "value": None}
        return {"status": INFEASIBLE, "value": None}

    inst = miqcp.cli.parse_instance(entry["text"]).micqp
    if entry["ref_data"] is None:
        res = miqcp.solver.oracle_optimize(inst)
        return {"status": res.status, "value": res.value}

    data = Data(entry["text"])
    c = [Fraction(v) for v in entry["ref_data"]["center"]]
    lam = entry["ref_data"]["lam"]
    q_c = data.value(c)
    lo_box, hi_box = inst.declared_box
    for k in itertools.count(1):
        lo = [Fraction(math.ceil(c[i] - k)) for i in range(data.p)] + list(lo_box[data.p:])
        hi = [Fraction(math.floor(c[i] + k)) for i in range(data.p)] + list(hi_box[data.p:])
        window_inst = miqcp.solver.MicqpInstance(inst.obj, inst.poly, (lo, hi))
        res = miqcp.solver.oracle_optimize(window_inst)
        if res.status == OPTIMAL and res.value <= q_c + lam * k * k:
            return {"status": OPTIMAL, "value": Fraction(res.value)}
        if k >= 8:
            raise RuntimeError(f"{entry['name']}: no Gershgorin window up to k={k}")


def check(entry: Dict, result, ref: Dict) -> Optional[str]:
    """None when ``result`` is a correct answer, else the reason it is not."""
    data = Data(entry["text"])
    if entry["kind"] == "feasibility":
        if result is None:
            return None if ref["status"] == INFEASIBLE else "missed a feasible point"
        if ref["status"] != FEASIBLE:
            return "point returned for an infeasible system"
        x = [Fraction(v) for v in result]
        return None if data.mixed_integer(x) else "returned point is not feasible"

    if result.status != ref["status"]:
        return f"status {result.status}, reference {ref['status']}"
    if result.status == OPTIMAL:
        x = [Fraction(v) for v in result.x]
        if not data.mixed_integer(x):
            return "optimal point infeasible or not integral"
        if data.value(x) != Fraction(result.value) or Fraction(result.value) != ref["value"]:
            return f"value {result.value}, q(x) {data.value(x)}, reference {ref['value']}"
    elif result.status == UNBOUNDED:
        r = [Fraction(v) for v in result.ray]
        point = [Fraction(v) for v in result.point]
        if not data.mixed_integer(point):
            return "unbounded witness infeasible or not integral"
        if any(sum(a * v for a, v in zip(row, r)) > 0 for row in data.w_mat):
            return "ray leaves the polyhedron"
        if any(sum(a * v for a, v in zip(row, r)) != 0 for row in data.h_mat):
            return "H ray != 0"
        if sum(a * v for a, v in zip(data.h_vec, r)) >= 0:
            return "h . ray >= 0"
    return None
