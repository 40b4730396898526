"""Command line interface: instance files in, machine-readable JSON out.

Instances are JSON with all rationals written as integers or "a/b" strings;
floats are rejected.  Output is deterministic (sorted keys, no timestamps):
byte-identical reruns on identical input.  Exit code 0 covers every
well-defined answer, including infeasible; 2 signals an input error.
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Tuple

from .cqs import ConvexQuadraticSet, fulldim_reduce_cqs
from .diophantine import AffineParam, Empty, integer_reflexive_ginv
from .errors import InstanceParseError, MiqcpError, NotPsdError, PreconditionError
from .lattice import LATTICE_POINT, LatticeBasis, flatness
from .linalg import dot, is_integer_mat, mat_eq, mat_mul, mat_vec, rank
from .polyhedra import Polyhedron, recession_ray_check
from .qp import QpObjective
from .rational import RationalParseError, rat, rat_str
from .rounding import sandwich
from .solver import (
    INFEASIBLE_STATUS,
    UNBOUNDED_STATUS,
    MicqpInstance,
    Trace,
    _milp_cqs,
    boundedness,
    feasibility,
    optimize,
    oracle_optimize,
)

COMMANDS = (
    "solve",
    "feasible",
    "bounded",
    "reduce-fulldim",
    "sandwich",
    "flatness",
    "ginv",
    "oracle",
)

USAGE = """usage: miqcp <command> <instance.json> [--trace]
commands: solve feasible bounded reduce-fulldim sandwich flatness ginv oracle"""


def _rat_at(value, path):
    try:
        return rat(value)
    except RationalParseError as exc:
        raise InstanceParseError(path, str(exc)) from exc


def _vector_at(value, path, n=None):
    if not isinstance(value, list):
        raise InstanceParseError(path, "expected a list")
    if n is not None and len(value) != n:
        raise InstanceParseError(path, f"expected length {n}, got {len(value)}")
    return [_rat_at(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _matrix_at(value, path, rows=None, cols=None):
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise InstanceParseError(path, "expected a list of rows")
    if rows is not None and len(value) != rows:
        raise InstanceParseError(path, f"expected {rows} rows, got {len(value)}")
    out = [_vector_at(r, f"{path}[{i}]", cols) for i, r in enumerate(value)]
    if out and any(len(r) != len(out[0]) for r in out):
        raise InstanceParseError(path, "ragged rows")
    return out


def _check_keys(block: dict, path: str, known) -> None:
    """InstanceParseError at the first key of block (sorted) that is not
    in known: a misspelled key would otherwise be dropped silently."""
    for key in sorted(block):
        if key not in known:
            raise InstanceParseError(f"{path}.{key}" if path else key, "unknown key")


def _objective_at(block, path, n, extra=()) -> QpObjective:
    if not isinstance(block, dict):
        raise InstanceParseError(path, "expected an object with H and h")
    _check_keys(block, path, ("H", "h") + extra)
    h_mat = _matrix_at(block.get("H"), f"{path}.H", rows=n, cols=n)
    h_vec = _vector_at(block.get("h"), f"{path}.h", n)
    for i in range(n):
        for j in range(i):
            if h_mat[i][j] != h_mat[j][i]:
                raise InstanceParseError(f"{path}.H[{i}][{j}]", "H is not symmetric")
    try:
        return QpObjective(h_mat, h_vec)
    except NotPsdError as exc:
        raise InstanceParseError(f"{path}.H", f"not PSD ({exc})") from exc


class ParsedInstance:
    def __init__(self, micqp: MicqpInstance, quad: Optional[ConvexQuadraticSet]):
        self.micqp = micqp
        self.quad = quad


def _json_object(text: str, known) -> dict:
    """The JSON object in text, or InstanceParseError at path $ (or at the
    first top-level key that is not in known)."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InstanceParseError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InstanceParseError("$", "top level must be an object")
    _check_keys(data, "", known)
    return data


def parse_instance(text: str) -> ParsedInstance:
    """Validated instance, or InstanceParseError with a JSON path and reason."""
    data = _json_object(text, ("n", "p", "W", "w", "objective", "box", "quad_constraint"))
    for key in ("n", "p"):
        if type(data.get(key)) is not int:
            raise InstanceParseError(key, "must be a JSON integer")
    n, p = data["n"], data["p"]
    if not 0 <= p <= n:
        raise InstanceParseError("p", f"need 0 <= p <= n, got p={p}, n={n}")
    w_mat = _matrix_at(data.get("W"), "W", cols=n if data.get("W") else None)
    if w_mat and len(w_mat[0]) != n:
        raise InstanceParseError("W", f"rows must have length n={n}")
    w_rhs = _vector_at(data.get("w"), "w", len(w_mat))
    obj = _objective_at(data.get("objective"), "objective", n)
    poly = Polyhedron(w_mat, w_rhs, p, n)

    box = None
    if data.get("box") is not None:
        blk = data["box"]
        if not isinstance(blk, dict):
            raise InstanceParseError("box", "expected an object with lo and hi")
        _check_keys(blk, "box", ("lo", "hi"))
        lo = _vector_at(blk.get("lo"), "box.lo", n)
        hi = _vector_at(blk.get("hi"), "box.hi", n)
        if any(a > b for a, b in zip(lo, hi)):
            raise InstanceParseError("box", "lo > hi")
        box = (lo, hi)

    quad = None
    if data.get("quad_constraint") is not None:
        blk = data["quad_constraint"]
        qobj = _objective_at(blk, "quad_constraint", n, extra=("eta",))
        if "eta" not in blk:
            raise InstanceParseError("quad_constraint.eta", "missing")
        eta = _rat_at(blk["eta"], "quad_constraint.eta")
        quad = ConvexQuadraticSet(poly, qobj, eta)

    return ParsedInstance(MicqpInstance(obj, poly, box), quad)


def _emit_vec(x):
    return [rat_str(v) for v in x]


def _emit_mat(a):
    return [[rat_str(v) for v in row] for row in a]


def _solve_payload(res, inst: MicqpInstance) -> dict:
    if res.status == INFEASIBLE_STATUS:
        return {"status": "infeasible"}
    if res.status == UNBOUNDED_STATUS:
        hray_lin = dot(inst.obj.h_vec, res.ray)
        hray_mat = mat_vec(inst.obj.h_mat, res.ray)
        return {
            "status": "unbounded",
            "point": _emit_vec(res.point),
            "ray": _emit_vec(res.ray),
            "certificates": {
                "ray_in_recession_cone": recession_ray_check(inst.poly, res.ray),
                "H_ray_zero": all(v == 0 for v in hray_mat),
                "h_dot_ray": rat_str(hray_lin),
            },
        }
    value_check = inst.obj.value(res.x)
    return {
        "status": "optimal",
        "x": _emit_vec(res.x),
        "value": rat_str(res.value),
        "certificates": {
            "objective_at_x": rat_str(value_check),
            "value_reproduced": value_check == res.value,
            "feasible": inst.poly.contains(res.x),
        },
    }


def _cqs_or_milp(parsed: ParsedInstance) -> ConvexQuadraticSet:
    if parsed.quad is not None:
        return parsed.quad
    return _milp_cqs(parsed.micqp.poly)


def _emit_tau(tau: AffineParam) -> dict:
    return {
        "xbar": _emit_vec(tau.xbar),
        "M": _emit_mat(tau.m),
        "p_prime": tau.p_prime,
        "n_prime": tau.n_prime,
    }


def _reduced_instance_json(q: ConvexQuadraticSet, obj: QpObjective) -> dict:
    return {
        "n": q.n,
        "p": q.p,
        "W": _emit_mat(q.poly.w_mat),
        "w": _emit_vec(q.poly.w_rhs),
        "objective": {"H": _emit_mat(obj.h_mat), "h": _emit_vec(obj.h_vec)},
        "quad_constraint": {
            "H": _emit_mat(q.obj.h_mat),
            "h": _emit_vec(q.obj.h_vec),
            "eta": rat_str(q.eta),
        },
    }


def run(command: str, instance_path: str, trace: bool = False) -> Tuple[int, dict]:
    """Dispatch one command; returns (exit_code, json-serializable payload)."""
    if command not in COMMANDS:
        return 2, {"error": f"unknown command {command!r}", "usage": USAGE}
    try:
        with open(instance_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 too
        return 2, {"error": f"cannot read {instance_path}: {exc}"}

    tr = Trace() if trace else None
    try:
        if command == "ginv":
            data = _json_object(text, ("A",))
            a = _matrix_at(data.get("A"), "A")
            if a and not a[0]:
                # A# of an m x 0 matrix has no rows: a list of rows would lose m
                raise InstanceParseError("A", "rows must have at least one column")
            g = integer_reflexive_ginv(a)
            aga = mat_mul(mat_mul(a, g.asharp), a)
            gag = mat_mul(mat_mul(g.asharp, a), g.asharp)
            prod = mat_mul(g.asharp, a)
            return 0, {
                "Asharp": _emit_mat(g.asharp),
                "U": _emit_mat(g.u.u),
                "Uinv": _emit_mat(g.u.uinv),
                "rank": g.r,
                "checks": {
                    "A_Asharp_A_equals_A": mat_eq(aga, a),
                    "Asharp_A_Asharp_equals_Asharp": mat_eq(gag, g.asharp),
                    "Asharp_A_integer": is_integer_mat(prod),
                },
            }

        if command == "flatness":
            data = _json_object(text, ("B", "a", "r"))
            b_mat = _matrix_at(data.get("B"), "B")
            if any(len(row) != len(b_mat) for row in b_mat) or rank(b_mat) < len(b_mat):
                raise InstanceParseError("B", "lattice basis must be square and nonsingular")
            a_vec = _vector_at(data.get("a"), "a", len(b_mat))
            r_val = _rat_at(data.get("r"), "r")
            if r_val < 0:
                raise InstanceParseError("r", "must be >= 0")
            out = flatness(a_vec, r_val, LatticeBasis(b_mat))
            if out.tag == LATTICE_POINT:
                return 0, {"outcome": "lattice_point", "z": _emit_vec(out.z)}
            return 0, {"outcome": "thin_direction", "d": _emit_vec(out.d)}

        parsed = parse_instance(text)

        if command == "oracle":
            return 0, _solve_payload(oracle_optimize(parsed.micqp), parsed.micqp)

        if command == "sandwich":
            if parsed.quad is None:
                raise InstanceParseError("quad_constraint", "sandwich needs one")
            if parsed.quad.p < 1:
                raise InstanceParseError("p", "sandwich needs p >= 1")
            try:
                res = sandwich(parsed.quad)
            except PreconditionError as exc:  # not full-dimensional, or unbounded
                raise InstanceParseError("quad_constraint", str(exc)) from exc
            return 0, {
                "B": _emit_mat(res.b_mat),
                "a": _emit_vec(res.a),
                "r": rat_str(res.r),
                "R": rat_str(res.big_r),
                "simplex_vertices": [_emit_vec(v) for v in res.simplex.vertices],
            }

        if command == "reduce-fulldim":
            q = _cqs_or_milp(parsed)
            out = fulldim_reduce_cqs(q)
            if isinstance(out, Empty):
                return 0, {"status": "empty"}
            tau, q2 = out
            obj2, offset = parsed.micqp.obj.substitute(tau)
            return 0, {
                "status": "reduced",
                "instance": _reduced_instance_json(q2, obj2),
                "objective_offset": rat_str(offset),
                "tau": _emit_tau(tau),
            }

        # solve, feasible and bounded run the recursion that --trace prints
        if command == "solve":
            payload = _solve_payload(optimize(parsed.micqp, tr), parsed.micqp)
        elif command == "feasible":
            x = feasibility(_cqs_or_milp(parsed), parsed.micqp.declared_box, tr)
            if x is None:
                payload = {"status": "infeasible"}
            else:
                payload = {"status": "feasible", "x": _emit_vec(x)}
        else:
            res = boundedness(parsed.micqp, trace=tr)
            if res.unbounded:
                payload = {
                    "status": "unbounded",
                    "point": _emit_vec(res.point),
                    "ray": _emit_vec(res.ray),
                }
            else:
                payload = {"status": "bounded"}
        if tr is not None:
            payload["trace"] = tr.as_dict()
        return 0, payload
    except MiqcpError as exc:  # InstanceParseError included
        return 2, {"error": str(exc)}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    trace = False
    if "--trace" in argv:
        argv.remove("--trace")
        trace = True
    if len(argv) != 2:
        print(USAGE, file=sys.stderr)
        return 2
    command, path = argv
    code, payload = run(command, path, trace=trace)
    if code == 0:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(payload.get("error", "input error"), file=sys.stderr)
        if "usage" in payload:
            print(payload["usage"], file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
