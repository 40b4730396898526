"""Outside-in layer tracing: time and count calls into miqcp's layers.

The solver's modules import each other's functions by name
(``from .qp import qp_min``), so a layer function is reachable through
several module attributes.  ``LayerTracer.install`` rebinds every attribute
of every loaded ``miqcp.*`` module that *is* a traced function object to one
timing wrapper, and ``uninstall`` puts the originals back.

Each wrapper pushes a frame on a span stack.  A layer's self time is its
span minus the spans of traced calls made inside it; its inclusive time is
counted once per outermost call, so recursion is not double counted.  The
wrapper's own bookkeeping (the counters below) is charged to neither the
layer nor its caller, and is reported separately as ``overhead_s``.

Counts come from return values and from the ``Trace`` the benchmark passes
to ``optimize``/``feasibility``; nothing inside the program is changed.
``rescale_since`` lets the caller convert the times of one solve to the
reference host speed of ``clock.py``.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (defining module, attribute, reported layer name)
LAYERS: List[Tuple[str, str, str]] = [
    ("miqcp.simplex", "solve_lp", "simplex.solve_lp"),
    ("miqcp.qp", "qp_min", "qp.qp_min"),
    ("miqcp.rounding", "sandwich", "rounding.sandwich"),
    ("miqcp.rounding", "seed_simplex", "rounding.seed_simplex"),
    ("miqcp.rounding", "grow_simplex", "rounding.grow_simplex"),
    ("miqcp.cqs", "_fulldim_reduce_cqs_impl", "cqs.fulldim_reduce_cqs"),
    ("miqcp.cqs", "inner_polytope", "cqs.inner_polytope"),
    ("miqcp.cqs", "quadratic_feasible_point", "cqs.quadratic_feasible_point"),
    ("miqcp.lattice", "lll_reduce", "lattice.lll_reduce"),
    ("miqcp.lattice", "flatness", "lattice.flatness"),
    ("miqcp.diophantine", "parametrize_mixed_integer_solutions",
     "diophantine.parametrize_mixed_integer_solutions"),
    ("miqcp.polyhedra", "fulldim_reduce_polyhedron", "polyhedra.fulldim_reduce_polyhedron"),
    ("miqcp.polyhedra", "lp_min", "polyhedra.lp_min"),
    ("miqcp.solver", "optimize", "solver.optimize"),
    ("miqcp.solver", "feasibility", "solver.feasibility"),
    ("miqcp.cli", "parse_instance", "cli.parse_instance"),
]

# layers reported with calls, self_s and incl_s
TIMED = [
    "simplex.solve_lp",
    "qp.qp_min",
    "rounding.sandwich",
    "rounding.seed_simplex",
    "rounding.grow_simplex",
    "cqs.fulldim_reduce_cqs",
    "cqs.inner_polytope",
    "lattice.lll_reduce",
    "lattice.flatness",
    "diophantine.parametrize_mixed_integer_solutions",
    "polyhedra.fulldim_reduce_polyhedron",
]

NODE_EVENTS = ("empty_after_reduction", "thin_direction", "lattice_point", "continuous")


def _max_bits(values) -> int:
    best = 0
    for v in values:
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


def _eq_pair_rows(w_mat, w_rhs) -> int:
    """Rows a x <= b whose negation -a x <= -b is also present."""
    keys = {(tuple(r), b) for r, b in zip(w_mat, w_rhs)}
    return sum(1 for r, b in zip(w_mat, w_rhs) if (tuple(-v for v in r), -b) in keys)


class LayerTracer:
    """Span stack, per-layer time totals and counters for one traced run."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}
        self.incl_s: Dict[str, float] = {}
        self.counts: Counter = Counter()
        self.overhead_s = 0.0
        self._stack: List[List[float]] = []  # [traced child time, wrapper overhead inside]
        self._open: Counter = Counter()  # open spans per label
        self._lp_seen: set = set()
        self._saved: List[Tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "miqcp" or name.startswith("miqcp."))]
        for mod_name, attr, label in LAYERS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(label, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def rebound(self) -> List[str]:
        """``module.attribute`` names currently routed through a wrapper."""
        return sorted(f"{mod.__name__}.{key}" for mod, key, _ in self._saved)

    def new_instance(self) -> None:
        """Start a new solve: LP repeats are counted within one instance."""
        self._lp_seen = set()

    def snapshot(self):
        return dict(self.self_s), dict(self.incl_s), self.overhead_s

    def rescale_since(self, snap, factor: float) -> None:
        """Multiply the time recorded since ``snap`` by ``factor``."""
        self_s, incl_s, overhead_s = snap
        for now, then in ((self.self_s, self_s), (self.incl_s, incl_s)):
            for label, value in now.items():
                base = then.get(label, 0.0)
                now[label] = base + (value - base) * factor
        self.overhead_s = overhead_s + (self.overhead_s - overhead_s) * factor

    # --- the wrapper -------------------------------------------------------

    def _wrap(self, label: str, fn: Callable) -> Callable:
        on_return = getattr(self, "_on_" + label.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            if label == "simplex.solve_lp":
                self._count_lp(*args, **kwargs)
            frame = [0.0, 0.0]
            self._stack.append(frame)
            self._open[label] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._open[label] -= 1
                span = t1 - t0
                self.calls[label] += 1
                self.self_s[label] = self.self_s.get(label, 0.0) + span - frame[0]
                if not self._open[label]:
                    self.incl_s[label] = self.incl_s.get(label, 0.0) + span - frame[1]
            if on_return is not None:
                on_return(out, args, kwargs)
            t_exit = perf_counter()
            own = (t0 - t_enter) + (t_exit - t1)
            self.overhead_s += own
            if self._stack:
                parent = self._stack[-1]
                parent[0] += t_exit - t_enter
                parent[1] += frame[1] + own
            return out

        return wrapper

    # --- counters read from arguments and return values ------------------

    def _count_lp(self, w_mat, w_rhs, c):
        key = (tuple(map(tuple, w_mat)), tuple(w_rhs), tuple(c))
        if key in self._lp_seen:
            self.counts["simplex.solve_lp.repeats"] += 1
        else:
            self._lp_seen.add(key)
        self.counts["simplex.solve_lp.eq_pair_rows"] += _eq_pair_rows(w_mat, w_rhs)
        bits = max([_max_bits(c), _max_bits(w_rhs)] + [_max_bits(r) for r in w_mat])
        if bits > self.counts["simplex.solve_lp.max_bits"]:
            self.counts["simplex.solve_lp.max_bits"] = bits

    def _on_qp_min(self, res, args, kwargs):
        self.counts["qp.qp_min.iterations"] += res.iterations or 0
        if res.status == "infeasible":
            self.counts["qp.qp_min.infeasible"] += 1

    def _on_quadratic_feasible_point(self, point, args, kwargs):
        if self._open["rounding.grow_simplex"]:
            self.counts["rounding.grow_simplex.probes"] += 1
            if point is not None:
                self.counts["rounding.grow_simplex.accepted"] += 1

    def _on_flatness(self, outcome, args, kwargs):
        if outcome.tag == "lattice_point":
            self.counts["lattice.flatness.points"] += 1

    def _on_parametrize_mixed_integer_solutions(self, out, args, kwargs):
        if type(out).__name__ == "Empty":
            self.counts["diophantine.parametrize_mixed_integer_solutions.empty"] += 1

    def _on_feasibility(self, out, args, kwargs):
        if self._open["solver.optimize"]:
            self.counts["solver.feasibility_in_optimize"] += 1

    def record_trace(self, trace) -> None:
        """Fold one solve's ``Trace`` into the node counters."""
        depth = 0
        for node in trace.nodes:
            event = node.get("event")
            if event in NODE_EVENTS:
                self.counts["solver.nodes"] += 1
                self.counts["solver.nodes." + event] += 1
                depth = max(depth, node["depth"])
            if event == "thin_direction":
                self.counts["solver.bands"] += node["band_count"]
        if depth > self.counts["solver.max_depth"]:
            self.counts["solver.max_depth"] = depth

    # --- report ------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        out: Dict[str, Tuple[float, str]] = {}
        for label in TIMED:
            out[label + ".calls"] = (self.calls[label], "count")
            out[label + ".self_s"] = (self.self_s.get(label, 0.0), "s")
            out[label + ".incl_s"] = (self.incl_s.get(label, 0.0), "s")
        c = self.counts
        lp_calls = self.calls["simplex.solve_lp"]
        out["simplex.solve_lp.repeat_ratio"] = (_ratio(c["simplex.solve_lp.repeats"], lp_calls), "ratio")
        out["simplex.solve_lp.eq_pair_rows"] = (c["simplex.solve_lp.eq_pair_rows"], "count")
        out["simplex.solve_lp.max_bits"] = (c["simplex.solve_lp.max_bits"], "bits")
        out["qp.qp_min.iterations"] = (c["qp.qp_min.iterations"], "count")
        out["qp.qp_min.infeasible_ratio"] = (
            _ratio(c["qp.qp_min.infeasible"], self.calls["qp.qp_min"]), "ratio")
        probes = c["rounding.grow_simplex.probes"]
        out["rounding.grow_simplex.probes"] = (probes, "count")
        out["rounding.grow_simplex.accept_ratio"] = (
            _ratio(c["rounding.grow_simplex.accepted"], probes), "ratio")
        out["lattice.flatness.point_ratio"] = (
            _ratio(c["lattice.flatness.points"], self.calls["lattice.flatness"]), "ratio")
        out["diophantine.parametrize_mixed_integer_solutions.empty_ratio"] = (
            _ratio(c["diophantine.parametrize_mixed_integer_solutions.empty"],
                   self.calls["diophantine.parametrize_mixed_integer_solutions"]), "ratio")
        out["polyhedra.lp_min.calls"] = (self.calls["polyhedra.lp_min"], "count")
        # the first feasibility call of each optimize is the MILP check; the
        # rest are level-set probes
        out["solver.probes"] = (
            c["solver.feasibility_in_optimize"] - self.calls["solver.optimize"], "count")
        out["solver.nodes"] = (c["solver.nodes"], "count")
        for event in NODE_EVENTS:
            out["solver.nodes." + event] = (c["solver.nodes." + event], "count")
        out["solver.bands"] = (c["solver.bands"], "count")
        out["solver.max_depth"] = (c["solver.max_depth"], "count")
        out["cli.parse_instance.self_s"] = (self.self_s.get("cli.parse_instance", 0.0), "s")
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
