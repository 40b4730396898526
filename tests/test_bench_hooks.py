"""The benchmark's layer tracer hooks solver functions by module and name.

`perfbench/layers.py` rebinds each (module, attribute) of its ``LAYERS``
table; a rename in the program would break ``perfbench/run.py --trace 1``.
These tests read the table and check every name still resolves, and that
the calls the tracer counts still take the paths it hooks.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers_table():
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_hooked_name_is_callable():
    table = _layers_table()
    assert table
    for mod_name, attr, _label in table:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_solver_calls_the_hooked_reduction():
    import miqcp.cqs
    import miqcp.solver

    assert miqcp.solver._fulldim_reduce_cqs_impl is miqcp.cqs._fulldim_reduce_cqs_impl
    assert miqcp.cqs._fulldim_reduce_cqs_impl is miqcp.cqs.fulldim_reduce_cqs


def test_sandwich_probes_through_the_hooked_feasible_point(monkeypatch):
    # the tracer counts grow probes as calls of
    # miqcp.rounding.quadratic_feasible_point made inside grow_simplex
    import miqcp.rounding as rounding
    from miqcp.cqs import ConvexQuadraticSet
    from miqcp.polyhedra import Polyhedron
    from miqcp.qp import QpObjective
    from miqcp.rational import Rat

    inside = [0]
    probes = {"in_grow": 0, "outside": 0}
    grow, feasible_point = rounding.grow_simplex, rounding.quadratic_feasible_point

    def counted_grow(*args, **kwargs):
        inside[0] += 1
        try:
            return grow(*args, **kwargs)
        finally:
            inside[0] -= 1

    def counted_point(*args, **kwargs):
        probes["in_grow" if inside[0] else "outside"] += 1
        return feasible_point(*args, **kwargs)

    monkeypatch.setattr(rounding, "grow_simplex", counted_grow)
    monkeypatch.setattr(rounding, "quadratic_feasible_point", counted_point)
    # x1^2 + x2^2 <= 4 on [-3, 3]^2 cut by x1 + x2 <= 0, p = 2: the cut
    # row binds, so some grow probes need a QP (the closed form decides the rest)
    rows = [[Rat(1), Rat(0)], [Rat(-1), Rat(0)], [Rat(0), Rat(1)], [Rat(0), Rat(-1)],
            [Rat(1), Rat(1)]]
    poly = Polyhedron(rows, [Rat(3)] * 4 + [Rat(0)], 2)
    q = ConvexQuadraticSet(poly, QpObjective([[Rat(1), Rat(0)], [Rat(0), Rat(1)]],
                                             [Rat(0), Rat(0)]), Rat(4))
    rounding.sandwich(q)
    assert probes["in_grow"] > 0
    assert probes["outside"] == 0
