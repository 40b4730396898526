"""The benchmark's layer tracer hooks solver functions by module and name.

`perfbench/layers.py` rebinds each (module, attribute) of its ``LAYERS``
table; a rename in the program would break ``perfbench/run.py --trace 1``.
These tests read the table and check every name still resolves.
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
