"""Backticked code references in the README and the package's own source
name things that exist: a stale name left behind by a removed helper
fails here rather than misleading a reader."""

import importlib
import pkgutil
import re
from pathlib import Path

import miqcp

ROOT = Path(__file__).resolve().parent.parent
MODULES = {info.name: importlib.import_module("miqcp." + info.name)
           for info in pkgutil.iter_modules(miqcp.__path__)}


def _references():
    """(file name, text) for every backticked span of README.md and
    src/miqcp/*.py that lies on one line."""
    files = [ROOT / "README.md", *sorted((ROOT / "src" / "miqcp").glob("*.py"))]
    return [(path.name, ref) for path in files
            for ref in re.findall(r"`([^`\n]+)`", path.read_text())]


def test_every_qualified_reference_resolves():
    # `module.name` with module one of miqcp's modules
    qualified = [(f, ref, *m.groups()) for f, ref in _references()
                 if (m := re.fullmatch(r"([a-z_]+)\.([A-Za-z_]\w*)", ref)) and m[1] in MODULES]
    assert len(qualified) > 15
    missing = [(f, ref) for f, ref, module, name in qualified if not hasattr(MODULES[module], name)]
    assert missing == []


def test_every_private_name_resolves():
    # a bare `_name` is an attribute of some miqcp module or of a class
    # defined in one
    owners = [*MODULES.values()]
    owners += [v for module in MODULES.values() for v in vars(module).values()
               if isinstance(v, type) and v.__module__ == module.__name__]
    private = [(f, ref) for f, ref in _references() if re.fullmatch(r"_\w+", ref)]
    assert len(private) > 30
    missing = [(f, ref) for f, ref in private if not any(hasattr(o, ref) for o in owners)]
    assert missing == []
