import subprocess
import sys

import miqcp


def test_every_public_name_resolves():
    missing = [name for name in miqcp.__all__ if not hasattr(miqcp, name)]
    assert missing == []
    assert len(set(miqcp.__all__)) == len(miqcp.__all__)


def test_star_import():
    namespace = {}
    exec("from miqcp import *", namespace)
    assert {"MiqcpError", "optimize", "Rat"} <= namespace.keys()
