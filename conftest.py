import os
import sys
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis still caches the constants it reads from local
# modules; that cache goes to a temporary directory removed at exit, so a
# run leaves no .hypothesis/ directory behind.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_hypothesis_home.name)
