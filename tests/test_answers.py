"""`tools/answers.py` prints every corpus and fixture answer, the same bytes
on every run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import miqcp.cli

ROOT = Path(__file__).resolve().parent.parent


def _answers(hash_seed: int) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    return subprocess.run([sys.executable, str(ROOT / "tools" / "answers.py")], env=env,
                          capture_output=True, check=True).stdout


def test_answers_are_byte_identical_across_hash_seeds():
    # --trace must stay byte-identical across reruns, whatever set and dict
    # orders the hash seed gives
    first = _answers(0)
    assert first == _answers(12345)
    doc = json.loads(first)
    assert len(doc["corpus"]) == 60
    assert any(entry["trace"]["nodes"] for entry in doc["corpus"])
    fixtures = sorted(path.name for path in (ROOT / "fixtures").glob("*.json"))
    assert sorted(doc["fixtures"]) == fixtures
    for outputs in doc["fixtures"].values():
        assert sorted(outputs) == sorted(miqcp.cli.COMMANDS)
        assert all(set(modes) == {"plain", "trace"} for modes in outputs.values())
