"""`scripts/ab.py` run on this checkout against itself: both sides time
the same work, so every stage's outputs hash the same."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_of_a_checkout_against_itself_hashes_equal(tmp_path):
    out = tmp_path / "ab.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), str(ROOT), str(ROOT),
         "--count", "3", "--rounds", "2", "--json", str(out)],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    stages = json.loads(out.read_text(encoding="utf-8"))["stages"]
    assert list(stages) == ["gen", "parse", "print", "subtype", "check", "trace", "sr"]
    for name, row in stages.items():
        assert row["items"] > 0, name
        assert row["parent_sha256"] == row["change_sha256"], name
