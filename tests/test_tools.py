"""Smoke tests of the scripts under tools/."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _interleave(parent, change, check=True):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave_rounds.py"), str(parent),
         str(change), "--workload", "exact", "--rounds", "1"],
        capture_output=True, text=True, check=check, timeout=300,
    )


def test_interleave_rounds_runs_a_tree_against_itself():
    done = _interleave(ROOT, ROOT)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rounds"] == 1
    assert result["calls_per_round"] == 7
    assert result["median_s"]["parent"] > 0 and result["median_s"]["change"] > 0
    assert result["median_s_by_first"]["change_first"]["parent"] is None


def test_interleave_rounds_fails_when_outputs_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "hyperlap", tmp_path / "src" / "hyperlap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "hyperlap" / "report.py"
    report.write_text(report.read_text() + "\n_dumps = dumps\n"
                      "def dumps(payload):\n    return _dumps(payload) + ' '\n")
    done = _interleave(ROOT, tmp_path, check=False)
    assert done.returncode == 1
    assert "outputs differ" in done.stderr
