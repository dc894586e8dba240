"""Smoke tests of the scripts under tools/."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _interleave(parent, change, *extra, check=True):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleave_rounds.py"), str(parent),
         str(change), "--workload", "exact", "--rounds", "1", *extra],
        capture_output=True, text=True, check=check, timeout=300,
    )


def test_interleave_rounds_runs_a_tree_against_itself():
    done = _interleave(ROOT, ROOT)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rounds"] == 1
    assert result["calls_per_round"] == 7
    assert result["median_s"]["parent"] > 0 and result["median_s"]["change"] > 0
    assert result["median_s_by_first"]["change_first"]["parent"] is None
    labels = ["verify-n16", "verify-n17", "cuts-exact-n17", "verify-n18", "cuts-exact-n18",
              "verify-n19", "cuts-exact-n19"]
    assert list(result["op_median_s"]) == labels
    for label in labels:
        medians = result["op_median_s"][label]
        assert set(medians) == {"parent", "change"} and min(medians.values()) > 0
    assert "op_peak_mib" not in result


def test_interleave_rounds_reports_each_calls_peak():
    result = json.loads(_interleave(ROOT, ROOT, "--peaks").stdout.splitlines()[-1])
    assert len(result["op_peak_mib"]) == result["calls_per_round"] == 7
    for peaks in result["op_peak_mib"].values():
        assert set(peaks) == {"parent", "change"} and min(peaks.values()) > 0


def test_interleave_rounds_fails_when_outputs_differ(tmp_path):
    shutil.copytree(ROOT / "src" / "hyperlap", tmp_path / "src" / "hyperlap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    report = tmp_path / "src" / "hyperlap" / "report.py"
    report.write_text(report.read_text() + "\n_dumps = dumps\n"
                      "def dumps(payload):\n    return _dumps(payload) + ' '\n")
    done = _interleave(ROOT, tmp_path, check=False)
    assert done.returncode == 1
    assert "outputs differ" in done.stderr
