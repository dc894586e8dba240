#!/usr/bin/env python3
"""Time two hyperlap trees on one perfbench workload, interleaved in one
process.

    python3 tools/interleave_rounds.py PARENT CHANGE --workload exact --rounds 40

PARENT and CHANGE are checkouts of this repository.  Each tree's
``src/hyperlap`` is copied into a temporary directory under its own package
name, so both import side by side.  The round is the workload's list of CLI
calls, at seed 1, from ``perfbench/workloads.py`` of the repository holding
this script, with its inputs written once and shared.  After one untimed
warm-up round per tree, rounds alternate which tree runs first, starting
with the parent.  Every call's (exit code, stdout, stderr) must be equal in
the two trees, or the script exits 1.  Alternating in one process cancels
most of a shared host's drift, which separate runs in fresh directories do
not.

The last stdout line is JSON: the median round seconds of each tree, overall
and by which tree ran first, and the median of the per-round ratios
parent / change (above 1 when the change is faster).
"""

import os

# One thread, as perfbench runs: numpy's BLAS would start one per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib
import io
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

TREES = ("parent", "change")


def load_tree(root: Path, name: str, directory: Path):
    """The hyperlap of checkout ``root``, imported as package ``name``."""
    shutil.copytree(root / "src" / "hyperlap", directory / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    package = importlib.import_module(name)
    importlib.import_module(f"{name}.cli")
    package.warm_up()
    return package


def call(package, argv) -> tuple:
    """(exit code or the exception raised, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = package.cli.run(list(argv))
        except Exception as exc:  # a known fault of a workload raises
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def run_round(package, ops) -> tuple:
    """(wall seconds of all calls, outputs) of one round."""
    outputs, seconds = [], 0.0
    for op in ops:
        start = time.perf_counter()
        outputs.append(call(package, op.argv))
        seconds += time.perf_counter() - start
    return seconds, outputs


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        tmp = Path(tmp)
        (tmp / "pkgs").mkdir()
        sys.path.insert(0, str(tmp / "pkgs"))
        packages = {name: load_tree(root.resolve(), f"hyperlap_{name}", tmp / "pkgs")
                    for name, root in zip(TREES, (args.parent, args.change))}
        warm = workloads.warm_up_ops(tmp)
        ops = workloads.build_ops(args.workload, 1, tmp)
        for name in TREES:
            run_round(packages[name], warm)

        times = {name: [] for name in TREES}
        first = []
        for r in range(args.rounds):
            order = TREES if r % 2 == 0 else TREES[::-1]
            outputs = {}
            for name in order:
                seconds, outputs[name] = run_round(packages[name], ops)
                times[name].append(seconds)
            first.append(order[0])
            for op, p, c in zip(ops, outputs["parent"], outputs["change"]):
                if p != c:
                    print(f"error: round {r}, call {op.label}: outputs differ",
                          file=sys.stderr)
                    return 1

    def by_first(name, lead):
        return median([t for t, f in zip(times[name], first) if f == lead])

    result = {
        "workload": args.workload,
        "rounds": args.rounds,
        "calls_per_round": len(ops),
        "median_s": {name: median(times[name]) for name in TREES},
        "median_s_by_first": {f"{lead}_first": {name: by_first(name, lead) for name in TREES}
                              for lead in TREES},
        "ratio_median": median([p / c for p, c in zip(times["parent"], times["change"])]),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
