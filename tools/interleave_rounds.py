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
and by which tree ran first, the median of the per-round ratios
parent / change (above 1 when the change is faster), and each operation's
median seconds in each tree, keyed by the operation's label.

With ``--peaks``, one more untimed round per tree, after the timed ones,
traces each call with ``tracemalloc``, and the JSON gains each operation's
peak in MiB in each tree (``op_peak_mib``): the memory the program itself
allocates, without the interpreter, the compiled code or the allocator's
layout that a resident-set figure includes.
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
import tracemalloc
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
    """(wall seconds of each call, outputs) of one round."""
    outputs, seconds = [], []
    for op in ops:
        start = time.perf_counter()
        outputs.append(call(package, op.argv))
        seconds.append(time.perf_counter() - start)
    return seconds, outputs


def peak_round(package, ops) -> list:
    """The tracemalloc peak, in MiB, of each call of one round."""
    peaks = []
    for op in ops:
        tracemalloc.start()
        try:
            call(package, op.argv)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    return peaks


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--peaks", action="store_true",
                        help="add an untimed round per tree that reports each call's "
                             "tracemalloc peak")
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
        op_times = {op.label: {name: [] for name in TREES} for op in ops}
        first = []
        for r in range(args.rounds):
            order = TREES if r % 2 == 0 else TREES[::-1]
            outputs = {}
            for name in order:
                seconds, outputs[name] = run_round(packages[name], ops)
                times[name].append(sum(seconds))
                for op, s in zip(ops, seconds):
                    op_times[op.label][name].append(s)
            first.append(order[0])
            for op, p, c in zip(ops, outputs["parent"], outputs["change"]):
                if p != c:
                    print(f"error: round {r}, call {op.label}: outputs differ",
                          file=sys.stderr)
                    return 1
        peaks = {name: peak_round(packages[name], ops) for name in TREES} if args.peaks else None

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
        "op_median_s": {label: {name: median(t[name]) for name in TREES}
                        for label, t in op_times.items()},
    }
    if peaks is not None:
        result["op_peak_mib"] = {op.label: {name: peaks[name][i] for name in TREES}
                                 for i, op in enumerate(ops)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
