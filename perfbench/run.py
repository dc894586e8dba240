#!/usr/bin/env python3
"""Benchmark of the hyperlap CLI, driven in-process through ``cli.run``.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 18 --trace 0

Run from the repository root; the program is imported from ``src``.  The
workload's inputs are generated from ``--seed``, then whole rounds of CLI
calls repeat until ``--seconds`` have passed, and every output is checked.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate and it carries the
per-layer metrics.  The line before it holds the run's details and the
machine facts, which also go to ``perfbench/out/``, with the spans of a
traced run.  See perfbench/README.md.
"""

import os

# One process and no extra threads: numpy's BLAS would start one per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib.util
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "analyses_per_s": "1/s",
    "call_gmean_s": "s",
    "peak_rss_mib": "MiB",
}
# What every CLI call pays before it starts work.
SETUP_CODE = "import hyperlap; hyperlap.warm_up()"
SETUP_REPEATS = 15


def import_program():
    """The hyperlap under ``src`` of this checkout, or exit 1."""
    try:
        import hyperlap
        import hyperlap.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import hyperlap from {SRC}: {exc}")
    if Path(hyperlap.__file__).resolve().parent != SRC / "hyperlap":
        sys.exit(f"error: imported hyperlap from {hyperlap.__file__}, not {SRC}")
    return hyperlap


def machine_facts(hyperlap) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": hyperlap.backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "HYPERLAP_NO_NUMBA": os.environ.get("HYPERLAP_NO_NUMBA"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def measure_setup(repeats: int) -> list:
    """Wall seconds of fresh interpreters that import hyperlap and warm it up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(repeats):
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class Judge:
    """Checks each call.  A later call that prints what the first call of the
    same operation printed gets the same verdict; one that prints anything
    else fails, since reports must be byte-reproducible."""

    def __init__(self):
        self._first = {}

    def __call__(self, op, rc, out: str, err: str):
        seen = self._first.get(op.label)
        if seen is None:
            verdict = op.check(rc, out, err)
            self._first[op.label] = (rc, out, err, verdict)
            return verdict
        if (rc, out, err) == seen[:3]:
            return seen[3]
        return "output differs from the first call of the same operation"


def run_op(op, cli_run, judge) -> tuple:
    """(wall seconds, None or why the call failed) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_run(list(op.argv))
    except Exception as exc:  # a crash fails this call, not the run
        seconds = time.perf_counter() - start
        return seconds, "raised " + traceback.format_exception_only(exc)[-1].strip()
    seconds = time.perf_counter() - start
    return seconds, judge(op, rc, out.getvalue(), err.getvalue())


def run_round(ops, cli_run, judge, tracer=None) -> list:
    records = []
    for op in ops:
        if tracer is not None:
            tracer.input_id = op.label
        seconds, failure = run_op(op, cli_run, judge)
        records.append((op, seconds, failure))
    return records


def timed_calls(records) -> list:
    """(op, seconds) of the successful calls that analysed something; only
    these enter the timing metrics."""
    return [(op, s) for op, s, failure in records
            if failure is None and op.analyses > 0]


def e2e_metrics(records, setup_times) -> dict:
    good = timed_calls(records)
    by_kind = {}
    for op, seconds in good:
        by_kind.setdefault(op.label, []).append(seconds)
    return {
        "setup_s": statistics.median(setup_times),
        "analyses_per_s": (sum(op.analyses for op, _ in good) / sum(s for _, s in good)
                           if good else 0.0),
        # Means, not quantiles: a shared host's CPU can switch between a fast
        # and a slow state for seconds to minutes.  A quantile of a run's
        # calls jumps between the two; a mean moves in proportion to the time
        # spent in each.  The geometric mean weighs every kind of call alike,
        # where analyses_per_s is dominated by the heaviest calls.
        "call_gmean_s": (statistics.geometric_mean(
            [statistics.mean(t) for t in by_kind.values()]) if good else 0.0),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_rounds(hyperlap, ops, cli_run, judge, deadline) -> tuple:
    """Alternate untraced and traced rounds until the deadline.  Returns the
    call records, the per-layer metrics, the per-round values and spans."""
    tracer = tracing.Tracer(hyperlap)
    # A process's first round pays one-time costs (up to a fifth of an
    # `exact` round), which would make tracing look free; it enters no metric.
    records = run_round(ops, cli_run, judge)
    untraced, traced = [], []
    while not traced or time.perf_counter() < deadline:
        batch = run_round(ops, cli_run, judge)
        untraced.append(sum(s for _, s, _ in batch))
        records += batch
        tracer.round = len(traced)
        tracer.install()
        try:
            batch = run_round(ops, cli_run, judge, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(s for _, s, _ in batch))
        records += batch
    analyses = sum(op.analyses for op in ops)
    own = tracing.self_times(tracer.spans)
    rounds = [tracing.round_metrics(tracer.spans, own, r, analyses)
              for r in range(len(traced))]
    metrics, unsteady = {}, []
    for name, value in rounds[0].items():
        values = [r[name] for r in rounds]
        if tracing.UNITS[name] in ("s", "1/s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = value
            if any(v != value for v in values):
                unsteady.append(name)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    detail = {
        "unsteady_counts": unsteady,
        "round_wall_s": {"untraced": untraced, "traced": traced},
        "rounds": rounds,
        "span_fields": ["round", "name", "start", "end", "parent", "input", "info"],
        "spans": tracer.spans,
    }
    return records, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperlap CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hyperlap = import_program()
    hyperlap.warm_up()
    setup_times = measure_setup(SETUP_REPEATS)

    def cli_run(call_argv):
        return hyperlap.cli.run(call_argv)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        warm = run_round(workloads.warm_up_ops(Path(tmp)), cli_run, Judge())
        ops = workloads.build_ops(args.workload, args.seed, Path(tmp))
        judge = Judge()
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            records, metrics, detail = traced_rounds(hyperlap, ops, cli_run, judge, deadline)
            units = tracing.UNITS
        else:
            records = []
            while not records or time.perf_counter() < deadline:
                records += run_round(ops, cli_run, judge)
            metrics, units, detail = e2e_metrics(records, setup_times), E2E_UNITS, {}

    failures = {}
    for op, _, failure in warm + records:
        if failure is not None:
            failures.setdefault(op.label, failure)
    unexpected = sorted(set(failures) - workloads.KNOWN_FAULTS)
    good = timed_calls(records)
    per_op = {}
    for op, seconds, failure in records:
        per_op.setdefault(op.label, []).append(seconds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(records) // len(ops),
        "calls_sampled": len(good),
        "call_p50_s": statistics.median([s for _, s in good]) if good else 0.0,
        "timed_s": sum(s for _, s in good),
        "setup_samples_s": setup_times,
        "call_times_s": per_op,
        "failures": failures,
        "unexpected_failures": unexpected,
        "machine": machine_facts(hyperlap),
    }
    result = {
        "correct": not unexpected and not detail.get("unsteady_counts"),
        "attempted": len(records),
        "failed": sum(failure is not None for _, _, failure in records),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**info, "result": result}, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps({**info, **detail}))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
