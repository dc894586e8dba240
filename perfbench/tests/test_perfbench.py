"""Tests of the benchmark itself: its checks count wrong answers as failed
calls, its inputs repeat from a seed, and tracing leaves stdout untouched.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

hyperlap = run.import_program()


def cli_run(argv):
    return hyperlap.cli.run(argv)


def real_stdout(op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert hyperlap.cli.run(list(op.argv)) == 0
    return out.getvalue()


def counted_failed(op, stdout: str) -> bool:
    """Run op against a fake CLI printing stdout; True if the call failed."""

    def fake(argv):
        sys.stdout.write(stdout)
        return 0

    _, failure = run.run_op(op, fake, run.Judge())
    return failure is not None


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    inp = workloads.make_input("test-n10", 1, 10, 14, 2, 4)
    path = str(tmp_path_factory.mktemp("inputs") / "small.hg")
    Path(path).write_text(inp.text, encoding="utf-8")
    return inp, path


def mutated(stdout: str, change) -> str:
    payload = json.loads(stdout)
    change(payload)
    return json.dumps(payload)


def test_perturbed_eigenvalue_fails(small):
    inp, path = small
    op = Op("spectrum", ["spectrum", path], 1, checks.spectrum(inp))
    good = real_stdout(op)
    assert not counted_failed(op, good)

    def perturb(p):
        p["eigenvalues"][3] += 1e-6

    assert counted_failed(op, mutated(good, perturb))


def test_max_cut_one_below_fails(small):
    inp, path = small
    op = Op("exact", ["cuts", path, "--exact"], 1, checks.cuts_exact(inp))
    good = real_stdout(op)
    assert not counted_failed(op, good)

    def lower(p):
        p["max_cut"] -= 1

    assert counted_failed(op, mutated(good, lower))


def test_sweep_ratio_not_matching_subset_fails(small):
    inp, path = small
    op = Op("sweep", ["cuts", path, "--sweep"], 1, checks.cuts_sweep(inp))
    good = real_stdout(op)
    assert not counted_failed(op, good)

    def skew(p):
        num, den = p["ratio"]["numerator"] + 1, p["ratio"]["denominator"]
        p["ratio"] = {"numerator": num, "denominator": den, "value": num / den}

    assert counted_failed(op, mutated(good, skew))


@pytest.mark.parametrize("field", ["failed", "passed"])
def test_battery_with_failed_hard_check_fails(field):
    op = Op("battery", ["verify", "--random", "8", "6", "2", "4", "5", "3"], 5,
            checks.verify_random(5))
    good = real_stdout(op)
    assert not counted_failed(op, good)

    def fail(p):
        if field == "failed":
            p["hard_checks"][0]["failed"] = 1
            p["hard_checks"][0]["failures"] = ["instance 0: broken"]
        else:
            p["passed"] = False

    assert counted_failed(op, mutated(good, fail))


def test_rejection_needs_one_error_line():
    op = Op("bad", ["spectrum", "bad.hg"], 0, checks.rejected)

    def clean_error(argv):
        print("error: line 1: not UTF-8", file=sys.stderr)
        return 1

    assert run.run_op(op, clean_error, run.Judge())[1] is None
    assert checks.rejected(1, "", "Traceback (most recent call last):\n  ...\n") is not None
    assert checks.rejected(1, "", "error: a\nerror: b\n") is not None
    assert checks.rejected(0, "{}", "") is not None


def test_raising_call_counts_as_failed(small):
    inp, path = small
    op = Op("spectrum", ["spectrum", path], 1, checks.spectrum(inp))

    def crash(argv):
        raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    _, failure = run.run_op(op, crash, run.Judge())
    assert failure.startswith("raised UnicodeDecodeError")


def test_failed_and_rejecting_calls_stay_out_of_timing():
    a, b = Op("a", [], 2, None), Op("b", [], 1, None)
    reject = Op("reject", [], 0, None)
    records = [(a, 1.0, None), (a, 3.0, None), (b, 4.0, None),
               (b, 100.0, "wrong answer"), (reject, 50.0, None)]
    metrics = run.e2e_metrics(records, [0.2, 0.1, 0.3])
    assert metrics["setup_s"] == 0.2
    assert metrics["analyses_per_s"] == 5 / 8.0
    assert metrics["call_gmean_s"] == pytest.approx((2.0 * 4.0) ** 0.5)


def test_changed_output_of_same_call_fails(small):
    inp, path = small
    op = Op("spectrum", ["spectrum", path], 1, checks.spectrum(inp))
    judge = run.Judge()
    good = real_stdout(op)
    assert judge(op, 0, good, "") is None
    assert judge(op, 0, good + " ", "") is not None


def _inputs(workload, seed, directory) -> dict:
    ops = workloads.build_ops(workload, seed, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    argvs = [[a.replace(str(directory), "") for a in op.argv] for op in ops]
    return {"files": files, "argv": argvs}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(tmp_path, workload):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(workload, 7, dirs[0])
    assert first == _inputs(workload, 7, dirs[1])
    assert first != _inputs(workload, 8, dirs[2])


def _stdouts(ops) -> list:
    outs = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = hyperlap.cli.run(list(op.argv))
            except UnicodeDecodeError as exc:
                rc = repr(exc)
        outs.append((rc, out.getvalue(), err.getvalue()))
    return outs


def test_traced_stdout_is_byte_identical(tmp_path):
    ops = workloads.warm_up_ops(tmp_path) + workloads.build_ops("battery", 1, tmp_path)
    bad = tmp_path / "bad.hg"
    bad.write_bytes(workloads.BAD_UTF8)
    ops.append(Op("bad", ["spectrum", str(bad)], 0, checks.rejected))
    plain = _stdouts(ops)
    original = hyperlap.spectral.jacobi_sweeps
    tracer = tracing.Tracer(hyperlap)
    tracer.install()
    try:
        assert hyperlap.spectral.jacobi_sweeps is not original
        traced = _stdouts(ops)
    finally:
        tracer.uninstall()
    assert hyperlap.spectral.jacobi_sweeps is original
    assert traced == plain
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"cli.run", "kernels.jacobi_sweeps", "kernels.subset_scan",
            "hgio.load", "report.dumps"} <= names


def test_two_traced_runs_report_identical_counts(small):
    inp, path = small
    ops = [
        Op("verify", ["verify", path], 1, checks.verify_file(inp)),
        Op("exact", ["cuts", path, "--exact"], 1, checks.cuts_exact(inp)),
        Op("battery", ["verify", "--random", "8", "6", "2", "4", "4", "3"], 4,
           checks.verify_random(4)),
    ]
    counts = []
    for _ in range(2):
        records, metrics, detail = run.traced_rounds(hyperlap, ops, cli_run, run.Judge(), 0.0)
        assert all(failure is None for _, _, failure in records)
        assert not detail["unsteady_counts"]
        counts.append({k: v for k, v in metrics.items() if tracing.UNITS[k] not in ("s", "1/s")})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.scan.calls"] > 0 and counts[0]["verify.instances"] == 5
    assert set(metrics) == set(tracing.UNITS)


def test_self_time_subtracts_children():
    spans = [
        [0, "cli.run", 0.0, 10.0, -1, "x", None],
        [0, "verify.verify_instances", 2.0, 5.0, 0, "x", None],
        [0, "core.laplacian", 3.0, 4.0, 1, "x", None],
    ]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
