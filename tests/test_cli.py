"""End-to-end CLI behavior: subcommands, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl
from hyperlap import cli, core, generators, verify


@pytest.fixture
def uniform_file(tmp_path, g_uniform_cycle):
    # 1-based labels so subsets can be addressed the way the docs do
    h = hl.Hypergraph.from_edges(
        g_uniform_cycle.edges, n=6, labels=tuple(str(i) for i in range(1, 7))
    )
    path = tmp_path / "uniform.hg"
    hl.dump(h, str(path))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path, g_mixed_sizes):
    h = hl.Hypergraph.from_edges(
        g_mixed_sizes.edges, n=6, labels=tuple(str(i) for i in range(1, 7))
    )
    path = tmp_path / "mixed.hg"
    hl.dump(h, str(path))
    return str(path)


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_complete_triples(self, capsys, tmp_path):
        out = tmp_path / "c.hg"
        code, _, _ = _run(capsys, "gen", "complete", "--n", "4", "--k", "3",
                          "-o", str(out))
        assert code == 0
        code, stdout, _ = _run(capsys, "spectrum", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["eigenvalues"] == [0.0, 8.0, 8.0, 8.0]
        assert payload["connected"] is True
        assert payload["k_min"] == 3 and payload["k_max"] == 3

    def test_stdin_dash(self, capsys, monkeypatch, g_mixed_sizes):
        data = hl.dumps(g_mixed_sizes).encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, stdout, _ = _run(capsys, "spectrum", "-")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["input"] == "<stdin>"
        assert payload["lambda_n"] == pytest.approx(7.0, abs=1e-8)

    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, "spectrum", "no-such-file.hg")
        assert code == 1
        assert "error" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_text("a b\nc\n")
        code, _, err = _run(capsys, "spectrum", str(bad))
        assert code == 1
        assert "line 2" in err


class TestBounds:
    def test_bare_array(self, capsys, mixed_file):
        code, stdout, _ = _run(capsys, "bounds", mixed_file)
        assert code == 0
        payload = json.loads(stdout)
        assert isinstance(payload, list)
        assert [e["name"] for e in payload] == [
            "twice_max_laplacian_degree",
            "adjacent_laplacian_degree_sum",
            "zhu_nonuniform",
            "zhu_nonuniform_weighted",
        ]
        assert all(e["holds"] for e in payload)
        by_name = {e["name"]: e for e in payload}
        assert by_name["zhu_nonuniform"]["value"] == pytest.approx(15.0)
        assert by_name["zhu_nonuniform"]["witness"] == ["3", "4"]


class TestCuts:
    def test_subset(self, capsys, uniform_file):
        code, stdout, _ = _run(capsys, "cuts", uniform_file, "--subset", "1,4")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["boundary_size"] == 4
        assert payload["subset"] == ["1", "4"]
        assert payload["upper"] == pytest.approx(4.0, abs=1e-8)

    def test_subset_unknown_label(self, capsys, uniform_file):
        code, _, err = _run(capsys, "cuts", uniform_file, "--subset", "1,9")
        assert code == 1
        assert "unknown vertex label" in err

    def test_subset_repeated_label_is_named(self, capsys, tmp_path):
        # Labels are interned in first-appearance order, so "b" is vertex 0.
        path = tmp_path / "ba.hg"
        path.write_text("b a\n")
        code, stdout, err = _run(capsys, "cuts", str(path), "--subset", "a, b,a")
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error: subset repeats vertex label 'a'"]

    def test_exact(self, capsys, uniform_file):
        code, stdout, _ = _run(capsys, "cuts", uniform_file, "--exact")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["max_cut"] == 4
        assert payload["isoperimetric"] == {
            "numerator": 2,
            "denominator": 3,
            "value": 0.6666666667,
        }
        assert payload["iso_witness"] == ["1", "2", "3"]

    def test_sweep(self, capsys, tmp_path, path4):
        path = tmp_path / "p4.hg"
        hl.dump(path4, str(path))
        code, stdout, _ = _run(capsys, "cuts", str(path), "--sweep")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["subset"] == ["0", "1"]
        assert payload["ratio"]["numerator"] == 1
        assert payload["ratio"]["denominator"] == 2

    def test_flags_are_exclusive(self, capsys, uniform_file):
        code, _, err = _run(capsys, "cuts", uniform_file, "--exact", "--sweep")
        assert code == 1
        code, _, err = _run(capsys, "cuts", uniform_file)
        assert code == 1


class TestGen:
    def test_round_trip_random(self, capsys):
        code, stdout, _ = _run(capsys, "gen", "random", "--n", "7", "--m", "5",
                               "--kmin", "2", "--kmax", "4", "--seed", "11")
        assert code == 0
        back = hl.loads(stdout)
        want = hl.random_hypergraph(n=7, m=5, k_min=2, k_max=4, seed=11)
        assert back.n == want.n and back.edges == want.edges

    def test_kpartite_and_star(self, capsys):
        code, stdout, _ = _run(capsys, "gen", "kpartite", "--sizes", "2,2")
        assert code == 0
        assert hl.loads(stdout).edges == ((0, 2), (0, 3), (1, 2), (1, 3))
        code, stdout, _ = _run(capsys, "gen", "star", "--k", "3", "--r", "2")
        assert code == 0
        assert hl.loads(stdout).edges == ((0, 1, 2), (0, 3, 4))

    def test_descriptor_comment(self, capsys):
        code, stdout, _ = _run(capsys, "gen", "complete", "--n", "4", "--k", "2")
        assert code == 0
        assert stdout.splitlines()[0] == "# complete n=4 k=2"

    def test_missing_flags(self, capsys):
        code, _, err = _run(capsys, "gen", "complete", "--n", "4")
        assert code == 1
        assert "--k" in err
        code, _, err = _run(capsys, "gen", "random", "--n", "5")
        assert code == 1
        assert "--seed" in err

    def test_bad_sizes(self, capsys):
        code, _, err = _run(capsys, "gen", "kpartite", "--sizes", "2,x")
        assert code == 1
        assert "part sizes" in err

    def test_bad_family(self, capsys):
        code, _, _ = _run(capsys, "gen", "grid", "--n", "4")
        assert code == 1

    def test_oversized_family_is_one_error_line(self, capsys, monkeypatch):
        monkeypatch.setattr(generators, "MAX_MEMBERS", comb(6, 3) * 3 - 1)
        code, stdout, err = _run(capsys, "gen", "complete", "--n", "6", "--k", "3")
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            "error: complete n=6 k=3 has 60 edge members in total,"
            " above the limit of 59"
        ]

    @pytest.mark.parametrize("command", [
        ("gen", "random", "--n", "8", "--m", "1", "--kmin", "2", "--kmax", "2",
         "--seed", "1"),
        ("verify", "--random", "8", "1", "2", "2", "3", "1"),
    ])
    def test_oversized_vertex_count_is_one_error_line(
        self, capsys, monkeypatch, command
    ):
        # The !vertices line of a random hypergraph holds all n labels.
        monkeypatch.setattr(generators, "MAX_MEMBERS", 7)
        code, stdout, err = _run(capsys, *command)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["error: vertex count 8 is above the limit of 7"]

    @pytest.mark.parametrize("command", [
        ("spectrum", "eight.hg"),
        ("verify", "--random", "8", "1", "2", "2", "1", "1"),
    ])
    def test_oversized_dense_stage_is_one_error_line(
        self, capsys, monkeypatch, tmp_path, command
    ):
        # The n-by-n matrices are refused from n alone, before the adjacency
        # is allocated.
        monkeypatch.chdir(tmp_path)
        hl.dump(hl.Hypergraph.from_edges([(0, 1)], n=8), "eight.hg")
        monkeypatch.setattr(core, "MAX_DENSE_BYTES", core.dense_bytes(8) - 1)
        code, stdout, err = _run(capsys, *command)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            "error: n=8 needs an estimated 5120 bytes for its n-by-n matrices,"
            " above the budget of 5119"
        ]

    def test_oversized_scan_is_one_error_line_before_allocating(
        self, capsys, tmp_path
    ):
        # n = 29 is the first n whose subset scan, 20 bytes for each of its
        # 2**28 subsets, is over the 4 GiB budget.  The refusal comes before
        # the scan's table, or any n-by-n matrix, is allocated.
        path = str(tmp_path / "r29.hg")
        hl.dump(hl.random_hypergraph(29, 87, 2, 4, 7), path)
        tracemalloc.start()
        try:
            code, stdout, err = _run(capsys, "cuts", path, "--exact")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [
            "error: n=29 needs an estimated 5368709120 bytes for its subset scan,"
            " above the budget of 4294967296"
        ]
        assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


class TestVerify:
    def test_file_above_twenty_vertices_reports_exact_cuts(self, capsys, tmp_path):
        h = hl.random_hypergraph(21, 63, 2, 4, 7)
        path = str(tmp_path / "r21.hg")
        hl.dump(h, path)
        code, stdout, _ = _run(capsys, "verify", path)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        value, witness = hl.max_cut(h)
        assert payload["cuts"]["max_cut"] == value > 0
        assert payload["cuts"]["max_cut_witness"] == [str(v) for v in witness]

    def test_file_report(self, capsys, mixed_file):
        code, stdout, _ = _run(capsys, "verify", mixed_file)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert payload["spectrum"] == [0.0, 3.0, 3.0, 6.0, 7.0, 7.0]
        assert payload["cuts"]["max_cut_bound_kmin"] == pytest.approx(10.5)
        assert all(c["failed"] == 0 for c in payload["hard_checks"])

    def test_random_battery(self, capsys):
        code, stdout, _ = _run(capsys, "verify", "--random",
                               "6", "4", "2", "3", "10", "7")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["passed"] is True
        assert payload["instances"] == 10
        assert all(c["checked"] == 10 for c in payload["hard_checks"])

    def test_random_battery_deterministic(self, capsys):
        args = ("verify", "--random", "6", "4", "2", "3", "8", "3")
        _, first, _ = _run(capsys, *args)
        _, second, _ = _run(capsys, *args)
        assert first == second

    def test_file_and_random_conflict(self, capsys, mixed_file):
        code, _, err = _run(capsys, "verify", mixed_file, "--random",
                            "5", "3", "2", "3", "2", "0")
        assert code == 1
        assert "not both" in err

    def test_random_battery_rejects_negative_count(self, capsys):
        code, stdout, err = _run(capsys, "verify", "--random",
                                 "5", "3", "2", "3", "-1", "1")
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["error: instance count must be >= 0, got -1"]

    def test_needs_some_input(self, capsys):
        code, _, err = _run(capsys, "verify")
        assert code == 1

    def test_hard_failure_exits_two(self, capsys, monkeypatch, mixed_file):
        # no honest instance can fail a hard check (they are theorems), so
        # fake a failing report to pin the exit-code contract
        def broken(instances, source):
            chk = verify.CheckResult("laplacian_structure")
            chk.record("x", "forced failure")
            return verify.VerifyReport(source, 1, [chk], [])

        monkeypatch.setattr(cli, "verify_instances", broken)
        code, stdout, _ = _run(capsys, "verify", mixed_file)
        assert code == 2
        assert json.loads(stdout)["passed"] is False

        code, stdout, _ = _run(capsys, "verify", "--random",
                               "5", "3", "2", "3", "2", "0")
        assert code == 2


class TestTopLevel:
    def test_no_arguments(self, capsys):
        assert _run(capsys)[0] == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, "nonsense")
        assert code == 1
        assert "usage" in err

    def test_help_exits_zero(self, capsys):
        code, stdout, _ = _run(capsys, "--help")
        assert code == 0
        assert "spectrum" in stdout


class TestParserIsBuiltOnce:
    # `run` keeps the parser it built first; each call must print what a
    # freshly built parser gives.
    def test_calls_match_a_fresh_parser(self, capsys, mixed_file):
        calls = [["spectrum", mixed_file], ["cuts", mixed_file, "--exact"],
                 ["cuts", mixed_file, "--sweep", "--exact"], ["--help"],
                 ["spectrum", mixed_file]]
        fresh = []
        for argv in calls:
            cli._build_parser.cache_clear()
            fresh.append(_run(capsys, *argv))
        cli._build_parser.cache_clear()
        kept = [_run(capsys, *argv) for argv in calls]
        assert cli._build_parser.cache_info().misses == 1
        assert kept == fresh
        assert [code for code, _, _ in kept] == [0, 0, 1, 0, 0]

    def test_importing_the_cli_builds_no_parser(self):
        code = ("import hyperlap.cli as cli; "
                "assert cli._build_parser.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestInputEdgeCases:
    def test_non_utf8_file_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(b"\xff\xfe a b\n")
        code, stdout, err = _run(capsys, "spectrum", str(bad))
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error: line 1: invalid UTF-8 byte 0xff"]

    def test_non_utf8_stdin_is_one_error_line(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(b"\xff\xfe a b\n"))
        monkeypatch.setattr("sys.stdin", stdin)
        code, stdout, err = _run(capsys, "cuts", "-", "--sweep")
        assert code == 1
        assert stdout == ""
        assert err.splitlines() == ["error: line 1: invalid UTF-8 byte 0xff"]

    @pytest.mark.parametrize(
        "text",
        [b"!vertices a b c\na b\nb c\n", b"# comment\na b\nb c\n"],
        ids=["directive", "comment"],
    )
    @pytest.mark.parametrize("stdin", [False, True], ids=["path", "stdin"])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, monkeypatch,
                                        text, stdin):
        # The report of a file with a leading BOM is the report without it.
        def report(data):
            path = tmp_path / "input.hg"
            path.write_bytes(data)
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            return _run(capsys, "verify", "-" if stdin else str(path))

        plain = report(text)
        assert plain[0] == 0 and json.loads(plain[1])["n"] == 3
        assert report(b"\xef\xbb\xbf" + text) == plain

    @pytest.mark.parametrize(
        "text, bounds",
        [
            # lambda_n is undefined on one vertex, so no bound is reported
            ("!vertices a\n", []),
            ("!vertices a b\n", ["twice_max_laplacian_degree"]),
        ],
    )
    def test_verify_without_edges(self, capsys, tmp_path, text, bounds):
        path = tmp_path / "small.hg"
        path.write_text(text)
        code, stdout, _ = _run(capsys, "verify", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert [b["name"] for b in payload["bounds"]] == bounds
        assert payload["cuts"] is None
        assert payload["passed"] is True
        assert all(c["failed"] == 0 for c in payload["hard_checks"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=40),
        st.lists(st.sampled_from([b"a", b"b", b"c", b"d", b" ", b"\n", b"#",
                                  b"!vertices", b"\xff", b"\xc3", b"\t"]),
                 max_size=20).map(b"".join),
    ),
    argv=st.sampled_from([["spectrum"], ["cuts", "--sweep"]]),
    stdin=st.booleans(),
)
def test_arbitrary_bytes_give_a_report_or_one_error_line(fuzz_dir, data, argv, stdin):
    path = fuzz_dir / "input.hg"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        mp = stack.enter_context(pytest.MonkeyPatch.context())
        mp.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.run([argv[0], "-" if stdin else str(path), *argv[1:]])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert code == 1
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
