"""Acceptance gate: the eleven shipping criteria, one pass/fail line each.

Each criterion prints exactly one summary line (bypassing capture) and
enforces its stated tolerance and runtime budget.  Batteries are shared
between criteria that specify "the same instances"; the first criterion to
touch a battery pays its construction cost inside its own budget.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import hyperlap as hl


@contextmanager
def criterion(capsys, idx, budget_s, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {idx:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"criterion {idx:2d}: PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {idx} took {elapsed:.2f}s > {budget_s}s"


@lru_cache(maxsize=None)
def _connected_300():
    # n <= 9, edge sizes 2-4, connected, fixed seed schedule
    return tuple(
        hl.varied_battery(300, base_seed=20250601, n_lo=4, n_hi=9,
                          k_lo=2, k_hi=4, require="connected")
    )


@lru_cache(maxsize=None)
def _connected_300_report():
    return hl.verify_instances(_connected_300(), source="acceptance battery")


@lru_cache(maxsize=None)
def _nonuniform_500_report():
    battery = hl.varied_battery(500, base_seed=4040, n_lo=4, n_hi=9,
                                k_lo=2, k_hi=4, require="nonuniform")
    return hl.verify_instances(battery, source="nonuniform battery")


@lru_cache(maxsize=None)
def _mixed_500():
    return tuple(
        hl.varied_battery(500, base_seed=6060, n_lo=4, n_hi=9, k_lo=2, k_hi=4)
    )


def _check(report, name):
    return next(c for c in report.hard_checks if c.name == name)


def _claim(report, name):
    return next(r for r in report.recorded if r.name == name)


def test_criterion_01_complete_kgraph_spectra(capsys):
    with criterion(capsys, 1, 5.0, "complete k-graph closed-form spectra, "
                   "all 2 <= k <= n <= 8, 1e-8"):
        for n in range(2, 9):
            for k in range(2, n + 1):
                want = hl.complete_kgraph_spectrum(n, k).expand()
                got = hl.analyze(hl.complete_kgraph(n, k)).spectrum
                assert np.abs(got.eigenvalues - want).max() <= 1e-8, (n, k)


def test_criterion_02_star_kgraph_spectra(capsys):
    with criterion(capsys, 2, 5.0, "star k-graph spectra (k <= 5, r <= 4) "
                   "and exact eigenvector templates"):
        for k in range(2, 6):
            for r in range(1, 5):
                h = hl.star_kgraph(k, r)
                want = hl.star_kgraph_spectrum(k, r).expand()
                got = hl.analyze(h).spectrum
                assert np.abs(got.eigenvalues - want).max() <= 1e-8, (k, r)
                lap = hl.analyze(h).laplacian.astype(np.int64)
                basis = hl.star_eigenvector_basis(k, r)
                assert len(basis) == h.n
                for lam, vec in basis:
                    assert np.array_equal(lap @ vec, lam * vec), (k, r, lam)


def _partitions(total, parts_min=2):
    """All non-decreasing part-size vectors with 2..total parts."""
    out = []

    def rec(remaining, minimum, acc):
        if remaining == 0:
            if len(acc) >= parts_min:
                out.append(tuple(acc))
            return
        for part in range(minimum, remaining + 1):
            rec(remaining - part, part, acc + [part])

    rec(total, 1, [])
    return out


def test_criterion_03_kpartite_spectra(capsys):
    with criterion(capsys, 3, 10.0, "complete k-partite plateaus + residual "
                   "polynomial, all size vectors with n <= 9"):
        for n in range(2, 10):
            for sizes in _partitions(n):
                spec = hl.complete_kpartite_spectrum(sizes)
                got = hl.analyze(hl.complete_kpartite(sizes)).spectrum
                lam = got.eigenvalues
                k = len(sizes)
                prod = math.prod(sizes)
                for s in sizes:
                    value = (k - 1) * prod / s
                    mult = int(np.count_nonzero(np.abs(lam - value) <= 1e-8))
                    assert mult >= s - 1, (sizes, s)
                remaining = list(lam)
                for v, m in spec.pairs:
                    for _ in range(m):
                        i = int(np.argmin([abs(x - v) for x in remaining]))
                        assert abs(remaining[i] - v) <= 1e-8, (sizes, v)
                        remaining.pop(i)
                assert len(remaining) == k - 1
                coeffs = np.array(spec.residual_poly, dtype=np.float64)
                bound = 1e-6 * max(1.0, float(np.abs(coeffs).max()))
                for x in remaining:
                    assert abs(np.polyval(coeffs, x)) <= bound, (sizes, x)
        got = hl.analyze(hl.complete_kpartite((2, 2))).spectrum
        assert np.abs(got.eigenvalues - np.array([0.0, 2.0, 2.0, 4.0])).max() <= 1e-8


def test_criterion_04_degree_sum_counterexample(capsys):
    with criterion(capsys, 4, 1.0, "lambda_n = 8.23 +- 0.01 exceeds max "
                   "edge degree sum 8 on {123,124,235,345}"):
        h = hl.Hypergraph.from_edges([(0, 1, 2), (0, 1, 3), (1, 2, 4), (2, 3, 4)], n=5)
        chk = hl.check_edge_degree_sum(h)
        assert abs(chk.lambda_n - 8.23) <= 0.01
        assert chk.edge_max == 8
        assert chk.lambda_n > 8.0
        assert chk.exceeded


def test_criterion_05_worked_example_regression(capsys):
    with criterion(capsys, 5, 1.0, "worked 6-vertex pair: spectra, boundary "
                   "sizes, bound attainment after floor/ceiling"):
        uniform = hl.Hypergraph.from_edges(
            [(0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 4, 5)], n=6
        )
        mixed = hl.Hypergraph.from_edges(
            [(0, 1, 2), (3, 4, 5), (2, 3), (0, 1, 4, 5)], n=6
        )
        uniform, mixed = hl.analyze(uniform), hl.analyze(mixed)
        su, sm = uniform.spectrum, mixed.spectrum
        assert np.abs(su.eigenvalues - np.array([0, 2, 4, 6, 6, 6.0])).max() <= 1e-8
        assert np.abs(sm.eigenvalues - np.array([0, 3, 3, 6, 7, 7.0])).max() <= 1e-8

        assert hl.edge_boundary(uniform, [0, 3])[0] == 4
        assert hl.edge_boundary(uniform, [0, 1, 2])[0] == 2
        assert hl.edge_boundary(mixed, [0, 1, 3])[0] == 4
        assert hl.edge_boundary(mixed, [2])[0] == 2

        # uniform graph: upper bound tight on {0,3}, lower tight on {0,1,2}
        up = hl.boundary_sandwich(uniform, [0, 3])
        assert math.floor(up.upper + 1e-9) == up.boundary_size
        low = hl.boundary_sandwich(uniform, [0, 1, 2])
        assert math.ceil(low.lower - 1e-9) == low.boundary_size

        # non-uniform graph: neither bound attained on the worked subsets
        for subset in ([0, 1, 3], [2]):
            rep = hl.boundary_sandwich(mixed, subset)
            assert math.floor(rep.upper + 1e-9) > rep.boundary_size, subset
            assert math.ceil(rep.lower - 1e-9) < rep.boundary_size, subset


def test_criterion_06_sandwich_battery(capsys):
    with criterion(capsys, 6, 60.0, "300 connected instances, ALL subsets: "
                   "sandwich holds at 1e-8, quadratic identity exact"):
        report = _connected_300_report()
        sandwich = _check(report, "subset_sandwich")
        quad = _check(report, "quadratic_identity")
        assert sandwich.checked == 300
        assert sandwich.failed == 0, sandwich.failures
        assert quad.checked == 300
        assert quad.failed == 0, quad.failures


def test_criterion_07_hard_bound_battery(capsys):
    with criterion(capsys, 7, 30.0, "same instances: proved degree bounds "
                   "hold, pair-sum <= twice-max, Zhu holds on 2-graphs"):
        report = _connected_300_report()
        degree = _check(report, "degree_bounds")
        zhu2 = _check(report, "zhu_two_graph")
        assert degree.checked == 300
        assert degree.failed == 0, degree.failures
        assert zhu2.failed == 0, zhu2.failures


def test_criterion_08_recorded_claims(capsys):
    with criterion(capsys, 8, 60.0, "500 non-uniform instances: scaled-Zhu "
                   "and printed max-cut bound violations recorded"):
        report = _nonuniform_500_report()
        assert report.instance_count == 500
        for name in ("zhu_nonuniform_distinct", "zhu_nonuniform_weighted"):
            claim = _claim(report, name)
            assert claim.checked == 500
            assert claim.violations >= 0
            assert len(claim.witnesses) == min(claim.violations, 5)
            for witness in claim.witnesses:
                assert witness["bound"] < witness["lambda_n"]
        printed = _claim(report, "maxcut_kmax_bound")
        assert printed.checked == 500
        for witness in printed.witnesses:
            assert witness["max_cut"] > witness["bound"]
        # the derived (k_min) version is a hard check and must be clean
        assert _check(report, "maxcut_iso_bounds").failed == 0
        with capsys.disabled():
            for name in ("zhu_nonuniform_distinct", "zhu_nonuniform_weighted",
                         "maxcut_kmax_bound"):
                claim = _claim(report, name)
                print(f"  recorded {name}: {claim.violations}/{claim.checked}"
                      f" violations")


def test_criterion_09_connectivity_equivalence(capsys):
    with criterion(capsys, 9, 20.0, "500 instances incl. disconnected: "
                   "spectral vs union-find, zero multiplicity = components"):
        battery = _mixed_500()
        report = hl.verify_instances(battery, source="connectivity battery")
        agreement = _check(report, "connectivity_agreement")
        assert agreement.checked == 500
        assert agreement.failed == 0, agreement.failures
        disconnected = sum(
            1 for _, h in battery if len(hl.connected_components(h)) > 1
        )
        assert disconnected > 0  # the battery must exercise both outcomes
        with capsys.disabled():
            print(f"  battery: {disconnected}/500 disconnected instances")


def test_criterion_10_brute_force_oracles(capsys):
    with criterion(capsys, 10, 10.0, "exact mc/phi on the uniform example; "
                   "sweep ratio never beats phi on the battery"):
        uniform = hl.Hypergraph.from_edges(
            [(0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 4, 5)], n=6
        )
        summary = hl.connectivity_summary(uniform)
        assert summary.max_cut == 4
        assert summary.max_cut_bound_kmin == pytest.approx(4.5, abs=1e-8)
        assert summary.max_cut <= summary.max_cut_bound_kmin
        assert summary.isoperimetric == Fraction(2, 3)
        assert summary.iso_lower_bound == pytest.approx(4.0 / 9.0, abs=1e-8)
        assert summary.isoperimetric >= summary.iso_lower_bound

        sweep = _check(_connected_300_report(), "sweep_ratio")
        assert sweep.checked == 300
        assert sweep.failed == 0, sweep.failures


def test_criterion_11_cli_determinism(capsys):
    with criterion(capsys, 11, 60.0, "verify --random 8 6 2 4 100 12345 "
                   "twice: byte-identical output"):
        cmd = [sys.executable, "-m", "hyperlap.cli", "verify", "--random",
               "8", "6", "2", "4", "100", "12345"]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0
