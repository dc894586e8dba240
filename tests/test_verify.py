"""Battery driver: hard-check aggregation and recorded-claim counting."""

from __future__ import annotations

import re
import tracemalloc

import pytest

import hyperlap as hl
from hyperlap import verify
from hyperlap.cuts import sandwich_bounds

HARD_CHECK_NAMES = [
    "laplacian_structure",
    "spectrum_certificates",
    "connectivity_agreement",
    "degree_bounds",
    "zhu_two_graph",
    "subset_sandwich",
    "quadratic_identity",
    "maxcut_iso_bounds",
    "sweep_ratio",
]

RECORDED_NAMES = [
    "zhu_nonuniform_distinct",
    "zhu_nonuniform_weighted",
    "zhu_uniform_k3plus",
    "maxcut_kmax_bound",
    "edge_degree_sum_exceeded",
]


class TestAggregation:
    def test_check_result_counts_and_caps(self):
        chk = hl.CheckResult("demo")
        assert chk.passed
        for i in range(8):
            chk.record(f"inst{i}", None if i % 2 == 0 else "boom")
        assert chk.checked == 8
        assert chk.failed == 4
        assert not chk.passed
        assert len(chk.failures) == 4
        for i in range(20):
            chk.record("x", "boom")
        assert len(chk.failures) == 5  # capped

    def test_recorded_claim_counts_and_caps(self):
        claim = hl.RecordedClaim("demo")
        for i in range(9):
            claim.record({"w": i} if i < 7 else None)
        assert claim.checked == 9
        assert claim.violations == 7
        assert len(claim.witnesses) == 5  # capped

    def test_report_passed_flag(self):
        good = hl.CheckResult("a")
        good.record("x", None)
        bad = hl.CheckResult("b")
        bad.record("x", "broken")
        rep = hl.VerifyReport("unit", 1, [good, bad], [])
        assert not rep.passed
        rep = hl.VerifyReport("unit", 1, [good], [])
        assert rep.passed


class TestVerifyInstances:
    def test_named_examples_pass(self, g_uniform_cycle, g_mixed_sizes,
                                 g_overlap_heavy):
        instances = [
            ("uniform", g_uniform_cycle),
            ("mixed", g_mixed_sizes),
            ("overlap", g_overlap_heavy),
        ]
        report = hl.verify_instances(instances, source="unit")
        assert report.passed
        assert report.instance_count == 3
        assert [c.name for c in report.hard_checks] == HARD_CHECK_NAMES
        assert [r.name for r in report.recorded] == RECORDED_NAMES
        for chk in report.hard_checks:
            assert chk.checked == 3 and chk.failed == 0

    def test_overlap_heavy_feeds_degree_sum_claim(self, g_overlap_heavy):
        report = hl.verify_instances([("x", g_overlap_heavy)], source="unit")
        claim = {r.name: r for r in report.recorded}["edge_degree_sum_exceeded"]
        assert claim.violations == 1
        assert claim.witnesses[0]["edge_max"] == 8
        assert claim.witnesses[0]["instance"] == "x"

    def test_disconnected_and_edgeless_instances_pass(self):
        instances = [
            ("two pieces", hl.Hypergraph.from_edges([(0, 1), (2, 3)], n=4)),
            ("edgeless", hl.Hypergraph.from_edges([], n=3)),
            ("isolated", hl.Hypergraph.from_edges([(0, 1, 2)], n=5)),
        ]
        report = hl.verify_instances(instances, source="unit")
        assert report.passed

    def test_large_instance_uses_sampled_quadratic(self):
        # n = 13 crosses the full-enumeration threshold for the quadratic
        # identity but stays within the subset scan's byte budget
        h = hl.random_hypergraph(n=13, m=10, k_min=2, k_max=4, seed=3)
        report = hl.verify_instances([("big", h)], source="unit")
        assert report.passed

    # n=10 checks every mask; n=16 checks the 256 sampled ones.
    @pytest.mark.parametrize("n", [10, 16])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "pair"])
    def test_quadratic_identity_catches_a_wrong_laplacian(self, n, entry):
        an = hl.analyze(hl.random_hypergraph(n=n, m=2 * n, k_min=2, k_max=4, seed=n))
        assert verify._check_quadratic_identity(an, 0) is None
        lap = an.laplacian.copy()
        i, j = entry
        lap[i, j] += 1.0
        lap[j, i] = lap[i, j]
        vars(an)["laplacian"] = lap  # replace the cached Laplacian
        message = verify._check_quadratic_identity(an, 0)
        assert message is not None
        mask = int(re.fullmatch(r".*\(mask (\d+)\)", message).group(1))
        # The first mask reported is one that the perturbed entry changes.
        assert (mask >> i) & 1 and (mask >> j) & 1

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_subset_sandwich_reports_the_first_offending_mask(self, side):
        an = hl.analyze(hl.random_hypergraph(n=10, m=20, k_min=2, k_max=4, seed=4))
        assert verify._check_subset_sandwich(an, 0) is None
        boundary, sizes = an.scan
        boundary = boundary.copy()
        boundary[[300, 77]] = -1 if side == "below" else 10**6
        vars(an)["scan"] = (boundary, sizes)  # replace the cached scan
        lower, upper = sandwich_bounds(an, int(sizes[77]))
        bound = f"lower bound {lower:.6f}" if side == "below" else f"upper bound {upper:.6f}"
        assert verify._check_subset_sandwich(an, 0) == (
            f"boundary {boundary[77]} {side} {bound} (mask 77)"
        )


class TestBatteries:
    def test_random_battery_shapes_and_names(self):
        battery = hl.random_battery(n=6, m=4, k_min=2, k_max=3, count=5, seed=10)
        assert len(battery) == 5
        names = [name for name, _ in battery]
        assert names[0] == "random(n=6,m=4,k=2..3,seed=10)"
        assert names[4] == "random(n=6,m=4,k=2..3,seed=14)"
        for _, h in battery:
            assert h.n == 6 and h.m == 4

    def test_random_battery_deterministic(self):
        a = hl.random_battery(n=7, m=5, k_min=2, k_max=4, count=8, seed=42)
        b = hl.random_battery(n=7, m=5, k_min=2, k_max=4, count=8, seed=42)
        assert a == b

    def test_varied_battery_deterministic(self):
        a = hl.varied_battery(12, base_seed=7)
        b = hl.varied_battery(12, base_seed=7)
        assert a == b
        assert len(a) == 12

    def test_varied_battery_connected_filter(self):
        for _, h in hl.varied_battery(25, base_seed=3, require="connected"):
            assert hl.analyze(h).connected

    def test_varied_battery_nonuniform_filter(self):
        for _, h in hl.varied_battery(25, base_seed=3, require="nonuniform"):
            dp = hl.degree_profile(h)
            assert dp.k_min < dp.k_max

    def test_varied_battery_respects_size_window(self):
        for _, h in hl.varied_battery(25, base_seed=11, n_lo=5, n_hi=6):
            assert 5 <= h.n <= 6
            assert all(2 <= len(e) <= 4 for e in h.edges)

    def test_small_battery_all_checks_green(self):
        report = hl.verify_instances(
            hl.random_battery(n=7, m=6, k_min=2, k_max=4, count=25, seed=0),
            source="unit battery",
        )
        assert report.passed
        assert report.source == "unit battery"
        assert report.instance_count == 25
        for chk in report.hard_checks:
            assert chk.checked == 25

    def test_battery_reports_are_reproducible(self):
        def run():
            rep = hl.verify_instances(
                hl.random_battery(n=6, m=5, k_min=2, k_max=4, count=10, seed=9),
                source="repeat",
            )
            return (
                [(c.name, c.checked, c.failed, tuple(c.failures))
                 for c in rep.hard_checks],
                [(r.name, r.checked, r.violations) for r in rep.recorded],
            )

        assert run() == run()


@pytest.mark.parametrize("n, m", [(19, 44), (22, 66)])
def test_exact_layer_peak_memory_per_scanned_subset(n, m):
    # The exact checks keep each per-subset array in the scan's own narrow
    # types (int32 boundaries, uint8 sizes), so they trace at most 20 bytes
    # per scanned subset, 2**(n-1) of them: the price core.scan_bytes puts
    # on the scan.
    an = hl.analyze(hl.random_hypergraph(n, m, 2, 4, 3))
    tracemalloc.start()
    try:
        report = verify.verify_instances([(f"r{n}", an)], f"r{n}")
        hl.connectivity_summary(an)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert hl.core.scan_bytes(n) == 20 << (n - 1)
    assert peak <= 20 << (n - 1), f"{peak / 2**20:.2f} MiB"


# Both n are over the scan's budget, so only the n-by-n stages run; the
# eigensolve holds their peak.
@pytest.mark.parametrize("n", [128, 200])
def test_dense_stages_peak_memory_is_within_dense_bytes(n):
    an = hl.analyze(hl.random_hypergraph(n, 5 * n, 2, 4, 3))
    tracemalloc.start()
    try:
        an.spectrum
        an.bounds
        report = verify.verify_instances([(f"r{n}", an)], f"r{n}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= hl.core.dense_bytes(n), f"{peak / hl.core.dense_bytes(n):.3f}"
