"""Battery driver: hard-check aggregation and recorded-claim counting."""

from __future__ import annotations

import dataclasses
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import hyperlap as hl
from hyperlap import bounds, spectral, verify
from hyperlap.cuts import fiedler_sweep, sandwich_bounds

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

    def test_sampled_masks_are_the_randrange_draws(self):
        # The sampler reads SplitMix64 outputs in numpy; the draws it stands
        # for are randrange(2**p), one stream per instance index.
        for index in range(64):
            for p in range(12, 28):
                rng = hl.SplitMix64(0xA5C3 + index)
                want = sorted({rng.randrange(1 << p) for _ in range(verify._QUAD_SAMPLES)})
                got = verify._sampled_masks(index, p)
                assert got.dtype == np.int64 and got.tolist() == want, (index, p)

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
        boundary = an.scan.astype(np.int32)  # a copy wide enough for 10**6
        boundary[[300, 77]] = -1 if side == "below" else 10**6
        vars(an)["scan"] = boundary  # replace the cached scan
        del vars(an)["profile"]  # and the profile read from the old one
        lower, upper = sandwich_bounds(an, (77).bit_count())
        bound = f"lower bound {lower:.6f}" if side == "below" else f"upper bound {upper:.6f}"
        assert verify._check_subset_sandwich(an, 0) == (
            f"boundary {boundary[77]} {side} {bound} (mask 77)"
        )

    @pytest.mark.parametrize("search", [64, verify._SEARCH_MASKS], ids=["chunks", "one_chunk"])
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_subset_sandwich_holds_each_mask_to_its_own_size(self, side, search, monkeypatch):
        # Mask 2 (size 1) is past the loosest bound of any size, the lower
        # bound of size 5 or the upper bound of size 0, but within its own;
        # mask 77 (size 4) offends.  The search must pass over mask 2, also
        # when it takes 64 masks at a time and so finds mask 77 in its second
        # chunk.
        monkeypatch.setattr(verify, "_SEARCH_MASKS", search)
        an = hl.analyze(hl.random_hypergraph(n=10, m=20, k_min=2, k_max=4, seed=4))
        lower, upper = sandwich_bounds(an, np.arange(an.n, dtype=np.int64))
        if side == "below":
            inside, offending = int(np.ceil(lower[1])), -1
            assert inside < lower.max() - verify.SANDWICH_LOWER_MARGIN
        else:
            inside, offending = int(np.floor(upper[1])), 10**6
            assert inside > upper.min() + verify.SANDWICH_UPPER_MARGIN
        assert lower[1] <= inside <= upper[1]
        boundary = an.scan.astype(np.int32)  # a copy wide enough for 10**6
        boundary[[2, 77]] = inside, offending
        vars(an)["scan"] = boundary  # replace the cached scan
        bound = f"lower bound {lower[4]:.6f}" if side == "below" else f"upper bound {upper[4]:.6f}"
        assert verify._check_subset_sandwich(an, 0) == (
            f"boundary {offending} {side} {bound} (mask 77)"
        )


# Faults at each check's margin.  A fault set 2 margins past the bound must
# fail with the check's exact text, and one set half a margin past it, so
# inside the margin, must pass: a loosened margin fails the first, and a
# tightened or dropped one the second.  The fault is seeded into a cached
# slot of a connected n=10 input.
_PAST_OR_INSIDE = pytest.mark.parametrize("margins", [2.0, 0.5], ids=["past", "inside"])


def _margin_input():
    an = hl.analyze(hl.random_hypergraph(n=10, m=20, k_min=2, k_max=4, seed=4))
    assert an.connected and an.degrees.k_min == 2
    for check in (verify._check_subset_sandwich, verify._check_maxcut_iso_bounds,
                  verify._check_sweep_ratio):
        assert check(an, 0) is None
    return an


def _seed_eigenvalue(an, index, value):
    """Replace eigenvalue ``index`` of the cached spectrum by ``value``."""
    lam = an.spectrum.eigenvalues.copy()
    lam[index] = value
    vars(an)["spectrum"] = dataclasses.replace(an.spectrum, eigenvalues=lam)


def _first_sandwich_fault(an, side, margin):
    """The message for the first mask, counted edge by edge, whose boundary
    is more than ``margin`` outside its size's bound on ``side``."""
    for mask in range(1 << (an.n - 1)):
        vertices = [v for v in range(an.n) if (mask >> v) & 1]
        count = hl.edge_boundary(an, vertices)[0]
        lower, upper = sandwich_bounds(an, len(vertices))
        if side == "below" and count < lower - margin:
            return f"boundary {count} below lower bound {lower:.6f} (mask {mask})"
        if side == "above" and count > upper + margin:
            return f"boundary {count} above upper bound {upper:.6f} (mask {mask})"
    return None


@_PAST_OR_INSIDE
def test_subset_sandwich_lower_margin(margins):
    an = _margin_input()
    least, _ = an.profile
    n, k_max = an.n, an.degrees.k_max
    size = np.arange(1, n)
    per_lambda2 = 4.0 * size * (n - size) / (n * k_max**2)
    # lambda_2 at which the tightest size's lower bound reaches its least
    # boundary, raised so that the bound passes it by `margins` margins.
    t = int(np.argmin(least[1:] / per_lambda2))
    margin = verify.SANDWICH_LOWER_MARGIN
    _seed_eigenvalue(an, 1, (least[1 + t] + margins * margin) / per_lambda2[t])
    want = _first_sandwich_fault(an, "below", margin)
    assert (want is not None) == (margins > 1)
    assert verify._check_subset_sandwich(an, 0) == want


@_PAST_OR_INSIDE
def test_subset_sandwich_upper_margin(margins):
    an = _margin_input()
    _, most = an.profile
    n, k_min = an.n, an.degrees.k_min
    size = np.arange(1, n)
    per_lambda_n = size * (n - size) / (n * (k_min - 1))
    t = int(np.argmax(most[1:] / per_lambda_n))
    margin = verify.SANDWICH_UPPER_MARGIN
    _seed_eigenvalue(an, -1, (most[1 + t] - margins * margin) / per_lambda_n[t])
    want = _first_sandwich_fault(an, "above", margin)
    assert (want is not None) == (margins > 1)
    assert verify._check_subset_sandwich(an, 0) == want


@_PAST_OR_INSIDE
def test_max_cut_margin(margins):
    an = _margin_input()
    value, _ = an.max_cut
    n, k_min = an.n, an.degrees.k_min
    _seed_eigenvalue(an, -1, (value - margins * verify.MAX_CUT_MARGIN) * 4 * (k_min - 1) / n)
    bound = hl.connectivity_summary(an).max_cut_bound_kmin
    want = f"max cut {value} above n lambda_n / (4 (k_min - 1)) = {bound:.6f}"
    assert verify._check_maxcut_iso_bounds(an, 0) == (want if margins > 1 else None)


# The max cut seeded 2 margins past its k_max bound is recorded; half a
# margin past it, inside the margin, is not.
@_PAST_OR_INSIDE
def test_max_cut_kmax_margin(margins):
    an = _margin_input()
    value, _ = an.max_cut
    n, k_max = an.n, an.degrees.k_max
    _seed_eigenvalue(an, -1, (value - margins * verify.MAX_CUT_KMAX_MARGIN) * 4 * (k_max - 1) / n)
    summary = hl.connectivity_summary(an)
    want = {"max_cut": value, "bound": summary.max_cut_bound_kmax,
            "witness": list(summary.max_cut_witness)}
    assert verify._record_maxcut_printed(an) == (want if margins > 1 else None)


@_PAST_OR_INSIDE
def test_isoperimetric_margin(margins):
    an = _margin_input()
    value, _ = an.isoperimetric
    k_max = an.degrees.k_max
    _seed_eigenvalue(an, 1, (float(value) + margins * verify.ISOPERIMETRIC_MARGIN) * k_max**2 / 2)
    low = hl.connectivity_summary(an).iso_lower_bound
    want = f"isoperimetric {value} below 2 lambda_2 / k_max^2 = {low:.6f}"
    assert verify._check_maxcut_iso_bounds(an, 0) == (want if margins > 1 else None)


def _two_graph_input():
    """A connected 2-graph on 10 vertices whose largest Laplacian degree
    sits at both ends of an edge, so its two degree bounds are equal."""
    an = hl.analyze(hl.random_hypergraph(n=10, m=20, k_min=2, k_max=2, seed=4))
    assert an.connected and an.degrees.k_max == 2
    assert verify._check_degree_bounds(an, 0) is None
    assert verify._check_zhu_two_graph(an, 0) is None
    return an


def _seed_lambda_n_past(an, value, margins):
    """Seed lambda_n ``margins`` holds tolerances (bounds.HOLDS_TOL, relative
    to lambda_n) past the bound ``value``, and drop the cached bounds."""
    lam = value * (1 + margins * bounds.HOLDS_TOL)
    _seed_eigenvalue(an, -1, lam)
    del vars(an)["bounds"]
    return lam


@_PAST_OR_INSIDE
@pytest.mark.parametrize(
    "name, make, text",
    [("twice_max_laplacian_degree", _two_graph_input, "2 max delta = {} < lambda_n = {}"),
     ("adjacent_laplacian_degree_sum", _margin_input,
      "max delta_i+delta_j = {} < lambda_n = {}")],
    ids=["twice_max", "pair_sum"],
)
def test_degree_bounds_margin(margins, name, make, text):
    an = make()
    twice, pair = (an.bounds[key].value for key in
                   ("twice_max_laplacian_degree", "adjacent_laplacian_degree_sum"))
    # The pair sum is checked after twice the max, so it is faulted on an
    # input where it lies below twice the max.
    assert (pair == twice) == (name == "twice_max_laplacian_degree")
    value = an.bounds[name].value
    lam = _seed_lambda_n_past(an, value, margins)
    want = text.format(value, lam)
    assert verify._check_degree_bounds(an, 0) == (want if margins > 1 else None)


@_PAST_OR_INSIDE
def test_zhu_two_graph_margin(margins):
    an = _two_graph_input()
    value = an.bounds["zhu_uniform"].value
    lam = _seed_lambda_n_past(an, value, margins)
    want = f"2-graph bound {value} < lambda_n {lam}"
    assert verify._check_zhu_two_graph(an, 0) == (want if margins > 1 else None)


# The spectrum certificates and the zero eigenvalue compare an exact zero
# (a residual, the distance of V^T V from I, the least eigenvalue of a
# connected input) with a tolerance: a fault of 2 tolerances fails with the
# check's exact text, and a fault of half a tolerance passes.
_PAST_OR_WITHIN = pytest.mark.parametrize("margins", [2.0, 0.5], ids=["past", "inside"])


@_PAST_OR_WITHIN
def test_eigen_residual_margin(margins):
    an = _margin_input()
    assert verify._check_spectrum_certificates(an, 0) is None
    # Moving lambda_n by x leaves its vector's residual at about |x|.
    tol = verify.RESIDUAL_TOL * max(1.0, an.frobenius)
    _seed_eigenvalue(an, -1, float(an.spectrum.eigenvalues[-1]) + margins * tol)
    lam, vec = an.spectrum.eigenvalues, an.spectrum.eigenvectors
    residual = float(np.max(np.linalg.norm(an.laplacian @ vec - vec * lam, axis=0)))
    want = f"eigen residual {residual:.3e}" if margins > 1 else None
    assert verify._check_spectrum_certificates(an, 0) == want


@_PAST_OR_WITHIN
def test_negative_eigenvalue_margin(margins):
    an = _margin_input()
    # Moving lambda_1 to -x moves its residual by about x, far inside
    # RESIDUAL_TOL, and the trace by x, inside TRACE_TOL.
    value = -margins * verify.NEGATIVE_EIGENVALUE_TOL * max(1.0, an.frobenius)
    _seed_eigenvalue(an, 0, value)
    want = f"negative eigenvalue {value:.3e}" if margins > 1 else None
    assert verify._check_spectrum_certificates(an, 0) == want


@_PAST_OR_WITHIN
def test_trace_margin(margins):
    an = _margin_input()
    # Every eigenvalue moves up by 1/n of the fault, so each residual grows
    # by at most 2e-8 trace / n, within RESIDUAL_TOL ||L||_F for n >= 4.
    trace = float(np.trace(an.laplacian))
    shift = margins * verify.TRACE_TOL * max(1.0, abs(trace)) / an.n
    lam = an.spectrum.eigenvalues + shift
    vars(an)["spectrum"] = dataclasses.replace(an.spectrum, eigenvalues=lam)
    want = "eigenvalue sum differs from trace" if margins > 1 else None
    assert verify._check_spectrum_certificates(an, 0) == want


@_PAST_OR_WITHIN
def test_orthonormality_margin(margins):
    an = _margin_input()
    # The last vector's squared norm grows by `margins` tolerances, in the
    # cached spectrum's own array.
    vec = an.spectrum.eigenvectors
    vec[:, -1] *= np.sqrt(1 + margins * verify.ORTHONORMAL_TOL)
    ortho = float(np.max(np.abs(vec.T @ vec - np.eye(an.n))))
    want = f"eigenvectors not orthonormal ({ortho:.3e})" if margins > 1 else None
    assert verify._check_spectrum_certificates(an, 0) == want


@_PAST_OR_WITHIN
def test_zero_eigenvalue_margin(margins):
    an = _margin_input()
    assert verify._check_connectivity_agreement(an, 0) is None
    _seed_eigenvalue(an, 0, margins * an.zero_threshold)
    want = "zero multiplicity 0 != component count 1" if margins > 1 else None
    assert verify._check_connectivity_agreement(an, 0) == want


# The sweep ratio and the isoperimetric number are exact Fractions, so the
# check has no margin: an isoperimetric number between the sweep ratio and
# the ratio plus one must fail it, and one equal to the ratio must not.
@pytest.mark.parametrize("excess", [Fraction(1, 2), Fraction(0)], ids=["past", "equal"])
def test_sweep_ratio_against_a_seeded_isoperimetric_number(excess):
    an = _margin_input()
    subset, report = fiedler_sweep(an)
    ratio = Fraction(report.boundary_size, len(subset))
    iso = ratio + excess
    vars(an)["isoperimetric"] = (iso, subset)  # replace the cached value
    want = f"sweep ratio {ratio} below isoperimetric number {iso}" if excess else None
    assert verify._check_sweep_ratio(an, 0) == want


# Pair multiplicities are exact integers, so the cap has no margin: a pair
# one above min(d_i, d_j) must fail with the cap's text, and a pair exactly
# at it must not (the row sums then no longer match delta instead).
@pytest.mark.parametrize("excess", [1, 0], ids=["past", "at"])
def test_pair_multiplicity_cap(excess):
    an = _margin_input()
    assert verify._check_laplacian_structure(an, 0) is None
    a = an.adjacency.copy()
    d = an.degrees.d
    cap = np.minimum.outer(d, d)
    i, j = (int(x[0]) for x in np.nonzero(np.triu(a < cap, 1)))  # first pair below its cap
    a[i, j] = a[j, i] = cap[i, j] + excess
    vars(an)["adjacency"] = a  # replace the cached adjacency
    message = verify._check_laplacian_structure(an, 0)
    text = "pair multiplicity exceeds min(d_i, d_j)"
    if excess:
        assert message == text
    else:
        assert message is not None and message != text


# Each hard check's tolerance, and the recorded max-cut claim's, named once
# beside the check that reads it.  A loosened or tightened value fails here.
@pytest.mark.parametrize(
    "name, value",
    [("RESIDUAL_TOL", 1e-8), ("ORTHONORMAL_TOL", 1e-10),
     ("NEGATIVE_EIGENVALUE_TOL", 1e-10), ("TRACE_TOL", 1e-8),
     ("SANDWICH_LOWER_MARGIN", 1e-8), ("SANDWICH_UPPER_MARGIN", 1e-8),
     ("MAX_CUT_MARGIN", 1e-8), ("ISOPERIMETRIC_MARGIN", 1e-8),
     ("MAX_CUT_KMAX_MARGIN", 1e-8)],
)
def test_check_tolerances_keep_their_values(name, value):
    assert getattr(verify, name) == value


# The tolerances of the `holds` verdict and of connectivity's zero
# eigenvalue, which live beside the code that reads them.
@pytest.mark.parametrize(
    "module, name, value",
    [(bounds, "HOLDS_TOL", 1e-8), (spectral, "ZERO_EIGENVALUE_TOL", 1e-8)],
    ids=["HOLDS_TOL", "ZERO_EIGENVALUE_TOL"],
)
def test_verdict_tolerances_keep_their_values(module, name, value):
    assert getattr(module, name) == value


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
    # The exact checks keep each per-subset array in a narrow type
    # (boundaries in the narrowest signed type holding m, bools), so they
    # trace at most 20 bytes per scanned subset, 2**(n-1)
    # of them: the price core.scan_bytes puts on the scan.
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


def test_battery_peak_memory_is_one_scan():
    # The four n=19 instances are one chunk: their matrices are solved and
    # held together, but each subset scan is built after the previous
    # instance's analysis is dropped, so the battery's peak is the single
    # instance's bound.
    battery = hl.random_battery(19, 44, 2, 4, 4, 3)
    assert hl.analysis._chunk_size(19) >= len(battery)
    tracemalloc.start()
    try:
        report = verify.verify_instances(battery, "b19")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.instance_count == 4
    assert peak <= hl.core.scan_bytes(19), f"{peak / 2**20:.2f} MiB"


# Both n are over the scan's budget, so only the n-by-n stages run; the
# eigensolve holds their peak.  In the large-edge cases each edge holds a
# quarter to half of the vertices, so the vertex pairs outnumber the members
# and n**2 several times over, and the adjacency counts them in batches.
@pytest.mark.parametrize(
    "n, m, k_min, k_max",
    [(128, 640, 2, 4), (200, 1000, 2, 4), (128, 128, 32, 64), (200, 200, 50, 100)],
    ids=["128", "200", "128-large-edges", "200-large-edges"],
)
def test_dense_stages_peak_memory_is_within_dense_bytes(n, m, k_min, k_max):
    an = hl.analyze(hl.random_hypergraph(n, m, k_min, k_max, 3))
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
