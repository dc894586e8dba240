"""One cached analysis per input: each derived quantity is computed once."""

from __future__ import annotations

import functools
import gc
import importlib
import pkgutil
import tracemalloc
import weakref
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl
from hyperlap import _kernels, analysis, bounds, cli, core, cuts, spectral


def _counting(monkeypatch, **targets) -> Counter:
    """Replace every module binding of each target function with a wrapper
    that counts its calls under the target's key."""
    counts = Counter()
    modules = [
        importlib.import_module(f"hyperlap.{info.name}")
        for info in pkgutil.iter_modules(hl.__path__)
    ]

    def wrap(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for key, fn in targets.items():
        wrapper = wrap(key, fn)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.fixture
def counts(monkeypatch):
    return _counting(
        monkeypatch,
        scan=_kernels.subset_scan,
        jacobi=_kernels.jacobi_sweeps,
        adjacency=core.adjacency_matrix,
        degrees=core.degree_profile,
    )


def _file(tmp_path, n, m, seed):
    path = tmp_path / f"r{n}.hg"
    hl.dump(hl.random_hypergraph(n, m, 2, 4, seed), str(path))
    return str(path)


@pytest.fixture
def small_file(tmp_path):
    return _file(tmp_path, 12, 24, 7)


def test_verify_file_analyses_once(counts, small_file, capsys):
    assert cli.run(["verify", small_file]) == 0
    assert counts == {"scan": 1, "jacobi": 1, "adjacency": 1, "degrees": 1}


def test_verify_file_computes_exact_cuts_once(monkeypatch, small_file, capsys):
    counts = Counter()
    for name in ("max_cut", "isoperimetric"):
        compute = vars(hl.Analysis)[name].func

        def counted(self, name=name, compute=compute):
            counts[name] += 1
            return compute(self)

        prop = functools.cached_property(counted)
        prop.__set_name__(hl.Analysis, name)
        monkeypatch.setattr(hl.Analysis, name, prop)
    assert cli.run(["verify", small_file]) == 0
    assert counts == {"max_cut": 1, "isoperimetric": 1}


def test_cuts_exact_analyses_once(counts, small_file, capsys):
    assert cli.run(["cuts", small_file, "--exact"]) == 0
    assert counts["scan"] == 1 and counts["jacobi"] == 0


def test_verify_over_the_scan_budget_scans_nothing(counts, tmp_path, capsys):
    path = _file(tmp_path, 29, 60, 3)
    assert cli.run(["verify", path]) == 0
    assert counts["scan"] == 0 and counts["jacobi"] == 1


@pytest.fixture
def solves(monkeypatch):
    """The stack size of every eigensolve, a single solve counted as 1."""
    sizes = []
    real = spectral.householder_reduction

    def recorded(a):
        sizes.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(spectral, "householder_reduction", recorded)
    return sizes


@pytest.fixture
def vector_builds(monkeypatch):
    """The stack size of every eigenvector build, through the ``spectral``
    binding of the vectors stage, which the benchmark's tracer also wraps."""
    sizes = []
    real = spectral.warm_start

    def recorded(reduction):
        sizes.append(reduction[0].shape[0])
        return real(reduction)

    monkeypatch.setattr(spectral, "warm_start", recorded)
    return sizes


@pytest.mark.parametrize("argv, builds", [
    (["spectrum"], 0), (["bounds"], 0), (["cuts", "--exact"], 0),
    (["cuts", "--subset", "0,3,5"], 0), (["cuts", "--sweep"], 0), (["verify"], 1),
])
def test_only_the_sweep_and_verify_build_eigenvectors(vector_builds, small_file, capsys,
                                                     argv, builds):
    # The paper's bounds read eigenvalues only, and the Fiedler sweep one
    # vector, built alone; the spectrum certificates read every vector.
    assert cli.run([argv[0], small_file, *argv[1:]]) == 0
    assert vector_builds == [1] * builds


@pytest.fixture
def solve_stages(monkeypatch):
    return _counting(
        monkeypatch,
        householder=_kernels._tridiagonalize,
        multisection=_kernels._multisection,
        six_ranks=_kernels._rank_multisection,
        jacobi=_kernels.jacobi_sweeps,
    )


@pytest.mark.parametrize("argv", [
    ["bounds"], ["cuts", "--sweep"], ["cuts", "--subset", "0,3,5"], ["cuts", "--exact"],
], ids=["bounds", "sweep", "subset", "exact"])
def test_bounds_and_cuts_run_no_full_multisection(solve_stages, small_file, capsys, argv):
    # lambda_2, lambda_n and the Fiedler vector come from one multisection
    # at six ranks; no full one runs, and no Jacobi check.
    assert cli.run([argv[0], small_file, *argv[1:]]) == 0
    assert solve_stages == {"householder": 1, "six_ranks": 1}


@pytest.mark.parametrize("first", ["lambda2", "lambda_n", "fiedler"])
def test_a_later_spectrum_read_reuses_the_householder_reduction(solve_stages, first):
    h = hl.random_hypergraph(12, 24, 2, 4, 7)
    an = hl.analyze(h)
    early = getattr(an, first)
    spectrum = an.spectrum
    assert solve_stages == {"householder": 1, "six_ranks": 1, "multisection": 1}
    alone = hl.eigendecompose(hl.analyze(h).laplacian)
    assert np.array_equal(spectrum.eigenvalues, alone.eigenvalues)
    assert np.array_equal(spectrum.eigenvectors, alone.eigenvectors)
    # The early read equals the spectrum's, and later reads come from it.
    want = {"lambda2": spectrum.eigenvalues[1], "lambda_n": spectrum.eigenvalues[-1],
            "fiedler": spectrum.eigenvectors[:, 1]}[first]
    assert np.array_equal(early, want) and np.array_equal(getattr(an, first), want)


def test_verify_reads_lambda_2_and_the_fiedler_vector_from_its_spectrum(solve_stages,
                                                                       small_file, capsys):
    assert cli.run(["verify", small_file]) == 0
    assert solve_stages == {"householder": 1, "multisection": 1, "jacobi": 1}


def test_a_battery_chunk_builds_its_vectors_in_one_stacked_call(vector_builds, capsys):
    assert cli.run(["verify", "--random", "12", "20", "2", "4", "28", "5"]) == 0
    assert vector_builds == [analysis._chunk_size(12)] == [28]


def test_battery_solves_each_instance_once_in_chunks(solves, capsys):
    # 57 instances at n=12 are chunks of 28, 28 and 1; the last is solved
    # lazily, alone.
    assert cli.run(["verify", "--random", "12", "20", "2", "4", "57", "5"]) == 0
    assert solves == [28, 28, 1]


def test_stream_chunks_break_where_n_changes(solves):
    battery = [(f"i{i}", hl.random_hypergraph(n, 3, 2, 3, i))
               for i, n in enumerate([5, 5, 5, 6, 5, 5, 7])]
    names = [name for name, an in hl.analyze_stream(battery) if an.spectrum.n]
    assert names == [name for name, _ in battery]
    assert solves == [3, 1, 2, 1]


@pytest.mark.parametrize("n", [0, 1, 2, 8, 12, 19, 40, 45, 46, 64, 65, 128])
def test_a_chunk_is_priced_like_one_n64_solve(n):
    size = analysis._chunk_size(n)
    priced = core.dense_bytes(max(n, 4))  # a chunk is no longer than at n=4
    assert size == 1 or size * priced <= core.dense_bytes(64)
    assert (size + 1) * priced > core.dense_bytes(64)


@pytest.mark.parametrize("n", range(2, 65))
def test_a_chunk_solve_peaks_within_two_n64_prices(n):
    # A chunk costs more than its share of dense_bytes at small n: the
    # solver's per-row arrays and numpy's ufunc buffers outweigh n**2, and
    # at n=2 the warm start takes all eigenvalues and rows at once.
    # Measured peaks with the eigenvectors built, as a share of
    # dense_bytes(64): 1.01 at n=2, 1.15 at n=3, 1.61 at n=4, 0.95 at n=8,
    # 0.72 at n=12 and 0.62 at n=64.  Below n=4 only 2**n - n - 1 edges of
    # at most n vertices exist.
    m, k_max = min(2 * n, 2**n - n - 1), min(4, n)
    laplacians = [hl.analyze(h).laplacian
                  for _, h in hl.random_battery(n, m, 2, k_max, analysis._chunk_size(n), 3)]
    tracemalloc.start()
    try:
        hl.eigendecompose_stack(laplacians)[0].eigenvectors
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * core.dense_bytes(64), f"{peak / core.dense_bytes(64):.3f}"


@pytest.mark.parametrize(
    "battery",
    [hl.varied_battery(60, base_seed=5), hl.varied_battery(60, base_seed=6, n_lo=4, n_hi=5),
     hl.random_battery(5, 2, 2, 4, 60, 3)],
    ids=["varied", "varied-n4-5", "random-n5"],
)
def test_stream_spectra_equal_each_solve(battery):
    streamed = list(hl.analyze_stream(battery))
    assert [name for name, _ in streamed] == [name for name, _ in battery]
    for (_, an), (_, h) in zip(streamed, battery):
        alone = hl.eigendecompose(hl.analyze(h).laplacian)
        assert np.array_equal(an.spectrum.eigenvalues, alone.eigenvalues)
        assert np.array_equal(an.spectrum.eigenvectors, alone.eigenvectors)
        assert an.spectrum.sweeps == alone.sweeps


def test_stream_keeps_a_solved_spectrum_and_no_handed_out_analysis(solves):
    battery = hl.random_battery(6, 4, 2, 3, 5, 1)
    first = hl.analyze(battery[0][1])
    spectrum = first.spectrum
    assert solves == [1]
    stream = hl.analyze_stream([("first", first)] + battery[1:])
    assert next(stream)[1].spectrum is spectrum
    assert solves == [1, 4]
    del first
    _, an = next(stream)
    ref = weakref.ref(an)
    del an
    for _ in stream:
        gc.collect()
        assert ref() is None


def test_bounds_builds_adjacency_once(counts, small_file, capsys):
    assert cli.run(["bounds", small_file]) == 0
    assert counts["adjacency"] == 1


@pytest.mark.parametrize("command", ["verify", "bounds"])
@pytest.mark.parametrize("family", ["mixed", "complete"])
def test_bounds_are_evaluated_once(
    monkeypatch, tmp_path, small_file, capsys, command, family
):
    # Mixed edge sizes, or a uniform input whose two Zhu readings share the
    # distinct bracket.
    path = small_file
    if family == "complete":
        path = str(tmp_path / "k8_3.hg")
        hl.dump(hl.complete_kgraph(8, 3), path)
    counts = _counting(
        monkeypatch, evaluate=bounds._evaluate, pairs=bounds._adjacent_pairs
    )
    bracket = bounds._zhu_bracket_max

    def counted_bracket(*args, weighted):
        counts["weighted" if weighted else "distinct"] += 1
        return bracket(*args, weighted=weighted)

    monkeypatch.setattr(bounds, "_zhu_bracket_max", counted_bracket)
    assert cli.run([command, path]) == 0
    assert counts == {"evaluate": 1, "pairs": 1, "distinct": 1, "weighted": 1}


def test_cuts_subset_counts_its_boundary_once(monkeypatch, small_file, capsys):
    counts = _counting(monkeypatch, boundary=cuts.edge_boundary)
    assert cli.run(["cuts", small_file, "--subset", "0,3,5"]) == 0
    assert counts == {"boundary": 1}


def test_adjacency_and_laplacian_are_exact_int64(g_overlap_heavy):
    an = hl.analyze(g_overlap_heavy)
    assert an.adjacency.dtype == an.laplacian.dtype == np.int64


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_eigendecompose_leaves_its_argument_unchanged(g_overlap_heavy, dtype):
    lap = hl.analyze(g_overlap_heavy).laplacian.astype(dtype)
    before = lap.copy()
    spec = hl.eigendecompose(lap)
    assert lap.dtype == dtype and np.array_equal(lap, before)
    exact = hl.eigendecompose(before.astype(np.float64))
    assert np.array_equal(spec.eigenvalues, exact.eigenvalues)
    assert np.array_equal(spec.eigenvectors, exact.eigenvectors)


def test_analyze_passes_an_analysis_through(g_mixed_sizes):
    an = hl.analyze(g_mixed_sizes)
    assert isinstance(an, hl.Hypergraph)
    assert (an.n, an.edges, an.labels) == (
        g_mixed_sizes.n, g_mixed_sizes.edges, g_mixed_sizes.labels
    )
    assert hl.analyze(an) is an


def test_quantities_match_the_module_functions(g_overlap_heavy):
    an = hl.analyze(g_overlap_heavy)
    lap = core.laplacian_from_adjacency(hl.adjacency_matrix(g_overlap_heavy))
    assert np.array_equal(an.laplacian, lap)
    assert an.lambda_n == float(hl.eigendecompose(lap).eigenvalues[-1])
    norm = float(np.linalg.norm(lap, "fro"))
    assert an.zero_threshold == spectral.ZERO_EIGENVALUE_TOL * max(1.0, norm)
    assert an.components == hl.connected_components(g_overlap_heavy)


def test_single_vertex_has_no_lambda_n():
    an = hl.analyze(hl.Hypergraph.from_edges([], n=1))
    with pytest.raises(hl.TooSmallError):
        an.lambda_n


def test_scan_is_capped():
    # The budget admits n <= 28: 20 bytes for each of 2**27 scanned subsets
    # fit in 4 GiB, and for each of 2**28 do not.
    assert hl.analyze(hl.Hypergraph.from_edges([(0, 1)], n=28)).enumerable
    an = hl.analyze(hl.Hypergraph.from_edges([(0, 1)], n=29))
    assert not an.enumerable
    refusal = "n=29 needs an estimated 5368709120 bytes for its subset scan"
    with pytest.raises(hl.TooLargeError, match=refusal):
        an.scan
    with pytest.raises(hl.TooLargeError, match=refusal):
        an.edge_masks


def _count_type(m):
    """The scan's count type: the narrowest signed integer type holding m."""
    return next(t for t in (np.int8, np.int16, np.int32) if m <= np.iinfo(t).max)


def _recount(h, mask):
    """(boundary, size) of one subset bitmask, counted edge by edge."""
    bits = [v for v in range(h.n) if (mask >> v) & 1]
    return hl.edge_boundary(h, bits)[0], len(bits)


def test_scan_matches_per_mask_recount():
    h = hl.random_hypergraph(12, 30, 2, 5, 11)
    boundary = hl.analyze(h).scan
    assert boundary.dtype == _count_type(30) == np.int8
    assert boundary.size == 1 << 11
    for mask in range(boundary.size):
        got = (int(boundary[mask]), mask.bit_count())
        assert got == _recount(h, mask), mask


# n = 22 is above the old fixed cap of 20 vertices.
@pytest.mark.parametrize("n, m", [(20, 40), (22, 44)])
def test_scan_top_bit_masks_match_recount(n, m):
    h = hl.random_hypergraph(n, m, 2, 6, 5)
    boundary = hl.analyze(h).scan
    top = 1 << (n - 2)
    masks = [top, top | 1, top | 0x2AAAA, (1 << (n - 1)) - 2, (1 << (n - 1)) - 1]
    assert boundary.size == 1 << (n - 1)
    for mask in masks:
        got = (int(boundary[mask]), mask.bit_count())
        assert got == _recount(h, mask), mask


@st.composite
def _scan_inputs(draw):
    """Any hypergraph on 1..10 vertices; edges holding vertex n-1 and the
    edge V itself are drawn often, and m = 0 is the shrink target."""
    n = draw(st.integers(1, 10))
    if n == 1:
        return hl.Hypergraph.from_edges([], n=1)
    any_edge = st.sets(st.integers(0, n - 1), min_size=2, max_size=n)
    top_edge = st.sets(st.integers(0, n - 2), min_size=1).map(lambda s: s | {n - 1})
    edges = draw(st.sets(st.one_of(any_edge, top_edge).map(frozenset), max_size=15))
    if draw(st.booleans()):
        edges.add(frozenset(range(n)))
    return hl.Hypergraph.from_edges(edges, n=n)


def _kernel_scan(h):
    an = hl.analyze(h)
    return _kernels.subset_scan(an.edge_masks, an.edge_sizes, h.n - 1)


@settings(max_examples=200, deadline=None)
@given(h=_scan_inputs())
def test_subset_scan_matches_per_mask_recount(h):
    boundary = _kernel_scan(h)
    assert boundary.dtype == _count_type(h.m) and boundary.shape == (1 << (h.n - 1),)
    assert [int(b) for b in boundary] == [
        _recount(h, mask)[0] for mask in range(boundary.size)
    ]


# The kernel runs its low-bit passes on a block with one row per distinct
# high part (mask >> b) of an edge, up to every row of the table.  n runs
# from b - 1 to 20; at n <= b the block is the whole table, at n = b + 1 it
# has at most two rows, and m = 0 gives it no row at all.
_B = _kernels._LOW_BITS


@pytest.mark.parametrize(
    "n, m",
    [(_B - 1, 12), (_B, 1), (_B, 16), (_B + 1, 0), (_B + 1, 1), (_B + 1, 20),
     (12, 0), (12, 10), (12, 40), (16, 40), (20, 0), (20, 60)],
)
def test_subset_scan_around_the_low_bits_matches_recount(n, m):
    h = hl.random_hypergraph(n, m, 2, min(n, 6), n + m) if m else hl.Hypergraph.from_edges([], n=n)
    boundary = _kernel_scan(h)
    assert boundary.dtype == _count_type(m) and boundary.shape == (1 << (n - 1),)
    if m == 0:
        assert not boundary.any()
        return
    rng = np.random.default_rng(n)
    masks = range(boundary.size) if n <= 12 else rng.integers(0, boundary.size, 300).tolist()
    for mask in masks:
        assert int(boundary[mask]) == _recount(h, mask)[0], mask


def test_subset_scan_of_edges_sharing_one_high_part():
    # Five edges share the high part {b, b + 1}, so one row of the block, and
    # one more has {b + 3}; among the five, the low part is empty in one and
    # holds every low bit in another.
    b = _kernels._LOW_BITS
    low = list(range(b))
    edges = [(0, b, b + 1), (1, 2, b, b + 1), (b - 1, b, b + 1), (b, b + 1),
             (*low, b, b + 1), (5, b + 3)]
    h = hl.Hypergraph.from_edges(edges, n=b + 4)
    boundary = _kernel_scan(h)
    assert [int(x) for x in boundary] == [_recount(h, mask)[0] for mask in range(boundary.size)]


@settings(max_examples=100, deadline=None)
@given(h=_scan_inputs(), b=st.integers(1, 10))
def test_subset_scan_with_any_low_bits_matches_recount(h, b):
    # Any split into low and high bits gives the same table: b from 1 to 10
    # puts every drawn n on both sides of it.
    with patch.object(_kernels, "_LOW_BITS", b):
        boundary = _kernel_scan(h)
    assert [int(x) for x in boundary] == [
        _recount(h, mask)[0] for mask in range(boundary.size)
    ]


def _brute_profile(h):
    """(least, most) boundary per scanned size 0..n-1, counted edge by edge."""
    least, most = [None] * h.n, [None] * h.n
    for mask in range(1 << (h.n - 1)):
        count, size = _recount(h, mask)
        least[size] = count if least[size] is None else min(least[size], count)
        most[size] = count if most[size] is None else max(most[size], count)
    return least, most


@settings(max_examples=150, deadline=None)
@given(h=_scan_inputs(), bits=st.integers(1, 12))
def test_profile_matches_per_mask_recount(h, bits):
    # The profile's row width, 2**bits masks, from 1 bit to wider than the
    # scan, so that rows are reduced per high-part size and also not.
    with patch.object(analysis, "_PROFILE_BITS", bits):
        least, most = hl.analyze(h).profile
    assert least.dtype == most.dtype == _count_type(h.m)
    assert (least.tolist(), most.tolist()) == _brute_profile(h)


@pytest.mark.parametrize("n, m", [(14, 30), (20, 50)])
def test_profile_matches_a_reduction_of_the_scan(n, m):
    # At these n the scan has more than one row of 2**_PROFILE_BITS masks.
    an = hl.analyze(hl.random_hypergraph(n, m, 2, 5, n))
    assert n - 1 > analysis._PROFILE_BITS
    boundary = an.scan
    sizes = np.bitwise_count(np.arange(boundary.size))
    least = np.full(n, m, dtype=np.int64)
    most = np.zeros(n, dtype=np.int64)
    np.minimum.at(least, sizes, boundary)
    np.maximum.at(most, sizes, boundary)
    got_least, got_most = an.profile
    assert got_least.tolist() == least.tolist() and got_most.tolist() == most.tolist()


@pytest.mark.parametrize(
    "n, edges, want",
    [(1, [], [0]), (2, [], [0, 0]), (2, [(0, 1)], [0, 1])],
    ids=["n1", "n2-edgeless", "n2-edge"],
)
def test_subset_scan_of_the_smallest_inputs(n, edges, want):
    # At n = 1 only the empty subset is scanned, and the reversed complement
    # slice is the single entry of V.
    boundary = _kernel_scan(hl.Hypergraph.from_edges(edges, n=n))
    assert boundary.dtype == _count_type(len(edges)) and boundary.tolist() == want


# Distinct nonempty masks drawn at random, m = 0 to 32768, with blocks that
# hold every row of the table (n = 8; n = 16 with m >= 32767) and one that
# holds some (n=16, m=200); the type steps up past m = 127 and past m = 32767.
@pytest.mark.parametrize(
    "n, m, dtype",
    [(4, 0, np.int8), (8, 127, np.int8), (8, 128, np.int16), (16, 200, np.int16),
     (16, 32767, np.int16), (16, 32768, np.int32)],
)
def test_subset_scan_counts_in_the_narrowest_type_holding_m(n, m, dtype):
    rng = np.random.default_rng(m)
    masks = np.sort(rng.choice(np.arange(1, 1 << n, dtype=np.int64), m, replace=False))
    boundary = _kernels.subset_scan(masks, np.zeros(m, dtype=np.int64), n - 1)
    assert boundary.dtype == dtype == _count_type(m)
    assert boundary.shape == (1 << (n - 1),)
    # An int64 recount of sampled masks S: the edges neither inside S nor
    # inside its complement.
    for mask in [0, boundary.size - 1, *rng.integers(0, boundary.size, 300).tolist()]:
        inside = np.count_nonzero((masks & ~mask) == 0)
        outside = np.count_nonzero((masks & mask) == 0)
        assert int(boundary[mask]) == m - inside - outside, mask


def test_a_scan_whose_block_is_the_whole_table_peaks_at_two_tables():
    # 40000 of the 2**18 masks put an edge in every row of 2**8, so the
    # block copies the whole table.  It is freed before the boundary is
    # built, so the int32 scan holds at most two tables, 16 bytes per
    # scanned subset of the 20 that core.scan_bytes charges, beside numpy's
    # fixed ufunc buffers.
    n, m = 18, 40000
    rng = np.random.default_rng(n)
    masks = np.sort(rng.choice(np.arange(1, 1 << n, dtype=np.int64), m, replace=False))
    assert np.unique(masks >> _kernels._LOW_BITS).size == 1 << (n - _kernels._LOW_BITS)
    sizes = np.zeros(m, dtype=np.int64)
    tracemalloc.start()
    try:
        boundary = _kernels.subset_scan(masks, sizes, n - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = 2 * boundary.nbytes
    assert boundary.dtype == np.int32
    assert peak <= 2 * table + (256 << 10), f"{peak / table:.3f} tables"


@pytest.mark.parametrize("n, m", [(19, 44), (24, 72)])
def test_scan_and_profile_peak_at_a_quarter_of_the_scan_price(n, m):
    # With m <= 127 the table and the boundary are int8, so the scan and its
    # profile hold about 3 bytes per scanned subset, against the 20 of
    # core.scan_bytes: the int32 table alone takes 8.
    an = hl.analyze(hl.random_hypergraph(n, m, 2, 4, 3))
    an.edge_masks
    tracemalloc.start()
    try:
        an.profile
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert an.scan.dtype == np.int8
    assert peak <= hl.core.scan_bytes(n) // 4, f"{peak / 2**20:.2f} MiB"
