"""One cached analysis per input: each derived quantity is computed once."""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl
from hyperlap import _kernels, bounds, cli, core, cuts, spectral


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
    assert counts["scan"] == 1 and counts["jacobi"] == 1


def test_verify_over_the_scan_budget_scans_nothing(counts, tmp_path, capsys):
    path = _file(tmp_path, 29, 60, 3)
    assert cli.run(["verify", path]) == 0
    assert counts["scan"] == 0 and counts["jacobi"] == 1


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
    assert an.lambda_n == hl.lambda_n(hl.eigendecompose(lap))
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


def _recount(h, mask):
    """(boundary, size) of one subset bitmask, counted edge by edge."""
    bits = [v for v in range(h.n) if (mask >> v) & 1]
    return hl.edge_boundary(h, bits)[0], len(bits)


def test_scan_matches_per_mask_recount():
    h = hl.random_hypergraph(12, 30, 2, 5, 11)
    boundary, sizes = hl.analyze(h).scan
    assert boundary.dtype == np.int32 and sizes.dtype == np.uint8
    assert boundary.size == 1 << 11
    for mask in range(boundary.size):
        got = (int(boundary[mask]), int(sizes[mask]))
        assert got == _recount(h, mask), mask


# n = 22 is above the old fixed cap of 20 vertices.
@pytest.mark.parametrize("n, m", [(20, 40), (22, 44)])
def test_scan_top_bit_masks_match_recount(n, m):
    h = hl.random_hypergraph(n, m, 2, 6, 5)
    boundary, sizes = hl.analyze(h).scan
    top = 1 << (n - 2)
    masks = [top, top | 1, top | 0x2AAAA, (1 << (n - 1)) - 2, (1 << (n - 1)) - 1]
    assert boundary.size == 1 << (n - 1)
    for mask in masks:
        got = (int(boundary[mask]), int(sizes[mask]))
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
    assert boundary.dtype == np.int32 and boundary.shape == (1 << (h.n - 1),)
    assert [int(b) for b in boundary] == [
        _recount(h, mask)[0] for mask in range(boundary.size)
    ]


@pytest.mark.parametrize(
    "n, edges, want",
    [(1, [], [0]), (2, [], [0, 0]), (2, [(0, 1)], [0, 1])],
    ids=["n1", "n2-edgeless", "n2-edge"],
)
def test_subset_scan_of_the_smallest_inputs(n, edges, want):
    # At n = 1 only the empty subset is scanned, and the reversed complement
    # slice is the single entry of V.
    boundary = _kernel_scan(hl.Hypergraph.from_edges(edges, n=n))
    assert boundary.dtype == np.int32 and boundary.tolist() == want
