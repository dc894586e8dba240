"""One cached analysis per input: each derived quantity is computed once."""

from __future__ import annotations

import functools
import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import hyperlap as hl
from hyperlap import _kernels, cli, core, spectral


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


def test_verify_above_enumeration_cap_scans_nothing(counts, tmp_path, capsys):
    path = _file(tmp_path, hl.ENUMERATION_CAP + 4, 60, 3)
    assert cli.run(["verify", path]) == 0
    assert counts["scan"] == 0 and counts["jacobi"] == 1


def test_bounds_builds_adjacency_once(counts, small_file, capsys):
    assert cli.run(["bounds", small_file]) == 0
    assert counts["adjacency"] == 1


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
    an = hl.analyze(hl.Hypergraph.from_edges([], n=hl.ENUMERATION_CAP + 1))
    assert not an.enumerable
    with pytest.raises(hl.TooLargeError):
        an.scan


def _recount(h, mask):
    """(boundary, size) of one subset bitmask, counted edge by edge."""
    bits = [v for v in range(h.n) if (mask >> v) & 1]
    return hl.edge_boundary(h, bits)[0], len(bits)


def test_scan_matches_per_mask_recount():
    h = hl.random_hypergraph(12, 30, 2, 5, 11)
    boundary, sizes = hl.analyze(h).scan
    assert boundary.dtype == sizes.dtype == np.int64
    assert boundary.size == 1 << 11
    for mask in range(boundary.size):
        got = (int(boundary[mask]), int(sizes[mask]))
        assert got == _recount(h, mask), mask


def test_scan_top_bit_masks_match_recount():
    h = hl.random_hypergraph(20, 40, 2, 6, 5)
    boundary, sizes = hl.analyze(h).scan
    top = 1 << 18
    masks = [top, top | 1, top | 0x2AAAA, (1 << 19) - 2, (1 << 19) - 1]
    assert boundary.size == 1 << 19
    for mask in masks:
        got = (int(boundary[mask]), int(sizes[mask]))
        assert got == _recount(h, mask), mask
