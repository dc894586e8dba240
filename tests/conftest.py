"""Shared fixtures: the worked example hypergraphs."""

import pytest

import hyperlap as hl


@pytest.fixture
def g_triple_overlap():
    """{123, 124, 234}: multiplicity-2 pairs next to multiplicity-1 pairs."""
    return hl.Hypergraph.from_edges([(0, 1, 2), (0, 1, 3), (1, 2, 3)], n=4)


@pytest.fixture
def g_all_triples():
    """{123, 124, 134, 234}: every pair has multiplicity exactly 2."""
    return hl.Hypergraph.from_edges(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], n=4
    )


@pytest.fixture
def g_overlap_heavy():
    """{123, 124, 235, 345}: lambda_n exceeds every per-edge degree sum."""
    return hl.Hypergraph.from_edges(
        [(0, 1, 2), (0, 1, 3), (1, 2, 4), (2, 3, 4)], n=5
    )


@pytest.fixture
def g_uniform_cycle():
    """{123, 234, 456, 156}: 3-uniform, spectrum {0, 2, 4, 6, 6, 6}."""
    return hl.Hypergraph.from_edges(
        [(0, 1, 2), (1, 2, 3), (3, 4, 5), (0, 4, 5)], n=6
    )


@pytest.fixture
def g_mixed_sizes():
    """{123, 456, 34, 1256}: edge sizes 2-4, spectrum {0, 3, 3, 6, 7, 7}."""
    return hl.Hypergraph.from_edges(
        [(0, 1, 2), (3, 4, 5), (2, 3), (0, 1, 4, 5)], n=6
    )


@pytest.fixture
def k2():
    return hl.Hypergraph.from_edges([(0, 1)], n=2)


@pytest.fixture
def triangle():
    return hl.Hypergraph.from_edges([(0, 1), (0, 2), (1, 2)], n=3)


@pytest.fixture
def path3():
    return hl.Hypergraph.from_edges([(0, 1), (1, 2)], n=3)


@pytest.fixture
def path4():
    return hl.Hypergraph.from_edges([(0, 1), (1, 2), (2, 3)], n=4)
