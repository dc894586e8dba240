"""Hypergraph data model and the weighted clique expansion.

A hypergraph is a vertex universe [0, n) plus a set of hyperedges, each a
vertex subset of size >= 2. The weighted clique expansion assigns every
vertex pair the number of hyperedges containing both, which defines the
adjacency matrix A, the per-vertex Laplacian degree (row sums of A), and
the Laplacian L = diag(delta) - A. Matrices are returned as float64 arrays
but are built from exact integer counts, so structural identities (zero row
sums, symmetry, degree bounds) hold exactly, not approximately.
"""

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    InvalidHypergraphError,
    SingletonEdgeError,
    VertexOutOfRangeError,
)


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph in canonical form.

    Edges are stored sorted ascending within each edge and lexicographically
    across edges. ``labels``, when present, maps vertex index -> external
    label; unlabeled hypergraphs print vertices as decimal indices.
    """

    n: int
    edges: tuple
    labels: Optional[tuple] = None

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Sequence[int]],
        n: int,
        labels: Optional[Sequence[str]] = None,
    ) -> "Hypergraph":
        """Validate and canonicalize raw edge lists.

        Raises SingletonEdgeError, DuplicateVertexError,
        VertexOutOfRangeError, or DuplicateEdgeError on bad input.
        """
        if n < 1:
            raise InvalidHypergraphError(f"vertex count must be positive, got {n}")
        canonical = []
        for edge in edges:
            edge = list(edge)
            if len(set(edge)) != len(edge):
                raise DuplicateVertexError(f"edge {edge} repeats a vertex")
            if len(edge) < 2:
                raise SingletonEdgeError(f"edge {edge} has fewer than two vertices")
            for v in edge:
                if not (0 <= v < n):
                    raise VertexOutOfRangeError(f"vertex {v} outside [0, {n})")
            canonical.append(tuple(sorted(edge)))
        canonical.sort()
        for prev, cur in zip(canonical, canonical[1:]):
            if prev == cur:
                raise DuplicateEdgeError(f"edge {list(cur)} appears twice")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise InvalidHypergraphError(
                    f"{len(labels)} labels for {n} vertices"
                )
            if len(set(labels)) != n:
                raise InvalidHypergraphError("vertex labels must be distinct")
        return cls(n=n, edges=tuple(canonical), labels=labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def label_index(self) -> dict:
        """Map external label -> vertex index."""
        if self.labels is None:
            return {str(v): v for v in range(self.n)}
        return {lab: v for v, lab in enumerate(self.labels)}

    def edge_labels(self, edge: Sequence[int]) -> tuple:
        return tuple(self.label_of(v) for v in edge)


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees of a hypergraph.

    ``d[i]`` counts incident edges; ``delta[i]`` is the Laplacian degree
    sum(|e| - 1 for e containing i), which equals row i of the adjacency
    matrix. ``k_min``/``k_max`` are the extreme edge sizes (0 when there
    are no edges).
    """

    d: np.ndarray
    delta: np.ndarray
    k_min: int
    k_max: int


def adjacency_matrix(h: Hypergraph) -> np.ndarray:
    """Weighted clique-expansion adjacency: A[i, j] = #edges containing both."""
    a = np.zeros((h.n, h.n), dtype=np.int64)
    for edge in h.edges:
        for x, i in enumerate(edge):
            for j in edge[x + 1 :]:
                a[i, j] += 1
                a[j, i] += 1
    return a.astype(np.float64)


def degree_profile(h: Hypergraph) -> DegreeProfile:
    d = np.zeros(h.n, dtype=np.int64)
    delta = np.zeros(h.n, dtype=np.int64)
    sizes = [len(e) for e in h.edges]
    for edge in h.edges:
        for v in edge:
            d[v] += 1
            delta[v] += len(edge) - 1
    k_min = min(sizes) if sizes else 0
    k_max = max(sizes) if sizes else 0
    return DegreeProfile(d=d, delta=delta, k_min=k_min, k_max=k_max)


def laplacian(h: Hypergraph) -> np.ndarray:
    """L = diag(delta) - A; symmetric with exactly zero row sums."""
    return laplacian_from_adjacency(adjacency_matrix(h))


def laplacian_from_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """diag(row sums) - A, in exact integer arithmetic."""
    a = adjacency.astype(np.int64)
    lap = -a
    np.fill_diagonal(lap, a.sum(axis=1))
    return lap.astype(np.float64)


def connected_components(h: Hypergraph) -> list:
    """Components as sorted vertex lists, via union-find over the edges."""
    parent = list(range(h.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in h.edges:
        r = find(edge[0])
        for v in edge[1:]:
            s = find(v)
            if s != r:
                parent[s] = r
    groups: dict = {}
    for v in range(h.n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())
