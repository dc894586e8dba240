"""Hypergraph data model and the weighted clique expansion.

A hypergraph is a vertex universe [0, n) plus a set of hyperedges, each a
vertex subset of size >= 2. The weighted clique expansion assigns every
vertex pair the number of hyperedges containing both, which defines the
adjacency matrix A, the per-vertex Laplacian degree (row sums of A), and
the Laplacian L = diag(delta) - A. Matrices are returned as float64 arrays
but are built from exact integer counts, so structural identities (zero row
sums, symmetry, degree bounds) hold exactly, not approximately.

Every pass over the edge list reads one per-size edge index,
``Hypergraph.edge_index``, built once per object: for each edge size k, an
int64 array with one row per edge of that size plus each row's position in
``edges``.  The adjacency and the degrees are ``np.bincount`` calls over it,
so both cost O(sum |e|) numpy work and no incidence matrix is built.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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

    @cached_property
    def edge_index(self) -> dict:
        """Edge size k -> (rows, positions), in ascending order of k.

        ``rows`` is an int64 array with one row per edge of size k (its
        sorted members) and ``positions`` holds each row's position in
        ``edges``, ascending.  Every per-edge pass (adjacency, degrees,
        boundaries, the sweep, the subset scan's edge masks) reads this
        index, built once per object: the members of all edges, grouped by
        size, go into one flat array, and each size's rows are a view of it.
        """
        sizes = np.fromiter(map(len, self.edges), dtype=np.int64, count=self.m)
        order = np.argsort(sizes, kind="stable")
        members = np.fromiter(
            chain.from_iterable(map(self.edges.__getitem__, order.tolist())),
            dtype=np.int64,
            count=int(sizes.sum()),
        )
        index = {}
        start = first = 0
        for k, count in zip(*(a.tolist() for a in np.unique(sizes, return_counts=True))):
            rows = members[start : start + k * count].reshape(count, k)
            index[k] = (rows, order[first : first + count])
            start += k * count
            first += count
        return index


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
    n = h.n
    # Rows are sorted, so column x < y gives vertex i < j: count the upper
    # triangle as flat indices i*n + j, then mirror it.
    flat = [
        rows[:, x] * n + rows[:, y]
        for k, (rows, _) in h.edge_index.items()
        for x in range(k)
        for y in range(x + 1, k)
    ]
    upper = np.bincount(
        np.concatenate([np.zeros(0, dtype=np.int64), *flat]), minlength=n * n
    ).reshape(n, n)
    return (upper + upper.T).astype(np.float64)


def degree_profile(h: Hypergraph) -> DegreeProfile:
    d = np.zeros(h.n, dtype=np.int64)
    delta = np.zeros(h.n, dtype=np.int64)
    groups = h.edge_index
    for k, (rows, _) in groups.items():
        counts = np.bincount(rows.ravel(), minlength=h.n)
        d += counts
        delta += (k - 1) * counts
    k_min = min(groups, default=0)
    k_max = max(groups, default=0)
    return DegreeProfile(d=d, delta=delta, k_min=k_min, k_max=k_max)


def laplacian_from_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """L = diag(row sums) - A, in exact integer arithmetic: symmetric with
    exactly zero row sums."""
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
