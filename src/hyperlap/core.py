"""Hypergraph data model and the weighted clique expansion.

A hypergraph is a vertex universe [0, n) plus a set of hyperedges, each a
vertex subset of size >= 2. The weighted clique expansion assigns every
vertex pair the number of hyperedges containing both, which defines the
adjacency matrix A, the per-vertex Laplacian degree (row sums of A), and
the Laplacian L = diag(delta) - A. Both are int64 arrays of exact counts,
so structural identities (zero row sums, symmetry, degree bounds) hold
exactly, not approximately.

Every pass over the edge list reads one flat incidence table, once per
object: the sorted members of every edge concatenated in edge order, where
each edge's run starts, and each edge's size.  :func:`hyperlap.hgio.loads`
stores it in the Hypergraph it reads, from the arrays it sorted the edges
with, and :func:`hyperlap.analysis.analyze` carries it into the Analysis;
otherwise it is built from ``edges`` on first use.  Outside this module it
is read through :attr:`Hypergraph.edge_sizes` and
:meth:`Hypergraph.edge_reduce`, one ``reduceat`` whose results come out in
edge order.  The adjacency counts the vertex pairs of the edges with
``np.bincount``, gathered one block of equal-size edges and one offset at
a time (:func:`edge_blocks`), and the degrees are numpy passes over the
members.  The adjacency costs O(sum |e|**2 + n**2) numpy work, the other
passes O(sum |e|), and each holds O(sum |e| + n**2) bytes whatever the
spread of the edge sizes; no incidence matrix is built.

This module also decides how large an input may be.  Each exponential or
quadratic stage has a price in bytes predicted from n alone,
:func:`dense_bytes` for the n-by-n matrices and :func:`scan_bytes` for the
subset scan, and :func:`require_budget` refuses, before the stage allocates
anything, a price above MAX_DENSE_BYTES.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    DuplicateVertexError,
    InvalidHypergraphError,
    SingletonEdgeError,
    TooLargeError,
    VertexOutOfRangeError,
)


# Budget for each priced stage of one input, a constant so that a refusal
# does not depend on the machine.  It admits subset scans up to n = 28, so
# the scan's counts (at most m < 2**n, in at most int32) and int64 masks
# cannot overflow.
MAX_DENSE_BYTES = 4 * 2**30

LABEL_RULE = "a nonempty string without whitespace, not starting with '#' or '!'"


def is_label(label) -> bool:
    """Whether ``label`` is LABEL_RULE: one ``.hg`` token that cannot start
    a comment ('#') or a directive ('!') line."""
    return isinstance(label, str) and label.split() == [label] and label[0] not in "#!"


def vertex_index(v, n: int) -> int:
    """``v`` as a Python int in [0, n).  Accepts int and numpy integers;
    anything else, or an index out of range, raises VertexOutOfRangeError."""
    try:
        i = operator.index(v)
    except TypeError:
        raise VertexOutOfRangeError(f"vertex {v!r} is not an integer") from None
    if not 0 <= i < n:
        raise VertexOutOfRangeError(f"vertex {i} outside [0, {n})")
    return i


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

        ``n`` must be an integer and each label satisfy :func:`is_label`,
        so that every Hypergraph round-trips through ``.hg`` text.  Raises
        InvalidHypergraphError, SingletonEdgeError, DuplicateVertexError,
        VertexOutOfRangeError, or DuplicateEdgeError on bad input.
        """
        try:
            n = operator.index(n)
        except TypeError:
            raise InvalidHypergraphError(
                f"vertex count {n!r} is not an integer"
            ) from None
        if n < 1:
            raise InvalidHypergraphError(f"vertex count must be positive, got {n}")
        canonical = []
        for edge in edges:
            edge = list(edge)
            if len(set(edge)) != len(edge):
                raise DuplicateVertexError(f"edge {edge} repeats a vertex")
            if len(edge) < 2:
                raise SingletonEdgeError(f"edge {edge} has fewer than two vertices")
            canonical.append(tuple(sorted(vertex_index(v, n) for v in edge)))
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
            for label in labels:
                if not is_label(label):
                    raise InvalidHypergraphError(
                        f"vertex label {label!r} is not {LABEL_RULE}"
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
    def _incidence(self) -> tuple:
        """(members, starts, sizes): the sorted members of every edge
        concatenated in edge order, where each edge's run starts in
        ``members``, and each edge's size; all int64.  A reader may store
        it in this slot when it builds the Hypergraph."""
        sizes = np.fromiter(map(len, self.edges), dtype=np.int64, count=self.m)
        starts = np.cumsum(sizes) - sizes
        members = np.fromiter(
            chain.from_iterable(self.edges), dtype=np.int64, count=int(sizes.sum())
        )
        return members, starts, sizes

    @property
    def edge_sizes(self) -> np.ndarray:
        """Each edge's size, int64, in edge order."""
        return self._incidence[2]

    def edge_reduce(self, ufunc: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``ufunc`` over each edge's entries of the per-vertex ``values``,
        in edge order: with ``np.add`` and the incidence matrix B, B^T x."""
        members, starts, _ = self._incidence
        return ufunc.reduceat(values[members], starts)


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


def dense_bytes(n: int) -> int:
    """Predicted peak bytes of the n-by-n matrices of an n-vertex input: ten
    arrays of 8-byte entries.  This bounds what the adjacency, the
    Laplacian, the eigensolve, the bounds and the hard checks hold at once.
    The eigenvalues take the adjacency and the Laplacian, the solver's float
    copy and its Householder reduction, which the spectrum keeps (the matrix
    above its reflectors) until its eigenvectors are first read.  Building
    them holds the solve's most, about six and a half arrays: the adjacency,
    the Laplacian, the reduction, the basis, and the pivoted factors and
    iterates of half of the eigenvalues at a time (about two and a half).
    The bounds can hold more: with edges of a quarter to half of the
    vertices, 0.90 dense_bytes(n) at n=128 and 200 (tests/test_verify.py).
    Where the warm start's working arrays fit in 64 KiB
    (``_kernels._CHUNK_BYTES``; one matrix up to n=34 or 40) it takes all
    rows or all eigenvalues at once, and its temporaries hold about 2.4
    times that: by tracemalloc, one matrix's solve then holds at most 154.5
    KiB more than at the large-n sizes (at n=34), and peaks at most 144 KiB
    above dense_bytes(n): 2.95 dense_bytes(n) at n=16, 2.83 at n=19, 2.59
    at n=34 and 0.92 at n=40 (tests/test_spectral.py).
    A battery takes at most dense_bytes(64) // dense_bytes(max(n, 4))
    inputs a stack (:func:`hyperlap.analysis.analyze_stream`), but a
    stacked solve holds more than its inputs' share at small n, where the
    solver's per-row arrays and numpy's ufunc buffers outweigh n**2: one
    stack's solve peaks at 0.62 dense_bytes(64) at n=64, 0.72 at n=12,
    0.95 at n=8 and 1.61 at n=4.  Below n=4 a stack is no longer than at
    n=4, and peaks at 1.15 at n=3 and 1.01 at n=2, so at most
    2 dense_bytes(64) for n from 2 to 64 (tests/test_analysis.py)."""
    return 10 * 8 * n * n


def scan_bytes(n: int) -> int:
    """Predicted peak bytes of the subset scan of an n-vertex input and of
    its readers: 20 bytes for each of the 2**(n-1) scanned subsets, priced
    at the widest count type.  The scan holds its table of 2**n counts
    beside a block of at most as many, then beside the boundary, all in
    the narrowest signed type that holds m (``_kernels.subset_scan``): in
    int32 8 + 8, then 8 + 4 bytes.  The readers keep no size per subset,
    and search the scan only for witnesses (a bool per subset) or a failed
    sandwich check's first offending subset (a few at a time).  The price
    does not depend on m, so every input is admitted or refused as it was
    when every count was int32; with int8 counts the scan and its profile
    peak at about 3 bytes per subset (tests/test_analysis.py)."""
    return 20 << (n - 1)


def fits_budget(nbytes: int) -> bool:
    """Whether a stage predicted to need ``nbytes`` is within MAX_DENSE_BYTES."""
    return nbytes <= MAX_DENSE_BYTES


def require_budget(n: int, nbytes: int, what: str) -> None:
    """Raise TooLargeError when ``what``, predicted to need ``nbytes`` for
    an n-vertex input, exceeds MAX_DENSE_BYTES.  A price of 2**64 bytes or
    more is named by its power of two, since no budget comes near it and
    its decimal form can run to thousands of digits."""
    if fits_budget(nbytes):
        return
    if nbytes < 1 << 64:
        estimate = f"an estimated {nbytes} bytes"
    else:
        estimate = f"at least 2**{nbytes.bit_length() - 1} bytes"
    raise TooLargeError(
        f"n={n} needs {estimate} for its {what},"
        f" above the budget of {MAX_DENSE_BYTES}"
    )


def edge_blocks(incidence: tuple) -> Iterator:
    """(at, rows) for each edge size k of an incidence table
    ``(members, starts, sizes)``, ascending: the indices of the edges of
    size k, ascending, and their members as a (len(at), k) array.  Only the
    sizes present are visited, so the blocks cost O(sum |e|) in all,
    however the sizes are spread."""
    members, starts, sizes = incidence
    counts = np.bincount(sizes)
    # numpy's stable sort of 16-bit keys is a radix sort.
    keys = sizes.astype(np.uint16) if counts.size <= 2**16 else sizes
    by_size = np.argsort(keys, kind="stable")
    ends = np.cumsum(counts)
    for k in np.flatnonzero(counts).tolist():
        at = by_size[ends[k] - counts[k] : ends[k]]
        yield at, members[starts[at, None] + np.arange(k)]


def adjacency_matrix(h: Hypergraph) -> np.ndarray:
    """Weighted clique-expansion adjacency: A[i, j] = #edges containing both.

    Raises TooLargeError, before allocating, when :func:`dense_bytes` of n
    exceeds MAX_DENSE_BYTES."""
    n = h.n
    require_budget(n, dense_bytes(n), "n-by-n matrices")
    members, _, _ = h._incidence
    # Members ascend within an edge, so in the (edges, k) block of each edge
    # size, column x and column x + g give vertices i < j: count the upper
    # triangle as flat indices i*n + j, one offset g at a time, then mirror
    # it.  The pairs are counted once they reach the larger of the member
    # count and n*n/4, so they hold O(sum |e| + n**2) entries at any time,
    # at most a quarter of the counts' own n*n beyond the members.
    limit = max(members.size, n * n // 4)
    upper, batch, held = None, [], 0
    for _, rows in edge_blocks(h._incidence):
        for g in range(1, rows.shape[1]):
            batch.append((rows[:, :-g] * n + rows[:, g:]).ravel())
            held += batch[-1].size
            if held >= limit:
                upper = _tally(upper, batch, n * n)
                batch, held = [], 0
    upper = _tally(upper, batch, n * n).reshape(n, n)
    return upper + upper.T


def _tally(upper, batch: list, size: int) -> np.ndarray:
    """``upper`` plus the counts of the flat indices in ``batch``, added in
    place; the counts alone while ``upper`` is None, so that the first
    batch needs no array of zeros beside its counts."""
    if not batch:
        return np.zeros(size, dtype=np.int64) if upper is None else upper
    counts = np.bincount(np.concatenate(batch), minlength=size)
    if upper is None:
        return counts
    upper += counts
    return upper


def degree_profile(h: Hypergraph) -> DegreeProfile:
    members, _, sizes = h._incidence
    d = np.bincount(members, minlength=h.n)
    delta = np.zeros(h.n, dtype=np.int64)
    np.add.at(delta, members, np.repeat(sizes - 1, sizes))
    k_min = int(sizes.min()) if h.m else 0
    k_max = int(sizes.max(initial=0))
    return DegreeProfile(d=d, delta=delta, k_min=k_min, k_max=k_max)


def laplacian_from_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """L = diag(row sums) - A, in the integer type of the adjacency:
    symmetric with exactly zero row sums."""
    lap = -adjacency
    np.fill_diagonal(lap, adjacency.sum(axis=1))
    return lap


def connected_components(h: Hypergraph) -> list:
    """Components as sorted lists of sorted vertices, by min-label
    propagation over the incidence table.  Every vertex's label is a vertex
    of its component, at most itself, and after each pass a root: a vertex
    labelled with itself.  A pass lowers the root of each edge member to
    the least label in the edge, then jumps pointers until every label is a
    root again.  Once every edge's members share one label, each vertex is
    labelled with its component's least vertex."""
    members, starts, sizes = h._incidence
    label = np.arange(h.n)
    while h.m:
        roots = label[members]
        least = np.repeat(np.minimum.reduceat(roots, starts), sizes)
        if (least == roots).all():
            break
        np.minimum.at(label, roots, least)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped
    order = np.argsort(label, kind="stable")
    bounds = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), h.n]
    order = order.tolist()
    return [order[i:j] for i, j in zip(bounds, bounds[1:])]
