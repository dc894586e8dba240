"""Text serialization for hypergraphs (``.hg`` files).

Line-oriented UTF-8 format:

* lines whose first non-blank character is ``#`` are comments;
* an optional directive ``!vertices <label> ...`` pins the vertex universe
  and its order, and must be the first content line;
* every other non-empty line is one hyperedge given as whitespace-separated
  vertex labels;
* a byte-order mark (U+FEFF) at the very start of the text is dropped.

A label is any token that does not start with ``#`` or ``!``
(:func:`hyperlap.core.is_label`), so every Hypergraph round-trips.  Without
the directive the universe is the union of all labels in first-appearance
order.

``loads`` reads the text in one pass over its lines, which turns each
edge line into vertex indices and does nothing else per line.  The
per-edge work that follows, sorting each edge, finding repeated labels and
duplicate sets, and ordering the edges, is a few numpy calls over the flat
runs of all the edges' vertex indices, so that it costs O(sum |e|) bytes
however the edge sizes are spread.  It builds the canonical Hypergraph
itself, without re-checking it through ``Hypergraph.from_edges``, and
hands it the incidence table (``Hypergraph._incidence``) that those calls
leave behind, so no later pass builds it from the edge tuples again.
"""

from array import array
from typing import Optional

import numpy as np

from .core import LABEL_RULE, Hypergraph, edge_blocks, is_label
from .errors import HgParseError


class _Universe(dict):
    """Label -> vertex index.  A new label gets the next index until the
    universe is pinned; then, and for a token that is not a label, KeyError."""

    pinned = False

    def __missing__(self, label: str) -> int:
        if self.pinned or not is_label(label):
            raise KeyError(label)
        self[label] = index = len(self)
        return index


def loads(text: str) -> Hypergraph:
    """Parse ``.hg`` text; parse errors carry 1-based line numbers.

    One pass over the lines tokenises each line once and maps its labels to
    indices (interning them in first-appearance order, or looking them up in
    the pinned universe).  For each edge line it only records the indices,
    their count and the line number; numpy then sorts every edge, finds
    repeated labels, short edges and duplicate sets, and puts the edges in
    canonical order (:func:`_canonical`).  The Hypergraph is built
    directly, already canonical, with its incidence table.  Directive
    errors take precedence over edge errors; among edge errors the first
    bad line wins, with the message the line's own tokens give
    (:func:`_edge_error`) or the line of the set it repeats.
    """
    # A leading byte-order mark is no part of the first line's first token.
    text = text.removeprefix("\ufeff")
    index = _Universe()
    had_edges = False
    edge_error = None  # the error of a line with a label outside the universe
    flat: list = []  # every edge line's vertex indices, in line order
    sizes: list = []  # each edge line's label count
    linenos = array("q")  # each edge line's number, held as no int objects
    lookup = index.__getitem__

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0][0] == "!":
            if tokens[0] != "!vertices":
                raise HgParseError(f"unknown directive {tokens[0]!r}", lineno)
            if index.pinned:
                raise HgParseError("repeated !vertices directive", lineno)
            if had_edges:
                raise HgParseError(
                    "!vertices must precede all edge lines", lineno
                )
            if len(tokens) < 2:
                raise HgParseError("!vertices needs at least one label", lineno)
            for label in tokens[1:]:
                if label in index:
                    raise HgParseError(
                        f"duplicate label {label!r} in !vertices", lineno
                    )
                if not is_label(label):
                    raise HgParseError(
                        f"vertex label {label!r} is not {LABEL_RULE}", lineno
                    )
                lookup(label)
            index.pinned = True
            continue
        had_edges = True
        if edge_error is not None:
            continue
        try:
            flat.extend(map(lookup, tokens))
        except KeyError:
            del flat[sum(sizes):]  # the indices of this line before the bad one
            edge_error = _edge_error(tokens, index, lineno)
            continue
        sizes.append(len(tokens))
        linenos.append(lineno)

    edges, incidence, bad = _canonical(len(index), flat, sizes)
    if bad is not None:
        line, first = bad
        lineno = linenos[line]
        if first < 0:
            tokens = text.splitlines()[lineno - 1].split()
            edge_error = _edge_error(tokens, index, lineno)
        else:
            edge_error = HgParseError(
                f"edge duplicates the set on line {linenos[first]}", lineno
            )
    if edge_error is not None:
        raise edge_error
    if not index:
        raise HgParseError("no vertices defined", 1)
    h = Hypergraph(n=len(index), edges=edges, labels=tuple(index))
    vars(h)["_incidence"] = incidence  # the cached_property's slot
    return h


def _canonical(n: int, flat: list, sizes: list) -> tuple:
    """(edges, incidence, bad) of edge lines given as runs of ``sizes``
    vertex indices in ``flat``, with lines counted from 0.

    ``edges`` are the canonical edge tuples and ``incidence`` is their
    ``Hypergraph._incidence``.  ``bad`` is None when every line is a
    distinct edge of two or more distinct vertices.  Otherwise it is the
    first bad line: (line, -1) for one that repeats a label or has fewer
    than two, or (line, first) for one that repeats the set of line
    ``first``, the first line with that set.  ``flat`` is emptied once
    read.  Every step works on the flat runs, so it costs O(sum |e|) bytes
    however the edge sizes are spread."""
    sizes = np.array(sizes, dtype=np.int64)
    m = sizes.size
    starts = np.cumsum(sizes) - sizes
    # Offset by line * n, all the indices sort as one array, and each
    # line's run comes out sorted in place.  Equal neighbours are then a
    # label repeated on one line.  Every sort here is the stable one: on
    # first use numpy's int64 quicksort and argsort map about 0.5 MiB more
    # of their code into the process.
    offset = np.repeat(np.arange(m) * n, sizes)
    members = np.fromiter(flat, dtype=np.int64, count=len(flat))
    flat.clear()
    members += offset
    members.sort(kind="stable")
    twice = np.flatnonzero(members[1:] == members[:-1]) + 1
    members -= offset
    del offset
    invalid = np.flatnonzero(sizes < 2)[:1].tolist()
    invalid += (np.searchsorted(starts, twice[:1], side="right") - 1).tolist()
    rank = _ranks(n, members, starts, sizes)
    # The stable sort keeps equal sets in line order.
    order = np.argsort(rank, kind="stable")
    rank = rank[order]
    again = np.flatnonzero(rank[1:] == rank[:-1]) + 1
    bad = [(min(invalid), -1)] if invalid else []
    if again.size:
        repeat = again[order[again].argmin()]
        first = np.searchsorted(rank, rank[repeat])
        bad.append((int(order[repeat]), int(order[first])))
    if bad:
        return None, None, min(bad)
    # The incidence table in canonical order, then the tuples of each size
    # class in one zip, each put at its edges' places.  The line-order
    # arrays go as soon as they are read, and the tuples share one int
    # object per vertex, to keep the peak low.
    sizes = sizes[order]
    moved = np.cumsum(sizes) - sizes
    source = np.repeat(starts[order] - moved, sizes)
    del starts, order, rank
    source += np.arange(source.size)
    members = members[source]
    del source
    incidence = (members, moved, sizes)
    vertices = np.arange(n).astype(object)
    edges = np.empty(m, dtype=object)
    for at, block in edge_blocks(incidence):
        rows = zip(*vertices[block].T.tolist())
        edges[at] = np.fromiter(rows, dtype=object, count=at.size)
    return tuple(edges.tolist()), incidence, None


def _ranks(n: int, members, starts, sizes) -> np.ndarray:
    """Each edge's rank in tuple order: how many edges sort before it,
    the same for edges with the same members.  The edges are the sorted
    runs of ``sizes`` members from ``starts``.

    Column j of an edge is its j-th member plus one, or 0 past its end, so
    that a prefix sorts first.  Each pass packs the rank so far and the
    next w columns into one int64 key, as many columns as fit, and sorts
    only the edges that still tie with another and have columns left.  An
    edge e takes part in at most |e| // w + 1 passes, so the passes read
    O(sum |e| + w m) columns whatever the spread of the sizes."""
    m = sizes.size
    base = n + 1
    # Ranks are below m, so a key stays below 2**63.
    w = max(1, (63 - m.bit_length()) // base.bit_length())
    rank = np.zeros(m, dtype=np.int64)
    live = np.arange(m)
    c = 0
    while live.size:
        # No column past the longest live edge's end tells edges apart.
        stop = min(c + w, int(sizes[live].max()) + 1)
        key = rank[live]
        for j in range(c, stop):
            column = np.zeros(live.size, dtype=np.int64)
            more = sizes[live] > j
            column[more] = members[starts[live[more]] + j] + 1
            key = key * base + column
        sort = np.argsort(key, kind="stable")
        live, key = live[sort], key[sort]
        # Sorted by key is sorted by rank: a group of equal rank splits at
        # its start into runs of equal key, and each run's rank grows by
        # the number of the group's edges that sort before it.
        tied = rank[live]
        first = np.searchsorted(key, key)
        rank[live] = tied + first - np.searchsorted(tied, tied)
        alone = np.searchsorted(key, key, side="right") - first == 1
        live = live[~alone & (sizes[live] >= stop)]
        c = stop
    return rank


def _edge_error(tokens: list, index: dict, lineno: int) -> HgParseError:
    """The error for an edge line that is not a valid edge, by the rules'
    priority: a repeated label, then too few labels, then the first token
    outside the universe, which either is not a label or is not pinned."""
    if len(set(tokens)) != len(tokens):
        return HgParseError("edge repeats a vertex label", lineno)
    if len(tokens) < 2:
        return HgParseError(f"edge {tokens} has fewer than two vertices", lineno)
    missing = next(label for label in tokens if label not in index)
    if not is_label(missing):
        return HgParseError(f"vertex label {missing!r} is not {LABEL_RULE}", lineno)
    return HgParseError(f"label {missing!r} not in pinned universe", lineno)


def dumps(h: Hypergraph, comment: Optional[str] = None) -> str:
    """Serialize in canonical order; ``loads(dumps(h))`` reproduces ``h``."""
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append("!vertices " + " ".join(h.label_of(v) for v in range(h.n)))
    for edge in h.edges:
        lines.append(" ".join(h.label_of(v) for v in edge))
    return "\n".join(lines) + "\n"


def decode(data: bytes) -> str:
    """``.hg`` bytes as text; bytes that are not UTF-8 raise HgParseError
    naming the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Count lines the way loads does; the prefix before the bad byte decodes.
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise HgParseError(
            f"invalid UTF-8 byte 0x{data[exc.start]:02x}", line
        ) from None


def load(path: str) -> Hypergraph:
    """Parse a ``.hg`` file, decoded by :func:`decode`."""
    with open(path, "rb") as fh:
        data = fh.read()
    return loads(decode(data))


def dump(h: Hypergraph, path: str, comment: Optional[str] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(h, comment=comment))
