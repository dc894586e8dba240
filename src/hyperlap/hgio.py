"""Text serialization for hypergraphs (``.hg`` files).

Line-oriented UTF-8 format:

* lines whose first non-blank character is ``#`` are comments;
* an optional directive ``!vertices <label> ...`` pins the vertex universe
  and its order, and must be the first content line;
* every other non-empty line is one hyperedge given as whitespace-separated
  vertex labels (arbitrary non-whitespace tokens).

Without the directive the universe is the union of all labels in
first-appearance order. ``loads`` reads the text in one pass and builds the
canonical Hypergraph itself, without re-checking it through
``Hypergraph.from_edges``. Labels that start with ``#`` or ``!`` cannot appear
as the first token of a line; generated files only use safe labels.
"""

from collections import defaultdict
from itertools import count
from typing import Optional

from .core import Hypergraph
from .errors import HgParseError


def loads(text: str) -> Hypergraph:
    """Parse ``.hg`` text; parse errors carry 1-based line numbers.

    One pass tokenises each line once, maps its labels to indices (interning
    them in first-appearance order, or looking them up in the pinned
    universe), sorts each edge and finds duplicate edges with a dict; the
    edge list is sorted once and the Hypergraph is built directly, already
    canonical.  Directive errors take precedence over edge errors, which
    come in line order.
    """
    index: dict = defaultdict(count().__next__)  # a new label gets the next index
    pinned = False
    had_edges = False
    edge_error = None
    seen: dict = {}  # edge -> line of its first appearance
    lookup = index.__getitem__

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0][0] == "!":
            if tokens[0] != "!vertices":
                raise HgParseError(f"unknown directive {tokens[0]!r}", lineno)
            if pinned:
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
                lookup(label)
            index.default_factory = None  # unknown labels now raise KeyError
            pinned = True
            continue
        had_edges = True
        if edge_error is not None:
            continue
        try:
            edge = tuple(sorted(map(lookup, tokens)))
        except KeyError:
            edge = None
        if edge is None or len(tokens) < 2 or len(set(edge)) != len(edge):
            edge_error = _edge_error(tokens, index, lineno)
            continue
        first = seen.setdefault(edge, lineno)
        if first != lineno:
            edge_error = HgParseError(
                f"edge duplicates the set on line {first}", lineno
            )

    if edge_error is not None:
        raise edge_error
    if not index:
        raise HgParseError("no vertices defined", 1)
    return Hypergraph(n=len(index), edges=tuple(sorted(seen)), labels=tuple(index))


def _edge_error(tokens: list, index: dict, lineno: int) -> HgParseError:
    """The error for an edge line that is not a valid edge, by the rules'
    priority: a repeated label, then too few labels, then an unpinned label."""
    if len(set(tokens)) != len(tokens):
        return HgParseError("edge repeats a vertex label", lineno)
    if len(tokens) < 2:
        return HgParseError(f"edge {tokens} has fewer than two vertices", lineno)
    missing = next(label for label in tokens if label not in index)
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
