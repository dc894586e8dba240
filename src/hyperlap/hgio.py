"""Text serialization for hypergraphs (``.hg`` files).

Line-oriented UTF-8 format:

* lines whose first non-blank character is ``#`` are comments;
* an optional directive ``!vertices <label> ...`` pins the vertex universe
  and its order, and must be the first content line;
* every other non-empty line is one hyperedge given as whitespace-separated
  vertex labels (arbitrary non-whitespace tokens).

Without the directive the universe is the union of all labels in
first-appearance order. Labels that start with ``#`` or ``!`` cannot appear
as the first token of a line; generated files only use safe labels.
"""

from typing import Optional

from .core import Hypergraph
from .errors import HgParseError


def loads(text: str) -> Hypergraph:
    """Parse ``.hg`` text; parse errors carry 1-based line numbers."""
    order: list = []
    index: dict = {}
    pinned = False
    edge_rows = []

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(order)
            order.append(label)
        return index[label]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("!"):
            tokens = line.split()
            if tokens[0] != "!vertices":
                raise HgParseError(f"unknown directive {tokens[0]!r}", lineno)
            if pinned:
                raise HgParseError("repeated !vertices directive", lineno)
            if edge_rows:
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
                intern(label)
            pinned = True
            continue
        edge_rows.append((lineno, line.split()))

    edges = []
    seen: dict = {}
    for lineno, tokens in edge_rows:
        if len(set(tokens)) != len(tokens):
            raise HgParseError("edge repeats a vertex label", lineno)
        if len(tokens) < 2:
            raise HgParseError(
                f"edge {tokens} has fewer than two vertices", lineno
            )
        if pinned:
            for label in tokens:
                if label not in index:
                    raise HgParseError(
                        f"label {label!r} not in pinned universe", lineno
                    )
        edge = tuple(sorted(intern(label) for label in tokens))
        if edge in seen:
            raise HgParseError(
                f"edge duplicates the set on line {seen[edge]}", lineno
            )
        seen[edge] = lineno
        edges.append(edge)

    if not order:
        raise HgParseError("no vertices defined", 1)
    return Hypergraph.from_edges(edges, n=len(order), labels=order)


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
