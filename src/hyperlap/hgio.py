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

``loads`` reads a long text with no Python object per token.  It takes
the text as one array of code units, its bytes when it is ASCII and UTF-32
otherwise, and finds every token and every token's line in a few numpy
passes over it, with the whitespace of ``str.split`` and the line breaks
of ``str.splitlines``.  A line is a comment or a directive by the first
code unit of its first token; the directive, of which a valid text has at
most one, is split and checked in Python.  Each label token is matched to
its vertex by its code units, read as 8-byte words masked to the token's
length: by a hash of the words, then a comparison word by word with the
label's own, so that a hash collision never gives a wrong vertex.  The
tokens a collision involves fall back to a dict; in the rare text without
the directive where a collision hides a label's first appearance, the
text is read again line by line.  A short text, below 5000 code units, is
read line by line in Python from the start, which costs less there than
those numpy calls' fixed overhead; both readers give the same universe,
vertex indices and errors.

The per-edge work that follows, sorting each edge, finding repeated labels
and duplicate sets, and ordering the edges, is a few numpy calls over the
flat runs of all the edges' vertex indices, so that it costs O(sum |e|)
bytes however the edge sizes are spread.  It builds the canonical
Hypergraph itself, without re-checking it through
``Hypergraph.from_edges``, and hands it the incidence table
(``Hypergraph._incidence``) that those calls leave behind, so no later
pass builds it from the edge tuples again.
"""

from array import array
from typing import Optional

import numpy as np

from .core import LABEL_RULE, Hypergraph, edge_blocks, is_label
from .errors import HgParseError

# The code points for which ``str.isspace`` is true: what ``str.split``
# splits tokens at.
_SPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
    "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)
# The line breaks of ``str.splitlines``, which numbers the lines; "\r\n"
# is one break.
_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"

_ONES = np.uint64(2**64 - 1)
# Odd multipliers of the token hash (Knuth's multiplicative hashing).
_MIX = np.uint64(0x9E3779B97F4A7C15)
_MIX_LENGTH = np.uint64(0xC2B2AE3D27D4EB4F)
# Below this many code units the reader goes line by line in Python.  The
# code-unit reader's numpy calls cost about 0.3 ms whatever the text, twice
# the line reader's time on a 500-character text; the two readers cost the
# same at about 5000 to 6000 characters of edge lines.
_SHORT = 5000
# Tokens hashed and matched at a time, so that the words and keys of a
# large text are never all held at once.
_CHUNK = 1 << 13


def loads(text: str) -> Hypergraph:
    """Parse ``.hg`` text; parse errors carry 1-based line numbers.

    A short text is read line by line (:func:`_read_lines`), a long one by
    numpy passes over its code units (:func:`_read_units`); both give the
    universe, every edge line's vertex indices, sizes and line numbers, and
    the error of the first edge line with a label outside the universe.
    numpy then sorts every edge, finds repeated labels, short edges and
    duplicate sets, and puts the edges in canonical order
    (:func:`_canonical`).  The Hypergraph is built directly, already
    canonical, with its incidence table.  Directive errors take precedence
    over edge errors; among edge errors the first bad line wins, with the
    message the line's own tokens give (:func:`_edge_error`) or the line of
    the set it repeats.
    """
    # A leading byte-order mark is no part of the first line's first token.
    text = text.removeprefix("\ufeff")
    read = _read_lines if len(text) < _SHORT else _read_units
    universe, pinned, members, sizes, linenos, edge_error = read(text)
    incidence, bad = _canonical(len(universe), members, sizes)
    del members, sizes
    if bad is not None:
        line, again = bad
        lineno = int(linenos[line])
        if again < 0:
            tokens = text.splitlines()[lineno - 1].split()
            edge_error = _edge_error(tokens, universe if pinned else None, lineno)
        else:
            edge_error = HgParseError(
                f"edge duplicates the set on line {int(linenos[again])}", lineno
            )
    if edge_error is not None:
        raise edge_error
    del linenos
    if not universe:
        raise HgParseError("no vertices defined", 1)
    n = len(universe)
    h = Hypergraph(n=n, edges=_edge_tuples(n, incidence), labels=tuple(universe))
    vars(h)["_incidence"] = incidence  # the cached_property's slot
    return h


def _pin(universe: dict, tokens: list, lineno: int, pinned: bool, had_edges: bool) -> None:
    """Check a directive line's ``tokens`` by the rules, in their order,
    and put its labels in the empty ``universe``."""
    if tokens[0] != "!vertices":
        raise HgParseError(f"unknown directive {tokens[0]!r}", lineno)
    if pinned:
        raise HgParseError("repeated !vertices directive", lineno)
    if had_edges:
        raise HgParseError("!vertices must precede all edge lines", lineno)
    if len(tokens) < 2:
        raise HgParseError("!vertices needs at least one label", lineno)
    for label in tokens[1:]:
        if label in universe:
            raise HgParseError(f"duplicate label {label!r} in !vertices", lineno)
        if not is_label(label):
            raise HgParseError(f"vertex label {label!r} is not {LABEL_RULE}", lineno)
        universe[label] = len(universe)


class _Universe(dict):
    """Label -> vertex index.  A new label gets the next index until the
    universe is pinned; then, and for a token that is not a label, KeyError."""

    pinned = False

    def __missing__(self, label: str) -> int:
        if self.pinned or not is_label(label):
            raise KeyError(label)
        self[label] = index = len(self)
        return index


def _read_lines(text: str) -> tuple:
    """(universe, pinned, members, sizes, linenos, edge_error) of the text,
    by one pass over its lines that tokenises each line once and maps its
    labels to indices, interning them in first-appearance order or looking
    them up in the pinned universe."""
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
            _pin(index, tokens, lineno, index.pinned, had_edges)
            index.pinned = True
            continue
        had_edges = True
        if edge_error is not None:
            continue
        try:
            flat.extend(map(lookup, tokens))
        except KeyError:
            del flat[sum(sizes):]  # the indices of this line before the bad one
            edge_error = _edge_error(tokens, index if index.pinned else None, lineno)
            continue
        sizes.append(len(tokens))
        linenos.append(lineno)
    members = np.fromiter(flat, dtype=np.int64, count=len(flat))
    return index, index.pinned, members, np.array(sizes, dtype=np.int64), linenos, edge_error


def _read_units(text: str) -> tuple:
    """:func:`_read_lines`'s results, with no Python object per token.

    Tokens, lines and each line's kind come from numpy passes over the
    text's code units (:func:`_lines`), and the directive rules are checked
    in Python, in line order.  The universe is the directive's labels, or
    else the edge lines' distinct labels in first-appearance order
    (:func:`_first_appearances`).  Every edge token is matched to its
    vertex (:class:`_Matcher`), and a dict resolves the few that the
    matcher leaves.  A label that only the dict finds, in a text without
    the directive, has the whole text read by :func:`_read_lines`."""
    buf, units, width = _code_units(text)
    starts, ends, heads, linenos = _lines(units)
    counts = np.diff(heads, append=starts.size)
    first_unit = units[starts[heads]]
    directive = np.flatnonzero(first_unit == ord("!"))
    edge = first_unit != ord("#")
    edge[directive] = False
    del first_unit

    universe: dict = {}
    pinned = False
    first_edge = int(edge.argmax()) if edge.any() else heads.size
    for line in directive.tolist():
        head, last = heads[line], heads[line] + counts[line]
        tokens = text[starts[head] : ends[last - 1]].split()
        _pin(universe, tokens, int(linenos[line]), pinned, first_edge < line)
        pinned = True
        matcher = _Matcher(buf, width, starts[head + 1 : last], ends[head + 1 : last])

    # From here on only the edge lines' tokens count.  Arrays go as soon
    # as they are read, to keep the peak low.
    on_edge = np.repeat(edge, counts)
    starts, ends = starts[on_edge], ends[on_edge]
    sizes, linenos = counts[edge], linenos[edge]
    del on_edge, heads, counts, edge, directive
    if not pinned:
        first = _first_appearances(buf, width, units, starts, ends)
        universe = {text[s:e]: i for i, (s, e) in enumerate(
            zip(starts[first].tolist(), ends[first].tolist())
        )}
        matcher = _Matcher(buf, width, starts[first], ends[first])
    index = matcher.match(starts, ends)
    del matcher, buf, units

    # The matcher leaves a token outside the universe, or one whose hash
    # collides; a dict tells them apart, up to the first token outside.
    outside = None
    for i in np.flatnonzero(index < 0).tolist():
        label = text[starts[i] : ends[i]]
        v = universe.get(label)
        if v is None and not pinned and is_label(label):
            # A label whose hash collides with an earlier token's, which
            # _first_appearances dropped: rare enough to read the text again.
            return _read_lines(text)
        if v is None:
            outside = i
            break
        index[i] = v
    del starts, ends

    # Edge lines up to the first with a label outside the universe.
    edge_error = None
    if outside is not None:
        kept = int(np.searchsorted(np.cumsum(sizes), outside, side="right"))
        lineno = int(linenos[kept])
        tokens = text.splitlines()[lineno - 1].split()
        edge_error = _edge_error(tokens, universe if pinned else None, lineno)
        sizes = sizes[:kept]
        index = index[: int(sizes.sum())]
    return universe, pinned, index.astype(np.int64), sizes, linenos, edge_error


def _code_units(text: str) -> tuple:
    """(buf, units, width): the text's code units, one byte each (width 1)
    when it is ASCII and UTF-32 otherwise, lone surrogates included, both
    as a numpy array and as the bytes under it.  The bytes end in 8 zeros,
    so that an 8-byte word can be read at any unit."""
    if text.isascii():
        buf, width = text.encode("ascii"), 1
    else:
        buf, width = text.encode("utf-32-le", "surrogatepass"), 4
    buf += bytes(8)
    units = np.frombuffer(buf, dtype=f"<u{width}")[: len(text)]
    return buf, units, width


def _among(units, chars: str) -> np.ndarray:
    """Whether each code unit is one of ``chars``: one comparison for each
    run of consecutive code points below 128 among them, and a table for
    the others, which only UTF-32 units can be."""
    runs: list = []
    for code in sorted(map(ord, chars)):
        if runs and runs[-1][1] == code - 1:
            runs[-1][1] = code
        elif code < 128:
            runs.append([code, code])
    hit = np.zeros(units.size, dtype=bool)
    for low, high in runs:
        hit |= units - units.dtype.type(low) <= high - low  # below low wraps
    if units.dtype.itemsize > 1:
        codes = np.array([ord(c) for c in chars if ord(c) >= 128], dtype=units.dtype)
        wide = np.flatnonzero(units >= 128)
        hit[wide] = np.isin(units[wide], codes)
    return hit


def _lines(units) -> tuple:
    """(starts, ends, heads, linenos) of the text's tokens: where each
    starts and ends, the first token of each line that has one, and each
    such line's 1-based number, as ``str.split`` and ``str.splitlines``
    give them.  Positions are int32 where the text allows."""
    position = np.int32 if units.size < 2**31 else np.int64
    space = np.ones(units.size + 2, dtype=bool)  # a space before and after
    space[1:-1] = _among(units, _SPACE)
    # Unit i starts a token when it is no space and unit i - 1 is, and it
    # ends one when unit i + 1 is a space.
    starts = np.flatnonzero(space[:-2] > space[1:-1]).astype(position)
    ends = np.flatnonzero(space[1:-1] < space[2:])
    ends += 1
    ends = ends.astype(position)
    del space
    breaks = np.flatnonzero(_among(units, _BREAKS)).astype(position)
    # "\r\n" is one break: drop each "\n" right after a "\r".
    crlf = (breaks[1:] - breaks[:-1] == 1) & (units[breaks[1:]] == ord("\n"))
    crlf &= units[breaks[:-1]] == ord("\r")
    breaks = np.delete(breaks, np.flatnonzero(crlf) + 1)
    # The token after each break.  A line's first token follows the line's
    # last break, and is preceded by one break more than that break.
    after = np.searchsorted(starts, breaks)
    last = np.flatnonzero(np.diff(after, append=starts.size + 1))
    heads, linenos = after[last], last + 2
    if heads.size and heads[-1] == starts.size:  # breaks after the last token
        heads, linenos = heads[:-1], linenos[:-1]
    if starts.size and not (heads.size and heads[0] == 0):  # no break before it
        heads = np.concatenate(([0], heads))
        linenos = np.concatenate(([1], linenos))
    return starts, ends, heads, linenos


def _words(buf: bytes, width: int, starts, ends) -> tuple:
    """(words, lead, nbytes): the code units of each token as
    little-endian 8-byte words, zero past its end, with token i's words
    from ``lead[i]`` on, and each token's length in bytes."""
    view = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    at = starts.astype(np.int64) * width
    nbytes = (ends - starts) * width
    count = (nbytes + 7) >> 3
    if count.max(initial=1) == 1:
        lead = np.arange(starts.size)
        words = view[at]
    else:
        lead = np.cumsum(count) - count
        at -= 8 * lead
        words = view[np.repeat(at, count) + 8 * np.arange(lead[-1] + count[-1])]
    tail = (nbytes - 8 * count + 8).astype(np.uint64)  # 1 to 8 bytes
    mask = _ONES >> (np.uint64(64) - np.uint64(8) * tail)
    if words.size == starts.size:
        words &= mask
    else:
        words[lead + count - 1] &= mask
    return words, lead, nbytes


def _keys(words, lead, nbytes) -> np.ndarray:
    """A 32-bit hash of each token's words and length."""
    if words.size == nbytes.size:  # one word each
        key = words * _MIX
    else:
        place = np.arange(words.size) - np.repeat(lead, np.diff(lead, append=words.size))
        key = np.add.reduceat(words * (_MIX * (2 * place.astype(np.uint64) + 1)), lead)
    key += nbytes.astype(np.uint64) * _MIX_LENGTH
    key >>= np.uint64(32)
    return key.astype(np.uint32)


def _chunks(size: int):
    return (slice(at, at + _CHUNK) for at in range(0, size, _CHUNK))


def _first_appearances(buf: bytes, width: int, units, starts, ends) -> np.ndarray:
    """The positions, ascending, of the tokens that first show each
    distinct hash and are labels: the first appearance of every label,
    but for one whose hash collides with an earlier token's.

    Chunk by chunk, the tokens are sorted stably by hash, so each hash's
    first token leads its run, and a hash not seen in an earlier chunk
    appears first there."""
    seen = np.empty(0, dtype=np.uint32)
    first = []
    for part in _chunks(starts.size):
        keys = _keys(*_words(buf, width, starts[part], ends[part]))
        order = _argsort(keys)
        keys = keys[order]
        lead = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=lead[1:])
        keys, order = keys[lead], order[lead]
        new = ~np.isin(keys, seen, assume_unique=True)
        first.append(order[new] + part.start)
        seen = np.concatenate((seen, keys[new]))
    first = np.sort(np.concatenate(first), kind="stable") if first else np.empty(0, np.int64)
    unit = units[starts[first]]
    return first[(unit != ord("#")) & (unit != ord("!"))]


class _Matcher:
    """The vertex of each token among labels given as tokens of the same
    text, by the labels' hashes: a table on their top bits, a search of
    the sorted hashes for the slots that two labels share, then a
    comparison of the lengths and of the words.  A token that no label
    equals gets -1, as does one whose hash collides with another label's;
    no token gets a wrong vertex."""

    def __init__(self, buf: bytes, width: int, starts, ends):
        self.buf, self.width = buf, width
        self.words, self.lead, self.nbytes = _words(buf, width, starts, ends)
        keys = _keys(self.words, self.lead, self.nbytes)
        bits = min(16, keys.size.bit_length() + 6)
        self.shift = np.uint32(32 - bits)
        slot = keys >> self.shift
        self.table = np.full(1 << bits, -1, dtype=np.int32)
        self.table[slot] = np.arange(keys.size)
        slot.sort(kind="stable")
        self.table[slot[1:][slot[1:] == slot[:-1]]] = -2  # shared
        self.order = np.argsort(keys, kind="stable")
        self.sorted = keys[self.order]

    def match(self, starts, ends) -> np.ndarray:
        index = np.empty(starts.size, dtype=starts.dtype)
        for part in _chunks(starts.size):
            words, lead, nbytes = _words(self.buf, self.width, starts[part], ends[part])
            keys = _keys(words, lead, nbytes)
            label = self.table[keys >> self.shift]
            shared = np.flatnonzero(label == -2)
            if shared.size:
                at = np.searchsorted(self.sorted, keys[shared])
                label[shared] = self.order[np.minimum(at, self.order.size - 1)]
            known = np.maximum(label, 0)
            same = (label >= 0) & (self.nbytes[known] == nbytes)
            if words.size == nbytes.size and self.words.size == self.nbytes.size:
                same &= self.words[known] == words
            else:
                count = np.diff(lead, append=words.size)
                at = np.repeat(self.lead[known] - lead, count) + np.arange(words.size)
                np.minimum(at, self.words.size - 1, out=at)  # unequal lengths
                same &= np.logical_and.reduceat(self.words[at] == words, lead)
            index[part] = np.where(same, label, -1)
        return index


def _canonical(n: int, members, sizes) -> tuple:
    """(incidence, bad) of edge lines given as runs of ``sizes``
    vertex indices in the int64 array ``members``, which it reuses, with
    lines counted from 0.

    ``incidence`` is the canonical edges' ``Hypergraph._incidence``.
    ``bad`` is None when every line is a distinct edge of two or more
    distinct vertices.  Otherwise it is the first bad line: (line, -1) for
    one that repeats a label or has fewer than two, or (line, first) for
    one that repeats the set of line ``first``, the first line with that
    set.  Every step works on the flat runs, so it costs O(sum |e|) bytes
    however the edge sizes are spread."""
    m = sizes.size
    starts = np.cumsum(sizes) - sizes
    # Offset by line * n, all the indices sort as one array, and each
    # line's run comes out sorted in place.  Equal neighbours are then a
    # label repeated on one line.  Every sort here is the stable one: on
    # first use numpy's int64 quicksort and argsort map about 0.5 MiB more
    # of their code into the process.
    offset = np.repeat(np.arange(m) * n, sizes)
    members += offset
    members.sort(kind="stable")
    twice = np.flatnonzero(members[1:] == members[:-1]) + 1
    members -= offset
    del offset
    invalid = np.flatnonzero(sizes < 2)[:1].tolist()
    invalid += (np.searchsorted(starts, twice[:1], side="right") - 1).tolist()
    rank = _ranks(n, members, starts, sizes)
    # Distinct sets have distinct ranks, which place the lines at once.
    order = np.zeros(m, dtype=np.int64)
    order[rank] = np.arange(m)
    bad = [(min(invalid), -1)] if invalid else []
    if not np.array_equal(rank[order], np.arange(m)):  # a set repeats
        # The stable sort keeps equal sets in line order.
        order = np.argsort(rank, kind="stable")
        rank = rank[order]
        again = np.flatnonzero(rank[1:] == rank[:-1]) + 1
        repeat = again[order[again].argmin()]
        first = np.searchsorted(rank, rank[repeat])
        bad.append((int(order[repeat]), int(order[first])))
    if bad:
        return None, min(bad)
    # The incidence table in canonical order.  The line-order arrays go as
    # soon as they are read, to keep the peak low.
    sizes = sizes[order]
    moved = np.cumsum(sizes) - sizes
    source = np.repeat(starts[order] - moved, sizes)
    del starts, order, rank
    source += np.arange(source.size)
    members = members[source]
    del source
    return (members, moved, sizes), None


def _edge_tuples(n: int, incidence: tuple) -> tuple:
    """The edge tuples of an incidence table over ``n`` vertices: the rows
    of each size class in one zip, each put at its edges' places.  The
    tuples share one int object per vertex.  CPython shares the ints up to
    256 itself; above, ``tolist`` of the indices would make one per member,
    about 32 bytes each for the Hypergraph's life, so the rows are gathered
    from one object array of the vertices."""
    vertices = np.arange(n).astype(object) if n > 257 else None
    edges = np.empty(incidence[2].size, dtype=object)
    for at, block in edge_blocks(incidence):
        rows = block if vertices is None else vertices[block]
        edges[at] = np.fromiter(zip(*rows.T.tolist()), dtype=object, count=at.size)
    return tuple(edges.tolist())


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
        size = sizes[live]
        stop = min(c + w, int(size.max()) + 1)
        key = rank[live]
        begin = starts[live]
        last = begin + size - 1
        for j in range(c, stop):
            column = members[np.minimum(begin + j, last)] + 1
            column[size <= j] = 0
            key *= base
            key += column
        del begin, last, column
        sort = _argsort(key)
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


def _argsort(keys) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative integers, by
    stable sorts of 16 bits at a time from the lowest, each of which numpy
    does as a radix sort."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low 16
    for shift in range(16, int(keys.max(initial=0)).bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _edge_error(tokens: list, universe: Optional[dict], lineno: int) -> HgParseError:
    """The error for an edge line that is not a valid edge, by the rules'
    priority: a repeated label, then too few labels, then the first token
    outside the universe, which either is not a label or is not in the
    pinned ``universe`` (None when unpinned)."""
    if len(set(tokens)) != len(tokens):
        return HgParseError("edge repeats a vertex label", lineno)
    if len(tokens) < 2:
        return HgParseError(f"edge {tokens} has fewer than two vertices", lineno)
    missing = next(
        label for label in tokens
        if not is_label(label) or (universe is not None and label not in universe)
    )
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
