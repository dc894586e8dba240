"""Reading and writing the line-oriented .hg text format."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl
from hyperlap import hgio


SAMPLE = """\
# a small test file

!vertices a b c d
a b c
c d
"""


def test_loads_basic():
    h = hl.loads(SAMPLE)
    assert h.n == 4
    assert h.edges == ((0, 1, 2), (2, 3))
    assert h.labels == ("a", "b", "c", "d")


def test_loads_without_directive_uses_first_appearance_order():
    h = hl.loads("x z\nz y\n")
    assert h.labels == ("x", "z", "y")
    assert h.edges == ((0, 1), (1, 2))


def test_loads_ignores_blank_and_comment_lines():
    h = hl.loads("\n# note\n  \nu v\n")
    assert h.n == 2
    assert h.m == 1


def test_directive_pins_isolated_vertices():
    h = hl.loads("!vertices p q r\np q\n")
    assert h.n == 3
    assert hl.connected_components(h) == [[0, 1], [2]]


def test_dumps_round_trip(g_mixed_sizes):
    text = hl.dumps(g_mixed_sizes)
    back = hl.loads(text)
    assert back.n == g_mixed_sizes.n
    assert back.edges == g_mixed_sizes.edges


def test_dumps_comment_lines():
    h = hl.Hypergraph.from_edges([(0, 1)], n=2, labels=("a", "b"))
    text = hl.dumps(h, comment="first\nsecond")
    assert text.splitlines()[:2] == ["# first", "# second"]
    assert hl.loads(text) == h


def test_labels_that_start_a_comment_or_directive_are_refused():
    # Written out, '!x' would start the edge line "!x y" as a directive.
    with pytest.raises(hl.InvalidHypergraphError, match="vertex label '!x'"):
        hl.Hypergraph.from_edges([(0, 1)], n=2, labels=("!x", "y"))
    h = hl.Hypergraph.from_edges([(0, 1)], n=2, labels=("x!", "y#"))
    assert hl.loads(hl.dumps(h)) == h


def test_dump_load_files(tmp_path, g_triple_overlap):
    path = tmp_path / "g.hg"
    hl.dump(g_triple_overlap, str(path), comment="fixture")
    back = hl.load(str(path))
    assert back.edges == g_triple_overlap.edges


class TestParseErrors:
    def test_empty_input(self):
        with pytest.raises(hl.HgParseError, match="no vertices") as exc:
            hl.loads("")
        assert exc.value.line == 1

    def test_unknown_directive(self):
        with pytest.raises(hl.HgParseError, match="unknown directive"):
            hl.loads("!edges a b\n")

    def test_repeated_directive(self):
        with pytest.raises(hl.HgParseError, match="repeated") as exc:
            hl.loads("!vertices a b\n!vertices c d\n")
        assert exc.value.line == 2

    def test_directive_after_edge(self):
        with pytest.raises(hl.HgParseError, match="must precede"):
            hl.loads("a b\n!vertices a b\n")

    def test_directive_needs_labels(self):
        with pytest.raises(hl.HgParseError, match="at least one label"):
            hl.loads("!vertices\n")

    def test_duplicate_label_in_directive(self):
        with pytest.raises(hl.HgParseError, match="duplicate label"):
            hl.loads("!vertices a a\n")

    def test_edge_repeats_label(self):
        with pytest.raises(hl.HgParseError, match="repeats") as exc:
            hl.loads("a b a\n")
        assert exc.value.line == 1

    def test_edge_too_small(self):
        with pytest.raises(hl.HgParseError, match="fewer than two"):
            hl.loads("a\n")

    def test_unknown_label_when_pinned(self):
        with pytest.raises(hl.HgParseError, match="not in pinned universe"):
            hl.loads("!vertices a b\na c\n")

    def test_duplicate_edge_reports_first_line(self):
        with pytest.raises(hl.HgParseError, match="line 2") as exc:
            hl.loads("!vertices a b c\na b\nb a\n")
        assert exc.value.line == 3

    def test_directive_label_that_reads_as_comment(self):
        # Written back, the edge line "#a b" would read as a comment.
        with pytest.raises(hl.HgParseError, match="'#a' is not") as exc:
            hl.loads("!vertices #a b\nb #a\n")
        assert exc.value.line == 1

    def test_edge_label_that_reads_as_comment_or_directive(self):
        for text in ("a #b\n", "a !b\n", "!vertices a b\na !b\n"):
            with pytest.raises(hl.HgParseError, match="is not a nonempty") as exc:
                hl.loads(text)
            assert exc.value.line == text.count("\n")

    def test_label_rule_comes_after_repeats_and_before_pinning(self):
        cases = [
            ("a #b #b\n", "repeats"),
            ("!vertices a b\na c #d\n", "'c' not in pinned universe"),
            ("!vertices a b\na #d c\n", "'#d' is not"),
        ]
        for text, message in cases:
            with pytest.raises(hl.HgParseError, match=message):
                hl.loads(text)

    def test_message_carries_line_prefix(self):
        with pytest.raises(hl.HgParseError, match=r"^line 3:"):
            hl.loads("a b\nb c\nc\n")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_random(seed):
    h = hl.random_hypergraph(n=8, m=6, k_min=2, k_max=4, seed=seed)
    back = hl.loads(hl.dumps(h))
    assert back.n == h.n and back.edges == h.edges


@pytest.mark.parametrize(
    "data, line",
    [
        (b"\xff\xfe a b\n", 1),
        (b"a b\r\nc d\r\n\n# caf\xc3\xa9\nb \xe9 c\n", 5),
        (b"a b\r\xff\n", 2),
    ],
)
def test_load_rejects_non_utf8_with_line(tmp_path, data, line):
    path = tmp_path / "bad.hg"
    path.write_bytes(data)
    with pytest.raises(hl.HgParseError, match="UTF-8") as exc:
        hl.load(str(path))
    assert exc.value.line == line


_BOM = "\ufeff"


@pytest.mark.parametrize(
    "text",
    ["!vertices a b c\na b\nb c\n", "# comment\na b\nb c\n"],
    ids=["directive", "comment"],
)
def test_loads_drops_a_leading_byte_order_mark(text):
    # Only the first character is dropped: a second one is a label's.
    assert hl.loads(_BOM + text) == hl.loads(text)
    assert hl.loads(_BOM + _BOM + "a b\n").labels == (_BOM + "a", "b")


def test_load_of_a_byte_order_mark_file_names_the_bad_byte_line(tmp_path):
    path = tmp_path / "bom.hg"
    path.write_bytes(_BOM.encode("utf-8") + b"a b\nb c\nc \xff\n")
    with pytest.raises(hl.HgParseError, match="0xff") as exc:
        hl.load(str(path))
    assert exc.value.line == 3


_NOT_A_LABEL = (
    "vertex label {!r} is not a nonempty string without whitespace,"
    " not starting with '#' or '!'"
)


def _loads_loops(text):
    """The two-pass parser that `loads` replaced, kept as the oracle."""
    text = text.removeprefix(_BOM)  # as loads drops a leading byte-order mark
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
                raise hl.HgParseError(f"unknown directive {tokens[0]!r}", lineno)
            if pinned:
                raise hl.HgParseError("repeated !vertices directive", lineno)
            if edge_rows:
                raise hl.HgParseError(
                    "!vertices must precede all edge lines", lineno
                )
            if len(tokens) < 2:
                raise hl.HgParseError("!vertices needs at least one label", lineno)
            for label in tokens[1:]:
                if label in index:
                    raise hl.HgParseError(
                        f"duplicate label {label!r} in !vertices", lineno
                    )
                if label[0] in "#!":
                    raise hl.HgParseError(_NOT_A_LABEL.format(label), lineno)
                intern(label)
            pinned = True
            continue
        edge_rows.append((lineno, line.split()))

    edges = []
    seen: dict = {}
    for lineno, tokens in edge_rows:
        if len(set(tokens)) != len(tokens):
            raise hl.HgParseError("edge repeats a vertex label", lineno)
        if len(tokens) < 2:
            raise hl.HgParseError(
                f"edge {tokens} has fewer than two vertices", lineno
            )
        for label in tokens:
            if label[0] in "#!":
                raise hl.HgParseError(_NOT_A_LABEL.format(label), lineno)
            if pinned and label not in index:
                raise hl.HgParseError(
                    f"label {label!r} not in pinned universe", lineno
                )
        edge = tuple(sorted(intern(label) for label in tokens))
        if edge in seen:
            raise hl.HgParseError(
                f"edge duplicates the set on line {seen[edge]}", lineno
            )
        seen[edge] = lineno
        edges.append(edge)

    if not order:
        raise hl.HgParseError("no vertices defined", 1)
    return hl.Hypergraph.from_edges(edges, n=len(order), labels=order)


_PIECES = ["a", "b", "c", "d", "#", "!vertices", "!other", "\n", "\n\n",
           "\t", "\x0b", "\x0c", "\x1c", "\x1f", " ", "\r\n", "\r", "\x1d",
           "\x1e", "\x85", "\xa0", "\u1680", "\u2000", "\u202f", "\u3000",
           "\u2028", "\u2029", _BOM, "a a", "a b c", "c a b", "a\x00", "\xe9",
           "\xfc", "vertex_0001", "vertex_0002"]


def _outcome(parse, text):
    try:
        return parse(text)
    except hl.HgParseError as exc:
        return (str(exc), exc.line)


def _loads_units(text):
    """``loads`` with no text too short for the code-unit reader, which
    then reads every ASCII text whose directive precedes its edge lines, in
    chunks of a few tokens."""
    short, chunk = hgio._SHORT, hgio._CHUNK
    hgio._SHORT, hgio._CHUNK = 0, 5
    try:
        return hl.loads(text)
    finally:
        hgio._SHORT, hgio._CHUNK = short, chunk


def _assert_readers_match(text):
    """Both readers give what the two-pass parser gives: the same
    Hypergraph (labels included), or the same error and line."""
    want = _outcome(_loads_loops, text)
    assert _outcome(hl.loads, text) == want
    assert _outcome(_loads_units, text) == want


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=40))
def test_loads_matches_two_pass_parser(pieces):
    _assert_readers_match("".join(pieces))


def test_reader_whitespace_and_line_breaks_are_those_of_str():
    chars = [chr(c) for c in range(0x110000)]
    assert hgio._SPACE == "".join(c for c in chars if c.isspace())
    breaks = "".join(c for c in chars if len(("x" + c + "x").splitlines()) == 2)
    assert hgio._BREAKS == breaks
    ascii_units = np.arange(256, dtype=np.uint8)
    assert np.array_equal(hgio._among(ascii_units, hgio._SPACE),
                          [c.isspace() for c in chars[:128]] + [False] * 128)


@pytest.mark.parametrize("text", [
    "!vertices a b vertex_0001 vertex_0002 \xe9\n"
    "a vertex_0001\nvertex_0002 \xe9 b\nb a\n",
    "x vertex_0001\nvertex_0002 y x\n# c\nz\xfc a\x00 y\n",
    "!vertices a b c\na b\nb d\n",
    "p q\nq r #s\n",
    "p q\nq r\nr p q\nq p\n",
    "!vertices a b vertex_0001 vertex_0002 e\n"
    "a vertex_0001\nvertex_0002 e b\nb a\n",
    "!vertices p q r\np q\nq r\nr p q\nq p\n",
])
def test_a_hash_that_every_token_shares_gives_no_wrong_vertex(monkeypatch, text):
    # With zero multipliers every token hashes alike, so every match of a
    # pinned ASCII text goes through the collision path.
    want = _outcome(_loads_loops, text)
    monkeypatch.setattr(hgio, "_MIX", np.uint64(0))
    monkeypatch.setattr(hgio, "_MIX_LENGTH", np.uint64(0))
    assert _outcome(_loads_units, text) == want


def _hash_by_length(monkeypatch):
    """Make a token's hash its length in bytes."""
    monkeypatch.setattr(hgio, "_MIX", np.uint64(0))
    monkeypatch.setattr(hgio, "_MIX_LENGTH", np.uint64(1 << 32))


_ROUTED_EDGES = "ab cd\nx ef\nef cd x\n" + "".join(f"v{i} w{i}\n" for i in range(600))
_ROUTED_LABELS = "ab cd x ef " + " ".join(f"v{i} w{i}" for i in range(600))


@pytest.mark.parametrize("text, units", [
    (_ROUTED_EDGES, False),
    (_ROUTED_EDGES + "!vertices " + _ROUTED_LABELS + "\n", False),
    ("\xe9 " + _ROUTED_EDGES, False),
    ("!vertices \xe9 " + _ROUTED_LABELS + "\n\xe9 " + _ROUTED_EDGES, False),
    ("# c\n!vertices " + _ROUTED_LABELS + "\n" + _ROUTED_EDGES, True),
], ids=["unpinned", "late_directive", "non_ascii", "non_ascii_pinned", "pinned_ascii"])
def test_only_a_long_pinned_ascii_text_is_read_by_code_units(monkeypatch, text, units):
    # Under hashes that collide ('cd' shares the hash of 'ab'), a long text
    # is matched by code units only when it is ASCII and its directive
    # precedes its edge lines; every other one is read line by line, so an
    # unpinned 'cd' still takes its first-appearance place, before 'x'.
    assert len(text) >= hgio._SHORT
    _hash_by_length(monkeypatch)
    built, matcher = [], hgio._Matcher

    def counted(*args):
        built.append(args)
        return matcher(*args)

    monkeypatch.setattr(hgio, "_Matcher", counted)
    want = _outcome(_loads_loops, text)
    assert _outcome(hl.loads, text) == want
    assert len(built) == units


def test_labels_that_share_a_table_slot_are_told_apart_by_their_hashes(monkeypatch):
    # Hashes 1, 2 and 3 all fall in slot 0; a search of the sorted hashes
    # still finds each label, and a token that equals none gets -1.
    _hash_by_length(monkeypatch)
    text = "a bb ccc dd ccc"
    buf = text.encode("ascii") + bytes(8)
    starts, ends, _, _ = hgio._lines(np.frombuffer(buf, dtype=np.uint8)[: len(text)])
    matcher = hgio._Matcher(buf, starts[:3], ends[:3])
    assert matcher.match(starts, ends).tolist() == [0, 1, 2, -1, 2]


@settings(max_examples=100, deadline=None)
@given(
    lines=st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4),
                   max_size=12),
    pin=st.booleans(),
)
def test_loads_matches_two_pass_parser_on_edge_lines(lines, pin):
    # Edge-heavy texts: duplicates, repeats and unpinned labels in any order.
    text = ("!vertices a b c d e\n" if pin else "") + "".join(
        " ".join(tokens) + "\n" for tokens in lines
    )
    _assert_readers_match(text)


_WIDE = "!vertices " + " ".join(f"v{v}" for v in range(3000)) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(1, 30), st.lists(st.integers(30, 2999), max_size=3)),
        min_size=1, max_size=12,
    ),
    again=st.booleans(),
    rnd=st.randoms(use_true_random=False),
)
def test_loads_matches_two_pass_parser_on_long_shared_prefixes(edges, again, rnd):
    # Edges that start with the same run 0, 1, ... of up to 30 vertices, out
    # of 3000: one int64 key then holds four columns, so ordering them takes
    # several passes.  Prefixes of each other, repeats and duplicates too.
    lines = [[f"v{v}" for v in [*range(length), *extra]] for length, extra in edges]
    if again:
        lines.append(list(rnd.choice(lines)))
    for line in lines:
        rnd.shuffle(line)
    text = _WIDE + "".join(" ".join(line) + "\n" for line in lines)
    _assert_readers_match(text)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(max_size=60),
    st.text(alphabet="ab!#\n\r\t \x0b\x1c\x85\u2028", max_size=60),
))
def test_loads_on_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        h = hl.loads(text)
    except hl.HgParseError as exc:
        assert exc.line >= 1
    else:
        assert isinstance(h, hl.Hypergraph)
    assert _outcome(_loads_units, text) == _outcome(hl.loads, text)


def _one_token(label: str) -> bool:
    # One token on one line; it may still start with '#' or '!'.
    one_line = len(("x" + label + "x").splitlines()) == 1
    return label.split() == [label] and one_line


@st.composite
def _hypergraphs(draw):
    """A Hypergraph, or None when a drawn label starts with '#' or '!' and
    ``from_edges`` duly refused it."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=2), unique=True, max_size=10
    )) if n >= 2 else []
    labels = draw(st.one_of(
        st.none(),
        st.lists(st.text(min_size=1, max_size=4).filter(_one_token),
                 min_size=n, max_size=n, unique=True),
        st.lists(st.sampled_from(["a", "b", "#", "!", "#a", "!b", "c#", "d!"]),
                 min_size=n, max_size=n, unique=True),
    ))
    if labels is not None and any(label[0] in "#!" for label in labels):
        with pytest.raises(hl.InvalidHypergraphError, match="not starting with"):
            hl.Hypergraph.from_edges(edges, n=n, labels=labels)
        return None
    return hl.Hypergraph.from_edges(edges, n=n, labels=labels)


@settings(max_examples=200, deadline=None)
@given(h=_hypergraphs())
def test_dumps_then_loads_round_trips(h):
    if h is None:
        return
    labels = h.labels if h.labels is not None else tuple(map(str, range(h.n)))
    for read in (hl.loads, _loads_units):
        back = read(hl.dumps(h))
        assert back == hl.Hypergraph(n=h.n, edges=h.edges, labels=labels)


def _incidence_of_edges(h):
    """The incidence table built from ``h.edges``, as without a reader."""
    return hl.Hypergraph(n=h.n, edges=h.edges, labels=h.labels)._incidence


def _assert_seeded(h):
    """``h`` carries the incidence table of its edges, and so does its
    Analysis, without building it again."""
    seeded = vars(h)["_incidence"]
    for got, want in zip(seeded, _incidence_of_edges(h), strict=True):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    assert vars(hl.analyze(h))["_incidence"] is seeded


def test_loads_without_edges():
    h = hl.loads("!vertices a b c\n")
    assert (h.n, h.edges, h.labels) == (3, (), ("a", "b", "c"))
    _assert_seeded(h)
    assert [x.size for x in h._incidence] == [0, 0, 0]


def test_loads_with_one_edge():
    h = hl.loads("# one\nb c a\n")
    assert (h.n, h.edges, h.labels) == (3, ((0, 1, 2),), ("b", "c", "a"))
    _assert_seeded(h)
    assert np.array_equal(h._incidence[0], [0, 1, 2])


@settings(max_examples=200, deadline=None)
@given(h=_hypergraphs(), rnd=st.randoms(use_true_random=False), pin=st.booleans())
def test_loads_seeds_the_incidence_table_of_its_edges(h, rnd, pin):
    # Edges and their members in any order, with and without the directive.
    if h is None:
        return
    labels = h.labels if h.labels is not None else tuple(map(str, range(h.n)))
    edges = [[labels[v] for v in edge] for edge in h.edges]
    rnd.shuffle(edges)
    for edge in edges:
        rnd.shuffle(edge)
    text = ("!vertices " + " ".join(labels) + "\n" if pin or not edges else "") + "".join(
        " ".join(edge) + "\n" for edge in edges
    )
    read = hl.loads(text)
    assert read.edges == tuple(sorted(tuple(sorted(map(read.labels.index, e)))
                                      for e in edges))
    _assert_seeded(read)


def test_loads_peak_memory_is_linear_in_the_members():
    # Many pairs and one edge of half the vertices: a table padded to the
    # widest edge would hold about 800 times as many entries as the members.
    n, rng = 4000, random.Random(3)
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(5000)}
    big = rng.sample(range(n), n // 2)
    text = "".join(
        " ".join(f"v{v}" for v in edge) + "\n" for edge in [range(n), big, *pairs]
    )
    members = n + n // 2 + 2 * len(pairs)
    tracemalloc.start()
    try:
        h = hl.loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.edges == tuple(sorted([tuple(range(n)), tuple(sorted(big)), *pairs]))
    assert peak <= 250 * members, f"{peak / members:.0f} bytes per member"


@pytest.mark.parametrize("n", [257, 258, 600])
def test_edge_tuples_share_one_int_per_vertex(n):
    # Indices above 256 are not ints that CPython shares by itself; the
    # edges of a large vertex set must still hold one int object per vertex,
    # not one per member, in both readers.  Vertex n - 1 is in every edge.
    text = "!vertices " + " ".join(f"v{v}" for v in range(n)) + "\n" + "".join(
        f"v{v} v{v + 1} v{n - 1}\n" for v in range(n - 2)
    )
    for read in (hl.loads, _loads_units):
        h = read(text)
        held = [v for edge in h.edges for v in edge]
        assert len({id(v) for v in held}) == len(set(held)) == n
