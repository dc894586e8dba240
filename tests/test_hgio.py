"""Reading and writing the line-oriented .hg text format."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperlap as hl


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
           "\t", "\x0b", "\x1c", " "]


def _outcome(parse, text):
    try:
        return parse(text)
    except hl.HgParseError as exc:
        return (str(exc), exc.line)


@settings(max_examples=400, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=40))
def test_loads_matches_two_pass_parser(pieces):
    # The same Hypergraph (labels included), or the same error and line.
    text = "".join(pieces)
    assert _outcome(hl.loads, text) == _outcome(_loads_loops, text)


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
    assert _outcome(hl.loads, text) == _outcome(_loads_loops, text)


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
    back = hl.loads(hl.dumps(h))
    labels = h.labels if h.labels is not None else tuple(map(str, range(h.n)))
    assert back == hl.Hypergraph(n=h.n, edges=h.edges, labels=labels)
