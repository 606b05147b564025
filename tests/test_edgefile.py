import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kegraphs.edgefile import (
    GraphFormatError,
    format_graph,
    parse_graph,
    read_graph,
    write_graph,
)
from kegraphs.constructions import random_graph
from kegraphs.graph import Graph
from kegraphs.limits import CapExceededError


def test_round_trip_is_bit_exact():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 10)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        text = format_graph(g)
        assert parse_graph(text) == g
        assert format_graph(parse_graph(text)) == text


def test_comments_and_blank_lines_are_skipped():
    g = parse_graph("c hello\n\np 3 1\nc mid\ne 0 2\n")
    assert g.n == 3 and g.edges == {(0, 2)}


def test_edges_are_written_sorted():
    text = format_graph(random_graph(8, 0.5, 1))
    lines = text.splitlines()
    edge_lines = [tuple(map(int, l.split()[1:])) for l in lines[1:]]
    assert edge_lines == sorted(edge_lines)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("e 0 1\np 2 1\n", 1),          # edge before header
        ("p 2\n", 1),                   # short header
        ("p 2 x\n", 1),                 # non-integer count
        ("p 2 1\np 2 1\n", 2),          # duplicate header
        ("p 2 1\ne 0 0\n", 2),          # self-loop
        ("p 2 1\ne 0 5\n", 2),          # out of range
        ("p 2 2\ne 0 1\ne 1 0\n", 3),   # duplicate edge
        ("p 2 1\nq 0 1\n", 2),          # unknown line type
        ("p 2 1\ne 0 one\n", 2),        # non-integer endpoint
        ("p 1_0 0\n", 1),               # digit separator
        ("p 2 1\ne 0 \u0661\n", 2),      # Arabic-Indic one
        ("p 2 1\ne +0 1\n", 2),         # sign
        ("p 2 1\nc x\x85c y\ne 0 9\n", 3),  # U+0085 inside a comment
        ("p 2 1\re 0 1\n", 1),          # a lone CR ends no line
        ("p 2 1\ne 0\x1c1\n", 2),        # file separator between fields
        ("p 2 1\ne 0\v1\n", 2),          # vertical tab between fields
        ("p 2 1\ne 0 1\f\n", 2),         # trailing form feed
        ("\x1fp 2 0\n", 1),             # leading unit separator
        ("\x1ec x\np 2 0\n", 1),        # a control character is no comment
        ("p 2 1\n\x1d\ne 0 1\n", 2),    # a line of one control character
        ("p 2 1\ne 0 1\r\r\n", 2),      # only one trailing CR is dropped
        ("p 2 1\ne 0\x7f 1\n", 2),       # DEL
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert err.value.line_no == line_no


def test_edge_count_mismatch():
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 2\ne 0 1\n")


def test_missing_header():
    with pytest.raises(GraphFormatError):
        parse_graph("c only a comment\n")


# 1 followed by 5000 zeros: past the 4300 digits int() reads by default
LONG = "1" + "0" * 5000


def test_an_over_long_order_is_refused_at_the_cap():
    with pytest.raises(CapExceededError) as err:
        parse_graph(f"p {LONG} 0\n", max_order=16)
    assert str(err.value) == f"graph file refuses n={LONG} above cap 16"


def test_an_over_long_order_without_a_cap_is_a_format_error():
    with pytest.raises(GraphFormatError) as err:
        parse_graph(f"c x\np {LONG} 0\n")
    assert err.value.line_no == 2 and "more than 640 digits" in str(err.value)


@pytest.mark.parametrize("text, line_no, message", [
    (f"p 3 1\ne {LONG} 2\n", 2, f"edge ({LONG}, 2) out of range for n=3"),
    (f"p 3 1\ne 0 {LONG}\n", 2, f"edge (0, {LONG}) out of range for n=3"),
    (f"p 3 1\ne {LONG} {LONG}\n", 2, f"self-loop at vertex {LONG}"),
    (f"p 3 1\ne {LONG} 1{LONG}\n", 2, f"edge ({LONG}, 1{LONG}) out of range for n=3"),
    (f"p 3 {LONG}\ne 1 2\n", 1, f"p line declares {LONG} edges, found 1"),
    (f"p 3 {LONG}\ne 1 2\ne 1 9\n", 3, "edge (1, 9) out of range for n=3"),
])
def test_over_long_numbers_get_the_errors_of_their_values(text, line_no, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text, max_order=16)
    assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {message}")


@pytest.mark.parametrize("zeros", [1, 639, 640, 4300, 5000])
def test_leading_zeros_are_ignored_at_any_length(zeros):
    pad = "0" * zeros
    text = f"p {pad}3 {pad}1\ne {pad}1 {pad}2\n"
    assert parse_graph(text, max_order=16) == parse_graph("p 3 1\ne 1 2\n")
    assert parse_graph(text) == Graph(3, [(1, 2)])


def test_file_round_trip(tmp_path):
    g = random_graph(7, 0.4, 9)
    target = tmp_path / "g.gr"
    write_graph(target, g)
    assert read_graph(target) == g


def test_only_newline_ends_a_line():
    # U+0085 and U+2028 are line breaks to str.splitlines, not to the format
    for brk in ("\x85", "\u2028", "\x1c", "\v"):
        assert parse_graph(f"p 2 1\nc caf{brk}e\ne 0 1\n") == Graph(2, [(0, 1)])
    assert parse_graph("c crlf\r\np 2 1\r\ne 0 1\r\n") == Graph(2, [(0, 1)])


def test_both_error_paths_number_lines_alike(tmp_path):
    target = tmp_path / "g.gr"
    target.write_bytes("p 2 1\nc x\x85c y\ne 0 9\n".encode())
    with pytest.raises(GraphFormatError) as parse_err:
        read_graph(target)
    target.write_bytes("p 2 1\nc x\x85c y\ne 0 ".encode() + b"\xff\n")
    with pytest.raises(GraphFormatError) as decode_err:
        read_graph(target)
    assert parse_err.value.line_no == decode_err.value.line_no == 3


# Characters a hand-edited file might slip into a line: other line breaks,
# non-ASCII digits and spaces, signs and digit separators.
MUTATIONS = ["\x85", "\u2028", "\u2003", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
             "\x1f", "\u0661", "\u00b2", "_", "+", "-", " ", "\t", "0", "7", "c",
             "\n"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_accepted_files_have_canonical_tokens(data):
    n = data.draw(st.integers(0, 5))
    g = random_graph(n, 0.5, data.draw(st.integers(0, 1 << 20)))
    text = "c a comment\n" + format_graph(g)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(MUTATIONS)) + text[at:]
    lines = text.split("\n")
    try:
        parse_graph(text)
    except GraphFormatError as err:
        assert 1 <= err.line_no <= len(lines)
        return
    for line in lines:
        # only spaces and tabs around fields, and one trailing CR
        body = line.removesuffix("\r").strip(" \t")
        if body and not body.startswith("c"):
            assert re.fullmatch("[pe]([ \t]+[0-9]+){2}", body), repr(line)
