"""Plain-text edge-list format.

Layout::

    c optional comment lines
    p <n> <m>
    e <u> <v>

Lines end at ``\n`` only; one trailing ``\r`` is dropped, and so are the
spaces and tabs at either end.  The first non-comment line must be the
``p`` line giving the vertex and edge counts; every following non-comment
line is an ``e`` line with 0-based endpoints, and only spaces and tabs
separate fields.  Only comments may hold control characters or characters
outside ASCII, and counts and endpoints are decimal digits and nothing
else: no sign and no ``_``.  Writers emit edges sorted
lexicographically, which makes the format bit-exact round-trippable.
Given max_order, a reader refuses a larger order at the ``p`` line,
before it builds the graph.
"""

from __future__ import annotations

import os

from .graph import Graph, _ascending_edges
from .limits import check_cap


class GraphFormatError(ValueError):
    """Parse failure; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def parse_graph(text: str, max_order: int | None = None) -> Graph:
    n = None
    m = None
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.removesuffix("\r").strip(" \t")
        if not line or line.startswith("c"):
            continue
        # one C-level test: printable ASCII once a tab counts as a space
        if not (line.isascii() and line.replace("\t", " ").isprintable()):
            raise GraphFormatError(line_no, "non-ASCII or control character outside a comment")
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise GraphFormatError(line_no, "duplicate p line")
            if len(fields) != 3:
                raise GraphFormatError(line_no, "expected 'p <n> <m>'")
            if not (fields[1].isdigit() and fields[2].isdigit()):  # ASCII digits
                raise GraphFormatError(line_no, "p line counts must be decimal digits")
            n, m = int(fields[1]), int(fields[2])
            if max_order is not None:
                check_cap(n, max_order, "graph file")
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(line_no, "e line before p line")
            if len(fields) != 3:
                raise GraphFormatError(line_no, "expected 'e <u> <v>'")
            if not (fields[1].isdigit() and fields[2].isdigit()):
                raise GraphFormatError(line_no, "edge endpoints must be decimal digits")
            u, v = int(fields[1]), int(fields[2])
            if u == v:
                raise GraphFormatError(line_no, f"self-loop at vertex {u}")
            if not (u < n and v < n):
                raise GraphFormatError(line_no, f"edge ({u}, {v}) out of range for n={n}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphFormatError(line_no, f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
        else:
            raise GraphFormatError(line_no, f"unknown line type {fields[0]!r}")
    if n is None:
        raise GraphFormatError(1, "missing p line")
    if len(seen) != m:
        raise GraphFormatError(1, f"p line declares {m} edges, found {len(seen)}")
    return Graph(n, seen)


def format_graph(g: Graph) -> str:
    edges = _ascending_edges(g._adj)  # noqa: SLF001
    lines = [f"p {g.n} {len(edges)}"]
    for u, v in edges:
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def read_graph(path: str | os.PathLike, max_order: int | None = None) -> Graph:
    """Parse the file at `path` as parse_graph does; a byte that is not
    UTF-8 is a GraphFormatError on its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(line_no, "not UTF-8 text") from None
    return parse_graph(text, max_order)


def write_graph(path: str | os.PathLike, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
