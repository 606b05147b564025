"""Immutable simple undirected graphs over dense 0-based vertex ids.

Vertices are the integers 0..n-1; edges are unordered pairs, read as
sorted tuples (min, max).  Graphs are value objects: every derived graph
(induced subgraph, vertex deletion, edge addition) is a new instance,
which keeps the theorem cross-checks free to compare many variants side
by side.

Graph() checks each given pair once, holding both endpoints to the rule
check_vertex applies (an int in [0, n), never coerced, so 1.9 is not
vertex 1, and never a bool, so True is not vertex 1 either; the order n
must be an int that is not a bool too).  Only a pair of two equal ints is
refused as a self-loop, so (1, True) is out of range, not a loop.  It
then ORs the pair into the two endpoints' neighbor masks, and does
nothing else: a repeated pair sets the same bits again, and no edge set
is built or sorted.

The masks are the only stored form of the edges.  Two views are built
from them on their first read and then kept, in slots of their own: the
ascending neighbor tuples _adj (_neighbor_tuples), which the traversals
walk, and the frozenset Graph.edges, which no package path reads.  m and
degree count mask bits, and == and hash compare the masks, so a graph
that is only built, sized, compared or hashed builds neither view.
Every reader that walks the edges (with_edge, _induced_subgraph, the
constructions, edgefile.format_graph) takes them from the tuples, in
lexicographic order from _ascending_edges where it needs a list.

Vertex ids from outside are checked where they enter: by the accessors
and by check_vertex_set.  Traversals over ids the package generated read
the neighbor tuples and masks directly, as matching and stable do, and
sets of such ids (the vertices a deletion keeps, a component) are spanned
by _induced_subgraph, which checks nothing again.

The module has one traversal, the BFS 2-colouring _colour_components.
connected_components, is_connected and bipartition each run it once;
analysis.Facts runs it once per graph and reads connectivity, the sides,
the components and the odd components (matching's base filter) off that
one result.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph construction or out-of-range vertex reference."""


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """A simple graph: no loops, no multi-edges, int endpoints in [0, n).

    The edges may come in any order and orientation, and repeated; each
    is checked and ORed into the neighbor masks, the one stored form.  The
    neighbor tuples _adj and the edges property are views of the masks,
    each built on its first read (__getattr__) and then kept.
    """

    __slots__ = ("n", "_adj", "_masks", "_edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a nonnegative integer, got {n!r}")
        self.n = n
        masks = [0] * n
        for u, v in edges:
            if u == v or not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                if u == v and type(u) is int and type(v) is int:
                    raise GraphError(f"self-loop at vertex {u}")
                raise GraphError(f"edge ({u!r}, {v!r}) out of range for n={n}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks: tuple[int, ...] = tuple(masks)

    def __getattr__(self, name: str):
        # Runs only when normal lookup fails, that is, while a view's slot
        # is unset: the view is built once, and later reads find the slot.
        if name == "_adj":
            self._adj: tuple[tuple[int, ...], ...] = _neighbor_tuples(self._masks)
            return self._adj
        if name == "_edges":
            self._edges: frozenset[Edge] = frozenset(_ascending_edges(self._adj))
            return self._edges
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- basic queries ---------------------------------------------------

    @property
    def edges(self) -> frozenset[Edge]:
        """The edges as (min, max) pairs, built on first read and kept."""
        return self._edges

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_vertex(self, v: int) -> None:
        if not (type(v) is int and 0 <= v < self.n):
            raise GraphError(f"vertex {v!r} out of range for n={self.n}")

    def check_vertex_set(self, xs: Iterable[int]) -> frozenset[int]:
        xs = frozenset(xs)
        for v in xs:
            self.check_vertex(v)
        return xs

    # -- derived graphs --------------------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        """A copy with edge uv added; uv must not already be present."""
        self.check_vertex(u)
        self.check_vertex(v)
        if self._masks[u] >> v & 1:
            raise GraphError(f"edge ({u}, {v}) already present")
        return Graph(self.n, _ascending_edges(self._adj) + [(u, v)])

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # for one n, equal masks mean equal edge sets
        return self.n == other.n and self._masks == other._masks

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _neighbor_tuples(masks: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Each mask's set bits in ascending order: the one function that
    builds Graph._adj, taking the lowest bit off until none is left."""
    adj = []
    for mask in masks:
        nbrs = []
        while mask:
            low = mask & -mask
            nbrs.append(low.bit_length() - 1)
            mask ^= low
        adj.append(tuple(nbrs))
    return tuple(adj)


def _ascending_edges(adj: Sequence[tuple[int, ...]]) -> list[Edge]:
    """The edges of the ascending neighbor tuples adj as (min, max) pairs,
    in lexicographic order: sorted(g.edges) without the set or the sort."""
    return [(u, v) for u, nbrs in enumerate(adj) for v in nbrs if v > u]


# -- vertex/edge set algebra ----------------------------------------------


def induced_subgraph(g: Graph, xs: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph spanned by xs, plus the old-id -> new-id relabeling map.

    New ids follow the ascending order of the old ids, so the map is the
    unique order-preserving bijection.
    """
    return _induced_subgraph(g, g.check_vertex_set(xs))


def _induced_subgraph(g: Graph, xs: frozenset[int]) -> tuple[Graph, dict[int, int]]:
    """induced_subgraph of ids the package made, not checked again."""
    ordered = sorted(xs)
    relabel = {old: new for new, old in enumerate(ordered)}
    adj = g._adj  # noqa: SLF001
    edges = [
        (new, relabel[v]) for new, u in enumerate(ordered) for v in adj[u]
        if v > u and v in relabel
    ]
    return Graph(len(ordered), edges), relabel


def delete_vertices(g: Graph, ws: Iterable[int]) -> Graph:
    """The subgraph spanned by all vertices outside ws."""
    ws = g.check_vertex_set(ws)
    sub, _ = _induced_subgraph(g, frozenset(g.vertices()) - ws)
    return sub


def neighborhood(g: Graph, xs: Iterable[int]) -> frozenset[int]:
    """Open neighborhood: all vertices adjacent to some member of xs."""
    xs = g.check_vertex_set(xs)
    adj = g._adj  # noqa: SLF001 - the ids were just checked
    out: set[int] = set()
    for v in xs:
        out.update(adj[v])
    return frozenset(out)


def complement_non_edges(g: Graph) -> tuple[Edge, ...]:
    """All unordered pairs of distinct vertices that are not edges of g."""
    out = []
    for u, mask in enumerate(g._masks):  # noqa: SLF001
        for v in range(u + 1, g.n):
            if not (mask >> v & 1):
                out.append((u, v))
    return tuple(out)


def connected_components(g: Graph) -> tuple[frozenset[int], ...]:
    """Maximal connected vertex sets, ordered by smallest member."""
    _, components = _colour_components(g._adj)  # noqa: SLF001
    return tuple(frozenset(component) for component, _ in components)


def is_connected(g: Graph) -> bool:
    return len(_colour_components(g._adj)[1]) <= 1  # noqa: SLF001


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """A 2-coloring as (side0, side1), or None if an odd cycle exists.

    Each component's smallest vertex goes to side0 (_colour_components),
    so the result is deterministic (and unique for connected graphs).
    The sides are read off the colouring by _sides, as Facts.sides reads
    them off the colouring it keeps.
    """
    return _sides(*_colour_components(g._adj))  # noqa: SLF001


def _sides(
    colour: list[int], components: list[tuple[list[int], bool]]
) -> tuple[frozenset[int], frozenset[int]] | None:
    """bipartition's answer, read off one _colour_components result."""
    if any(odd for _, odd in components):
        return None
    side0 = frozenset(v for v, c in enumerate(colour) if c == 0)
    side1 = frozenset(v for v, c in enumerate(colour) if c == 1)
    return side0, side1


def _colour_components(adj: Sequence[tuple[int, ...]]):
    """The package's one BFS 2-colouring, over the ascending neighbor
    tuples adj: each vertex's colour (0 at each component's smallest
    vertex) and the components in order of smallest member, each as
    (vertices in BFS order, whether an edge joins two of one colour, that
    is, whether the component is not bipartite)."""
    colour = [-1] * len(adj)
    components = []
    for start in range(len(adj)):
        if colour[start] != -1:
            continue
        colour[start] = 0
        component = [start]
        odd = False
        for v in component:  # grows as the BFS reaches new vertices
            for w in adj[v]:
                if colour[w] == -1:
                    colour[w] = colour[v] ^ 1
                    component.append(w)
                elif colour[w] == colour[v]:
                    odd = True
        components.append((component, odd))
    return colour, components


def pendant_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices of degree exactly one, ascending."""
    return tuple(v for v, nbrs in enumerate(g._adj) if len(nbrs) == 1)  # noqa: SLF001
