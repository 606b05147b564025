"""Graph constructions, figure fixtures, and seeded generators.

The constructive operations mirror the structural results they witness:
joining a stable side to a small side across a cut matching produces a
Koenig-Egervary graph; attaching a pendant pair to an empty-anticore KE
graph produces one with a singleton anticore; peeling the anticore
vertex and its matching partner undoes the attachment; gluing a clique
onto an edge-addition-stable bipartite base preserves stability.

Randomness always flows through random.Random (the Mersenne Twister)
seeded by the caller, so corpora are reproducible bit for bit.  A random
draw is an edge list first: the rejection samplers (random_connected_graph
here, verify.bipartite_corpus) test connectivity on the drawn edges, so a
rejected sample costs its random draws and a bitmask flood fill and builds
no Graph; each kept sample builds exactly one.
"""

from __future__ import annotations

import random
from typing import Iterable, NamedTuple

from .analysis import Facts, _peelable, _require, classify_alpha_plus
from .graph import Edge, Graph, GraphError, _ascending_edges, bipartition, delete_vertices
from .matching import matching_number


def _check_int(value: object, what: str) -> None:
    """Hold a size to the package's integer rule: an int, never coerced,
    and never a bool, so True is not 1."""
    if type(value) is not int:
        raise GraphError(f"{what} must be an integer, got {value!r}")


# -- joins and pendant pairs ---------------------------------------------------


def join(h1: Graph, h2: Graph, cross: Iterable[Edge]) -> Graph:
    """Disjoint union of h1 and h2 plus the given cross edges.

    Cross pairs are (h1-vertex, h2-vertex) in each side's own numbering;
    h2's ids are shifted by h1.n in the result.  At least one cross edge is
    required when both sides are nonempty.
    """
    cross = list(cross)
    for u, v in cross:  # each end an int that is not a bool, as Graph's are
        if not (type(u) is int and 0 <= u < h1.n):
            raise GraphError(f"cross pair ({u!r}, {v!r}): {u!r} is not an h1 vertex")
        if not (type(v) is int and 0 <= v < h2.n):
            raise GraphError(f"cross pair ({u!r}, {v!r}): {v!r} is not an h2 vertex")
    if h1.n and h2.n and not cross:
        raise GraphError("join of two nonempty graphs needs at least one cross edge")
    shift = h1.n
    edges = _ascending_edges(h1._adj)  # noqa: SLF001
    edges += [(u + shift, v + shift) for u, v in _ascending_edges(h2._adj)]  # noqa: SLF001
    edges += [(u, v + shift) for u, v in cross]
    return Graph(h1.n + h2.n, edges)


def attach_k2(f: Facts, y_edges: Iterable[int]) -> Graph:
    """Attach a pendant pair to the base f.graph: y = g.n adjacent to
    y_edges and to the new pendant x = g.n + 1.

    Requires a Koenig-Egervary base with empty anticore and an attachment
    set meeting every maximum stable set; the result is then KE with a
    perfect matching, anticore exactly {y} and core exactly {x}.
    """
    g = f.graph
    y_set = g.check_vertex_set(y_edges)
    if not y_set:
        raise GraphError("attachment set must be nonempty")
    if not f.is_ke:
        raise GraphError("attachment base must be a Koenig-Egervary graph")
    if f.core.anticore_size != 0:
        raise GraphError("attachment base must have an empty anticore")
    for s in f.family.sets:
        if not (y_set & s):
            raise GraphError(
                f"attachment set misses the maximum stable set {sorted(s)}"
            )
    y = g.n
    x = g.n + 1
    edges = _ascending_edges(g._adj) + [(v, y) for v in sorted(y_set)] + [(y, x)]  # noqa: SLF001
    return Graph(g.n + 2, edges)


def peel(f: Facts) -> tuple[Edge, Graph]:
    """Remove the unique anticore vertex of f.graph and its matching partner.

    Requires a KE graph with anticore of size exactly one and equal
    stability and matching numbers (hence a perfect matching).  Returns the
    removed edge (anticore vertex, partner) and the peeled graph, which is
    KE with empty anticore; remaining vertices keep their relative order.
    """
    _require(f, _peelable)
    (x,) = f.core.anticore
    y = f.partner[x]
    return (x, y), delete_vertices(f.graph, {x, y})


def bullet_kp(g: Graph, p: int, attach: Edge | int) -> Graph:
    """Glue a p-clique onto an edge-addition-stable bipartite base.

    For p <= 2 the clique vertex x = g.n is joined to both endpoints of
    attach, which must be an edge lying in a perfect matching of g.  For
    p >= 3 attach names a single base vertex joined to x.  Either way the
    result keeps the stability number one above the base's and stays
    edge-addition stable.
    """
    _check_int(p, "clique order")
    if p < 1:
        raise GraphError("clique order must be positive")
    if bipartition(g) is None:
        raise GraphError("bullet base must be bipartite")
    if classify_alpha_plus(Facts(g)).kind == "not_stable":
        raise GraphError("bullet base must be edge-addition stable")
    x = g.n
    clique = [(x + i, x + j) for i in range(p) for j in range(i + 1, p)]
    if p <= 2:
        try:
            a, b = attach  # type: ignore[misc]
        except (TypeError, ValueError):
            raise GraphError("for p <= 2, attach must be an edge (a, b)") from None
        if not g.has_edge(a, b):
            raise GraphError(f"attach pair ({a}, {b}) is not an edge of the base")
        reduced = delete_vertices(g, {a, b})
        if matching_number(reduced) * 2 != reduced.n:
            raise GraphError(
                f"attach edge ({a}, {b}) lies in no perfect matching of the base"
            )
        cross = [(x, a), (x, b)]
    else:
        if type(attach) is not int:  # a bool is not a vertex id
            raise GraphError("for p >= 3, attach must be a single base vertex")
        g.check_vertex(attach)
        cross = [(x, attach)]
    edges = _ascending_edges(g._adj) + clique + cross  # noqa: SLF001
    return Graph(g.n + p, edges)


def non_ke_alpha_plus_family(n: int, variant: int) -> Graph:
    """Edge-addition-stable non-KE graphs of any order n >= 5.

    variant 1: a pendant vertex attached to one vertex of K_{n-1}; the core
    is exactly the pendant.  variant 0: a p-clique (p = n - 2 >= 3) glued to
    one endpoint of a single edge; the core is empty.
    """
    _check_int(n, "order")
    _check_int(variant, "variant")
    if n < 5:
        raise GraphError("the family starts at order 5")
    if variant not in (0, 1):
        raise GraphError("variant must be 0 or 1")
    if variant == 1:
        clique = [(i, j) for i in range(1, n) for j in range(i + 1, n)]
        return Graph(n, clique + [(0, 1)])
    return bullet_kp(Graph(2, [(0, 1)]), n - 2, 0)


# -- figure fixtures -----------------------------------------------------------


class Fixture(NamedTuple):
    """A named graph with its externally pinned expectations, stated as a
    partial view of the analysis report's JSON form."""

    name: str
    graph: Graph
    expected: dict


def _fixture_graphs() -> list[tuple[str, Graph, dict]]:
    k4_minus_e = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    seven = Graph(7, [(0, 1), (1, 2), (2, 3), (4, 5), (1, 4), (1, 5), (2, 6)])
    # 0..2 top row, 3..5 bottom row, 6..7 the right tail; the unique five
    # cycle is 1-4-5-6-2
    blossom8 = Graph(
        8,
        [(0, 1), (1, 2), (3, 4), (4, 5), (1, 4), (2, 6), (5, 6), (6, 7)],
    )
    # 0..3 top row, 4..7 bottom row
    nonstable8 = Graph(
        8,
        [
            (0, 1), (1, 2), (2, 3),
            (4, 5), (5, 6), (6, 7),
            (4, 1), (5, 2), (6, 3),
            (0, 5), (1, 6), (2, 7),
            (1, 5), (2, 6),
        ],
    )
    # 0..2 bottom row, 3..5 top row, 6..7 the tail pair
    g1 = Graph(
        8,
        [
            (6, 7),
            (1, 4), (2, 5),
            (2, 6), (5, 6),
            (0, 4), (1, 3),
            (0, 5), (2, 3),
            (1, 5), (2, 4),
        ],
    )
    # 0..3 bottom path, 4..5 top pair; triangle 1-2-5
    g2 = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5), (1, 5), (2, 5)])
    # 0..3 bottom row, 4..7 top row; core {0, 4}, anticore {1, 2}
    non_ke8 = Graph(
        8,
        [
            (0, 1), (1, 2), (2, 3),
            (5, 6), (6, 7),
            (1, 4), (2, 5),
            (2, 6), (3, 5),
            (2, 7), (3, 7),
        ],
    )
    p3 = path(3)
    return [
        (
            "fig1_k4_minus_e",
            k4_minus_e,
            {
                "alpha": 2, "mu": 2, "is_ke": True, "has_pm": True,
                "core": [2, 3], "anticore": [0, 1],
                "core_size": 2, "anticore_size": 2,
                "stability_class": "not_stable", "blossom_free": False,
            },
        ),
        (
            "fig1_seven",
            seven,
            {"alpha": 4, "mu": 3, "is_ke": True, "has_pm": False},
        ),
        (
            "fig2_blossom",
            blossom8,
            {"alpha": 5, "mu": 3, "is_ke": True, "has_pm": False},
        ),
        (
            "fig3_nonstable",
            nonstable8,
            {
                "alpha": 4, "mu": 4, "is_ke": True, "has_pm": True,
                "stability_class": "not_stable", "blossom_free": False,
            },
        ),
        (
            "fig4_g1",
            g1,
            {
                "alpha": 4, "mu": 4, "is_ke": True, "has_pm": True,
                "core": [7], "anticore": [6],
                "core_size": 1, "anticore_size": 1,
                "stability_class": "alpha1_plus", "bipartite": False,
            },
        ),
        (
            "fig4_g2",
            g2,
            {
                "alpha": 3, "mu": 3, "is_ke": True, "has_pm": True,
                "core_size": 0, "anticore_size": 0,
                "stability_class": "alpha0_plus", "bipartite": False,
                "blossom_free": True,
            },
        ),
        (
            "fig5_non_ke",
            non_ke8,
            {
                "alpha": 4, "mu": 3, "is_ke": False, "has_pm": False,
                "core": [0, 4], "anticore": [1, 2],
                "core_size": 2, "anticore_size": 2,
            },
        ),
        (
            "p3",
            p3,
            {
                "alpha": 2, "mu": 1, "is_ke": True, "has_pm": False,
                "core": [0, 2], "anticore": [1],
                "core_size": 2, "anticore_size": 1,
                "stability_class": "not_stable",
            },
        ),
    ]


def fixtures() -> tuple[Fixture, ...]:
    """All named fixtures, in a fixed order."""
    return tuple(Fixture(name, g, expected) for name, g, expected in _fixture_graphs())


def fixture_by_name(name: str) -> Fixture:
    for f in fixtures():
        if f.name == name:
            return f
    raise KeyError(f"unknown fixture {name!r}")


def fixture_mismatches(f: Fixture, doc: dict) -> list[str]:
    """Expected-versus-computed discrepancies for one fixture, empty when
    the pinned values are reproduced exactly; doc is its full_report."""
    out = []
    for key, want in sorted(f.expected.items()):
        if key == "stability_class":
            got = doc["stability"]["class"]
        elif key == "bipartite":
            got = bipartition(f.graph) is not None
        else:
            got = doc[key]
        if got != want:
            out.append(f"{f.name}: {key} expected {want!r}, got {got!r}")
    return out


# matchings referenced by the figure discussions, 0-based
FIG2_M1: frozenset[Edge] = frozenset({(4, 5), (1, 2), (6, 7)})
FIG2_M2: frozenset[Edge] = frozenset({(0, 1), (3, 4), (6, 7)})
FIG3_PM: frozenset[Edge] = frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})


# -- deterministic generators --------------------------------------------------


def path(n: int) -> Graph:
    _check_int(n, "path order")
    if n < 0:
        raise GraphError("path order must be nonnegative")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    _check_int(n, "cycle order")
    if n < 3:
        raise GraphError("cycle order must be at least 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    _check_int(n, "complete-graph order")
    if n < 0:
        raise GraphError("complete-graph order must be nonnegative")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    _check_int(a, "side size")
    _check_int(b, "side size")
    if a < 0 or b < 0:
        raise GraphError("side sizes must be nonnegative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    return Graph(n, _gnp_edges(n, edge_prob, random.Random(seed)))


def _gnp_edges(n: int, edge_prob: float, rng: random.Random) -> list[Edge]:
    """One G(n, p) draw as an edge list: one rng.random() per pair (i, j),
    i < j, in lexicographic order."""
    _check_int(n, "order")
    if n < 0 or not 0.0 <= edge_prob <= 1.0:
        raise GraphError("need n >= 0 and edge probability in [0, 1]")
    draw = rng.random
    return [(i, j) for i in range(n) for j in range(i + 1, n) if draw() < edge_prob]


def _bipartite_edges(n1: int, n2: int, edge_prob: float, rng: random.Random) -> list[Edge]:
    """One bipartite draw as an edge list: one rng.random() per cross pair
    (i, n1 + j), in lexicographic order."""
    _check_int(n1, "side size")
    _check_int(n2, "side size")
    if n1 < 0 or n2 < 0 or not 0.0 <= edge_prob <= 1.0:
        raise GraphError("need nonnegative sides and edge probability in [0, 1]")
    draw = rng.random
    return [(i, n1 + j) for i in range(n1) for j in range(n2) if draw() < edge_prob]


def _edges_connected(n: int, edges: list[Edge]) -> bool:
    """Whether the graph a draw would build on 0..n-1 is connected, read
    off the drawn edges by a bitmask flood fill from vertex 0, so that a
    rejected draw builds no Graph.  n <= 1 counts as connected, as in
    graph.is_connected."""
    if n <= 1:
        return True
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    reached = frontier = 1
    while frontier:
        grown = 0
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~reached
        reached |= frontier
    return reached == (1 << n) - 1


CONNECTED_SAMPLE_TRIES = 10_000


def random_connected_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Rejection-sample G(n, p) draws until one is connected.  Each draw is
    tested on its edge list, and only the accepted one becomes a Graph."""
    rng = random.Random(seed)
    for _ in range(CONNECTED_SAMPLE_TRIES):
        edges = _gnp_edges(n, edge_prob, rng)
        if _edges_connected(n, edges):
            return Graph(n, edges)
    raise GraphError(
        f"no connected sample after {CONNECTED_SAMPLE_TRIES} tries (n={n}, p={edge_prob})"
    )


def random_tree(n: int, seed: int) -> Graph:
    """Uniform-ish random tree: each vertex i >= 1 hangs off an earlier one."""
    _check_int(n, "tree order")
    if n < 1:
        raise GraphError("tree order must be positive")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph(n, edges)


def random_bipartite(n1: int, n2: int, edge_prob: float, seed: int) -> Graph:
    return Graph(n1 + n2, _bipartite_edges(n1, n2, edge_prob, random.Random(seed)))


def random_bipartite_with_pm(n_side: int, extra_prob: float, seed: int) -> Graph:
    """Balanced bipartite graph with a guaranteed perfect matching: seed the
    matching i <-> n_side + i, then sprinkle extra cross edges."""
    _check_int(n_side, "side size")
    if n_side < 1 or not 0.0 <= extra_prob <= 1.0:
        raise GraphError("need a positive side size and probability in [0, 1]")
    rng = random.Random(seed)
    edges = [(i, n_side + i) for i in range(n_side)]
    for i in range(n_side):
        for j in range(n_side):
            if i != j and rng.random() < extra_prob:
                edges.append((i, n_side + j))
    return Graph(2 * n_side, edges)

