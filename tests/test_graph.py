import collections
import random

import pytest

from kegraphs.graph import (
    Graph,
    GraphError,
    bipartition,
    complement_non_edges,
    connected_components,
    delete_vertices,
    induced_subgraph,
    is_bipartite,
    is_connected,
    neighborhood,
    pendant_vertices,
)
from kegraphs.constructions import (
    cycle,
    complete,
    fixture_by_name,
    path,
    random_graph,
)

K4_MINUS_E = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def test_construction_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1, [])
    # a bool is not an order
    for n in (True, False):
        with pytest.raises(GraphError):
            Graph(n)
    # endpoints are integers, never coerced: 1.9 is not vertex 1, nor True
    for edges in ([(0, 1.9)], [(0, "2")], [(0, None)], [(1.0, 2)], [(True, 2)], [(1, False)]):
        with pytest.raises(GraphError):
            Graph(3, edges)
    # a bool equal to the other endpoint is out of range, not a self-loop,
    # while an int self-loop is a self-loop in range or not
    for edges in ([(1, True)], [(0, False)]):
        with pytest.raises(GraphError, match="out of range"):
            Graph(3, edges)
    for edges in ([(0, 0)], [(5, 5)]):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, edges)
    for lookup in (Graph(3).check_vertex, Graph(3).neighbors):
        with pytest.raises(GraphError):
            lookup(True)


def test_graph_is_a_value():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(3, [(0, 1)])


def test_with_edge():
    g = path(3)
    h = g.with_edge(0, 2)
    assert h.m == 3 and g.m == 2
    with pytest.raises(GraphError):
        g.with_edge(0, 1)
    with pytest.raises(GraphError):
        g.with_edge(1, 1)


def test_induced_subgraph_missing_pair_is_edgeless():
    sub, relabel = induced_subgraph(K4_MINUS_E, {2, 3})
    assert sub.n == 2 and sub.m == 0
    assert relabel == {2: 0, 3: 1}


def test_induced_subgraph_identity():
    g = cycle(5)
    sub, relabel = induced_subgraph(g, range(5))
    assert sub == g
    assert relabel == {v: v for v in range(5)}


def test_induced_subgraph_path_endpoints():
    sub, _ = induced_subgraph(path(3), {0, 2})
    assert sub.n == 2 and sub.m == 0


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(GraphError):
        induced_subgraph(path(3), {0, 7})


def test_delete_middle_of_path():
    assert delete_vertices(path(3), {1}) == Graph(2, [])


def test_delete_nothing_is_identity():
    g = cycle(6)
    assert delete_vertices(g, set()) == g


def test_delete_on_the_eight_vertex_pm_fixture():
    from kegraphs.bruteforce import brute_max_matching_size, brute_stable_sets
    from kegraphs.matching import has_blossom, maximum_matching

    g = fixture_by_name("fig3_nonstable").graph
    # deleting the second top/bottom pair leaves a 6-vertex caterpillar tree,
    # blossom-free but with unequal stability and matching numbers
    h = delete_vertices(g, {1, 2})
    assert h.n == 6 and h.m == 5 and is_connected(h)
    assert not has_blossom(h, maximum_matching(h))
    assert max(s.bit_count() for s in brute_stable_sets(h)) != brute_max_matching_size(h)
    # other same-column deletions merely shrink the graph
    assert delete_vertices(g, {1, 5}).n == 6


def test_delete_vertices_checks_each_given_id_once(monkeypatch):
    checked = collections.Counter()
    original = Graph.check_vertex

    def counted(self, v):
        checked[v] += 1
        original(self, v)

    monkeypatch.setattr(Graph, "check_vertex", counted)
    assert delete_vertices(cycle(6), {1, 4}) == Graph(4, [(1, 2), (0, 3)])
    assert checked == {1: 1, 4: 1}
    with pytest.raises(GraphError):
        delete_vertices(path(3), {0, 7})


def test_neighborhood_basics():
    assert neighborhood(path(3), {1}) == {0, 2}
    assert neighborhood(path(3), set()) == frozenset()


def test_neighborhood_of_the_non_ke_fixture_core():
    g = fixture_by_name("fig5_non_ke").graph
    assert neighborhood(g, {0, 4}) == {1}


def test_neighborhood_monotone():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(8, 0.4, rng.randrange(1 << 30))
        xs = frozenset(v for v in range(8) if rng.random() < 0.4)
        ys = xs | frozenset(v for v in range(8) if rng.random() < 0.3)
        assert neighborhood(g, xs) <= neighborhood(g, ys)


def test_complement_non_edges():
    assert complement_non_edges(complete(4)) == ()
    assert complement_non_edges(K4_MINUS_E) == ((2, 3),)
    assert complement_non_edges(path(3)) == ((0, 2),)


def test_edge_and_non_edge_counts_partition_pairs():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        assert g.m + len(complement_non_edges(g)) == n * (n - 1) // 2


def test_cut_plus_sides_partition_edges():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        a = frozenset(v for v in range(n) if rng.random() < 0.5)
        b = frozenset(range(n)) - a
        inside_a = induced_subgraph(g, a)[0].m if a else 0
        inside_b = induced_subgraph(g, b)[0].m if b else 0
        cut = sum((u in a) != (v in a) for u, v in g.edges)
        assert cut + inside_a + inside_b == g.m


def test_connected_components():
    assert connected_components(path(3)) == (frozenset({0, 1, 2}),)
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert connected_components(two_edges) == (frozenset({0, 1}), frozenset({2, 3}))
    assert connected_components(Graph(3)) == (
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    )


def _random_mix(rng):
    """A disjoint union of random pieces on at most 10 vertices in all, some
    with odd cycles, some bipartite, some single vertices, relabelled."""
    edges, n = [], 0
    while n < 10 and (n == 0 or rng.random() < 0.7):
        k = rng.randint(1, min(5, 10 - n))
        piece = random_graph(k, rng.random(), rng.randrange(1 << 30))
        edges += [(u + n, v + n) for u, v in piece.edges]
        n += k
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _brute_components(g, spanned):
    """The components of the subgraph spanned by the set spanned, each grown
    from its smallest vertex by adding neighbours until nothing changes."""
    left, out = set(spanned), []
    while left:
        comp = {min(left)}
        while True:
            grown = comp | {w for v in comp for w in g.neighbors(v) if w in spanned}
            if grown == comp:
                break
            comp = grown
        out.append(comp)
        left -= comp
    return out


def _two_colourable(g, comp):
    """Whether one of the 2^k colourings of the k vertices of comp gives
    the two ends of every edge inside comp different colours."""
    index = {v: i for i, v in enumerate(sorted(comp))}
    inside = [(index[u], index[v]) for u, v in g.edges if u in comp and v in comp]
    return any(all((bits >> i & 1) != (bits >> j & 1) for i, j in inside)
               for bits in range(1 << len(comp)))


def test_bipartition():
    sides = bipartition(cycle(4))
    assert sides == (frozenset({0, 2}), frozenset({1, 3}))
    assert bipartition(cycle(5)) is None
    assert is_bipartite(Graph(0))
    # components, connectivity, bipartition, the odd components and the
    # same answers read off a Facts all come from one BFS colouring; each
    # is checked against all colourings of each component
    from kegraphs.analysis import Facts
    from kegraphs.graph import _colour_components
    from kegraphs.matching import _odd_component_vertices

    rng = random.Random(39)
    mixed = isolated = 0
    for _ in range(300):
        g = _random_mix(rng)
        adj = [g.neighbors(v) for v in g.vertices()]
        comps = _brute_components(g, set(g.vertices()))
        colourable = [_two_colourable(g, c) for c in comps]
        mixed += any(colourable) and not all(colourable)
        isolated += any(len(c) == 1 for c in comps)
        sides = bipartition(g)
        if all(colourable):
            side0, side1 = sides
            assert side0 | side1 == frozenset(g.vertices()) and not side0 & side1
            assert all((u in side0) != (v in side0) for u, v in g.edges)
            assert all(min(c) in side0 for c in comps)
        else:
            assert sides is None
        odd = sorted(v for c, ok in zip(comps, colourable) if not ok for v in c)
        assert _odd_component_vertices(_colour_components(adj)[1]) == odd
        # _brute_components grows each component from the smallest vertex
        # left, so its list is ordered by smallest member
        assert connected_components(g) == tuple(frozenset(c) for c in comps)
        assert is_connected(g) == (len(comps) <= 1)
        f = Facts(g)
        assert f.connected == is_connected(g) and f.sides == sides
    assert mixed > 30 and isolated > 30


def test_pendant_vertices():
    assert pendant_vertices(path(4)) == (0, 3)
    assert pendant_vertices(cycle(4)) == ()
