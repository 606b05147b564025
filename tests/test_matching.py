import ast
import itertools
import random
from collections import deque
from pathlib import Path

import pytest

import kegraphs.matching
from kegraphs import bruteforce, verify
from kegraphs.bruteforce import (
    SearchBudgetExceededError,
    brute_max_matching_size,
    brute_maximum_matchings,
    find_blossoms,
    find_flower,
    find_posy,
)
from kegraphs.constructions import (
    FIG2_M1,
    FIG2_M2,
    FIG3_PM,
    complete,
    complete_bipartite,
    cycle,
    fixture_by_name,
    path,
    random_bipartite,
    random_graph,
    random_tree,
)
from kegraphs.graph import Graph, GraphError, _colour_components, normalize_edge
from kegraphs.limits import CapExceededError
from kegraphs.matching import (
    exposed_vertices,
    has_blossom,
    has_flower,
    has_posy,
    matching_number,
    maximum_matching,
    validate_matching,
)
from kegraphs.stable import stability_number

K4_MINUS_E = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def _cycle_edges(cyc):
    """The edges of the closed walk cyc, in order, ending with the one back
    to cyc[0]."""
    return [normalize_edge(cyc[i - 1], cyc[i]) for i in range(1, len(cyc))] + [
        normalize_edge(cyc[-1], cyc[0])]


def blossom_is_valid(g, m, blossom):
    """Check the definition directly: odd cycle, consecutive edges exist,
    heavy edges exactly at the positions pairing off everything but the
    base."""
    cyc = blossom.cycle
    if len(cyc) % 2 == 0 or len(cyc) < 3 or len(set(cyc)) != len(cyc):
        return False
    edges = _cycle_edges(cyc)
    if any(e not in g.edges for e in edges):
        return False
    m = set(m)
    for i, e in enumerate(edges):
        expect_heavy = i % 2 == 1  # cycle[0] is the base; edges 1, 3, ... heavy
        if (e in m) != expect_heavy:
            return False
    return True


def brute_blossoms(g, m):
    """Independent route: scan all odd vertex orderings of all subsets."""
    m = set(m)
    found = set()
    for k in range(3, g.n + 1, 2):
        for subset in itertools.combinations(range(g.n), k):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cyc = (first,) + rest
                edges = [tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k)]
                if any(e not in g.edges for e in edges):
                    continue
                heavy = [e in m for e in edges]
                # the base is a vertex whose two incident cycle edges are
                # light and the rest alternate
                for r in range(k):
                    rot = [heavy[(r + i) % k] for i in range(k)]
                    if rot == [i % 2 == 1 for i in range(k)]:
                        base = cyc[r]
                        found.add((base, frozenset(edges)))
    return found


def test_matching_number_examples():
    assert matching_number(K4_MINUS_E) == brute_max_matching_size(K4_MINUS_E) == 2
    assert matching_number(path(3)) == 1
    g2 = fixture_by_name("fig2_blossom").graph
    assert brute_max_matching_size(g2) == 3
    assert len(validate_matching(g2, FIG2_M1)) == 3
    assert len(validate_matching(g2, FIG2_M2)) == 3


def test_search_agrees_with_brute_force_on_randoms():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        assert len(maximum_matching(g)) == brute_max_matching_size(g)


def test_maximum_matching_is_deterministic():
    g = fixture_by_name("fig1_seven").graph
    assert maximum_matching(g) == maximum_matching(g)
    assert maximum_matching(g) == {(0, 1), (2, 3), (4, 5)}


def test_validate_matching_rejects_bad_input():
    with pytest.raises(GraphError):
        validate_matching(path(3), [(0, 2)])  # not an edge
    with pytest.raises(GraphError):
        validate_matching(path(3), [(0, 1), (1, 2)])  # shared vertex
    # ids outside [0, n) are no edge: a negative one never indexes the
    # neighbour masks from the end (mask -1 of P3 holds vertex 1), nor
    # does one past the end raise IndexError
    for pair in [(-1, 0), (0, 3), (-1, 1), (3, 4)]:
        with pytest.raises(GraphError, match="is not an edge of the graph"):
            validate_matching(path(3), [pair])
    # endpoints are integers, never coerced: (0.7, 1.2) is not the edge 01,
    # nor is (False, True)
    for pairs in ([(0.7, 1.2)], [(0.0, 1.0)], [(0, "1")], [(None, 1)], [(False, True)]):
        with pytest.raises(GraphError):
            validate_matching(path(3), pairs)


def test_exposed_vertices():
    c4 = cycle(4)
    assert exposed_vertices(c4, [(0, 1), (2, 3)]) == frozenset()
    assert exposed_vertices(path(3), [(0, 1)]) == {2}
    g2 = fixture_by_name("fig2_blossom").graph
    assert exposed_vertices(g2, FIG2_M1) == {0, 3}


def test_perfect_and_near_perfect():
    assert len(exposed_vertices(cycle(4), [(0, 1), (2, 3)])) == 0
    assert len(exposed_vertices(path(3), [(0, 1)])) == 1
    one_edge = [(0, 2)]
    assert len(exposed_vertices(K4_MINUS_E, one_edge)) != 0
    assert len(exposed_vertices(K4_MINUS_E, one_edge)) != 1


def test_unique_five_cycle_blossom_and_its_base():
    g2 = fixture_by_name("fig2_blossom").graph
    found = find_blossoms(g2, FIG2_M1)
    assert len(found) == 1
    (b,) = found
    assert b.vertex_set == {1, 2, 4, 5, 6}
    assert b.base == 6
    assert blossom_is_valid(g2, FIG2_M1, b)
    # same cycle, other maximum matching: not a blossom
    assert find_blossoms(g2, FIG2_M2) == ()
    assert not has_blossom(g2, FIG2_M2)
    assert has_blossom(g2, FIG2_M1)


def test_bipartite_graphs_have_no_blossoms():
    rng = random.Random(21)
    for _ in range(30):
        g = random_bipartite(4, 4, rng.random(), rng.randrange(1 << 30))
        assert find_blossoms(g, maximum_matching(g)) == ()


def test_blossom_search_matches_brute_enumeration():
    rng = random.Random(42)
    for _ in range(120):
        n = rng.randint(3, 7)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng.randrange(1 << 30))
        m = maximum_matching(g)
        got = find_blossoms(g, m)
        assert all(blossom_is_valid(g, m, b) for b in got)
        brute = brute_blossoms(g, m)
        assert {(b.base, frozenset(_cycle_edges(b.cycle))) for b in got} == brute
        assert has_blossom(g, m) == bool(brute)


def _random_non_maximum_matching(g, rng):
    edges = sorted(g.edges)
    rng.shuffle(edges)
    m, covered = [], set()
    for u, v in edges:
        if u not in covered and v not in covered and rng.random() < 0.6:
            m.append((u, v))
            covered.update((u, v))
    if m and len(m) == matching_number(g):
        m.pop(rng.randrange(len(m)))
    return m


def test_has_blossom_agrees_with_the_exhaustive_walker():
    # the polynomial per-base search against the alternating-walk enumerator,
    # relative to random non-maximum, canonical and (n <= 8) all maximum
    # matchings
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        matchings = [_random_non_maximum_matching(g, rng), maximum_matching(g)]
        if n <= 8:
            matchings.extend(brute_maximum_matchings(g, brute_max_matching_size(g)))
        for m in matchings:
            assert has_blossom(g, m) == bool(find_blossoms(g, m))


def test_blossom_base_filter_agrees_with_every_root():
    # _has_blossom searches only the vertices of non-bipartite components;
    # the scan over every root is the reference, relative to maximum
    # matchings and every prefix of them (non-maximum ones), on
    # disconnected graphs and with an exposed base
    triangle_p3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    graphs = ([g for _, g in verify.connected_corpus(1, 60, 2, 10)]
              + [g for _, g in verify.bipartite_corpus(1, 60, 12)]
              + [triangle_p3, complete(3)])
    answers = []
    for g in graphs:
        adj = [g.neighbors(v) for v in g.vertices()]
        odd = kegraphs.matching._odd_component_vertices(_colour_components(adj)[1])
        m = sorted(maximum_matching(g))
        for i in range(len(m) + 1):
            match = [-1] * g.n
            for u, v in m[:i]:
                match[u], match[v] = v, u
            want = any(kegraphs.matching._closes_blossom_at(adj, match, r)
                       for r in g.vertices())
            answers.append(kegraphs.matching._has_blossom(g, match, odd))
            assert answers[-1] == want, (sorted(g.edges), m[:i])
    assert any(answers) and not all(answers)
    # the triangle with one matched edge: its base 0 is exposed
    assert kegraphs.matching._has_blossom(complete(3), [-1, 2, 1], [0, 1, 2])
    assert kegraphs.matching._has_blossom(triangle_p3, [-1, 2, 1, 4, 3, -1], [0, 1, 2])
    assert kegraphs.matching._odd_component_vertices(_colour_components(
        [triangle_p3.neighbors(v) for v in triangle_p3.vertices()])[1]) == [0, 1, 2]


def test_blossoms_relative_to_non_maximum_matchings():
    g = complete(4)
    got = find_blossoms(g, [(0, 1)])
    assert got and all(blossom_is_valid(g, [(0, 1)], b) for b in got)


def test_pm_fixture_is_not_blossom_free():
    g3 = fixture_by_name("fig3_nonstable").graph
    assert has_blossom(g3, FIG3_PM)


def test_forests_are_blossom_free():
    rng = random.Random(31)
    for _ in range(20):
        g = random_tree(rng.randint(1, 10), rng.randrange(1 << 30))
        assert not has_blossom(g, maximum_matching(g))


def test_flower_absent_under_perfect_matchings():
    c4 = cycle(4)
    assert find_flower(c4, maximum_matching(c4)) is None
    assert find_flower(TWO_TRIANGLES, maximum_matching(TWO_TRIANGLES)) is None


def test_odd_cycle_flower_has_trivial_stem():
    c5 = cycle(5)
    m = maximum_matching(c5)
    flower = find_flower(c5, m)
    assert flower is not None
    assert flower.trivial_stem
    assert flower.stem == (flower.blossom.base,)
    assert flower.blossom.base in exposed_vertices(c5, m)
    assert blossom_is_valid(c5, m, flower.blossom)


def test_flower_with_a_real_stem():
    # five-cycle with a two-edge tail: the matching covering the tail
    # leaves a cycle vertex exposed only through the stem
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
    m = validate_matching(g, [(1, 2), (3, 4), (0, 5)])
    flower = find_flower(g, m)
    assert flower is not None and not flower.trivial_stem
    assert flower.stem[0] == flower.blossom.base
    assert flower.stem[-1] == 6
    assert len(flower.stem) % 2 == 1  # even number of edges


def test_paths_have_no_flowers():
    p4 = path(4)
    assert find_flower(p4, maximum_matching(p4)) is None


def test_flower_requires_a_maximum_matching():
    with pytest.raises(GraphError):
        find_flower(cycle(5), [(0, 1)])
    with pytest.raises(GraphError):
        find_posy(cycle(5), [(0, 1)])


def test_the_oracles_check_maximality_without_the_augmenting_search(monkeypatch):
    # with matching's proof of maximality accepting anything, wherever it is
    # bound, the oracles still refuse: they compare the size with the brute
    # matching number
    def accept(g, partner):
        return False

    monkeypatch.setattr(kegraphs.matching, "_require_maximum", accept)
    monkeypatch.setattr(bruteforce, "_require_maximum", accept, raising=False)
    with pytest.raises(GraphError, match="^matching of size 1 is not maximum$"):
        find_flower(cycle(5), [(0, 1)])
    with pytest.raises(GraphError, match="^matching of size 1 is not maximum$"):
        find_posy(cycle(5), [(0, 1)])


def test_flower_and_posy_tests_refuse_a_non_maximum_matching():
    with pytest.raises(GraphError):
        has_flower(cycle(5), [(0, 1)])
    with pytest.raises(GraphError):
        has_posy(cycle(5), [(0, 1)])


def test_the_maximality_proof_leaves_the_partner_list_alone():
    # the augmenting search runs on a copy, since Facts shares its list
    partner = [1, 0, -1, -1, -1]
    with pytest.raises(GraphError, match="^matching of size 1 is not maximum$"):
        kegraphs.matching._require_maximum(cycle(5), partner)
    assert partner == [1, 0, -1, -1, -1]


def test_flower_and_posy_tests_agree_with_the_exhaustive_walker():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.random(), rng.randrange(1 << 30))
        if n <= 8:
            ms = brute_maximum_matchings(g, brute_max_matching_size(g))
        else:
            ms = (maximum_matching(g),)
        for m in ms:
            assert has_flower(g, m) == (find_flower(g, m) is not None)
            assert has_posy(g, m) == (find_posy(g, m) is not None)


def test_base_filters_never_drop_a_real_base():
    # every matched base the exhaustive walker lists is a matched vertex of
    # a non-bipartite component of the graph, and the per-base search (with
    # its early return) finds exactly the walker's bases, matched or exposed.
    # The graphs are sparse: there they split into several components, some
    # bipartite, which is where the filter cuts.
    rng = random.Random(91)
    cut = 0
    for _ in range(600):
        n = rng.randint(0, 9)
        g = random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(1 << 30))
        adj = [g.neighbors(v) for v in g.vertices()]
        odd = kegraphs.matching._odd_component_vertices(_colour_components(adj)[1])
        for m in brute_maximum_matchings(g, brute_max_matching_size(g)):
            match = [-1] * n
            for u, v in m:
                match[u], match[v] = v, u
            bases = {b.base for b in find_blossoms(g, m)}
            candidates = {v for v in odd if match[v] != -1}
            assert {b for b in bases if match[b] != -1} <= candidates, sorted(g.edges)
            assert all(match[v] != -1 for v in candidates)
            searched = {
                r for r in range(n) if kegraphs.matching._closes_blossom_at(adj, match, r)
            }
            assert searched == bases, sorted(g.edges)
            cut += len(candidates) < n - match.count(-1)
    assert cut > 0


def _reference_has_posy(g, m):
    """has_posy as it was before the base filter: a search from every
    matched root, then one augmenting search in a Graph built with s and t.
    Kept as the reference for its answers."""
    match = [-1] * g.n
    for u, v in m:
        match[u], match[v] = v, u

    def closes_blossom_at(root):
        if g.degree(root) < 2:
            return False
        live = match[:]
        deleted = [w == -1 for w in live]
        deleted[root] = False
        mate = live[root]
        if mate != -1:
            deleted[mate] = True
            live[mate] = live[root] = -1
        parent = [-1] * g.n
        base = list(range(g.n))
        in_queue = [False] * g.n
        in_queue[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in g.neighbors(v):
                if deleted[to] or base[v] == base[to] or live[v] == to:
                    continue
                if to == root or parent[live[to]] != -1:
                    cur = kegraphs.matching._cycle_base(live, base, parent, v, to)
                    if cur == root:
                        return True
                    kegraphs.matching._shrink(live, base, parent, in_queue, queue, v, to, cur)
                elif parent[to] == -1:
                    parent[to] = v
                    if not in_queue[live[to]]:
                        in_queue[live[to]] = True
                        queue.append(live[to])
        return False

    bases = [r for r in range(g.n) if match[r] != -1 and closes_blossom_at(r)]
    if len(bases) < 2:
        return False
    s, t = g.n, g.n + 1
    edges = [(u, v) for u, v in g.edges if match[u] != -1 and match[v] != -1]
    edges += [(b, x) for b in bases for x in (s, t)]
    h = Graph(g.n + 2, edges)
    adj = [h.neighbors(v) for v in h.vertices()]
    return kegraphs.matching._augment_from(adj, s, match + [-1, -1])[0]


def test_has_posy_agrees_with_the_unfiltered_reference():
    corpus = (
        verify.connected_corpus(1, 12, 2, 16)
        + verify.bipartite_corpus(1, 200, 16)
        + [("k8x8", complete_bipartite(8, 8))]
        + verify.connected_corpus(1, 3, 15, 16)[-1:]
    )
    assert corpus[-1][0] == "n16-2" and corpus[-1][1].m == 103
    posies = 0
    for label, g in corpus:
        ms = [maximum_matching(g)]
        if g.n <= 8:
            ms += brute_maximum_matchings(g, brute_max_matching_size(g))
        for m in ms:
            expected = _reference_has_posy(g, m)
            assert has_posy(g, m) == expected, (label, sorted(m))
            posies += expected
    assert posies > 0


def test_posy_in_two_bridged_triangles():
    m = maximum_matching(TWO_TRIANGLES)
    # sanity: alpha + mu < n forces a flower or posy; here it is a posy
    assert stability_number(TWO_TRIANGLES) + len(m) < TWO_TRIANGLES.n
    posy = find_posy(TWO_TRIANGLES, m)
    assert posy is not None
    assert blossom_is_valid(TWO_TRIANGLES, m, posy.blossom1)
    assert blossom_is_valid(TWO_TRIANGLES, m, posy.blossom2)
    p = posy.path
    assert p[0] == posy.blossom1.base and p[-1] == posy.blossom2.base
    assert len(p) % 2 == 0  # odd number of edges
    assert normalize_edge(p[0], p[1]) in m and normalize_edge(p[-1], p[-2]) in m


def test_trees_have_no_posies():
    rng = random.Random(8)
    for _ in range(20):
        g = random_tree(rng.randint(1, 9), rng.randrange(1 << 30))
        assert find_posy(g, maximum_matching(g)) is None


def test_structures_absent_for_every_maximum_matching_of_ke_graphs():
    rng = random.Random(60)
    seen = 0
    while seen < 40:
        n = rng.randint(2, 7)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng.randrange(1 << 30))
        if stability_number(g) + matching_number(g) != n:
            continue
        seen += 1
        for m in brute_maximum_matchings(g, brute_max_matching_size(g)):
            assert find_flower(g, m) is None
            assert find_posy(g, m) is None


def test_all_maximum_matchings_enumeration():
    assert brute_maximum_matchings(path(3), brute_max_matching_size(path(3))) == (
        frozenset({(0, 1)}),
        frozenset({(1, 2)}),
    )
    assert brute_maximum_matchings(cycle(4), brute_max_matching_size(cycle(4))) == (
        frozenset({(0, 1), (2, 3)}),
        frozenset({(0, 3), (1, 2)}),
    )
    rng = random.Random(90)
    for _ in range(60):
        g = random_graph(rng.randint(0, 7), rng.random(), rng.randrange(1 << 30))
        target = brute_max_matching_size(g)
        ms = brute_maximum_matchings(g, target)
        assert all(len(m) == target for m in ms)
        assert len(set(ms)) == len(ms) and len(ms) >= 1


def test_enumerator_lists_every_largest_edge_subset_that_is_a_matching():
    rng = random.Random(91)
    for _ in range(60):
        g = random_graph(rng.randint(0, 7), rng.random(), rng.randrange(1 << 30))
        edges = sorted(g.edges)
        g = Graph(g.n, rng.sample(edges, min(len(edges), 12)))
        matchings = [
            frozenset(sub)
            for k in range(g.m + 1)
            for sub in itertools.combinations(sorted(g.edges), k)
            if len({v for e in sub for v in e}) == 2 * k
        ]
        largest = max(len(m) for m in matchings)
        expected = sorted((m for m in matchings if len(m) == largest), key=sorted)
        got = brute_maximum_matchings(g, brute_max_matching_size(g))
        assert got == tuple(expected), sorted(g.edges)
        # the enumerator lists the matchings of exactly the size it is given
        for k in range(largest + 2):
            expected = sorted((m for m in matchings if len(m) == k), key=sorted)
            assert brute_maximum_matchings(g, k) == tuple(expected), (k, sorted(g.edges))


def _edge_recursion_maximum_matchings(g, size):
    """The enumerator as it was before it branched on vertices: recursion
    over the sorted edges, pruned on the free vertices and the edges left,
    then sorted.  Kept as the reference for order and content."""
    edges = sorted(g.edges)
    results = []
    acc = []

    def rec(start, covered):
        if len(acc) == size:
            results.append(frozenset(acc))
            return
        free = g.n - covered.bit_count()
        if len(acc) + min(free // 2, len(edges) - start) < size:
            return
        for i in range(start, len(edges)):
            u, v = edges[i]
            if covered >> u & 1 or covered >> v & 1:
                continue
            acc.append((u, v))
            rec(i + 1, covered | 1 << u | 1 << v)
            acc.pop()

    rec(0, 0)
    results.sort(key=sorted)
    return tuple(results)


def test_vertex_branching_enumerator_agrees_with_the_edge_recursion():
    corpus = verify.bipartite_corpus(1, 200, 12) + verify.connected_corpus(1, 30, 2, 10)
    for label, g in corpus:
        mu = matching_number(g)
        for size in (mu, mu - 1):
            got = brute_maximum_matchings(g, size)
            assert got == _edge_recursion_maximum_matchings(g, size), (label, size)
            keys = [sorted(m) for m in got]
            assert all(a < b for a, b in zip(keys, keys[1:])), (label, size)


def _unpruned_max_matching_size(g):
    """The brute matching number as it was before the counting cut-off:
    every branch at every mask.  Kept as the reference for its answers."""
    masks = [sum(1 << w for w in g.neighbors(v)) for v in g.vertices()]
    memo = {}

    def rec(mask):
        if mask == 0:
            return 0
        if mask not in memo:
            low = mask & -mask
            v = low.bit_length() - 1
            best = rec(mask ^ low)
            nbrs = masks[v] & mask
            while nbrs:
                ub = nbrs & -nbrs
                nbrs ^= ub
                best = max(best, 1 + rec(mask ^ low ^ ub))
            memo[mask] = best
        return memo[mask]

    return rec(g.full_mask)


def test_pruned_brute_matching_number_agrees_with_the_unpruned_recursion():
    rng = random.Random(17)
    corpus = (
        verify.connected_corpus(1, 30, 2, 10)
        + verify.bipartite_corpus(1, 200, 12)
        + [("k8x8", complete_bipartite(8, 8)), ("k7x9", complete_bipartite(7, 9)),
           ("c16", cycle(16)), ("c15", cycle(15)),
           ("tree16", random_tree(16, rng.randrange(1 << 30)))]
        + [(f"random{n}", random_graph(n, p, rng.randrange(1 << 30)))
           for n in (13, 14, 15, 16) for p in (0.1, 0.3, 0.6)]
    )
    for label, g in corpus:
        assert brute_max_matching_size(g) == _unpruned_max_matching_size(g), label


def test_matching_does_not_import_the_oracles():
    tree = ast.parse(Path(kegraphs.matching.__file__).read_text(encoding="utf-8"))
    named = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            named += [node.module or ""] + [alias.name for alias in node.names]
    assert not [name for name in named if "bruteforce" in name or "limits" in name]


def test_enumeration_respects_the_cap():
    with pytest.raises(CapExceededError):
        brute_maximum_matchings(Graph(17), 0)


def test_search_budget_is_enforced(monkeypatch):
    monkeypatch.setattr("kegraphs.bruteforce.DEFAULT_SEARCH_BUDGET", 50)
    g = complete(12)
    with pytest.raises(SearchBudgetExceededError):
        find_blossoms(g, maximum_matching(g))
