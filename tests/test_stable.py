import random
import sys

import pytest

import kegraphs
from kegraphs.bruteforce import (
    brute_matching_summary,
    brute_stable_sets,
    largest_stable_sets,
)
from kegraphs.constructions import (
    complete_bipartite,
    cycle,
    fixture_by_name,
    path,
    random_bipartite,
    random_bipartite_with_pm,
    random_graph,
    random_tree,
)
from kegraphs.graph import Graph, GraphError
from kegraphs.limits import CapExceededError, DEFAULT_ALPHA_CAP
from kegraphs.matching import maximum_matching
from kegraphs.verify import bipartite_corpus, connected_corpus
from kegraphs.stable import (
    ExtensionBlockedError,
    _stable_mask,
    certify_max_stable,
    core_report,
    extend_stable_through_matching,
    maximum_stable_sets,
    stability_number,
)

K4_MINUS_E = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _is_stable(g, s):
    """No edge of g has both ends in s, checked edge by edge: the reference
    for brute_stable_sets, so it shares none of its code."""
    return not any(u in s and v in s for u, v in g.edges)


def test_family_examples():
    fam = maximum_stable_sets(path(3))
    assert fam.alpha == 2 and fam.sets == (frozenset({0, 2}),)
    fam = maximum_stable_sets(K4_MINUS_E)
    assert fam.alpha == 2 and fam.sets == (frozenset({2, 3}),)
    fam = maximum_stable_sets(cycle(4))
    assert fam.sets == (frozenset({0, 2}), frozenset({1, 3}))


def test_two_enumerators_agree():
    rng = random.Random(17)
    small = [random_graph(rng.randint(0, 9), rng.random(), rng.randrange(1 << 30))
             for _ in range(200)]
    # analyze enumerates the family up to 16 vertices
    large = [
        complete_bipartite(8, 8),
        complete_bipartite(7, 9),
        cycle(16),
        random_tree(16, 1),
        random_bipartite(8, 8, 0.5, 2),
        random_bipartite(8, 8, 0.8, 3),
        random_bipartite_with_pm(8, 0.3, 4),
        random_graph(14, 0.3, 5),
        random_graph(15, 0.25, 6),
        random_graph(16, 0.2, 7),
        # vertices whose leave-out branch the enumeration prunes: no
        # undecided neighbor when they are decided
        random_graph(16, 0.1, 8),
        random_graph(16, 0.1, 9),
        Graph(16, [(4 * i, 4 * i + j) for i in range(4) for j in (1, 2, 3)]),
        Graph(16, [(0, 5), (5, 9), (9, 14), (14, 0), (2, 11), (11, 7), (3, 12)]),
        # the first set the enumeration reaches, {0}, is smaller than alpha
        complete_bipartite(1, 15),
        random_graph(16, 0.05, 10),
    ]
    for g in small + large:
        fam = maximum_stable_sets(g)
        brute = largest_stable_sets(brute_stable_sets(g))
        assert fam.alpha == len(brute[0])
        assert list(fam.sets) == brute
        assert all(_is_stable(g, s) for s in fam.sets)
    for g in small:
        n = g.n
        every = [frozenset(v for v in range(n) if bits >> v & 1)
                 for bits in brute_stable_sets(g)]
        subsets = [frozenset(v for v in range(n) if bits >> v & 1)
                   for bits in range(1 << n)]
        assert len(set(every)) == len(every)
        assert set(every) == {s for s in subsets if _is_stable(g, s)}


def test_enumeration_finds_alpha_without_the_alpha_search(monkeypatch):
    # the family listing is a second alpha algorithm: with _stable_mask
    # refusing, it still lists the brute scan's largest sets, in order
    def refuse(*args):
        raise AssertionError("maximum_stable_sets ran _stable_mask")

    monkeypatch.setattr(kegraphs.stable, "_stable_mask", refuse)
    graphs = [g for _, g in connected_corpus(1, 60, 2, 10)]
    graphs += [g for _, g in bipartite_corpus(1, 60, 12)]
    graphs += [random_graph(16, p, s) for p in (0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.9)
               for s in range(3)]
    # K1,15's first leaf, {0}, is smaller than alpha, so the list is reset
    graphs += [complete_bipartite(1, 15), Graph(0), Graph(16)]
    for g in graphs:
        fam = maximum_stable_sets(g)
        brute = largest_stable_sets(brute_stable_sets(g))
        assert list(fam.sets) == brute
        assert fam.alpha == len(brute[0])


def test_stable_mask_agrees_with_the_brute_scan():
    # a largest stable set inside the mask; given k, a stable set of at
    # least k vertices inside it, or None exactly when the mask holds none
    rng = random.Random(34)
    searched = 0
    for _ in range(80):
        n = rng.randint(0, 16)
        g = random_graph(n, rng.uniform(0.1, 0.6), rng.randrange(1 << 30))
        stable = set(brute_stable_sets(g))
        for mask in [g.full_mask] + [rng.getrandbits(n) for _ in range(3)]:
            alpha = max(s.bit_count() for s in stable if not s & ~mask)
            for k in [None, *range(alpha + 2)]:
                got = _stable_mask(g, mask, k)
                if k is not None and k > alpha:
                    assert got is None, (sorted(g.edges), mask, k)
                    continue
                assert got in stable and not got & ~mask, (sorted(g.edges), mask, k)
                assert got.bit_count() == alpha if k is None else got.bit_count() >= k
                searched += 1
    assert searched > 1000


def _forest_alpha(g, mask):
    """alpha of the forest g[mask] by the take/skip DP over each rooted tree."""
    alpha = 0
    parent = {}
    for root in range(g.n):
        if not mask >> root & 1 or root in parent:
            continue
        parent[root] = None
        order = [root]
        for v in order:  # grows while read: a breadth-first order
            for u in g.neighbors(v):
                if mask >> u & 1 and u not in parent:
                    parent[u] = v
                    order.append(u)
        take, skip = {}, {}
        for v in reversed(order):
            kids = [u for u in g.neighbors(v) if mask >> u & 1 and parent[u] == v]
            take[v] = 1 + sum(skip[u] for u in kids)
            skip[v] = sum(max(take[u], skip[u]) for u in kids)
        alpha += max(take[root], skip[root])
    return alpha


def _relabelled(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    return Graph(g.n, [(order[u], order[v]) for u, v in g.edges])


def _forest_with_isolated_vertices(rng):
    edges, n = [], 0
    for _ in range(rng.randint(2, 6)):
        tree = random_tree(rng.randint(1, 30), rng.randrange(1 << 30))
        edges += [(n + u, n + v) for u, v in tree.edges]
        n += tree.n
    return _relabelled(Graph(n + rng.randint(1, 10), edges), rng)


def test_stable_mask_takes_low_degree_vertices_above_the_caps():
    # a vertex with at most one neighbor left is taken without branching,
    # so forests far above every cap cost no branch; without the rule the
    # search branches exponentially on a path and does not finish on P_200
    rng = random.Random(37)
    forests = [path(n) for n in range(17, 201)]
    forests += [_relabelled(random_tree(rng.randint(17, 200), seed), rng)
                for seed in range(40)]
    forests += [complete_bipartite(1, 199)]
    forests += [_forest_with_isolated_vertices(rng) for _ in range(20)]
    for g in forests:
        for mask in (g.full_mask, rng.getrandbits(g.n)):
            alpha = _forest_alpha(g, mask)
            got = _stable_mask(g, mask)
            witness = _stable_mask(g, mask, alpha)
            for s in (got, witness):
                assert not s & ~mask
                assert _is_stable(g, {v for v in range(g.n) if s >> v & 1})
            assert got.bit_count() == alpha and witness.bit_count() >= alpha
            assert _stable_mask(g, mask, alpha + 1) is None


def test_empty_graph_conventions():
    fam = maximum_stable_sets(Graph(0))
    assert fam.alpha == 0 and fam.sets == (frozenset(),)
    rep = core_report(fam)
    assert rep.core == frozenset() and rep.anticore == frozenset()


def test_core_report_examples():
    rep = core_report(maximum_stable_sets(K4_MINUS_E))
    assert rep.core == {2, 3} and rep.anticore == {0, 1}
    rep = core_report(maximum_stable_sets(path(3)))
    assert rep.core == {0, 2} and rep.anticore == {1}
    g5 = fixture_by_name("fig5_non_ke").graph
    rep = core_report(maximum_stable_sets(g5))
    assert rep.core == {0, 4} and rep.anticore == {1, 2}


def test_core_and_anticore_partition_properties():
    rng = random.Random(23)
    for _ in range(80):
        g = random_graph(rng.randint(1, 9), rng.random(), rng.randrange(1 << 30))
        fam = maximum_stable_sets(g)
        rep = core_report(fam)
        assert not (rep.core & rep.anticore)
        middle = frozenset(range(g.n)) - rep.core - rep.anticore
        for v in middle:
            assert any(v in s for s in fam.sets)
            assert any(v not in s for s in fam.sets)


def test_certificate_accepts_and_rejects():
    m = [(0, 2), (1, 3)]
    assert certify_max_stable(K4_MINUS_E, m, {2, 3}).ok
    verdict = certify_max_stable(K4_MINUS_E, m, {0, 3})
    assert not verdict.ok and "not stable" in verdict.reason
    verdict = certify_max_stable(K4_MINUS_E, m, {2})
    assert not verdict.ok and "heavy edge" in verdict.reason
    assert certify_max_stable(path(3), [(0, 1)], {0, 2}).ok
    missing = certify_max_stable(path(3), [(0, 1)], {0})
    assert not missing.ok and "exposed" in missing.reason


def test_certificate_names_the_first_edge_inside_the_set():
    # each set holds two edges of the KE graph C6; the reason names the
    # lexicographically first, whatever order an edge set would iterate in
    m = [(0, 1), (2, 3), (4, 5)]
    for s, first in [({3, 4, 5}, (3, 4)), ({0, 4, 5}, (0, 5))]:
        verdict = certify_max_stable(cycle(6), m, s)
        assert not verdict.ok
        assert verdict.reason == f"not stable: edge {first} inside the set"


def test_passing_certificate_needs_no_stability_number(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stability_number was computed")

    for name, mod in list(sys.modules.items()):
        if name == "kegraphs" or name.startswith("kegraphs."):
            for attr, value in list(vars(mod).items()):
                if value is stability_number:
                    monkeypatch.setattr(mod, attr, refuse)
    assert kegraphs.stable.stability_number is refuse
    assert certify_max_stable(K4_MINUS_E, [(0, 2), (1, 3)], {2, 3}).ok
    assert certify_max_stable(path(3), [(0, 1)], {0, 2}).ok
    c6 = cycle(6)
    m = [(0, 1), (2, 3), (4, 5)]
    assert extend_stable_through_matching(c6, m, {0, 2, 4}, 1) == {1, 3, 5}


def test_certificate_preconditions():
    with pytest.raises(GraphError):
        certify_max_stable(K4_MINUS_E, [(0, 2)], {2, 3})  # not maximum
    with pytest.raises(GraphError):
        certify_max_stable(cycle(5), [(0, 1), (2, 3)], {1, 3})  # not KE


def test_extension_on_the_square():
    got = extend_stable_through_matching(cycle(4), [(0, 1), (2, 3)], {0, 2}, 1)
    assert got == {1, 3}


def test_extension_on_the_six_vertex_fixture():
    g = fixture_by_name("fig4_g2").graph
    fam = maximum_stable_sets(g)
    m = maximum_matching(g)
    s = fam.sets[0]
    for b in sorted(frozenset(range(g.n)) - s):
        got = extend_stable_through_matching(g, m, s, b)
        assert b in got and got in set(fam.sets)


def test_extension_rejects_vertices_already_inside():
    with pytest.raises(GraphError):
        extend_stable_through_matching(cycle(4), [(0, 1), (2, 3)], {0, 2}, 0)


def test_extension_requires_perfect_matching():
    with pytest.raises(GraphError):
        extend_stable_through_matching(path(3), [(0, 1)], {0, 2}, 1)


def test_extension_detects_closed_blossoms():
    # KE with a perfect matching but not blossom-free: the saturation walks
    # into an edge inside the matched image
    with pytest.raises(ExtensionBlockedError):
        extend_stable_through_matching(K4_MINUS_E, [(0, 2), (1, 3)], {2, 3}, 0)


def test_alpha_after_edge_addition_examples():
    g3 = fixture_by_name("fig3_nonstable").graph
    assert stability_number(g3) == 4
    assert stability_number(g3.with_edge(0, 4)) == 3
    chord = stability_number(cycle(4).with_edge(0, 2))
    chord_sets = largest_stable_sets(brute_stable_sets(cycle(4).with_edge(0, 2)))
    assert chord == len(chord_sets[0]) == 2
    assert stability_number(K4_MINUS_E.with_edge(2, 3)) == 1


def test_alpha_after_edge_addition_rejects_existing_edges():
    with pytest.raises(GraphError):
        stability_number(cycle(4).with_edge(0, 1))


def test_adding_an_edge_drops_alpha_by_at_most_one():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.uniform(0.1, 0.8), rng.randrange(1 << 30))
        alpha = stability_number(g)
        for u in range(n):
            for v in range(u + 1, n):
                if not g.has_edge(u, v):
                    assert stability_number(g.with_edge(u, v)) in (alpha - 1, alpha)


def test_caps_are_enforced():
    with pytest.raises(CapExceededError):
        stability_number(Graph(21))
    with pytest.raises(CapExceededError):
        maximum_stable_sets(Graph(17))
    with pytest.raises(CapExceededError):
        brute_stable_sets(Graph(17))
    with pytest.raises(CapExceededError):
        brute_matching_summary(Graph(17), 0)
    assert stability_number(Graph(DEFAULT_ALPHA_CAP)) == DEFAULT_ALPHA_CAP
