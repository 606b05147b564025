import hashlib
import json
import random
from pathlib import Path

import pytest

from kegraphs.analysis import (
    Facts,
    classify_alpha_plus,
    full_report,
    is_koenig_egervary,
)
from kegraphs.bruteforce import brute_max_matching_size, brute_stable_sets
from kegraphs.constructions import (
    Fixture,
    attach_k2,
    bullet_kp,
    complete,
    complete_bipartite,
    cycle,
    fixture_by_name,
    fixture_mismatches,
    fixtures,
    join,
    non_ke_alpha_plus_family,
    path,
    peel,
    random_bipartite,
    random_bipartite_with_pm,
    random_connected_graph,
    random_graph,
    random_tree,
)
from kegraphs.edgefile import format_graph
from kegraphs.graph import Graph, GraphError, is_connected
from kegraphs.matching import matching_number
from kegraphs.stable import core_report, maximum_stable_sets
from kegraphs.verify import bipartite_corpus, connected_corpus

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def _brute_alpha(g):
    return max(s.bit_count() for s in brute_stable_sets(g))


def test_join_complete_bipartite():
    h1 = Graph(2)
    h2 = Graph(2)
    g = join(h1, h2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert g == complete_bipartite(2, 2)


def test_join_single_vertices():
    assert join(Graph(1), Graph(1), [(0, 0)]) == Graph(2, [(0, 1)])


def test_join_with_cut_matching_gives_ke():
    # a stable side joined across a matching that covers the other side
    h1 = Graph(3)
    h2 = complete(2)
    g = join(h1, h2, [(0, 0), (1, 1), (2, 0)])
    assert _brute_alpha(g) + brute_max_matching_size(g) == g.n


def test_join_validation():
    with pytest.raises(GraphError):
        join(Graph(2), Graph(2), [(0, 5)])
    with pytest.raises(GraphError):
        join(Graph(2), Graph(2), [])
    # each end of a cross pair is an int that is not a bool, and a refusal
    # names the pair as given, not shifted into the result's numbering
    for pair in [(0, True), (True, 0), (0.0, 1), (0, 1.0)]:
        with pytest.raises(GraphError, match=rf"cross pair \({pair[0]!r}, {pair[1]!r}\)"):
            join(path(3), path(2), [pair])


def test_side_sizes_are_ints_that_are_not_bools():
    bad = [
        lambda: complete_bipartite(True, 2),
        lambda: complete_bipartite(2, False),
        lambda: complete_bipartite(2.0, 2),
        lambda: random_bipartite(True, 2, 0.5, 1),
        lambda: random_bipartite(2, 2.0, 0.5, 1),
        lambda: random_bipartite_with_pm(True, 0.5, 1),
        lambda: random_bipartite_with_pm(2.0, 0.5, 1),
    ]
    for build in bad:
        with pytest.raises(GraphError, match="side size must be an integer"):
            build()
    with pytest.raises(GraphError, match="side sizes must be nonnegative"):
        complete_bipartite(-1, 2)
    with pytest.raises(GraphError, match="need nonnegative sides"):
        random_bipartite(2, -1, 0.5, 1)
    with pytest.raises(GraphError, match="need a positive side size"):
        random_bipartite_with_pm(0, 0.5, 1)



@pytest.mark.parametrize("build, message", [
    (lambda: path(2.0), "path order must be an integer, got 2.0"),
    (lambda: cycle(3.0), "cycle order must be an integer, got 3.0"),
    (lambda: complete(3.0), "complete-graph order must be an integer, got 3.0"),
    (lambda: random_tree(2.0, 1), "tree order must be an integer, got 2.0"),
    (lambda: random_graph(2.0, 0.5, 1), "order must be an integer, got 2.0"),
    (lambda: random_connected_graph(2.0, 0.5, 1), "order must be an integer, got 2.0"),
    (lambda: non_ke_alpha_plus_family(5.0, 1), "order must be an integer, got 5.0"),
    (lambda: non_ke_alpha_plus_family(5, True), "variant must be an integer, got True"),
    (lambda: non_ke_alpha_plus_family(5, 1.0), "variant must be an integer, got 1.0"),
], ids=["path", "cycle", "complete", "random_tree", "random_graph",
        "random_connected_graph", "family_order", "family_bool_variant",
        "family_float_variant"])
def test_construction_orders_are_integers(build, message):
    # a float or bool order or variant is refused, not coerced
    with pytest.raises(GraphError, match=f"^{message}$"):
        build()

def test_join_property_stable_side_with_cut_matching():
    rng = random.Random(44)
    for _ in range(60):
        n2 = rng.randint(1, 4)
        n1 = rng.randint(n2, 5)
        h1 = Graph(n1)
        h2 = random_graph(n2, rng.random(), rng.randrange(1 << 30))
        cross = [(i, i) for i in range(n2)]  # a matching covering h2
        cross += [
            (u, v)
            for u in range(n1)
            for v in range(n2)
            if (u, v) not in set(cross) and rng.random() < 0.3
        ]
        g = join(h1, h2, cross)
        assert _brute_alpha(g) + brute_max_matching_size(g) == g.n


def test_attach_pendant_pair_to_square():
    f = attach_k2(Facts(cycle(4)), {0, 1})
    assert f.n == 6
    rep = core_report(maximum_stable_sets(f))
    assert is_koenig_egervary(f)
    assert matching_number(f) * 2 == f.n
    assert rep.anticore == {4} and rep.core == {5}


def test_attach_pendant_pair_to_single_edge():
    f = attach_k2(Facts(Graph(2, [(0, 1)])), {0, 1})
    assert f.edges == {(0, 1), (0, 2), (1, 2), (2, 3)}
    rep = core_report(maximum_stable_sets(f))
    assert rep.anticore == {2} and rep.core == {3}


def test_attach_validation():
    with pytest.raises(GraphError):
        attach_k2(Facts(cycle(4)), {0})  # misses the stable set {1, 3}
    with pytest.raises(GraphError):
        attach_k2(Facts(cycle(5)), {0, 1, 2, 3, 4})  # not KE
    with pytest.raises(GraphError):
        attach_k2(Facts(path(3)), {1})  # nonempty anticore


def test_peel_the_tail_fixture():
    g1 = fixture_by_name("fig4_g1").graph
    (x, y), h = peel(Facts(g1))
    assert (x, y) == (6, 7)
    assert h.n == 6
    rep = core_report(maximum_stable_sets(h))
    assert rep.anticore_size == 0
    assert is_koenig_egervary(h)
    assert maximum_stable_sets(h).alpha == matching_number(h)


def test_peel_undoes_attach():
    for base in (cycle(4), complete_bipartite(3, 3), fixture_by_name("fig4_g2").graph):
        fam = maximum_stable_sets(base)
        transversal = {min(s) for s in fam.sets}
        f = attach_k2(Facts(base), transversal)
        (x, y), back = peel(Facts(f))
        assert back == base
        assert {x, y} == {base.n, base.n + 1}


def test_peel_validation():
    with pytest.raises(GraphError):
        peel(Facts(cycle(4)))  # anticore size 0
    with pytest.raises(GraphError):
        peel(Facts(path(3)))  # alpha != mu


def test_bullet_single_vertex_preserves_alpha():
    g = bullet_kp(cycle(4), 1, (0, 1))
    assert g.n == 5
    fam = maximum_stable_sets(g)
    # alpha is preserved and every old maximum stable set survives; the new
    # vertex also pairs with the far side, so the family strictly grows
    assert fam.alpha == 2
    assert set(fam.sets) >= set(maximum_stable_sets(cycle(4)).sets)
    assert set(fam.sets) == {
        frozenset({0, 2}),
        frozenset({1, 3}),
        frozenset({2, 4}),
        frozenset({3, 4}),
    }
    assert classify_alpha_plus(Facts(g)).kind == "alpha0_plus"


def test_bullet_triangle_gives_stable_non_ke():
    g = bullet_kp(cycle(4), 3, 0)
    assert g.n == 7
    assert classify_alpha_plus(Facts(g)).kind == "alpha0_plus"
    assert not is_koenig_egervary(g)


def test_bullet_pair_on_single_edge():
    g = bullet_kp(Graph(2, [(0, 1)]), 2, (0, 1))
    assert g.n == 4
    assert classify_alpha_plus(Facts(g)).kind == "alpha1_plus"


def test_bullet_validation():
    with pytest.raises(GraphError):
        bullet_kp(complete(3), 3, 0)  # not bipartite
    with pytest.raises(GraphError):
        bullet_kp(path(3), 3, 0)  # not edge-addition stable
    with pytest.raises(GraphError):
        bullet_kp(path(4), 2, (1, 2))  # middle edge is in no perfect matching
    with pytest.raises(GraphError):
        bullet_kp(cycle(4), 2, 0)  # p <= 2 needs an edge
    with pytest.raises(GraphError):
        bullet_kp(cycle(4), 2, (0.9, 1.2))  # not coerced to the edge (0, 1)
    with pytest.raises(GraphError):
        bullet_kp(cycle(4), 3, True)  # a bool is not vertex 1
    with pytest.raises(GraphError, match="clique order must be an integer"):
        bullet_kp(cycle(4), True, (0, 1))  # a bool is not clique order 1
    with pytest.raises(GraphError, match="clique order must be positive"):
        bullet_kp(cycle(4), 0, (0, 1))


@pytest.mark.parametrize("attach", [(0,), (0, 1, 2)])
def test_bullet_validation_of_an_attach_tuple_of_the_wrong_length(attach):
    with pytest.raises(GraphError, match="attach must be an edge"):
        bullet_kp(cycle(4), 1, attach)


def test_family_order_five_pendant_clique():
    g = non_ke_alpha_plus_family(5, 1)
    assert _brute_alpha(g) == 2
    assert brute_max_matching_size(g) == 2
    assert not is_koenig_egervary(g)
    assert core_report(maximum_stable_sets(g)).core == {0}


def test_family_both_variants_at_every_order():
    for n in range(5, 10):
        for variant in (0, 1):
            g = non_ke_alpha_plus_family(n, variant)
            assert g.n == n
            assert not is_koenig_egervary(g)
            kind = classify_alpha_plus(Facts(g)).kind
            assert kind == ("alpha0_plus" if variant == 0 else "alpha1_plus")


def test_family_gate():
    with pytest.raises(GraphError):
        non_ke_alpha_plus_family(4, 0)
    with pytest.raises(GraphError):
        non_ke_alpha_plus_family(6, 2)


def test_every_fixture_reproduces_its_pinned_values():
    for f in fixtures():
        assert fixture_mismatches(f, full_report(f.graph)) == []


def test_fixture_files_match_the_writers_output():
    for f in fixtures():
        on_disk = (FIXTURE_DIR / f"{f.name}.gr").read_text(encoding="utf-8")
        assert on_disk == format_graph(f.graph)


def test_fixture_lookup():
    assert fixture_by_name("p3").graph == path(3)
    with pytest.raises(KeyError):
        fixture_by_name("nope")


def test_named_generators():
    assert path(3) == Graph(3, [(0, 1), (1, 2)])
    assert cycle(3) == complete(3)
    assert complete(4).m == 6
    assert complete_bipartite(2, 3).m == 6
    with pytest.raises(GraphError):
        cycle(2)


def test_random_tree_shape():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 12)
        t = random_tree(n, rng.randrange(1 << 30))
        assert t.m == n - 1 and is_connected(t)


def test_random_generators_are_deterministic():
    assert random_graph(8, 0.4, 123) == random_graph(8, 0.4, 123)
    assert random_tree(9, 5) == random_tree(9, 5)
    assert random_bipartite(4, 4, 0.5, 7) == random_bipartite(4, 4, 0.5, 7)
    assert random_graph(8, 0.4, 123) != random_graph(8, 0.4, 124)


def test_random_bipartite_with_pm_has_one():
    rng = random.Random(19)
    for _ in range(20):
        side = rng.randint(1, 6)
        g = random_bipartite_with_pm(side, rng.random(), rng.randrange(1 << 30))
        assert matching_number(g) == side


def test_random_connected_graph_is_connected():
    rng = random.Random(37)
    for _ in range(20):
        g = random_connected_graph(rng.randint(1, 9), 0.4, rng.randrange(1 << 30))
        assert is_connected(g)


def _corpus_digest(pairs):
    rows = [(label, g.n, sorted(g.edges)) for label, g in pairs]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _seeded_generator_grid():
    out = []
    for seed in (1, 2, 3):
        for n in range(10):
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                out.append((f"random_graph({n}, {p}, {seed})", random_graph(n, p, seed)))
                if n <= 1 or p > 0:  # p = 0 never connects two vertices
                    out.append((f"random_connected_graph({n}, {p}, {seed})",
                                random_connected_graph(n, p, seed)))
        for n1 in range(5):
            for n2 in range(5):
                for p in (0.0, 0.5, 1.0):
                    out.append((f"random_bipartite({n1}, {n2}, {p}, {seed})",
                                random_bipartite(n1, n2, p, seed)))
    return out


@pytest.mark.parametrize("name, make, digest", [
    ("connected", lambda: connected_corpus(1, 334, 2, 10),
     "9469c63b95d2376fd18bee812c255d3854878fe44c1f57812d2e06656db6d21a"),
    ("bipartite", lambda: bipartite_corpus(1, 550, 12),
     "b0ac8221b197ad066540b28cc5778ecbeae344d61c1443fb8c3e46dde4df789a"),
    ("grid", _seeded_generator_grid,
     "e43098edf1be98f7591e3f1502012bbb0f86d6a3e5f1a29a7359fb0d7f1941d7"),
])
def test_seeded_corpora_are_pinned(name, make, digest):
    # every random number is drawn in one fixed order, so each corpus is
    # the same graph list, label for label, on every run and machine
    assert _corpus_digest(make()) == digest, name


@pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
def test_random_connected_graph_rejects_a_bad_edge_probability(p):
    with pytest.raises(GraphError, match="edge probability"):
        random_connected_graph(4, p, 1)


def test_fixture_type_is_frozen():
    f = fixtures()[0]
    assert isinstance(f, Fixture)
    with pytest.raises(AttributeError):
        f.name = "other"
