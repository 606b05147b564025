"""Metamorphic property tests: answers that must not change when the
vertices of a graph are renamed or its edge file is reordered, and that
must add up over a disjoint union.  They compare the package with itself
on two presentations of one graph, or on a union and its parts, and share
no code path with any brute-force oracle; one only draws its input
matching from the maximum-matching enumerator.  One more checks, on brute
force alone, the identity the edge-addition definition route rests on."""

import contextlib
import io
import itertools
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from kegraphs.analysis import Facts, check_structure_consistency
from kegraphs.bruteforce import (
    brute_max_matching_size,
    brute_maximum_matchings,
    brute_stable_sets,
)
from kegraphs.cli import main
from kegraphs.edgefile import format_graph, parse_graph
from kegraphs.graph import (
    Graph,
    _ascending_edges,
    complement_non_edges,
    delete_vertices,
    normalize_edge,
)
from kegraphs.matching import has_flower, has_posy
from test_graph_masks import view_built

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)


@st.composite
def relabelled_graphs(draw, max_n=9):
    """A graph on at most max_n vertices and a permutation of its vertices."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, k in zip(pairs, keep) if k])
    return g, draw(st.permutations(range(n)))


def _relabel(edges, perm):
    return frozenset(normalize_edge(perm[u], perm[v]) for u, v in edges)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_flower_and_posy_answers_survive_relabelling(data):
    g, perm = data.draw(relabelled_graphs())
    ms = brute_maximum_matchings(g, brute_max_matching_size(g))
    m = data.draw(st.sampled_from(ms))
    h, hm = Graph(g.n, _relabel(g.edges, perm)), _relabel(m, perm)
    assert has_flower(h, hm) == has_flower(g, m)
    assert has_posy(h, hm) == has_posy(g, m)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_structure_verdict_survives_relabelling(data):
    g, perm = data.draw(relabelled_graphs())
    v = check_structure_consistency(Facts(g))
    w = check_structure_consistency(Facts(Graph(g.n, _relabel(g.edges, perm))))
    assert (w.ke_by_arithmetic, w.flower_found, w.all_matchings_checked) == (
        v.ke_by_arithmetic, v.flower_found, v.all_matchings_checked
    )
    assert w.structure_free == v.structure_free and w.consistent and v.consistent
    # Each verdict reads its own canonical matching.  Whether a flower
    # exists does not depend on the maximum matching, but whether a posy
    # does can, once a flower is there; without one, a posy exists exactly
    # when the graph is not KE.
    if not v.flower_found:
        assert w.posy_found == v.posy_found


@PROPERTY_SETTINGS
@given(data=st.data())
def test_edge_file_round_trip(data):
    g, _ = data.draw(relabelled_graphs())
    text = format_graph(g)
    parsed = parse_graph(text)
    assert parsed == g
    assert (parsed._adj, parsed._masks) == (g._adj, g._masks)
    assert format_graph(parsed) == text


@PROPERTY_SETTINGS
@given(data=st.data())
def test_neighbor_tuples_and_masks_are_read_off_the_edge_set(data):
    g, _ = data.draw(relabelled_graphs())
    pairs = sorted(g.edges)
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    given_pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
    if given_pairs:
        given_pairs += data.draw(st.lists(st.sampled_from(given_pairs), max_size=6))
    h = Graph(g.n, data.draw(st.permutations(given_pairs)))
    for v in range(h.n):
        nbrs = sorted(w for e in h.edges if v in e for w in e if w != v)
        assert h._adj[v] == tuple(nbrs)
        assert h._masks[v] == sum(1 << w for w in nbrs)
    assert h == g and hash(h) == hash(g)
    assert (h._adj, h._masks) == (g._adj, g._masks)


@st.composite
def presented_edges(draw, max_n=8):
    """An order n, an edge set on it as (min, max) pairs, and the pairs as
    given to Graph: shuffled, some reversed and some repeated."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = frozenset(e for e, k in zip(pairs, keep) if k)
    given = [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]
    if given:
        given += draw(st.lists(st.sampled_from(given), max_size=6))
    return n, edges, draw(st.permutations(given))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_the_edge_view_is_built_on_first_read_from_the_stored_forms(data):
    n, edges, given = data.draw(presented_edges())
    kind = data.draw(st.sampled_from(["same", "larger order", "other"]))
    if kind == "same":
        b = Graph(n, data.draw(st.permutations(given)))
    elif kind == "larger order":
        b = Graph(n + 1, given)
    else:
        n_b, _, given_b = data.draw(presented_edges())
        b = Graph(n_b, given_b)
    a = Graph(n, given)
    equal, hashes_equal, m = a == b, hash(a) == hash(b), a.m
    # m, == and hash read the masks and build neither view
    assert not any(view_built(g, slot) for g in (a, b) for slot in ("_adj", "_edges"))
    assert a.edges == edges and a._edges is a.edges
    assert m == len(a.edges)
    assert _ascending_edges(a._adj) == sorted(a.edges)
    text = f"p {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in sorted(a.edges))
    assert format_graph(a) == text
    assert equal == (a.n == b.n and a.edges == b.edges)
    if kind != "other":
        assert equal == (kind == "same")
    if equal:
        assert hashes_equal


@PROPERTY_SETTINGS
@given(data=st.data())
def test_graph_invariants_survive_relabelling(data):
    g, perm = data.draw(relabelled_graphs())
    f, h = Facts(g), Facts(Graph(g.n, _relabel(g.edges, perm)))
    assert (h.alpha, h.mu, h.is_ke) == (f.alpha, f.mu, f.is_ke)
    assert (h.core.core_size, h.core.anticore_size) == (
        f.core.core_size, f.core.anticore_size
    )


@PROPERTY_SETTINGS
@given(data=st.data())
def test_alpha_mu_core_and_anticore_add_over_a_disjoint_union(data):
    g, _ = data.draw(relabelled_graphs(max_n=7))
    h, _ = data.draw(relabelled_graphs(max_n=7))
    shift = g.n
    union = Graph(g.n + h.n, list(g.edges) + [(u + shift, v + shift) for u, v in h.edges])
    f, fg, fh = Facts(union), Facts(g), Facts(h)
    assert f.alpha == fg.alpha + fh.alpha
    assert f.mu == fg.mu + fh.mu
    assert f.core.core == fg.core.core | {v + shift for v in fh.core.core}
    assert f.core.anticore == fg.core.anticore | {v + shift for v in fh.core.anticore}


def _brute_alpha(g):
    return max(s.bit_count() for s in brute_stable_sets(g))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_adding_an_edge_leaves_the_better_of_two_deletions(data):
    g, _ = data.draw(relabelled_graphs())
    for u, v in complement_non_edges(g):
        assert _brute_alpha(g.with_edge(u, v)) == max(
            _brute_alpha(delete_vertices(g, {u})), _brute_alpha(delete_vertices(g, {v}))
        )


def _analyze_stdout(path: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", path]) == 0
    return out.getvalue()


@PROPERTY_SETTINGS
@given(data=st.data())
def test_analyze_bytes_survive_shuffled_edge_lines_and_comments(data):
    g, _ = data.draw(relabelled_graphs(max_n=8))
    header, *edge_lines = format_graph(g).splitlines()
    lines = data.draw(st.permutations(edge_lines))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["c", "c note", "", "  c x"])))
    # The p line comes first among the non-comment lines; comments may precede it.
    lines = data.draw(st.sampled_from([[], ["c head"]])) + [header] + lines
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.gr")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(format_graph(g))
        expected = _analyze_stdout(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        assert _analyze_stdout(path) == expected
