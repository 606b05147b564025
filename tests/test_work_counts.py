"""Upper bounds on the work the package does on two fixed seeded input sets.

The counts are cProfile call counts of named code objects.  Every search
in the package is deterministic, so the counts are exact: the same on
every run and machine, and under any PYTHONHASHSEED.  Each bound is the
count measured when it was set; a change that does more work of one kind
fails here, and one that does less may lower the bound.
"""

import cProfile
import pstats

import kegraphs.analysis
from kegraphs import bruteforce, graph, matching, stable, verify
from kegraphs.analysis import Facts, full_report

from test_analysis import _analyze_workload_graphs


def _nested(fn, name):
    """The code object of the function name defined inside fn."""
    (code,) = [c for c in fn.__code__.co_consts if getattr(c, "co_name", None) == name]
    return code


COUNTED = {
    "graphs built": graph.Graph.__init__.__code__,
    "facts": Facts.__init__.__code__,
    "colourings": graph._colour_components.__code__,
    "base searches": matching._closes_blossom_at.__code__,
    "augmenting searches": matching._augment_from.__code__,
    "alpha rec": _nested(stable._stable_mask, "rec"),
    "listing rec": _nested(stable.maximum_stable_sets, "rec"),
    "alpha_critical": Facts.alpha_critical.__code__,
    "stable-set scans": bruteforce.brute_stable_sets.__code__,
    "brute mu rec": _nested(bruteforce.brute_max_matching_size, "rec"),
    "matchings rec": _nested(bruteforce.brute_maximum_matchings, "rec"),
    "summary rec": _nested(bruteforce.brute_matching_summary, "rec"),
    "matching validations": matching.validate_matching.__code__,
    "partner conversions": matching._match_list.__code__,
    "certificate scans": stable._certificate_failure.__code__,
    "oracle steps": bruteforce._Budget.spend.__code__,
    "neighbour lookups": graph.Graph.neighbors.__code__,
    "edge-set reads": graph.Graph.edges.fget.__code__,
    "neighbour-tuple builds": graph._neighbor_tuples.__code__,
}


def _call_counts(work):
    """The number of calls, recursive ones included, of each code object
    in COUNTED while work() runs."""
    profile = cProfile.Profile()
    profile.enable()
    work()
    profile.disable()
    calls = {(file, line, name): nc
             for (file, line, name), (_, nc, *_) in pstats.Stats(profile).stats.items()}
    return {key: calls.get((c.co_filename, c.co_firstlineno, c.co_name), 0)
            for key, c in COUNTED.items()}


def test_full_report_work_on_the_analyze_workload_inputs(monkeypatch):
    # the 270 seed-1 inputs of the benchmark's analyze-ke16 workload, all
    # bipartite: no blossom base search runs, and no brute-force scan
    graphs = _analyze_workload_graphs(monkeypatch, 1, 270)
    counts = _call_counts(lambda: [full_report(g) for g in graphs])
    assert counts["graphs built"] <= 13
    assert counts["facts"] <= 283
    assert counts["colourings"] <= counts["facts"]
    assert counts["base searches"] == 0
    assert counts["augmenting searches"] <= 403
    assert counts["alpha rec"] <= 2342
    assert counts["listing rec"] <= 24288
    assert counts["alpha_critical"] <= 4279
    for scan in ("stable-set scans", "brute mu rec", "matchings rec", "summary rec"):
        assert counts[scan] == 0
    # each Facts converts its canonical matching once, if at all
    assert counts["partner conversions"] <= counts["facts"]
    assert counts["matching validations"] == 0
    # Graph keeps no edge set, and no package path builds the view
    assert counts["edge-set reads"] == 0
    # each graph builds its neighbour tuples once at most: the inputs and
    # the graphs built here are all that can
    assert counts["neighbour-tuple builds"] <= 283
    assert counts["neighbour-tuple builds"] <= counts["graphs built"] + len(graphs)


def test_verify_work_on_the_general_corpus():
    corpus = verify.connected_corpus(1, 100, 2, 10)
    counts = _call_counts(lambda: verify.run_checks(corpus))
    assert counts["graphs built"] <= 461
    assert counts["facts"] <= 1146
    # one colouring per Facts at most: a Facts reads connectivity, its
    # sides and its odd components off one colouring, and the derived
    # graphs whose colouring nobody reads are never coloured
    assert counts["colourings"] <= counts["facts"]
    assert counts["colourings"] <= 965
    assert counts["base searches"] <= 5001
    assert counts["augmenting searches"] <= 3289
    assert counts["alpha rec"] <= 5201
    assert counts["listing rec"] <= 13411
    assert counts["alpha_critical"] <= 3229
    assert counts["stable-set scans"] <= 900
    assert counts["brute mu rec"] <= 5608
    assert counts["matchings rec"] <= 4490
    assert counts["summary rec"] <= 6618
    # every matching here is one the package made: none is validated, the
    # canonical one is converted once per Facts and each listed maximum
    # matching of the Sterboul row once, and the extension row scans one
    # certificate per graph and one per extension
    assert counts["matching validations"] == 0
    assert counts["partner conversions"] <= 1953
    assert counts["certificate scans"] <= 513
    assert counts["edge-set reads"] == 0
    assert counts["neighbour-tuple builds"] <= 1146
    assert counts["neighbour-tuple builds"] <= counts["graphs built"] + len(corpus)


def test_corpus_generation_builds_one_graph_per_kept_sample():
    # the rejection samplers test connectivity on the drawn edges, so a
    # rejected sample builds no Graph, and a kept one only its masks
    counts = _call_counts(lambda: verify.connected_corpus(1, 100, 2, 10))
    assert counts["graphs built"] == 900
    assert counts["neighbour-tuple builds"] == 0
    counts = _call_counts(lambda: verify.bipartite_corpus(1, 550, 12))
    assert counts["graphs built"] == 550
    assert counts["neighbour-tuple builds"] == 0


def test_counting_comparing_and_hashing_build_no_neighbour_tuples():
    # m and degree count mask bits, and ==, hash and repr read the masks
    graphs = [g for _, g in verify.connected_corpus(1, 100, 2, 10)]
    counts = _call_counts(lambda: (
        [(g.m, [g.degree(v) for v in range(g.n)], g == graphs[0], hash(g), repr(g))
         for g in graphs],
        set(graphs)))
    assert counts["neighbour-tuple builds"] == 0


def test_each_facts_colours_its_graph_once(monkeypatch):
    # every answer the colouring gives, read on one Facts, costs one run
    runs = []
    colour = graph._colour_components
    monkeypatch.setattr(kegraphs.analysis, "_colour_components",
                        lambda adj: runs.append(1) or colour(adj))
    for _, g in verify.connected_corpus(1, 20, 2, 10):
        f = Facts(g)
        for name in ("connected", "sides", "bipartite", "odd_vertices", "blossom_free"):
            getattr(f, name)
        assert kegraphs.analysis.check_structure_consistency(f).consistent
    assert len(runs) == 20 * 9


def test_oracle_walk_on_the_small_connected_corpus():
    # the exhaustive blossom, flower and posy oracles on the maximum matching
    # of each graph: one budget step per neighbour the walk looks at, read
    # off the adjacency tuples, so no id is checked again
    cases = [(g, matching.maximum_matching(g))
             for _, g in verify.connected_corpus(3, 40, 2, 9)]

    def work():
        for g, m in cases:
            bruteforce.find_blossoms(g, m)
            bruteforce.find_flower(g, m)
            bruteforce.find_posy(g, m)

    counts = _call_counts(work)
    assert counts["oracle steps"] <= 343_824
    assert counts["neighbour lookups"] == 0
