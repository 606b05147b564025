import collections
import dataclasses
import json
import random
import sys

import pytest

import kegraphs
from kegraphs import bruteforce, matching, verify
from kegraphs.analysis import (
    REPORT_CHECKS,
    AnticoreEmptyVerdict,
    ArithmeticVerdict,
    BipartiteZeroCoreVerdict,
    CertificateVerdict,
    CoreDualityVerdict,
    CoreLowerBoundVerdict,
    CutContainmentVerdict,
    Facts,
    PendantVerdict,
    PmCriterionVerdict,
    TheoremViolationError,
    ThreeRouteVerdict,
    check_alpha_plus_pm_criterion,
    check_alpha_plus_three_routes,
    check_anticore_empty_criterion,
    check_bipartite_equivalences,
    check_bipartite_zero_core,
    check_certificate_equivalence,
    check_core_anticore_duality,
    check_core_lower_bounds,
    check_ke_arithmetic,
    check_matchings_in_cuts,
    check_near_perfect_necessity,
    check_structure_consistency,
    classify_alpha_plus,
    decompose,
    full_report,
    is_alpha_critical,
    is_koenig_egervary,
    pendant_characterization,
    pm_via_core,
)
from kegraphs.constructions import (
    complete,
    complete_bipartite,
    cycle,
    fixture_by_name,
    path,
    random_bipartite,
    random_bipartite_with_pm,
    random_tree,
)
from kegraphs.edgefile import format_graph
from kegraphs.graph import Graph, GraphError, delete_vertices, neighborhood
from kegraphs.limits import DEFAULT_ALPHA_CAP, DEFAULT_OMEGA_CAP, CapExceededError
from kegraphs.stable import (
    CoreReport,
    StableSetFamily,
    certify_max_stable,
    core_report,
    extend_stable_through_matching,
    maximum_stable_sets,
)

K4_MINUS_E = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def test_ke_membership_examples():
    assert is_koenig_egervary(K4_MINUS_E)
    assert not is_koenig_egervary(cycle(5))
    rng = random.Random(2)
    for _ in range(30):
        g = random_bipartite(
            rng.randint(0, 5), rng.randint(0, 5), rng.random(), rng.randrange(1 << 30)
        )
        assert is_koenig_egervary(g)


def test_ke_membership_is_closed_under_components():
    from kegraphs.constructions import random_graph
    from kegraphs.graph import connected_components, induced_subgraph

    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.5),
                         rng.randrange(1 << 30))
        per_component = all(
            is_koenig_egervary(induced_subgraph(g, comp)[0])
            for comp in connected_components(g)
        )
        assert is_koenig_egervary(g) == per_component


def test_decompose_examples():
    d = decompose(Facts(K4_MINUS_E))
    assert d.stable_set == {2, 3} and d.rest == {0, 1}
    assert len(d.cut_matching) == 2
    d = decompose(Facts(path(4)))
    assert d.stable_set == {0, 2} and len(d.cut_matching) == 2
    star = complete_bipartite(1, 3)
    d = decompose(Facts(star))
    assert d.stable_set == {1, 2, 3} and d.rest == {0} and len(d.cut_matching) == 1


def test_decompose_rejects_bad_inputs():
    with pytest.raises(GraphError):
        decompose(Facts(cycle(5)))
    with pytest.raises(GraphError):
        decompose(Facts(Graph(4, [(0, 1), (2, 3)])))


def test_classification_examples():
    assert classify_alpha_plus(Facts(fixture_by_name("fig4_g1").graph)).kind == "alpha1_plus"
    assert classify_alpha_plus(Facts(fixture_by_name("fig4_g2").graph)).kind == "alpha0_plus"
    verdict = classify_alpha_plus(Facts(K4_MINUS_E))
    assert verdict.kind == "not_stable" and verdict.witness_edge == (2, 3)
    assert classify_alpha_plus(Facts(complete(5))).kind == "alpha0_plus"
    assert classify_alpha_plus(Facts(Graph(1))).kind == "alpha1_plus"


def test_classification_matches_definition():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 8)
        g = Graph(
            n,
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            ],
        )
        kind = classify_alpha_plus(Facts(g)).kind
        assert Facts(g).stable_by_definition == (kind != "not_stable")


def _ke16_inputs():
    """C16, K8,8, K7,9 and 119 seeded 16-vertex graphs from four
    generators in turn: the sparse and dense inputs kegraphs analyze
    meets at the enumeration cap."""
    makers = (
        lambda s: random_bipartite(8, 8, 0.5, s),
        lambda s: random_bipartite_with_pm(8, 0.3, s),
        lambda s: random_tree(16, s),
        lambda s: random_bipartite(8, 8, 0.8, s),
    )
    fixed = [cycle(16), complete_bipartite(8, 8), complete_bipartite(7, 9)]
    return fixed + [makers[i % 4](i) for i in range(119)]


@pytest.mark.parametrize("corpus", [
    _ke16_inputs,
    lambda: [g for _, g in verify.connected_corpus(1, 300, 2, 10)],
    lambda: [g for _, g in verify.bipartite_corpus(1, 550, 12)],
], ids=["ke16", "connected", "bipartite"])
def test_definition_route_agrees_with_the_per_edge_oracle(corpus):
    graphs = corpus()
    answers = [Facts(g).stable_by_definition for g in graphs]
    assert answers == [bruteforce.brute_edge_addition_stable(g) for g in graphs]
    assert any(answers) and not all(answers)


@pytest.mark.parametrize("g", [complete_bipartite(8, 8), cycle(16), random_tree(16, 1)],
                         ids=["k8x8", "c16", "tree16"])
def test_definition_route_builds_no_graph(monkeypatch, g):
    expected = bruteforce.brute_edge_addition_stable(g)

    def refuse(*args):
        raise AssertionError("the definition route built a graph per non-edge")

    monkeypatch.setattr(Graph, "with_edge", refuse)
    counts = _count_calls(monkeypatch, ["_alpha_mask"])
    assert Facts(g).stable_by_definition == expected
    assert 0 < counts["_alpha_mask", g] <= g.n + 1


@pytest.mark.parametrize("g", [
    complete_bipartite(1, 8), fixture_by_name("fig3_nonstable").graph, random_tree(16, 1),
], ids=["k1x8", "fig3", "tree16"])
def test_full_report_builds_no_graph_for_the_witness(monkeypatch, g):
    expected = full_report(g)
    assert expected["stability"]["class"] == "not_stable"

    def refuse(*args):
        raise AssertionError("the witness check built G + uv")

    monkeypatch.setattr(Graph, "with_edge", refuse)
    assert full_report(g) == expected


def test_witness_check_catches_a_core_pair_that_keeps_alpha(monkeypatch):
    # 0 and 2 are opposite on C4: joining them leaves the stable set {1, 3}
    monkeypatch.setattr(kegraphs.analysis, "core_report",
                        lambda fam: CoreReport(frozenset({0, 2}), frozenset()))
    with pytest.raises(TheoremViolationError,
                       match="^core pair addition failed to lower alpha$"):
        full_report(cycle(4))


def test_pm_criterion_examples():
    v = check_alpha_plus_pm_criterion(Facts(K4_MINUS_E))
    assert v.consistent and not v.pm_and_small_anticore
    v = check_alpha_plus_pm_criterion(Facts(path(3)))
    assert v.consistent and not v.pm_and_small_anticore
    v = check_alpha_plus_pm_criterion(Facts(cycle(4)))
    assert v.consistent and v.pm_and_small_anticore


def test_three_route_examples():
    v = check_alpha_plus_three_routes(Facts(fixture_by_name("fig3_nonstable").graph))
    assert v.consistent
    assert (v.by_definition, v.by_core_sets, v.by_matching_structure) == (
        False,
        False,
        False,
    )
    v = check_alpha_plus_three_routes(Facts(fixture_by_name("fig4_g1").graph))
    assert v.consistent and v.by_definition
    v = check_alpha_plus_three_routes(Facts(cycle(4)))
    assert v.consistent and v.by_definition


def test_pm_criterion_refuses_order_below_two():
    # K1 is vacuously stable by definition but has no perfect matching
    with pytest.raises(GraphError):
        check_alpha_plus_pm_criterion(Facts(Graph(1)))


def test_three_route_gates():
    with pytest.raises(GraphError):
        check_alpha_plus_three_routes(Facts(cycle(5)))  # not KE
    with pytest.raises(GraphError):
        check_alpha_plus_three_routes(Facts(Graph(4, [(0, 1), (2, 3)])))  # disconnected
    with pytest.raises(GraphError):
        check_alpha_plus_three_routes(Facts(Graph(1)))  # too small


def test_anticore_empty_criterion_examples():
    v = check_anticore_empty_criterion(Facts(K4_MINUS_E))
    assert v.consistent and not v.anticore_empty
    v = check_anticore_empty_criterion(Facts(cycle(4)))
    assert v.consistent and v.anticore_empty
    rng = random.Random(6)
    for _ in range(25):
        tree = random_tree(rng.randint(2, 9), rng.randrange(1 << 30))
        v = check_anticore_empty_criterion(Facts(tree))
        assert v.consistent
        if not Facts(tree).has_pm:
            assert not v.anticore_empty


def test_pm_via_core():
    assert pm_via_core(Facts(K4_MINUS_E)) is True
    assert pm_via_core(Facts(path(3))) is False
    with pytest.raises(GraphError):
        pm_via_core(Facts(fixture_by_name("fig5_non_ke").graph))


def test_core_anticore_duality_examples():
    f = Facts(K4_MINUS_E)
    assert f.matching == {(0, 2), (1, 3)}
    assert check_core_anticore_duality(f).consistent
    v = check_core_anticore_duality(Facts(cycle(4)))
    assert v.consistent
    # the duality genuinely fails outside its scope: on the non-KE fixture
    g5 = fixture_by_name("fig5_non_ke").graph
    rep = core_report(maximum_stable_sets(g5))
    assert neighborhood(g5, rep.core) == {1} != rep.anticore
    with pytest.raises(GraphError):
        check_core_anticore_duality(Facts(g5))


def test_pendant_characterization_examples():
    # single edge: a pendant perfect matching exists, but both endpoints are
    # pendant while alpha is 1, so the counting statements fail (the
    # three-way equivalence genuinely needs order at least 3)
    v = pendant_characterization(Facts(Graph(2, [(0, 1)])))
    assert (v.pendant_pm, v.pendant_count_non_critical, v.ke_stable_pendant_count) == (
        True,
        False,
        False,
    )
    v = pendant_characterization(Facts(path(3)))
    assert not v.pendant_pm and not v.pendant_count_non_critical
    assert not v.ke_stable_pendant_count
    corona = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
    v = pendant_characterization(Facts(corona))
    assert v.consistent and v.pendant_pm


def test_alpha_critical_examples():
    assert is_alpha_critical(path(3), 0)
    assert not is_alpha_critical(Graph(2, [(0, 1)]), 0)
    assert not is_alpha_critical(cycle(4), 2)
    with pytest.raises(GraphError, match="out of range"):
        is_alpha_critical(path(3), 3)


def _brute_alpha(g):
    return max(s.bit_count() for s in bruteforce.brute_stable_sets(g))


def test_alpha_critical_agrees_with_the_brute_scan():
    answers = []
    for _, g in verify.connected_corpus(1, 30, 2, 10):
        alpha = _brute_alpha(g)
        for v in g.vertices():
            answers.append(is_alpha_critical(g, v))
            assert answers[-1] == (_brute_alpha(delete_vertices(g, {v})) < alpha)
    assert any(answers) and not all(answers)


def test_alpha_critical_refuses_above_the_cap_before_any_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the branch-and-bound ran above the cap")

    for mod in (kegraphs.stable, kegraphs.analysis):
        monkeypatch.setattr(mod, "_alpha_mask", refuse)
    big = Graph(DEFAULT_ALPHA_CAP + 1)
    with pytest.raises(CapExceededError):
        is_alpha_critical(big, 0)
    with pytest.raises(CapExceededError):
        Facts(big).alpha_critical(0)


def test_core_lower_bound_examples():
    v = check_core_lower_bounds(Facts(path(3)))
    assert v.oversized_alpha_applicable and v.consistent
    v = check_core_lower_bounds(Facts(complete_bipartite(1, 3)))
    assert v.unequal_sides_applicable and v.consistent
    v = check_core_lower_bounds(Facts(cycle(4)))
    assert not v.oversized_alpha_applicable and not v.unequal_sides_applicable


def test_bipartite_equivalences():
    v = check_bipartite_equivalences(Facts(cycle(4)))
    assert v.consistent and v.has_pm
    v = check_bipartite_equivalences(Facts(path(3)))
    assert v.consistent and not v.has_pm
    with pytest.raises(GraphError):
        check_bipartite_equivalences(Facts(cycle(5)))
    with pytest.raises(GraphError):
        check_bipartite_equivalences(Facts(Graph(1)))


def test_bipartite_zero_core():
    assert check_bipartite_zero_core(Facts(cycle(4))).consistent
    v = check_bipartite_zero_core(Facts(path(3)))
    assert not v.applicable and v.consistent


def test_ke_arithmetic_and_near_perfect():
    assert check_ke_arithmetic(Facts(K4_MINUS_E)).consistent
    assert check_near_perfect_necessity(Facts(fixture_by_name("fig4_g1").graph)).consistent
    assert check_matchings_in_cuts(Facts(K4_MINUS_E)).consistent


def _summary_of(g, matchings):
    """The MatchingSummary of a listing of matchings, read off the listing."""
    return bruteforce.MatchingSummary(
        frozenset(g.full_mask & ~sum(1 << v for e in m for v in e) for m in matchings),
        frozenset().union(*matchings),
    )


@pytest.mark.parametrize("corpus", ["bipartite", "connected", "named"])
def test_matching_summary_agrees_with_a_summary_of_the_listing(corpus):
    # sizes mu, mu - 1, 0 and one out of range; K8,8 and K7,9 skip mu - 1,
    # whose listings run to hundreds of thousands of matchings
    graphs = {
        "bipartite": lambda: verify.bipartite_corpus(1, 200, 12),
        "connected": lambda: verify.connected_corpus(1, 30, 2, 10),
        "named": lambda: [("k8x8", complete_bipartite(8, 8)),
                          ("k7x9", complete_bipartite(7, 9)), ("c16", cycle(16))],
    }[corpus]()
    for label, g in graphs:
        mu = matching.matching_number(g)
        sizes = (mu, 0, mu + 1) if label in ("k8x8", "k7x9") else (mu, mu - 1, 0, mu + 1)
        for size in sizes:
            got = bruteforce.brute_matching_summary(g, size)
            want = _summary_of(g, bruteforce.brute_maximum_matchings(g, size))
            assert got == want, (label, size)


def test_cut_containment_fails_on_a_planted_matching_outside_every_cut():
    # both ends of (0, 2) lie in the maximum stable set {0, 2} of C4
    f = Facts(cycle(4))
    f.maximum_matchings += (frozenset({(0, 2)}),)
    f.matching_summary = _summary_of(f.graph, f.maximum_matchings)
    assert check_matchings_in_cuts(f) == CutContainmentVerdict(2, False)


def test_certificate_equivalence_check():
    assert check_certificate_equivalence(Facts(K4_MINUS_E)).consistent
    assert check_certificate_equivalence(Facts(path(4))).consistent


def _certificate_scan_per_pair(f):
    """The literal certificate scan: one frozenset test per (stable set,
    maximum matching) pair, stopping at the first stable set (counted from
    1 in scan order) that disagrees with some matching."""
    g = f.graph
    stable_sets = [frozenset(v for v in range(g.n) if s >> v & 1)
                   for s in bruteforce.brute_stable_sets(g)]
    members = set(f.family.sets)
    exposed_by_matching = [
        (m, frozenset(range(g.n)) - {v for e in m for v in e})
        for m in f.maximum_matchings
    ]
    for k, s in enumerate(stable_sets, 1):
        expected = s in members
        for m, exposed in exposed_by_matching:
            certified = exposed <= s and all((u in s) + (v in s) == 1 for u, v in m)
            if certified != expected:
                return CertificateVerdict(k, False)
    return CertificateVerdict(len(stable_sets), True)


def test_certificate_scan_agrees_with_the_per_pair_scan():
    corpus = verify.bipartite_corpus(1, 200, 12) + verify.connected_corpus(1, 60, 2, 10)
    ke = 0
    for label, g in corpus:
        f = Facts(g)
        if f.is_ke:
            ke += 1
            assert check_certificate_equivalence(f) == _certificate_scan_per_pair(f), label
    assert ke > 400


@pytest.mark.parametrize("g", [cycle(4), cycle(6), path(4), complete_bipartite(3, 3)])
def test_certificate_scans_agree_on_a_family_with_one_set_dropped(g):
    family = maximum_stable_sets(g)
    for drop in range(len(family)):
        f = Facts(g)
        f.family = StableSetFamily(
            g.n, family.alpha, family.sets[:drop] + family.sets[drop + 1:]
        )
        verdict = check_certificate_equivalence(f)
        assert not verdict.consistent
        assert verdict == _certificate_scan_per_pair(f)


def test_certificate_scans_agree_on_a_planted_non_matching_pair():
    # (1, 2) is no edge of the star, so only the exposed-set test ({0, 3}
    # lies in no stable set) rejects the member {1, 2, 3}: stable set 9 of
    # the scan, counted from 1
    f = Facts(complete_bipartite(1, 3))
    f.maximum_matchings += (frozenset({(1, 2)}),)
    f.matching_summary = _summary_of(f.graph, f.maximum_matchings)
    verdict = check_certificate_equivalence(f)
    assert verdict == _certificate_scan_per_pair(f)
    assert verdict == CertificateVerdict(9, False)


@pytest.mark.parametrize("g, planted, expected", [
    # {0} is stable set 2 of the scan, counted from 1
    (cycle(4), ({0},), CertificateVerdict(2, False)),
    # {0, 1} is stable set 4 of the scan, counted from 1
    (complete_bipartite(2, 3), ({0, 1}, {2, 3}), CertificateVerdict(4, False)),
], ids=["c4", "k2x3"])
def test_certificate_scan_fails_a_member_of_the_wrong_size_at_its_first_pair(
    g, planted, expected
):
    f = Facts(g)
    sets = tuple(frozenset(s) for s in planted)
    f.family = StableSetFamily(g.n, len(sets[0]), sets)
    verdict = check_certificate_equivalence(f)
    assert verdict == _certificate_scan_per_pair(f)
    assert verdict == expected


def test_structure_consistency():
    v = check_structure_consistency(Facts(cycle(5)))
    assert v.consistent and not v.ke_by_arithmetic and not v.structure_free
    v = check_structure_consistency(Facts(cycle(4)))
    assert v.consistent and v.ke_by_arithmetic and v.structure_free


def test_full_report_values():
    doc = full_report(K4_MINUS_E)
    assert (doc["alpha"], doc["mu"], doc["is_ke"], doc["has_pm"]) == (2, 2, True, True)
    assert (doc["core_size"], doc["anticore_size"]) == (2, 2)
    assert doc["stability"]["class"] == "not_stable"
    doc = full_report(cycle(4))
    assert (doc["alpha"], doc["mu"], doc["core_size"], doc["anticore_size"]) == (
        2,
        2,
        0,
        0,
    )
    assert doc["stability"]["class"] == "alpha0_plus"
    doc = full_report(fixture_by_name("fig1_seven").graph)
    assert (doc["alpha"], doc["mu"], doc["is_ke"], doc["has_pm"]) == (4, 3, True, False)


def test_full_report_handles_disconnected_graphs():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    doc = full_report(g)
    assert not doc["connected"] and doc["decomposition"] is None
    assert doc["alpha"] == 3 and doc["mu"] == 2 and doc["is_ke"]


def test_report_json_is_stable():
    doc = full_report(fixture_by_name("fig4_g1").graph)
    first = json.dumps(doc, sort_keys=True)
    second = json.dumps(full_report(fixture_by_name("fig4_g1").graph), sort_keys=True)
    assert first == second


def test_full_report_never_enters_the_exhaustive_walker(monkeypatch):
    graphs = [complete_bipartite(8, 8), fixture_by_name("fig3_nonstable").graph]
    expected = [full_report(g) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("the exhaustive blossom walker was entered")

    monkeypatch.setattr(bruteforce, "_collect_blossoms", refuse)
    assert [full_report(g) for g in graphs] == expected


def test_structure_consistency_never_enters_the_walker(monkeypatch):
    corpus = verify.connected_corpus(3, 5, 2, 9) + verify.bipartite_corpus(3, 20, 10)
    expected = verify.run_checks(corpus)

    def refuse(*args, **kwargs):
        raise AssertionError("the exhaustive blossom walker was entered")

    monkeypatch.setattr(bruteforce, "_collect_blossoms", refuse)
    got = verify.run_checks(corpus)
    assert got.table() == expected.table()
    assert got.checks["sterboul-structures"].applicable == len(corpus)


def test_structure_consistency_proves_each_matching_maximum_once(monkeypatch):
    proved = []
    original = matching._require_maximum

    def recorded(g, m):
        proved.append(m)
        return original(g, m)

    monkeypatch.setattr(matching, "_require_maximum", recorded)
    all_checked = reused = 0
    for label, g in verify.connected_corpus(4, 10, 2, 9):
        f = Facts(g)
        proved.clear()
        verdict = check_structure_consistency(f)
        checked = verdict.all_matchings_checked
        reached = f.maximum_matchings[:checked] if checked else ()
        assert len(set(proved)) == len(proved), label
        assert set(proved) == {f.matching, *reached}, label
        all_checked += checked
        reused += f.matching in reached
    assert all_checked > 0 and reused > 0


def test_matchings_are_validated_once_where_they_enter(monkeypatch):
    counts = _count_calls(monkeypatch, ["validate_matching"], key=lambda name, *a: name)

    def validations(call, *args):
        counts.clear()
        call(*args)
        return counts["validate_matching"]

    m = [(0, 2), (1, 3)]
    assert validations(certify_max_stable, K4_MINUS_E, m, {2, 3}) == 1
    assert validations(certify_max_stable, K4_MINUS_E, m, {0, 3}) == 1  # fails
    c4_m = [(0, 1), (2, 3)]
    assert validations(extend_stable_through_matching, cycle(4), c4_m, {0, 2}, 1) <= 2
    g = fixture_by_name("fig4_g2").graph
    s = maximum_stable_sets(g).sets[0]
    b = min(set(range(g.n)) - s)
    args = (g, matching.maximum_matching(g), s, b)
    assert validations(extend_stable_through_matching, *args) <= 2
    # the Sterboul row reads only matchings Facts made
    for label, g in verify.connected_corpus(4, 10, 2, 9):
        assert validations(check_structure_consistency, Facts(g)) == 0, label


def test_sterboul_row_decides_a_dense_16_vertex_graph():
    # the exhaustive flower/posy walker ran out of its step budget here
    label, g = verify.connected_corpus(1, 3, 15, 16)[-1]
    assert (label, g.n, g.m) == ("n16-2", 16, 103)
    summary = verify.run_checks([(label, g)], ["sterboul-structures"])
    assert summary.violations == 0
    assert summary.checks["sterboul-structures"].passed == 1


def test_pendant_pair_roundtrip_stays_within_the_enumeration_cap():
    # the attachment output has two more vertices than its input
    summary = verify.run_checks([("c16", cycle(16))])
    assert summary.violations == 0
    assert summary.checks["pendant-pair-roundtrip"].applicable == 0
    g = cycle(DEFAULT_OMEGA_CAP - 2)
    summary = verify.run_checks([("c14", g)], ["pendant-pair-roundtrip"])
    assert summary.checks["pendant-pair-roundtrip"].passed == 1


def test_facts_share_derived_graphs():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
    f = Facts(g)
    assert f.facts_of(Graph(4, g.edges)) is f
    h = f.facts_of(Graph(2, [(0, 1)]))
    assert h is not f and f.facts_of(Graph(2, [(0, 1)])) is h


# For each REPORT_CHECKS row: the analysis binding it calls, and a stand-in
# whose answer the row must reject.
BROKEN_REPORT_ROWS = {
    "ke-arithmetic": ("check_ke_arithmetic", ArithmeticVerdict(True, False, True)),
    "anticore-empty-criterion": ("check_anticore_empty_criterion",
                                 AnticoreEmptyVerdict(True, False)),
    "alpha-plus-pm-criterion": ("check_alpha_plus_pm_criterion",
                                PmCriterionVerdict(True, False)),
    "alpha-plus-three-routes": ("check_alpha_plus_three_routes",
                                ThreeRouteVerdict(True, True, False)),
    "core-anticore-duality": ("check_core_anticore_duality",
                              CoreDualityVerdict(True, False)),
    "pm-iff-core-equals-anticore": ("pm_via_core", False),
    "pendant-characterization": ("pendant_characterization",
                                 PendantVerdict(True, False, False)),
    "core-lower-bounds": ("check_core_lower_bounds",
                          CoreLowerBoundVerdict(True, False, False, True)),
}


@pytest.mark.parametrize("row", REPORT_CHECKS, ids=lambda row: row.name)
@pytest.mark.parametrize("g", [path(4), Graph(5, [(0, 1), (2, 3), (3, 4)])],
                         ids=["p4", "p2+p3"])
def test_full_report_names_the_row_that_disagreed(monkeypatch, row, g):
    # every row applies to P4, which has a perfect matching; on P2 + P3 the
    # rows that need a connected graph apply only to its components
    verdict, bad = BROKEN_REPORT_ROWS[row.name]
    monkeypatch.setattr(kegraphs.analysis, verdict, lambda f: bad)
    with pytest.raises(TheoremViolationError, match=f"^{row.name}: ") as err:
        full_report(g)
    assert str(err.value) == f"{row.name}: {row.run(Facts(path(4)))}"


P3_PLUS_C4 = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)])


def test_full_report_runs_the_rows_on_the_graph_and_each_component(monkeypatch):
    g = P3_PLUS_C4
    p3, c4 = path(3), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    seen = collections.defaultdict(list)

    def recorded(row):
        def run(f):
            seen[row.name].append(f.graph)
            return row.run(f)
        return dataclasses.replace(row, run=run)

    monkeypatch.setattr(kegraphs.analysis, "REPORT_CHECKS",
                        tuple(recorded(row) for row in REPORT_CHECKS))
    full_report(g)
    # the whole graph is KE but disconnected, so only the rows that do not
    # ask for a connected graph run on it
    whole = {"ke-arithmetic", "core-anticore-duality", "pm-iff-core-equals-anticore"}
    assert seen == {row.name: ([g] if row.name in whole else []) + [p3, c4]
                    for row in REPORT_CHECKS}
    # three equal components share one Facts, and the rows run on it once
    seen.clear()
    full_report(Graph(6, [(0, 1), (2, 3), (4, 5)]))
    assert seen["core-lower-bounds"] == [Graph(2, [(0, 1)])]


def test_verify_runs_each_report_row_itself():
    for row in REPORT_CHECKS:
        assert sum(check is row for check in verify.CHECKS) == 1, row.name
    assert len(verify.CHECKS_BY_NAME) == len(verify.CHECKS)


@pytest.mark.parametrize("g, graphs_built", [
    (complete_bipartite(3, 3), 0),
    (path(5), 0),
    (cycle(6), 0),
    (P3_PLUS_C4, 2),
], ids=["k3x3", "p5", "c6", "p3+c4"])
def test_full_report_builds_a_component_graph_only_when_disconnected(
    monkeypatch, g, graphs_built
):
    # none of these has a blossom, so the structural route deletes nothing
    built = []
    original = Graph.__init__

    def counted(self, n, edges=()):
        built.append(n)
        original(self, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    full_report(g)
    assert len(built) == graphs_built


def test_blossom_free_validates_no_matching(monkeypatch):
    graphs = (cycle(5), complete(4), path(4), fixture_by_name("fig2_blossom").graph)
    expected = [not matching.has_blossom(g, matching.maximum_matching(g)) for g in graphs]

    def refuse(*args):
        raise AssertionError("the package's own matching was validated")

    monkeypatch.setattr(matching, "validate_matching", refuse)
    assert [Facts(g).blossom_free for g in graphs] == expected
    assert False in expected and True in expected


@pytest.mark.parametrize("row, verdict, bad", [
    ("ke-arithmetic", "check_ke_arithmetic", ArithmeticVerdict(True, False, True)),
    ("stable-set-certificate", "check_certificate_equivalence",
     CertificateVerdict(7, False)),
    ("bipartite-zero-core", "check_bipartite_zero_core",
     BipartiteZeroCoreVerdict(True, False)),
])
def test_verdict_rows_report_an_inconsistent_verdict_by_its_repr(
    monkeypatch, row, verdict, bad
):
    # the row calls the verdict through its analysis binding
    monkeypatch.setattr(kegraphs.analysis, verdict, lambda f: bad)
    summary = verify.run_checks([("p3", path(3))], [row])
    assert summary.violations == 1
    assert summary.checks[row].failures == [f"p3: {bad!r}\np 3 2\ne 0 1\ne 1 2"]


ORACLES = (
    "maximum_stable_sets",
    "brute_maximum_matchings",
    "brute_matching_summary",
    "maximum_matching",
    "brute_stable_sets",
)


def _count_calls(monkeypatch, names, key=lambda name, g, *args: (name, g)):
    """Calls per key, by default (function, graph), counted through every
    package binding."""
    counts = collections.Counter()
    modules = [m for name, m in list(sys.modules.items())
               if name == "kegraphs" or name.startswith("kegraphs.")]
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def counted(g, *args, _name=name, _original=original, **kwargs):
            counts[key(_name, g, *args)] += 1
            return _original(g, *args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


@pytest.fixture
def oracle_calls(monkeypatch):
    return _count_calls(monkeypatch, ORACLES)


def _repeated(counts):
    return sorted((name, g.n, sorted(g.edges)) for (name, g), c in counts.items() if c > 1)


def test_run_checks_hands_each_graph_to_each_oracle_once(oracle_calls):
    # the last graph's pendant pair and its anticore pair are the same
    # edge, so the structural route and the peel check delete the same pair
    corpus = (
        verify.connected_corpus(2, 6, 2, 9)
        + verify.bipartite_corpus(2, 40, 10)
        + [("pendant-triangle", Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3)]))]
    )
    for label, g in corpus:
        oracle_calls.clear()
        assert verify.run_checks([(label, g)]).violations == 0
        assert _repeated(oracle_calls) == [], label


def test_full_report_hands_each_graph_to_each_oracle_once(oracle_calls):
    graphs = [
        complete_bipartite(8, 8),
        fixture_by_name("fig3_nonstable").graph,
        Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
        Graph(4, [(0, 1), (2, 3)]),
    ]
    for g in graphs:
        oracle_calls.clear()
        full_report(g)
        assert _repeated(oracle_calls) == [], sorted(g.edges)
        assert oracle_calls["maximum_stable_sets", g] == 1


def test_run_checks_runs_each_brute_oracle_once_per_graph(monkeypatch):
    # the omega-oracle row and the certificate row share one stable-set scan
    counts = _count_calls(monkeypatch, ["brute_stable_sets"],
                          key=lambda name, g: name)
    original = bruteforce.brute_max_matching_size

    def counted(g):
        counts["brute_max_matching_size"] += 1
        return original(g)

    monkeypatch.setattr(bruteforce, "brute_max_matching_size", counted)
    corpus = verify.connected_corpus(1, 4, 2, 9) + verify.bipartite_corpus(1, 20, 10)
    assert verify.run_checks(corpus).violations == 0
    assert sum(Facts(g).is_ke for _, g in corpus) > 0
    assert counts == {"brute_max_matching_size": len(corpus),
                      "brute_stable_sets": len(corpus)}


def test_omega_oracle_catches_a_wrong_stability_number(monkeypatch):
    true_alpha = kegraphs.analysis.stability_number
    monkeypatch.setattr(kegraphs.analysis, "stability_number",
                        lambda g: true_alpha(g) + 1)
    summary = verify.run_checks([("c5", cycle(5))], ["omega-oracle"])
    assert summary.violations == 1
    assert summary.checks["omega-oracle"].failures == [
        "c5: stability numbers differ between enumerators\n"
        + format_graph(cycle(5)).rstrip()
    ]


def test_alpha_critical_pendants_share_equal_deletions(monkeypatch):
    runs = _count_calls(monkeypatch, ["_alpha_mask"], key=lambda name, g, mask: (g, mask))
    graphs = ([g for _, g in verify.connected_corpus(1, 6, 2, 10)] + _ke16_inputs()[:12]
              + [Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (3, 6)])])
    deletions = 0
    for g in graphs:
        runs.clear()
        full_report(g)
        # one Facts per (component) graph, so each G - v is searched once
        deletion_runs = [c for (h, mask), c in runs.items()
                if (h.full_mask & ~mask).bit_count() == 1]
        assert all(c == 1 for c in deletion_runs), sorted(g.edges)
        deletions += len(deletion_runs)
    assert deletions > len(graphs)

    # on K1,8 the definition route, the pendants and the witness read alpha
    # and alpha(G - v) for the 8 leaves: 9 runs, none repeated
    star = complete_bipartite(1, 8)
    f = Facts(star)
    f.core  # the enumeration's own run is not one of them
    runs.clear()
    assert not f.stable_by_definition
    assert f.alpha_critical_pendants == tuple(range(1, 9))
    assert classify_alpha_plus(f).witness_edge == (1, 2)
    full = star.full_mask
    assert runs == {(star, mask): 1 for mask in
                    [full] + [full & ~(1 << v) for v in range(1, 9)]}
