"""Acceptance criteria, one test per criterion, at full stated scale.

Each test prints a single PASS/FAIL line.  The shared corpus is 5004
seeded connected graphs with 2..10 vertices; the bipartite and matching
corpora are generated separately at their own stated sizes.  Every
tolerance is exact: zero violations.
"""

import random
import time

import pytest

from kegraphs import verify
from kegraphs.analysis import (
    Facts,
    classify_alpha_plus,
    full_report,
    is_koenig_egervary,
)
from kegraphs.constructions import (
    attach_k2,
    bullet_kp,
    complete_bipartite,
    cycle,
    fixture_by_name,
    fixture_mismatches,
    fixtures,
    peel,
    random_bipartite_with_pm,
    random_graph,
)
from kegraphs.graph import neighborhood
from kegraphs.matching import has_blossom, matching_number, maximum_matching
from kegraphs.stable import (
    core_report,
    maximum_stable_sets,
    stability_number,
)

CORPUS_SEED = 7
PER_SIZE = 556  # 9 sizes -> 5004 graphs

KE_SUITE_CHECKS = [
    "ke-arithmetic",              # bounds and matching arithmetic
    "matchings-in-cut",           # matchings live in every stable-set cut
    "near-perfect-necessity",     # stability forces (near-)perfect matchings
    "anticore-empty-criterion",   # empty anticore iff pm + blossom-free
    "alpha-plus-pm-criterion",    # stability iff pm + anticore <= 1
    "alpha-plus-three-routes",    # definition / core / structure agreement
    "core-anticore-duality",      # N(core) = anticore, matched into core
    "pm-iff-core-equals-anticore",
    "core-lower-bounds",          # oversized alpha forces core >= 2
]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def corpus():
    return verify.connected_corpus(CORPUS_SEED, PER_SIZE, 2, 10)


@pytest.fixture(scope="session")
def corpus_summary(corpus):
    names = (
        ["edge-addition-definition", "sterboul-structures", "extension-construction"]
        + KE_SUITE_CHECKS
    )
    return verify.run_checks(corpus, names)


def test_criterion_1_fixture_exactness():
    start = time.perf_counter()
    problems = []
    for f in fixtures():
        problems += fixture_mismatches(f, full_report(f.graph))

    k4 = fixture_by_name("fig1_k4_minus_e").graph
    if not (is_koenig_egervary(k4) and matching_number(k4) == 2):
        problems.append("missing-pair fixture lost KE or its perfect matching")

    p3 = fixture_by_name("p3").graph
    rep3 = core_report(maximum_stable_sets(p3))
    if rep3.anticore_size != 1 or classify_alpha_plus(Facts(p3)).kind != "not_stable":
        problems.append("three-vertex path expectations failed")

    g3 = fixture_by_name("fig3_nonstable").graph
    if not has_blossom(g3, maximum_matching(g3)):
        problems.append("the eight-vertex pm fixture became blossom-free")
    if not (stability_number(g3) == 4 and stability_number(g3.with_edge(0, 4)) == 3):
        problems.append("edge addition on the pm fixture did not drop alpha to 3")

    for name, want in (("fig4_g1", "alpha1_plus"), ("fig4_g2", "alpha0_plus")):
        g = fixture_by_name(name).graph
        if classify_alpha_plus(Facts(g)).kind != want or not is_koenig_egervary(g):
            problems.append(f"{name} classification drifted")

    g5 = fixture_by_name("fig5_non_ke").graph
    rep5 = core_report(maximum_stable_sets(g5))
    if is_koenig_egervary(g5) or matching_number(g5) * 2 == g5.n:
        problems.append("the non-KE fixture gained KE or a perfect matching")
    if neighborhood(g5, rep5.core) != {1} or rep5.anticore != {1, 2}:
        problems.append("non-KE fixture core neighborhood drifted")
    if rep5.core_size != rep5.anticore_size:
        problems.append("non-KE fixture core/anticore sizes differ")

    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 1.0
    report("1 (fixture exactness)", ok, f"{len(fixtures())} fixtures in {elapsed:.3f}s"
           + ("" if not problems else "; " + "; ".join(problems)))
    assert not problems
    assert elapsed < 1.0


def test_criterion_2_edge_addition_equivalence(corpus, corpus_summary):
    stats = corpus_summary.checks["edge-addition-definition"]
    ok = stats.failed == 0 and stats.applicable >= 5000
    report(
        "2 (stability definition vs core)",
        ok,
        f"{stats.applicable} connected graphs, {stats.failed} violations",
    )
    assert stats.applicable >= 5000
    assert stats.failures == [] and stats.failed == 0


def test_criterion_3_ke_theorem_suite(corpus_summary):
    failed = {
        name: corpus_summary.checks[name]
        for name in KE_SUITE_CHECKS
        if corpus_summary.checks[name].failed
    }
    applicable = min(corpus_summary.checks[n].applicable for n in KE_SUITE_CHECKS)
    ok = not failed
    report(
        "3 (KE theorem suite)",
        ok,
        f"9 checks on a KE subset of >= {applicable} graphs, "
        f"{sum(s.failed for s in failed.values())} violations",
    )
    for name in KE_SUITE_CHECKS:
        assert corpus_summary.checks[name].failures == []
        assert corpus_summary.checks[name].failed == 0
    assert applicable > 1000  # the corpus must actually exercise the suite


def test_criterion_4_structure_consistency(corpus_summary):
    stats = corpus_summary.checks["sterboul-structures"]
    ok = stats.failed == 0
    report(
        "4 (flower/posy vs KE arithmetic)",
        ok,
        f"{stats.applicable} graphs incl. all-matchings sweep for KE n<=8, "
        f"{stats.failed} violations",
    )
    assert stats.applicable >= 5000
    assert stats.failures == [] and stats.failed == 0


def test_criterion_5_matching_oracle():
    rng = random.Random(515)
    graphs = []
    for i in range(2000):
        n = rng.randint(0, 9)
        graphs.append(
            (f"m{i}", random_graph(n, rng.random(), rng.randrange(1 << 30)))
        )
    summary = verify.run_checks(graphs, ["matching-oracle"])
    stats = summary.checks["matching-oracle"]
    ok = stats.failed == 0 and stats.applicable >= 2000
    report(
        "5 (matching search vs brute force)",
        ok,
        f"{stats.applicable} graphs with n <= 9, {stats.failed} violations",
    )
    assert stats.applicable >= 2000
    assert stats.failures == [] and stats.failed == 0


def test_criterion_6_constructive_extension(corpus, corpus_summary):
    stats = corpus_summary.checks["extension-construction"]
    extras = []
    rng = random.Random(66)
    for i in range(40):
        extras.append(
            (f"ext{i}", random_bipartite_with_pm(6, rng.uniform(0.1, 0.7),
                                                 rng.randrange(1 << 30)))
        )
    extras.append(("c12", cycle(12)))
    extra_summary = verify.run_checks(extras, ["extension-construction"])
    extra_stats = extra_summary.checks["extension-construction"]
    total = stats.applicable + extra_stats.applicable
    failed = stats.failed + extra_stats.failed
    ok = failed == 0 and extra_stats.applicable == len(extras)
    report(
        "6 (alternating-saturation extension)",
        ok,
        f"{total} blossom-free KE graphs with perfect matchings (n <= 12), "
        f"every outside vertex pulled in, {failed} failures",
    )
    assert extra_stats.applicable == len(extras)  # all extras qualify by design
    assert stats.failures == [] and extra_stats.failures == []
    assert failed == 0


def _attach_bases(rng, count):
    named = [cycle(4), cycle(6), complete_bipartite(2, 2),
             fixture_by_name("fig4_g2").graph]
    for i in range(count):
        if i % 8 == 7:
            yield named[(i // 8) % len(named)]
        else:
            side = rng.randint(1, 5)
            yield random_bipartite_with_pm(side, rng.uniform(0.0, 0.8),
                                           rng.randrange(1 << 30))


def test_criterion_7_construction_round_trips():
    rng = random.Random(77)
    problems = []
    attach_count = 0
    for g in _attach_bases(rng, 500):
        fam = maximum_stable_sets(g)
        y_edges = {rng.choice(sorted(s)) for s in fam.sets}
        f = attach_k2(Facts(g), y_edges)
        rep = core_report(maximum_stable_sets(f))
        if not (
            is_koenig_egervary(f)
            and matching_number(f) * 2 == f.n
            and rep.anticore == {g.n}
            and rep.core == {g.n + 1}
        ):
            problems.append(f"attachment conclusion failed on n={g.n}")
        removed, back = peel(Facts(f))
        if removed != (g.n, g.n + 1) or back != g:
            problems.append(f"peel did not undo the attachment on n={g.n}")
        attach_count += 1

    bullet_count = 0
    for i in range(500):
        side = rng.randint(1, 4)
        base = random_bipartite_with_pm(side, rng.uniform(0.0, 0.8),
                                        rng.randrange(1 << 30))
        if i % 2 == 0:
            p = rng.choice([1, 2])
            k = rng.randrange(side)
            out = bullet_kp(base, p, (k, side + k))
        else:
            p = rng.choice([3, 4, 5])
            out = bullet_kp(base, p, rng.randrange(base.n))
        if classify_alpha_plus(Facts(out)).kind == "not_stable":
            problems.append(f"clique gluing lost stability (p={p}, base n={base.n})")
        bullet_count += 1

    ok = not problems
    report(
        "7 (construction round-trips)",
        ok,
        f"{attach_count} pendant-pair attachments with peel round-trip, "
        f"{bullet_count} clique gluings over both branches, "
        f"{len(problems)} violations",
    )
    assert attach_count == 500 and bullet_count == 500
    assert problems == []


def test_criterion_8_bipartite_corollaries():
    graphs = verify.bipartite_corpus(88, 2000, 12)
    names = ["bipartite-equivalences", "bipartite-zero-core", "core-lower-bounds"]
    summary = verify.run_checks(graphs, names)
    failed = sum(summary.checks[n].failed for n in names)
    equiv = summary.checks["bipartite-equivalences"]
    ok = failed == 0 and equiv.applicable == 2000
    report(
        "8 (bipartite corollaries)",
        ok,
        f"{equiv.applicable} connected bipartite graphs (n <= 12), "
        f"{failed} violations",
    )
    assert equiv.applicable == 2000
    for n in names:
        assert summary.checks[n].failures == []
        assert summary.checks[n].failed == 0
