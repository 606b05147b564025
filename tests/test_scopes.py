"""Scope witnesses: a row's hypotheses are needed.

Each entry names a row, one hypothesis of its scope, and a witness graph
that violates that hypothesis and on which the row's statement, evaluated
on Facts with the gate dropped, fails.  The gated row must not apply to
the witness, and its verdict must refuse it.
"""

import random

import pytest

from kegraphs import analysis, constructions, verify
from kegraphs.analysis import Facts
from kegraphs.graph import Graph, GraphError

# Three triangles {0,1,2}, {3,4,5}, {6,7,8} and a hub 9 joined to 0, 3 and 6.
# A maximum stable set takes one vertex per triangle; only the hub adds a
# fourth, off its three neighbours, so alpha = 4 and core = {9}.  A matching
# covers two vertices per triangle and the hub with one triangle vertex,
# and the other two triangles stay odd, so mu = 4: alpha + mu = 8 < 10 (not
# KE) and n - 2mu = 2 although |core| = 1.
THREE_TRIANGLES_AND_HUB = (10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                (6, 7), (7, 8), (6, 8), (0, 9), (3, 9), (6, 9)])

# K2 plus an isolated vertex 2.  The maximum stable sets {0, 2} and {1, 2}
# give alpha = 2, core = {2} and an empty anticore; mu = 1, so the graph is
# KE.  Either added edge, 0-2 or 1-2, leaves one of the two sets, so it is
# alpha-plus-stable by definition.  Yet n = 3 is odd, so it has no perfect
# matching, and 2 alpha = 4 > n while |core| = 1.
K2_PLUS_K1 = (3, [(0, 1)])

# K2 and 2K2, both KE (alpha = mu = n / 2).  Their pendant edges form a
# perfect matching, but every vertex is pendant, so there are n > alpha
# pendant vertices: the two counting statements fail.
K2 = (2, [(0, 1)])
TWO_K2 = (4, [(0, 1), (2, 3)])


def _near_perfect_necessity(f):
    return f.core.core_size > 1 or f.graph.n - 2 * f.mu <= 1


def _anticore_empty_criterion(f):
    return (f.core.anticore_size == 0) == (f.has_pm and f.blossom_free)


def _alpha_plus_pm_criterion(f):
    return f.stable_by_definition == (f.has_pm and f.core.anticore_size <= 1)


def _oversized_alpha_core_bound(f):
    return not (f.is_ke and 2 * f.alpha > f.graph.n) or f.core.core_size >= 2


def _pendant_characterization(f):
    g = f.graph
    pendant_edges = {frozenset((p, g.neighbors(p)[0])) for p in f.pendants}
    pendant_pm = 2 * len(pendant_edges) == len(frozenset().union(*pendant_edges)) == g.n
    count_is_alpha = len(f.pendants) == f.alpha
    return (pendant_pm == (count_is_alpha and not f.alpha_critical_pendants)
            == (count_is_alpha and f.is_ke and f.stable_by_definition))


# (row, hypothesis dropped, witness as (n, edges), the row's statement,
# the row's verdict)
SCOPE_WITNESSES = [
    ("near-perfect-necessity", "KE", THREE_TRIANGLES_AND_HUB,
     _near_perfect_necessity, analysis.check_near_perfect_necessity),
    ("anticore-empty-criterion", "connected", K2_PLUS_K1,
     _anticore_empty_criterion, analysis.check_anticore_empty_criterion),
    ("alpha-plus-pm-criterion", "connected", K2_PLUS_K1,
     _alpha_plus_pm_criterion, analysis.check_alpha_plus_pm_criterion),
    ("core-lower-bounds", "connected", K2_PLUS_K1,
     _oversized_alpha_core_bound, analysis.check_core_lower_bounds),
    ("pendant-characterization", "order at least 3", K2,
     _pendant_characterization, analysis.pendant_characterization),
    ("pendant-characterization", "connected", TWO_K2,
     _pendant_characterization, analysis.pendant_characterization),
]


@pytest.mark.parametrize("row, hypothesis, witness, statement, verdict", SCOPE_WITNESSES,
                         ids=[f"{row}-{hyp}" for row, hyp, *_ in SCOPE_WITNESSES])
def test_the_witness_needs_the_hypothesis(row, hypothesis, witness, statement, verdict):
    g = Graph(*witness)
    f = Facts(g)
    if hypothesis == "KE":
        assert not f.is_ke and f.connected
    elif hypothesis == "order at least 3":
        assert f.is_ke and f.connected and g.n < 3
    else:
        assert f.is_ke and not f.connected
    assert not statement(f)
    summary = verify.run_checks([("witness", g)], [row])
    assert summary.checks[row].applicable == 0
    with pytest.raises(GraphError):
        verdict(f)


def test_the_witnesses_are_as_described():
    f = Facts(Graph(*THREE_TRIANGLES_AND_HUB))
    assert (f.alpha, f.mu, sorted(f.core.core)) == (4, 4, [9])
    f = Facts(Graph(*K2_PLUS_K1))
    assert (f.alpha, f.mu, sorted(f.core.core), f.core.anticore_size) == (2, 1, [2], 0)
    assert f.stable_by_definition and not f.has_pm
    for witness in (K2, TWO_K2):
        f = Facts(Graph(*witness))
        assert f.alpha == f.mu == len(f.pendants) // 2


# K3 and K1 for the bipartite rows: both are connected, K3 has order 3 but
# an odd cycle, K1 is bipartite but of order 1.  Each is edge-addition
# stable by definition (no non-edge to add) and has no perfect matching.
K3 = (3, [(0, 1), (1, 2), (0, 2)])
K1 = (1, [])


def _bipartite_equivalences(f):
    members = set(f.family.sets)
    full = frozenset(range(f.graph.n))
    partition_pair = any(full - s in members for s in f.family.sets)
    return f.stable_by_definition == f.has_pm == partition_pair == (f.core.core_size == 0)


def _bipartite_zero_core(f):
    return f.core.core_size != f.core.anticore_size or f.core.core_size == 0


# (row, hypothesis dropped, witness graph, the row's statement, the row's verdict)
BIPARTITE_WITNESSES = [
    ("bipartite-zero-core", "bipartite", constructions.fixture_by_name("fig4_g1").graph,
     _bipartite_zero_core, analysis.check_bipartite_zero_core),
    ("bipartite-equivalences", "bipartite", Graph(*K3),
     _bipartite_equivalences, analysis.check_bipartite_equivalences),
    ("bipartite-equivalences", "order at least 2", Graph(*K1),
     _bipartite_equivalences, analysis.check_bipartite_equivalences),
    ("bipartite-equivalences", "connected", Graph(*K2_PLUS_K1),
     _bipartite_equivalences, analysis.check_bipartite_equivalences),
]


@pytest.mark.parametrize("row, hypothesis, g, statement, verdict", BIPARTITE_WITNESSES,
                         ids=[f"{row}-{hyp}" for row, hyp, *_ in BIPARTITE_WITNESSES])
def test_the_bipartite_rows_need_their_hypotheses(row, hypothesis, g, statement, verdict):
    f = Facts(g)
    holds = {"bipartite": f.bipartite, "connected": f.connected,
             "order at least 2": g.n >= 2}
    assert not holds.pop(hypothesis) and all(holds.values())
    assert not statement(f)
    summary = verify.run_checks([("witness", g)], [row])
    assert summary.checks[row].applicable == 0
    with pytest.raises(GraphError):
        verdict(f)


def test_the_bipartite_witnesses_are_as_described():
    f = Facts(constructions.fixture_by_name("fig4_g1").graph)
    assert f.is_ke and f.connected and not f.bipartite
    assert (sorted(f.core.core), sorted(f.core.anticore)) == ([7], [6])
    for witness in (K3, K1):
        f = Facts(Graph(*witness))
        assert f.stable_by_definition and not f.has_pm


def _scoped_rows():
    """The verify rows that run an analysis verdict, and the one row that
    runs pm_via_core, which refuses through the same helper."""
    verdict_row = analysis._verdict(analysis.check_ke_arithmetic).__code__
    return [row for row in verify.CHECKS
            if row.run.__code__ is verdict_row or row.name == "pm-iff-core-equals-anticore"]


def _scope_corpus():
    """Seeded graphs on each side of every scope: connected and not, KE and
    not, bipartite and not, and orders 0 to 10."""
    rng = random.Random(50)
    graphs = [g for _, g in verify.connected_corpus(1, 20, 1, 9)]
    graphs += [g for _, g in verify.bipartite_corpus(1, 40, 10)]
    graphs += [constructions.random_graph(rng.randint(0, 9), rng.random(), rng.randrange(1 << 30))
               for _ in range(200)]
    return graphs


# The rows whose check runs a function that refuses through _require:
# decompose for ke-decomposition, constructions.peel for peel-step.
REFUSING_ROWS = [verify.CHECKS_BY_NAME[name] for name in ("ke-decomposition", "peel-step")]


@pytest.mark.parametrize("row", _scoped_rows() + REFUSING_ROWS, ids=lambda row: row.name)
def test_a_row_applies_exactly_where_its_verdict_answers(monkeypatch, row):
    # the scope a verdict refuses through is the row's applies, the very
    # same predicate; core-lower-bounds alone gates narrower than its verdict
    required = []
    require = analysis._require

    def record(f, scope):
        required.append(scope)
        require(f, scope)

    monkeypatch.setattr(analysis, "_require", record)
    monkeypatch.setattr(constructions, "_require", record)
    outcomes = []
    for g in _scope_corpus():
        f = Facts(g)
        try:
            row.run(f)
            refusal = None
        except GraphError as exc:
            refusal = str(exc)
        outcomes.append((f, refusal))
    scopes = set(required)
    if not scopes:  # a row without a scope answers on every graph
        assert all(row.applies(f) and refusal is None for f, refusal in outcomes)
        return
    (scope,) = scopes
    if row.name == "core-lower-bounds":
        assert (row.applies, scope) == (analysis._connected_ke, analysis._nontrivial_connected)
        assert all(scope(f) for f, _ in outcomes if row.applies(f))
    else:
        assert scope is row.applies
    for f, refusal in outcomes:
        assert refusal == (None if scope(f) else f"stated only for {scope.needs}")
    assert any(refusal is None for _, refusal in outcomes)
    assert any(refusal is not None for _, refusal in outcomes)
