"""Koenig-Egervary recognition and the structural cross-check layer.

A graph is Koenig-Egervary (KE) when its stability number plus its
matching number equals its order.  Around that identity this module
implements the per-graph verdicts the verification suite relies on:
every check computes both sides of an equivalence by independent routes
(definition vs. core sizes vs. matching structure) and reports whether
they agree, rather than inferring one side from the other.

Every verdict reads one Facts, a per-graph cache, so each quantity is
computed once however many verdicts read it: check_x(Facts(g)).  The
definition route, the alpha-critical pendants and the not-stable witness
all read whether deleting a vertex lowers alpha, Facts.alpha_critical,
and build no graph.  Only entry points that start from a bare graph take
a Graph: full_report, is_koenig_egervary and is_alpha_critical.
full_report returns the JSON document kegraphs analyze writes.

Each per-theorem verdict (the check_* functions and
pendant_characterization) returns a frozen dataclass whose consistent
field or property says whether the statement held; the other fields
record the sides that were compared; a verdict raises on an input
outside its scope.  A Check row pairs a theorem with that scope
(applies) and says what disagreed when it fails (run), a verdict row by
the verdict's repr.  REPORT_CHECKS holds the rows full_report re-checks,
on the graph and on each component of a disconnected one; verify.CHECKS
runs the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable

from .bruteforce import (
    MatchingSummary,
    brute_matching_summary,
    brute_maximum_matchings,
    brute_stable_sets,
)
from .graph import (
    Edge,
    Graph,
    GraphError,
    _induced_subgraph,
    bipartition,
    complement_non_edges,
    connected_components,
    delete_vertices,
    is_connected,
    neighborhood,
    pendant_vertices,
)
from .matching import (
    Matching,
    _flower_and_posy,
    _has_blossom,
    maximum_matching,
    partner_map,
)
from .stable import (
    CoreReport,
    StableSetFamily,
    _alpha_mask,
    _as_mask,
    core_report,
    maximum_stable_sets,
    stability_number,
)


class TheoremViolationError(AssertionError):
    """An internal cross-check failed; this always means an implementation
    bug, never a defect in the underlying mathematics."""


def is_koenig_egervary(g: Graph) -> bool:
    """Whether the stability number plus the matching number equals n."""
    return Facts(g).is_ke


def is_alpha_critical(g: Graph, v: int) -> bool:
    """Whether deleting v lowers the stability number."""
    g.check_vertex(v)
    return Facts(g).alpha_critical(v)


class Facts:
    """Per-graph quantities, each computed on first use and then shared.

    A verdict may read any cached value, but the three routes to
    edge-addition stability stay apart: stable_by_definition reads only
    alpha_critical, the core-size route reads core and anticore
    (and whether a perfect matching exists), and the matching-structure
    route reads only matchings and blossoms.  Each exact oracle refuses a
    graph above its fixed cap (see limits) the first time a value that
    needs it is read.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._derived: dict[Graph, Facts] = {}
        self._alpha_critical: dict[int, bool] = {}

    def facts_of(self, h: Graph) -> Facts:
        """The Facts of a graph derived from this one (a component, a
        deletion, a construction), one per distinct graph; a connected
        graph is its own component and gets this very Facts back."""
        if h == self.graph:
            return self  # storing self in _derived would make a reference cycle
        if h not in self._derived:
            self._derived[h] = Facts(h)
        return self._derived[h]

    @cached_property
    def matching(self) -> Matching:
        """The canonical maximum matching."""
        return maximum_matching(self.graph)

    @cached_property
    def mu(self) -> int:
        return len(self.matching)

    @cached_property
    def maximum_matchings(self) -> tuple[Matching, ...]:
        return brute_maximum_matchings(self.graph, self.mu)

    @cached_property
    def matching_summary(self) -> MatchingSummary:
        """The distinct exposed sets and edge union of the maximum
        matchings, taken without listing them."""
        return brute_matching_summary(self.graph, self.mu)

    @cached_property
    def family(self) -> StableSetFamily:
        return maximum_stable_sets(self.graph)

    @cached_property
    def alpha(self) -> int:
        return stability_number(self.graph)

    def alpha_critical(self, v: int) -> bool:
        """Whether alpha(G - v) < alpha, one branch-and-bound run per
        vertex the package made; alpha is read first, so its cap refuses a
        large graph before any search runs."""
        g, cache = self.graph, self._alpha_critical
        if v not in cache:
            alpha = self.alpha
            cache[v] = _alpha_mask(g, g.full_mask & ~(1 << v)) < alpha
        return cache[v]

    @cached_property
    def stable_sets(self) -> list[int]:
        """Every stable set as a bitmask, in brute_stable_sets order."""
        return brute_stable_sets(self.graph)

    @cached_property
    def core(self) -> CoreReport:
        return core_report(self.family)

    @cached_property
    def is_ke(self) -> bool:
        return self.alpha + self.mu == self.graph.n

    @cached_property
    def has_pm(self) -> bool:
        return 2 * self.mu == self.graph.n

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def sides(self) -> tuple[frozenset[int], frozenset[int]] | None:
        return bipartition(self.graph)

    @property
    def bipartite(self) -> bool:
        return self.sides is not None

    @cached_property
    def blossom_free(self) -> bool:
        return not _has_blossom(self.graph, self.matching)

    @cached_property
    def stable_by_definition(self) -> bool:
        """Definition route: no single added edge lowers alpha.

        For a non-edge uv, a set is stable in G+uv exactly when it is stable
        in G and misses u or v, that is, when it is a stable set of G-u or
        of G-v.  So alpha(G+uv) = max(alpha(G-u), alpha(G-v)), and since no
        deletion raises alpha, adding uv lowers it exactly when deleting u
        and deleting v both do.  The route reads alpha_critical, stops at
        the first non-edge that lowers alpha, builds no graph and reads no
        stable-set family, core or anticore.
        """
        critical = self.alpha_critical
        return not any(
            critical(u) and critical(v) for u, v in complement_non_edges(self.graph)
        )

    @cached_property
    def pendants(self) -> tuple[int, ...]:
        return pendant_vertices(self.graph)

    @cached_property
    def alpha_critical_pendants(self) -> tuple[int, ...]:
        return tuple(p for p in self.pendants if self.alpha_critical(p))


# -- decomposition ------------------------------------------------------------


@dataclass(frozen=True)
class KeDecomposition:
    """A maximum stable set S, the rest of the graph, and a matching of size
    |V - S| living entirely in the cut between them."""

    stable_set: frozenset[int]
    rest: frozenset[int]
    cut_matching: Matching


def decompose(f: Facts) -> KeDecomposition:
    """Split a connected KE graph as stable set * rest with a cut matching.

    The stable side is the lexicographically first maximum stable set; the
    witness matching is the canonical maximum matching, which necessarily
    covers all of the rest and crosses the cut.
    """
    g = f.graph
    if not f.connected:
        raise GraphError("decompose requires a connected graph; split by component")
    if not f.is_ke:
        raise GraphError("decompose requires a Koenig-Egervary graph")
    s = f.family.sets[0]
    rest = frozenset(range(g.n)) - s
    m = f.matching
    if not all((u in s) != (v in s) for u, v in m):
        raise TheoremViolationError("maximum matching leaves the cut of a KE split")
    if len(m) != len(rest):
        raise TheoremViolationError("cut matching does not cover the non-stable side")
    return KeDecomposition(stable_set=s, rest=rest, cut_matching=m)


# -- stability classification -------------------------------------------------


@dataclass(frozen=True)
class StabilityClassification:
    """Core-size verdict: alpha0_plus (empty core), alpha1_plus (singleton),
    or not_stable with a witness edge whose addition drops alpha."""

    kind: str
    witness_edge: Edge | None = None


def classify_alpha_plus(f: Facts) -> StabilityClassification:
    rep = f.core
    if rep.core_size == 0:
        return StabilityClassification("alpha0_plus")
    if rep.core_size == 1:
        return StabilityClassification("alpha1_plus")
    u, v = sorted(rep.core)[:2]
    # two core vertices are never adjacent, and joining them kills every
    # maximum stable set: alpha(G+uv) = max(alpha(G-u), alpha(G-v)) < alpha
    if not (f.alpha_critical(u) and f.alpha_critical(v)):
        raise TheoremViolationError("core pair addition failed to lower alpha")
    return StabilityClassification("not_stable", (u, v))


# -- per-theorem verdicts ------------------------------------------------------


@dataclass(frozen=True)
class ArithmeticVerdict:
    """KE arithmetic: alpha >= n/2 >= mu; perfect matching iff alpha == mu;
    and, among graphs with a perfect matching, alpha == mu iff KE."""

    bounds_hold: bool
    pm_iff_alpha_equals_mu: bool
    pm_graphs_alpha_mu_iff_ke: bool

    @property
    def consistent(self) -> bool:
        return (
            self.bounds_hold
            and self.pm_iff_alpha_equals_mu
            and self.pm_graphs_alpha_mu_iff_ke
        )


def check_ke_arithmetic(f: Facts) -> ArithmeticVerdict:
    alpha, mu, n, ke, pm = f.alpha, f.mu, f.graph.n, f.is_ke, f.has_pm
    bounds = (2 * alpha >= n >= 2 * mu) if ke else True
    iff1 = (pm == (alpha == mu)) if ke else True
    iff2 = ((alpha == mu) == ke) if pm else True
    return ArithmeticVerdict(bounds, iff1, iff2)


@dataclass(frozen=True)
class CutContainmentVerdict:
    """Every maximum matching lies inside every (S, V-S) cut, S ranging over
    the maximum stable sets; stable_sets_checked counts those sets."""

    stable_sets_checked: int
    consistent: bool


def check_matchings_in_cuts(f: Facts) -> CutContainmentVerdict:
    """Every matching lies in a cut iff the union of their edges does, so
    past the KE gate the matching side reads only the maximum matchings'
    edge union, never alpha, core or anticore.  An edge lies in the cut
    (s, V - s) when one endpoint is in s."""
    if not f.is_ke:
        raise GraphError("cut containment is a KE-only property")
    fam, edges = f.family, f.matching_summary.edges
    consistent = all((u in s) != (v in s) for s in fam.sets for u, v in edges)
    return CutContainmentVerdict(len(fam.sets), consistent)


@dataclass(frozen=True)
class CertificateVerdict:
    """The exposed-vertices-plus-one-endpoint certificate agrees with
    membership in the maximum-stable-set family, over every stable set and
    every maximum matching.

    sets_checked counts stable sets in brute_stable_sets order: on a
    disagreement it stops at, and counts, the first stable set that
    disagrees with some maximum matching."""

    sets_checked: int
    consistent: bool


def check_certificate_equivalence(f: Facts) -> CertificateVerdict:
    """A stable set s is maximum iff, for a maximum matching m, s holds
    every m-exposed vertex and exactly one endpoint of each m-edge.

    One test per distinct exposed set E(m), not per matching: s is stable,
    so it holds at most one endpoint of each m-edge, and "exactly one of
    each" is |s & V(m)| = |m|; given E(m) <= s that is |s| = n - |m|.
    Every enumerated matching has mu edges, so matchings with equal E(m)
    give the same answer on every s.  A stable set of any other size than
    n - mu is certified by no matching, so it disagrees iff it is a
    member, and it needs one test, not one per E(m).

    Past the KE gate, the expected side reads only membership in the
    enumerated family and the certified side only the maximum matchings'
    summary and their size mu; neither reads alpha, core or anticore.
    """
    if not f.is_ke:
        raise GraphError("the stable-set certificate is a KE-only property")
    g = f.graph
    members = {_as_mask(s) for s in f.family.sets}
    exposed_sets = f.matching_summary.exposed
    certified_size = g.n - f.mu
    for k, s in enumerate(f.stable_sets, 1):
        expected = s in members
        if s.bit_count() != certified_size:
            # no matching certifies s: it disagrees iff it is a member
            if expected:
                return CertificateVerdict(k, False)
            continue
        for exposed in exposed_sets:
            if (not exposed & ~s) != expected:
                return CertificateVerdict(k, False)
    return CertificateVerdict(len(f.stable_sets), True)


@dataclass(frozen=True)
class AnticoreEmptyVerdict:
    """Empty anticore iff perfect matching plus blossom-free, both sides
    computed independently."""

    anticore_empty: bool
    pm_and_blossom_free: bool

    @property
    def consistent(self) -> bool:
        return self.anticore_empty == self.pm_and_blossom_free


def _connected_ke(f: Facts) -> bool:
    """The scope of the anticore, alpha-plus and core-lower-bound verdicts."""
    return f.is_ke and f.connected and f.graph.n >= 2


def _require_connected_ke(f: Facts) -> None:
    """The scope of the anticore and alpha-plus criteria."""
    if not _connected_ke(f):
        raise GraphError("criterion requires a connected KE graph of order at least 2")


def check_anticore_empty_criterion(f: Facts) -> AnticoreEmptyVerdict:
    _require_connected_ke(f)
    right = f.has_pm and f.blossom_free
    return AnticoreEmptyVerdict(f.core.anticore_size == 0, right)


@dataclass(frozen=True)
class PmCriterionVerdict:
    """Edge-addition stability iff perfect matching plus anticore of size at
    most one."""

    stable_by_definition: bool
    pm_and_small_anticore: bool

    @property
    def consistent(self) -> bool:
        return self.stable_by_definition == self.pm_and_small_anticore


def check_alpha_plus_pm_criterion(f: Facts) -> PmCriterionVerdict:
    _require_connected_ke(f)
    right = f.has_pm and f.core.anticore_size <= 1
    return PmCriterionVerdict(f.stable_by_definition, right)


@dataclass(frozen=True)
class ThreeRouteVerdict:
    """Edge-addition stability decided by three independent routes: the
    definition, the core/anticore sizes, and matching structure."""

    by_definition: bool
    by_core_sets: bool
    by_matching_structure: bool

    @property
    def consistent(self) -> bool:
        return self.by_definition == self.by_core_sets == self.by_matching_structure


def _structural_stability_route(f: Facts) -> bool:
    """Matching-only route: a perfect matching must exist, and the graph is
    either blossom-free, or some pendant vertex p with neighbor q leaves
    G - {p, q} blossom-free with a perfect matching.

    Deleting arbitrary adjacent pairs would admit false positives (deleting
    one such pair from the complete four-vertex graph minus an edge leaves a
    bare edge, yet that graph has a two-vertex anticore); restricted to
    pendant pairs, the route is equivalent to the core-size route on every
    KE graph of order at least 2.
    """
    if not f.has_pm:
        return False
    if f.blossom_free:
        return True
    g = f.graph
    for p in f.pendants:
        h = f.facts_of(delete_vertices(g, {p, g.neighbors(p)[0]}))
        if h.graph.n and h.has_pm and h.blossom_free:
            return True
    return False


def check_alpha_plus_three_routes(f: Facts) -> ThreeRouteVerdict:
    _require_connected_ke(f)
    rep = f.core
    by_core = rep.anticore_size == 0 or (rep.anticore_size == 1 and f.has_pm)
    return ThreeRouteVerdict(
        f.stable_by_definition, by_core, _structural_stability_route(f)
    )


def pm_via_core(f: Facts) -> bool:
    """Perfect-matching test through core sizes: for KE graphs a perfect
    matching exists exactly when core and anticore have the same size.
    Refuses non-KE inputs, where the equality proves nothing."""
    if not f.is_ke:
        raise GraphError("core-size comparison decides perfect matchings only "
                         "for Koenig-Egervary graphs")
    return f.core.core_size == f.core.anticore_size


@dataclass(frozen=True)
class CoreDualityVerdict:
    """N(core) equals the anticore, and any maximum matching pairs every
    anticore vertex with a core vertex."""

    neighborhood_equals_anticore: bool
    anticore_matched_into_core: bool

    @property
    def consistent(self) -> bool:
        return self.neighborhood_equals_anticore and self.anticore_matched_into_core


def check_core_anticore_duality(f: Facts) -> CoreDualityVerdict:
    """Reads the canonical maximum matching."""
    if not f.is_ke:
        raise GraphError("core/anticore duality is a KE-only property")
    rep = f.core
    lemma5 = neighborhood(f.graph, rep.core) == rep.anticore
    partner = partner_map(f.matching)
    lemma6 = all(
        v in partner and partner[v] in rep.core for v in rep.anticore
    )
    return CoreDualityVerdict(lemma5, lemma6)


@dataclass(frozen=True)
class NearPerfectVerdict:
    """Edge-addition-stable KE graphs have a perfect or near-perfect
    matching."""

    applicable: bool
    consistent: bool


def check_near_perfect_necessity(f: Facts) -> NearPerfectVerdict:
    if not f.is_ke:
        raise GraphError("near-perfect necessity is stated for KE graphs")
    if f.core.core_size > 1:
        return NearPerfectVerdict(False, True)
    return NearPerfectVerdict(True, f.graph.n - 2 * f.mu <= 1)


@dataclass(frozen=True)
class PendantVerdict:
    """Three-way equivalence for pendant structure: a perfect matching made
    of pendant edges; exactly alpha pendant vertices with none critical;
    KE plus edge-addition-stable with exactly alpha pendant vertices."""

    pendant_pm: bool
    pendant_count_non_critical: bool
    ke_stable_pendant_count: bool

    @property
    def consistent(self) -> bool:
        return self.pendant_pm == self.pendant_count_non_critical == self.ke_stable_pendant_count


def pendant_characterization(f: Facts) -> PendantVerdict:
    g = f.graph
    if g.n < 2:
        raise GraphError("pendant characterization requires order at least 2")
    pendants = f.pendants
    pendant_edges = {tuple(sorted((p, g.neighbors(p)[0]))) for p in pendants}
    covered = [v for e in pendant_edges for v in e]
    stmt1 = len(covered) == len(set(covered)) == g.n
    count_is_alpha = len(pendants) == f.alpha
    stmt2 = count_is_alpha and not f.alpha_critical_pendants
    stmt3 = count_is_alpha and f.is_ke and f.stable_by_definition
    return PendantVerdict(stmt1, stmt2, stmt3)


@dataclass(frozen=True)
class CoreLowerBoundVerdict:
    """Lower bounds on the core: a KE graph with alpha > n/2 has a core of
    size at least 2; so does a connected bipartite graph with unequal
    sides."""

    oversized_alpha_applicable: bool
    oversized_alpha_holds: bool
    unequal_sides_applicable: bool
    unequal_sides_holds: bool

    @property
    def consistent(self) -> bool:
        return self.oversized_alpha_holds and self.unequal_sides_holds


def check_core_lower_bounds(f: Facts) -> CoreLowerBoundVerdict:
    if f.graph.n < 2 or not f.connected:
        raise GraphError("core lower bounds are stated for connected graphs of "
                         "order at least 2")
    semi_applies = f.is_ke and 2 * f.alpha > f.graph.n
    semi_holds = f.core.core_size >= 2 if semi_applies else True
    sides = f.sides
    cor_applies = sides is not None and len(sides[0]) != len(sides[1])
    cor_holds = f.core.core_size >= 2 if cor_applies else True
    return CoreLowerBoundVerdict(semi_applies, semi_holds, cor_applies, cor_holds)


@dataclass(frozen=True)
class BipartiteEquivalenceVerdict:
    """For connected bipartite graphs: edge-addition stability, a perfect
    matching, two maximum stable sets partitioning V, and an empty core are
    all equivalent."""

    stable_by_definition: bool
    has_pm: bool
    partition_pair: bool
    empty_core: bool

    @property
    def consistent(self) -> bool:
        return (
            self.stable_by_definition
            == self.has_pm
            == self.partition_pair
            == self.empty_core
        )


def check_bipartite_equivalences(f: Facts) -> BipartiteEquivalenceVerdict:
    if f.graph.n < 2 or not f.connected:
        raise GraphError("bipartite equivalences are stated for connected graphs "
                         "of order at least 2")
    if not f.bipartite:
        raise GraphError("graph is not bipartite")
    members = set(f.family.sets)
    full = frozenset(range(f.graph.n))
    pair = any(full - s in members for s in f.family.sets)
    return BipartiteEquivalenceVerdict(
        f.stable_by_definition, f.has_pm, pair, f.core.core_size == 0
    )


@dataclass(frozen=True)
class BipartiteZeroCoreVerdict:
    """For bipartite graphs, equal core and anticore sizes force both to be
    empty."""

    applicable: bool
    consistent: bool


def check_bipartite_zero_core(f: Facts) -> BipartiteZeroCoreVerdict:
    if not f.bipartite:
        raise GraphError("graph is not bipartite")
    rep = f.core
    if rep.core_size != rep.anticore_size:
        return BipartiteZeroCoreVerdict(False, True)
    return BipartiteZeroCoreVerdict(True, rep.core_size == 0)


# Order up to which check_structure_consistency also tests for flowers and
# posies relative to every maximum matching, not only the canonical one.
ALL_MATCHINGS_MAX_N = 8


@dataclass(frozen=True)
class StructureConsistencyVerdict:
    """KE membership by arithmetic agrees with the absence of flowers and
    posies relative to the canonical maximum matching (and, on KE graphs of
    order at most ALL_MATCHINGS_MAX_N, relative to every maximum matching;
    all_matchings_checked counts those, stopping at the first structure).
    The loop meets the canonical matching again and reuses its answer
    instead of searching it twice; it still counts in all_matchings_checked.

    This is Sterboul's theorem.  Both structure sides come from the exact
    polynomial flower and posy tests (_flower_and_posy, on the matchings
    Facts made), which read only the graph and the matching: no stability
    number, core, anticore or stable set, so the row stays independent of
    the anticore-empty criterion."""

    ke_by_arithmetic: bool
    flower_found: bool
    posy_found: bool
    all_matchings_checked: int

    @property
    def structure_free(self) -> bool:
        return not (self.flower_found or self.posy_found)

    @property
    def consistent(self) -> bool:
        return self.ke_by_arithmetic == self.structure_free


def check_structure_consistency(f: Facts) -> StructureConsistencyVerdict:
    g = f.graph
    canonical = _flower_and_posy(g, f.matching)
    flower_found, posy_found = canonical
    checked = 0
    if f.is_ke and g.n <= ALL_MATCHINGS_MAX_N:
        for mm in f.maximum_matchings:
            checked += 1
            flower, posy = canonical if mm == f.matching else _flower_and_posy(g, mm)
            flower_found = flower_found or flower
            posy_found = posy_found or posy
            if flower_found or posy_found:
                break
    return StructureConsistencyVerdict(f.is_ke, flower_found, posy_found, checked)


# -- the rows full_report re-checks --------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    description: str
    applies: Callable[[Facts], bool]
    run: Callable[[Facts], str | None]


def _verdict(verdict: Callable[[Facts], Any]) -> Callable[[Facts], str | None]:
    """The check of one verdict: None when it is consistent, its repr
    otherwise.  The verdict is looked up in this module by name on every
    call, so a rebinding here (a tracing wrapper) is the one that runs."""
    name = verdict.__name__

    def run(f: Facts) -> str | None:
        v = globals()[name](f)
        return None if v.consistent else repr(v)

    return run


def _check_pm_core_sizes(f: Facts) -> str | None:
    via_core = pm_via_core(f)
    if via_core != f.has_pm:
        return f"core sizes say {via_core}, matching says {f.has_pm}"
    return None


REPORT_CHECKS: tuple[Check, ...] = (
    Check("ke-arithmetic", "KE bounds and perfect-matching arithmetic",
          lambda f: True, _verdict(check_ke_arithmetic)),
    Check("anticore-empty-criterion",
          "empty anticore iff perfect matching and blossom-free",
          _connected_ke, _verdict(check_anticore_empty_criterion)),
    Check("alpha-plus-pm-criterion",
          "stability by definition iff perfect matching and anticore <= 1",
          _connected_ke, _verdict(check_alpha_plus_pm_criterion)),
    Check("alpha-plus-three-routes",
          "definition, core sizes, and matching structure agree",
          _connected_ke, _verdict(check_alpha_plus_three_routes)),
    Check("core-anticore-duality",
          "N(core) equals anticore and is matched into the core",
          lambda f: f.is_ke, _verdict(check_core_anticore_duality)),
    Check("pm-iff-core-equals-anticore",
          "perfect matching iff core and anticore sizes agree",
          lambda f: f.is_ke, _check_pm_core_sizes),
    Check("pendant-characterization",
          "pendant perfect matching three-way equivalence",
          lambda f: f.connected and f.graph.n >= 3,
          _verdict(pendant_characterization)),
    Check("core-lower-bounds",
          "oversized alpha or unequal sides force core size >= 2",
          _connected_ke, _verdict(check_core_lower_bounds)),
)


# -- the aggregated report -----------------------------------------------------


def full_report(g: Graph) -> dict:
    """Aggregate verdict for one graph, as the JSON document analyze emits:
    vertex sets and edges as sorted lists, the stability class with its
    witness edge, and the decomposition (None unless the graph is connected
    and KE).

    Every REPORT_CHECKS row that applies is re-checked on the graph and,
    when it is disconnected, on each component; a TheoremViolationError
    naming the row and what disagreed is raised on any failure.
    """
    f = Facts(g)
    rep = f.core  # the family first: its cap is the one a large input hits
    ke = f.is_ke
    stability = classify_alpha_plus(f)
    dec = None
    if ke and f.connected and g.n:
        d = decompose(f)
        dec = {
            "stable_set": sorted(d.stable_set),
            "rest": sorted(d.rest),
            "cut_matching": [list(e) for e in sorted(d.cut_matching)],
        }
    parts = [f]
    if not f.connected:
        # equal components share one Facts (facts_of), checked once
        parts += dict.fromkeys(f.facts_of(_induced_subgraph(g, comp)[0])
                               for comp in connected_components(g))
    for part in parts:
        for row in REPORT_CHECKS:
            if row.applies(part):
                detail = row.run(part)
                if detail is not None:
                    raise TheoremViolationError(f"{row.name}: {detail}")
    witness = stability.witness_edge
    return {
        "n": g.n,
        "m": g.m,
        "connected": f.connected,
        "alpha": f.alpha,
        "mu": f.mu,
        "is_ke": ke,
        "has_pm": f.has_pm,
        "core": sorted(rep.core),
        "anticore": sorted(rep.anticore),
        "core_size": rep.core_size,
        "anticore_size": rep.anticore_size,
        "stability": {"class": stability.kind,
                      "witness_edge": list(witness) if witness else None},
        "decomposition": dec,
        "blossom_free": f.blossom_free,
        "pendant_profile": {"pendants": list(f.pendants),
                            "alpha_critical_pendants": list(f.alpha_critical_pendants)},
        "omega_size": len(f.family.sets),
    }
