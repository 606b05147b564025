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
and build no graph.  Nor does the matching-structure route: it tests each
G - {p, q}, p a pendant and q its neighbor, on the canonical perfect
matching minus pq.  A Facts derives no graph and no other Facts; a caller
that derives a graph (a component, a peel) builds that graph's own Facts.
Only entry points that start from a bare graph take a Graph: full_report,
is_koenig_egervary and is_alpha_critical.  full_report returns the JSON
document kegraphs analyze writes.

Each per-theorem verdict (the check_* functions and
pendant_characterization) returns a NamedTuple whose fields record the
sides that were compared and whose consistent says whether the statement
held.  The rule is written once per shape, as a property a verdict sets
as its consistent: an equivalence is consistent when all its sides agree
(_agreement), a list of statements when each holds (_conjunction).  A
verdict that counts or gates stores consistent as a field, and two keep a
rule of their own.  A record is a tuple, so it equals any tuple of equal
fields; the package never compares, indexes or unpacks one, and only the
two rules read one as a tuple.

Each scope is one predicate of Facts (_ke, _connected_ke, _pendant_scope,
_nontrivial_connected, _bipartite, _connected_bipartite, and _decomposable
and _peelable for decompose and constructions.peel) with the text of its
refusal beside it.  A verdict refuses an input outside its scope through
_require, with a GraphError, and so do decompose and peel.  A Check row
pairs a theorem with that same predicate (applies) and says what
disagreed when it fails (run), a verdict row by the verdict's repr;
core-lower-bounds alone applies more narrowly than its verdict's scope.
REPORT_CHECKS holds the rows full_report re-checks, on the graph and on
each component of a disconnected one; verify.CHECKS runs the same
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

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
    _colour_components,
    _induced_subgraph,
    _sides,
    neighborhood,
    pendant_vertices,
)
from .matching import (
    Matching,
    _flower_and_posy,
    _has_blossom,
    _match_list,
    _matched_bases,
    _odd_component_vertices,
    maximum_matching,
)
from .stable import (
    CoreReport,
    StableSetFamily,
    _as_mask,
    _maximum_stable_mask,
    _stable_mask,
    core_report,
    maximum_stable_sets,
    stability_number,  # noqa: F401 - bench/test_bench.py traces this binding
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


class _cached:
    """A Facts attribute computed on its first read: func's value goes into
    the instance __dict__, which every later read finds before this
    non-data descriptor.  functools.cached_property does the same, but
    before Python 3.12 it takes a lock on each first read, and a Facts is
    never shared between threads."""

    def __init__(self, func: Callable[[Any], Any]):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class Facts:
    """Per-graph quantities, each computed on first use and then shared.

    A verdict may read any cached value, but the three routes to
    edge-addition stability stay apart: stable_by_definition reads only
    alpha_critical, whose answers come from the alpha run's set and the
    deletion searches alone (one per vertex no earlier set settled), the
    core-size route reads core and anticore (and whether a perfect
    matching exists), and the matching-structure route reads only
    matchings and blossoms.  Each exact oracle refuses a graph above its
    fixed cap (see limits) the first time a value that needs it is read.

    The graph is 2-coloured once (colouring).  connected, sides, the
    components full_report splits a disconnected graph into, and
    odd_vertices all read that one result.  The blossom, flower and posy
    searches read odd_vertices alone, never sides or bipartite.

    The canonical maximum matching is converted once into its partner
    list (partner), which the blossom and Sterboul searches, the duality
    lemma, peel and the extension row read; nothing writes to it.  Its
    matched blossom bases are searched once (matched_bases), for the
    Sterboul row's posy search and the structure route.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self._alpha_critical: dict[int, bool] = {}

    @_cached
    def matching(self) -> Matching:
        """The canonical maximum matching."""
        return maximum_matching(self.graph)

    @_cached
    def partner(self) -> list[int]:
        """Each vertex's mate under matching, -1 where it is exposed."""
        return _match_list(self.graph, self.matching)

    @_cached
    def mu(self) -> int:
        return len(self.matching)

    @_cached
    def maximum_matchings(self) -> tuple[Matching, ...]:
        return brute_maximum_matchings(self.graph, self.mu)

    @_cached
    def matching_summary(self) -> MatchingSummary:
        """The distinct exposed sets and edge union of the maximum
        matchings, taken without listing them."""
        return brute_matching_summary(self.graph, self.mu)

    @_cached
    def family(self) -> StableSetFamily:
        return maximum_stable_sets(self.graph)

    @_cached
    def alpha(self) -> int:
        """The size of the maximum stable set the alpha run finds, which
        settles every vertex outside it as not alpha-critical."""
        witness = _maximum_stable_mask(self.graph)
        self._alpha_critical.update((u, False) for u in range(self.graph.n)
                                    if not witness >> u & 1)
        return witness.bit_count()

    def alpha_critical(self, v: int) -> bool:
        """Whether alpha(G - v) < alpha: a search of G - v that stops at its
        first stable set of alpha vertices.  alpha is read first, so its cap
        refuses a large graph before any search runs.  A set S the search
        finds is a maximum stable set of G, so it settles every vertex
        outside S as not critical, and those vertices need no search of
        their own; the alpha run's own set settles vertices the same way.
        The witnesses come only from the alpha run and these deletion
        searches, never from the family, the core or the stable-set scan,
        so the definition route stays apart from the enumeration."""
        g, cache, alpha = self.graph, self._alpha_critical, self.alpha
        if v not in cache:
            witness = _stable_mask(g, g.full_mask & ~(1 << v), alpha)
            if witness is None:
                cache[v] = True
            else:
                cache.update((u, False) for u in range(g.n) if not witness >> u & 1)
        return cache[v]

    @_cached
    def stable_sets(self) -> list[int]:
        """Every stable set as a bitmask, in brute_stable_sets order."""
        return brute_stable_sets(self.graph)

    @_cached
    def core(self) -> CoreReport:
        return core_report(self.family)

    @_cached
    def is_ke(self) -> bool:
        return self.alpha + self.mu == self.graph.n

    @_cached
    def has_pm(self) -> bool:
        return 2 * self.mu == self.graph.n

    @_cached
    def colouring(self) -> tuple[list[int], list[tuple[list[int], bool]]]:
        """The graph's one 2-colouring (graph._colour_components): each
        vertex's colour, and the components, each with whether it is not
        bipartite."""
        return _colour_components(self.graph._adj)  # noqa: SLF001

    @_cached
    def connected(self) -> bool:
        return len(self.colouring[1]) <= 1

    @_cached
    def sides(self) -> tuple[frozenset[int], frozenset[int]] | None:
        return _sides(*self.colouring)

    @property
    def bipartite(self) -> bool:
        return self.sides is not None

    @_cached
    def odd_vertices(self) -> list[int]:
        """The vertices of the components that are not bipartite, the
        candidate blossom bases."""
        return _odd_component_vertices(self.colouring[1])

    @_cached
    def blossom_free(self) -> bool:
        return not _has_blossom(self.graph, self.partner, self.odd_vertices)

    @_cached
    def matched_bases(self) -> list[int]:
        """The matched blossom bases relative to matching, which the
        Sterboul row's posy search and the structure route read."""
        return _matched_bases(self.graph, self.partner, self.odd_vertices)

    @_cached
    def stable_by_definition(self) -> bool:
        """Definition route: no single added edge lowers alpha.

        For a non-edge uv, a set is stable in G+uv exactly when it is stable
        in G and misses u or v, that is, when it is a stable set of G-u or
        of G-v.  So alpha(G+uv) = max(alpha(G-u), alpha(G-v)), and since no
        deletion raises alpha, adding uv lowers it exactly when deleting u
        and deleting v both do.  The route takes each u in ascending order
        with the mask of its later non-neighbours, asks alpha_critical(u)
        once, and then asks each later non-neighbour in ascending order; it
        stops at the first non-edge that lowers alpha, builds no graph and
        reads no stable-set family, core or anticore.
        """
        g, critical = self.graph, self.alpha_critical
        full = g.full_mask
        for u, mask in enumerate(g._masks):  # noqa: SLF001
            later = full & ~(mask | (2 << u) - 1)
            if not later or not critical(u):
                continue
            while later:
                low = later & -later
                if critical(low.bit_length() - 1):
                    return False
                later ^= low
        return True

    @_cached
    def pendants(self) -> tuple[int, ...]:
        return pendant_vertices(self.graph)

    @_cached
    def alpha_critical_pendants(self) -> tuple[int, ...]:
        return tuple(p for p in self.pendants if self.alpha_critical(p))


# -- decomposition ------------------------------------------------------------


class KeDecomposition(NamedTuple):
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
    _require(f, _decomposable)
    g = f.graph
    s = f.family.sets[0]
    rest = frozenset(range(g.n)) - s
    m = f.matching
    if not all((u in s) != (v in s) for u, v in m):
        raise TheoremViolationError("maximum matching leaves the cut of a KE split")
    if len(m) != len(rest):
        raise TheoremViolationError("cut matching does not cover the non-stable side")
    return KeDecomposition(stable_set=s, rest=rest, cut_matching=m)


# -- stability classification -------------------------------------------------


class StabilityClassification(NamedTuple):
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


# -- scopes --------------------------------------------------------------------
#
# A scope's needs names the graphs it admits, for _require's refusal; it is
# an attribute, not a docstring, so python -OO keeps it.


def _ke(f: Facts) -> bool:
    return f.is_ke


_ke.needs = "Koenig-Egervary graphs"


def _connected_ke(f: Facts) -> bool:
    return f.is_ke and f.connected and f.graph.n >= 2


_connected_ke.needs = "connected Koenig-Egervary graphs of order at least 2"


def _pendant_scope(f: Facts) -> bool:
    return f.connected and f.graph.n >= 3


_pendant_scope.needs = "connected graphs of order at least 3"  # K2 and 2K2 break it


def _nontrivial_connected(f: Facts) -> bool:
    return f.connected and f.graph.n >= 2


_nontrivial_connected.needs = "connected graphs of order at least 2"


def _bipartite(f: Facts) -> bool:
    return f.bipartite


_bipartite.needs = "bipartite graphs"


def _connected_bipartite(f: Facts) -> bool:
    return f.bipartite and f.connected and f.graph.n >= 2


_connected_bipartite.needs = "connected bipartite graphs of order at least 2"


def _decomposable(f: Facts) -> bool:
    return f.is_ke and f.connected


_decomposable.needs = "connected Koenig-Egervary graphs"  # decompose's scope


def _peelable(f: Facts) -> bool:
    return f.is_ke and f.core.anticore_size == 1 and f.alpha == f.mu


_peelable.needs = ("Koenig-Egervary graphs with a one-vertex anticore and equal "
                   "stability and matching numbers")  # constructions.peel's scope


def _require(f: Facts, scope: Callable[[Facts], bool]) -> None:
    """The one refusal of a statement outside its scope."""
    if not scope(f):
        raise GraphError(f"stated only for {scope.needs}")


# -- per-theorem verdicts ------------------------------------------------------


# The consistent of a verdict whose fields are the sides of one equivalence,
# each from its own route: they all agree.
_agreement = property(lambda v: len(set(v)) == 1)
# The consistent of a verdict whose fields are statements that must each hold.
_conjunction = property(all)


class ArithmeticVerdict(NamedTuple):
    """KE arithmetic: alpha >= n/2 >= mu; perfect matching iff alpha == mu;
    and, among graphs with a perfect matching, alpha == mu iff KE."""

    bounds_hold: bool
    pm_iff_alpha_equals_mu: bool
    pm_graphs_alpha_mu_iff_ke: bool

    consistent = _conjunction


def check_ke_arithmetic(f: Facts) -> ArithmeticVerdict:
    alpha, mu, n, ke, pm = f.alpha, f.mu, f.graph.n, f.is_ke, f.has_pm
    bounds = (2 * alpha >= n >= 2 * mu) if ke else True
    iff1 = (pm == (alpha == mu)) if ke else True
    iff2 = ((alpha == mu) == ke) if pm else True
    return ArithmeticVerdict(bounds, iff1, iff2)


class CutContainmentVerdict(NamedTuple):
    """Every maximum matching lies inside every (S, V-S) cut, S ranging over
    the maximum stable sets; stable_sets_checked counts those sets."""

    stable_sets_checked: int
    consistent: bool


def check_matchings_in_cuts(f: Facts) -> CutContainmentVerdict:
    """Every matching lies in a cut iff the union of their edges does, so
    past the KE gate the matching side reads only the maximum matchings'
    edge union, never alpha, core or anticore.  An edge lies in the cut
    (s, V - s) when one endpoint is in s."""
    _require(f, _ke)
    fam, edges = f.family, f.matching_summary.edges
    consistent = all((u in s) != (v in s) for s in fam.sets for u, v in edges)
    return CutContainmentVerdict(len(fam.sets), consistent)


class CertificateVerdict(NamedTuple):
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
    _require(f, _ke)
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


class AnticoreEmptyVerdict(NamedTuple):
    """Empty anticore iff perfect matching plus blossom-free, both sides
    computed independently."""

    anticore_empty: bool
    pm_and_blossom_free: bool

    consistent = _agreement


def check_anticore_empty_criterion(f: Facts) -> AnticoreEmptyVerdict:
    _require(f, _connected_ke)
    right = f.has_pm and f.blossom_free
    return AnticoreEmptyVerdict(f.core.anticore_size == 0, right)


class PmCriterionVerdict(NamedTuple):
    """Edge-addition stability iff perfect matching plus anticore of size at
    most one."""

    stable_by_definition: bool
    pm_and_small_anticore: bool

    consistent = _agreement


def check_alpha_plus_pm_criterion(f: Facts) -> PmCriterionVerdict:
    _require(f, _connected_ke)
    right = f.has_pm and f.core.anticore_size <= 1
    return PmCriterionVerdict(f.stable_by_definition, right)


class ThreeRouteVerdict(NamedTuple):
    """Edge-addition stability decided by three independent routes: the
    definition, the core/anticore sizes, and matching structure."""

    by_definition: bool
    by_core_sets: bool
    by_matching_structure: bool

    consistent = _agreement


def _structural_stability_route(f: Facts) -> bool:
    """Matching-only route: a perfect matching M must exist, and the graph
    is either blossom-free, or some pendant vertex p with neighbor q leaves
    G - {p, q} blossom-free with a perfect matching.

    Deleting arbitrary adjacent pairs would admit false positives (deleting
    one such pair from the complete four-vertex graph minus an edge leaves a
    bare edge, yet that graph has a two-vertex anticore); restricted to
    pendant pairs, the route is equivalent to the core-size route on every
    KE graph of order at least 2.

    No graph is built per pendant.  The edge pq is in M, so M - pq is a
    perfect matching of G - {p, q}, and an (M - pq)-blossom there is an
    M-blossom of G that avoids q (p lies on no cycle), and conversely.  So
    the test reads M's partner list with p and q marked exposed, which the
    base search deletes, at M's matched bases other than q.  On the KE
    graphs tried, blossom-freeness did not depend on which perfect matching
    was read, so G - {p, q}'s own canonical matching gives the same answer.
    """
    if not f.has_pm:
        return False
    if f.blossom_free:
        return True
    for p in f.pendants:
        partner = f.partner[:]
        q = partner[p]
        partner[p] = partner[q] = -1
        if not _has_blossom(f.graph, partner, [r for r in f.matched_bases if r != q]):
            return True
    return False


def check_alpha_plus_three_routes(f: Facts) -> ThreeRouteVerdict:
    _require(f, _connected_ke)
    rep = f.core
    by_core = rep.anticore_size == 0 or (rep.anticore_size == 1 and f.has_pm)
    return ThreeRouteVerdict(
        f.stable_by_definition, by_core, _structural_stability_route(f)
    )


def pm_via_core(f: Facts) -> bool:
    """Perfect-matching test through core sizes: for KE graphs a perfect
    matching exists exactly when core and anticore have the same size.
    Refuses non-KE inputs, where the equality proves nothing."""
    _require(f, _ke)
    return f.core.core_size == f.core.anticore_size


class CoreDualityVerdict(NamedTuple):
    """N(core) equals the anticore, and any maximum matching pairs every
    anticore vertex with a core vertex."""

    neighborhood_equals_anticore: bool
    anticore_matched_into_core: bool

    consistent = _conjunction


def check_core_anticore_duality(f: Facts) -> CoreDualityVerdict:
    """Reads the canonical maximum matching."""
    _require(f, _ke)
    rep = f.core
    lemma5 = neighborhood(f.graph, rep.core) == rep.anticore
    # an exposed vertex's -1 is never in the core
    lemma6 = all(f.partner[v] in rep.core for v in rep.anticore)
    return CoreDualityVerdict(lemma5, lemma6)


class NearPerfectVerdict(NamedTuple):
    """Edge-addition-stable KE graphs have a perfect or near-perfect
    matching."""

    applicable: bool
    consistent: bool


def check_near_perfect_necessity(f: Facts) -> NearPerfectVerdict:
    _require(f, _ke)
    if f.core.core_size > 1:
        return NearPerfectVerdict(False, True)
    return NearPerfectVerdict(True, f.graph.n - 2 * f.mu <= 1)


class PendantVerdict(NamedTuple):
    """Three-way equivalence for pendant structure: a perfect matching made
    of pendant edges; exactly alpha pendant vertices with none critical;
    KE plus edge-addition-stable with exactly alpha pendant vertices."""

    pendant_pm: bool
    pendant_count_non_critical: bool
    ke_stable_pendant_count: bool

    consistent = _agreement


def pendant_characterization(f: Facts) -> PendantVerdict:
    _require(f, _pendant_scope)
    g = f.graph
    pendants = f.pendants
    pendant_edges = {tuple(sorted((p, g.neighbors(p)[0]))) for p in pendants}
    covered = [v for e in pendant_edges for v in e]
    stmt1 = len(covered) == len(set(covered)) == g.n
    count_is_alpha = len(pendants) == f.alpha
    stmt2 = count_is_alpha and not f.alpha_critical_pendants
    stmt3 = count_is_alpha and f.is_ke and f.stable_by_definition
    return PendantVerdict(stmt1, stmt2, stmt3)


class CoreLowerBoundVerdict(NamedTuple):
    """Lower bounds on the core of a connected graph: alpha > n/2 forces a
    core of size at least 2, KE or not (n >= 2 mu gives alpha > mu, and
    |core| >= alpha - mu + 1, Boros-Golumbic-Levit 2002); so does a
    bipartite graph with unequal sides."""

    oversized_alpha_applicable: bool
    oversized_alpha_holds: bool
    unequal_sides_applicable: bool
    unequal_sides_holds: bool

    @property
    def consistent(self) -> bool:
        return self.oversized_alpha_holds and self.unequal_sides_holds


def check_core_lower_bounds(f: Facts) -> CoreLowerBoundVerdict:
    _require(f, _nontrivial_connected)
    semi_applies = 2 * f.alpha > f.graph.n
    semi_holds = f.core.core_size >= 2 if semi_applies else True
    sides = f.sides
    cor_applies = sides is not None and len(sides[0]) != len(sides[1])
    cor_holds = f.core.core_size >= 2 if cor_applies else True
    return CoreLowerBoundVerdict(semi_applies, semi_holds, cor_applies, cor_holds)


class BipartiteEquivalenceVerdict(NamedTuple):
    """For connected bipartite graphs: edge-addition stability, a perfect
    matching, two maximum stable sets partitioning V, and an empty core are
    all equivalent."""

    stable_by_definition: bool
    has_pm: bool
    partition_pair: bool
    empty_core: bool

    consistent = _agreement


def check_bipartite_equivalences(f: Facts) -> BipartiteEquivalenceVerdict:
    _require(f, _connected_bipartite)
    members = set(f.family.sets)
    full = frozenset(range(f.graph.n))
    pair = any(full - s in members for s in f.family.sets)
    return BipartiteEquivalenceVerdict(
        f.stable_by_definition, f.has_pm, pair, f.core.core_size == 0
    )


class BipartiteZeroCoreVerdict(NamedTuple):
    """For bipartite graphs, equal core and anticore sizes force both to be
    empty."""

    applicable: bool
    consistent: bool


def check_bipartite_zero_core(f: Facts) -> BipartiteZeroCoreVerdict:
    _require(f, _bipartite)
    rep = f.core
    if rep.core_size != rep.anticore_size:
        return BipartiteZeroCoreVerdict(False, True)
    return BipartiteZeroCoreVerdict(True, rep.core_size == 0)


# Order up to which check_structure_consistency also tests for flowers and
# posies relative to every maximum matching, not only the canonical one.
ALL_MATCHINGS_MAX_N = 8


class StructureConsistencyVerdict(NamedTuple):
    """KE membership by arithmetic agrees with the absence of flowers and
    posies relative to the canonical maximum matching (and, on KE graphs of
    order at most ALL_MATCHINGS_MAX_N, relative to every maximum matching;
    all_matchings_checked counts those, stopping at the first structure).
    The loop meets the canonical matching again and skips it, since its
    answer is already in; it still counts in all_matchings_checked.

    This is Sterboul's theorem.  Both structure sides come from the exact
    polynomial flower and posy tests (_flower_and_posy, on the partner lists
    of the matchings Facts made, with the canonical one's matched_bases),
    which read only the graph and the matching: no stability number, core,
    anticore or stable set, so the row stays independent of the
    anticore-empty criterion."""

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
    g, odd = f.graph, f.odd_vertices
    flower_found, posy_found = _flower_and_posy(g, f.partner, f.matched_bases)
    checked = 0
    if f.is_ke and g.n <= ALL_MATCHINGS_MAX_N:
        for mm in f.maximum_matchings:
            checked += 1
            if mm != f.matching:
                partner = _match_list(g, mm)
                flower, posy = _flower_and_posy(g, partner, _matched_bases(g, partner, odd))
                flower_found, posy_found = flower_found or flower, posy_found or posy
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
          _ke, _verdict(check_core_anticore_duality)),
    Check("pm-iff-core-equals-anticore",
          "perfect matching iff core and anticore sizes agree",
          _ke, _check_pm_core_sizes),
    Check("pendant-characterization",
          "pendant perfect matching three-way equivalence",
          _pendant_scope, _verdict(pendant_characterization)),
    # gates narrower than its verdict's scope, _nontrivial_connected: widening
    # the row changes its counts in the pinned verify tables
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
        # equal components share one Facts, checked once
        parts += map(Facts, dict.fromkeys(_induced_subgraph(g, frozenset(comp))[0]
                                          for comp, _ in f.colouring[1]))
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
