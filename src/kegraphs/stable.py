"""Exact stability-number machinery.

The stability number comes from a bitmask branch-and-reduce search that
returns its largest stable set, or, given a size k, stops at the first
stable set of k vertices (the alpha-criticality searches of
analysis.Facts); it takes a vertex with at most one neighbor left
without branching, so it never branches on a forest.  The full family
of maximum stable sets comes from a pruned take-then-leave recursion on
the lowest undecided vertex of a bitmask, whose depth-first order is
already lexicographic; bounded by the largest set found so far, it finds
alpha itself, a second alpha algorithm beside _stable_mask, whose alpha
the omega-oracle row checks against the brute scan.  Both refuse inputs
above the fixed caps in limits.  The certificate check and the matching-driven extension replace
enumeration for Koenig-Egervary inputs: a stable set is maximum exactly
when it contains every exposed vertex and one endpoint of each heavy
edge, and in the blossom-free perfect-matching case any excluded vertex
can be pulled into a maximum stable set by alternating saturation.

certify_max_stable and extend_stable_through_matching check the matching
and vertex ids they receive once and convert the matching once to its
partner list (matching._match_list); past that, the certificate scan
(_certify, _certificate_failure) and the saturation (_extend) read them
and the adjacency without checking again.  The extension row of verify
calls those private functions with Facts.partner and the family's first
set, which the package made, so it checks nothing twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .graph import Edge, Graph, GraphError
from .limits import DEFAULT_ALPHA_CAP, DEFAULT_OMEGA_CAP, check_cap
from .matching import _match_list, matching_number, validate_matching


def stability_number(g: Graph) -> int:
    """Size of a largest stable set."""
    return _maximum_stable_mask(g).bit_count()


def _maximum_stable_mask(g: Graph) -> int:
    """A maximum stable set of g, as a bitmask, after the alpha cap check."""
    check_cap(g.n, DEFAULT_ALPHA_CAP, "stability number")
    return _stable_mask(g, g.full_mask)


def _stable_mask(g: Graph, mask: int, k: int | None = None) -> int | None:
    """A largest stable set inside mask, as a bitmask.

    A vertex v with at most one neighbor inside the mask lies in some
    largest set of it (alpha(mask) = 1 + alpha(mask - N[v])), so the pivot
    scan stops at the first such v and takes it without branching; else
    it branches on the highest degree inside the mask, lowest id on ties.
    Given k, the search prunes every branch that cannot reach k vertices
    and stops at the first set of at least k vertices it finds, or
    returns None when mask holds no such set."""
    masks = g._masks  # noqa: SLF001 - hot path inside the package
    best = None
    need = 0 if k is None else k  # a set counts only with need vertices or more

    def rec(mask: int, chosen: int, size: int) -> bool:
        """Whether the search stops: a set of k vertices was found."""
        nonlocal best, need
        while True:
            if size + mask.bit_count() < need:
                return False
            if not mask:
                best = chosen
                need = size + 1
                return k is not None
            pivot = pivot_deg = -1
            rest = mask
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                d = (masks[v] & mask).bit_count()
                if d <= 1:
                    pivot_deg, pivot = d, v
                    break
                if d > pivot_deg:
                    pivot_deg, pivot = d, v
            take = mask & ~(masks[pivot] | (1 << pivot))
            if pivot_deg <= 1:  # no branch: take the pivot and loop
                mask, chosen, size = take, chosen | 1 << pivot, size + 1
            elif rec(take, chosen | 1 << pivot, size + 1):
                return True
            else:
                mask ^= 1 << pivot  # and loop: pivot excluded

    rec(mask, 0, 0)
    return best


@dataclass(frozen=True)
class StableSetFamily:
    """The complete family of maximum stable sets of one graph."""

    n: int
    alpha: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.sets:
            raise GraphError("a stable-set family cannot be empty")
        for s in self.sets:
            if len(s) != self.alpha:
                raise GraphError("family member size differs from alpha")

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)


def maximum_stable_sets(g: Graph) -> StableSetFamily:
    """Enumerate every maximum stable set, in lexicographic order, finding
    alpha on the way rather than from _stable_mask.

    Each branch decides its lowest undecided vertex v: first take v and
    drop its neighbors from the undecided mask, then leave v out.  A
    branch with nothing undecided is a leaf; best is the largest leaf so
    far.  A leaf larger than best clears the list and raises best, one
    equal to best is appended, and a branch is pruned when its size plus
    the undecided count falls below best.  The leave branch is also
    pruned when v has no undecided neighbor: v is adjacent to nothing
    chosen either, so any set that leaves v out could still add it and
    cannot have alpha vertices.

    The output needs no sort.  Two maximum stable sets S and T part at the
    first branch that decides them differently, on its vertex v; S takes v
    and T leaves it out.  Every vertex below v is settled alike in both,
    since v was the lowest undecided one, so sorted(S) and sorted(T) share
    the prefix below v, and then S has v where T has a larger vertex (T is
    not shorter: both have alpha vertices).  So S < T, and S is reached
    first because taking comes before leaving out.  best <= alpha at all
    times, so no branch holding a set of alpha vertices is ever pruned, and
    a reset discards only smaller sets: the output is the stream of
    lexicographically ordered leaves, filtered to the maximum ones.
    """
    check_cap(g.n, DEFAULT_OMEGA_CAP, "maximum-stable-set enumeration")
    n = g.n
    masks = g._masks  # noqa: SLF001
    out: list[int] = []
    best = 0

    def rec(undecided: int, chosen: int, size: int) -> None:
        nonlocal best
        while size + undecided.bit_count() >= best:
            if not undecided:
                if size > best:
                    best = size
                    out.clear()
                out.append(chosen)
                return
            low = undecided & -undecided
            v = low.bit_length() - 1
            rec(undecided & ~(masks[v] | low), chosen | low, size + 1)
            if not masks[v] & undecided:
                return
            undecided ^= low  # and loop: v left out

    rec(g.full_mask, 0, 0)
    sets = tuple(frozenset(u for u in range(n) if chosen >> u & 1) for chosen in out)
    return StableSetFamily(n=n, alpha=best, sets=sets)


@dataclass(frozen=True)
class CoreReport:
    """Intersection of all maximum stable sets (core) and of all their
    complements (anticore)."""

    core: frozenset[int]
    anticore: frozenset[int]

    @property
    def core_size(self) -> int:
        return len(self.core)

    @property
    def anticore_size(self) -> int:
        return len(self.anticore)


def core_report(fam: StableSetFamily) -> CoreReport:
    full = frozenset(range(fam.n))
    core = full
    anticore = full
    for s in fam.sets:
        core &= s
        anticore &= full - s
    return CoreReport(core=core, anticore=anticore)


class Certification(NamedTuple):
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:  # noqa: D105
        return self.ok


def certify_max_stable(g: Graph, m: Iterable[Edge], s: Iterable[int]) -> Certification:
    """Certify a stable set as maximum without enumerating the family.

    Requires a Koenig-Egervary graph and a maximum matching; then s is a
    maximum stable set exactly when it contains every exposed vertex and
    exactly one endpoint of every heavy edge.  A failed certificate comes
    back with the first offending witness.

    A passing certificate proves its own precondition: s is then stable of
    size n - |m|, and alpha <= n - |M| for every matching M, so alpha =
    n - |m|, m is maximum and the graph is KE.  The precondition is
    therefore only checked, at the cost of alpha, when a scan fails.
    """
    m = validate_matching(g, m)
    return _certify(g, _match_list(g, m), g.check_vertex_set(s))


def _certify(g: Graph, partner: list[int], s: frozenset[int]) -> Certification:
    """certify_max_stable of a checked matching's partner list and a checked
    set."""
    reason = _certificate_failure(g, partner, s)
    if reason is None:
        return Certification(True, None)
    alpha = stability_number(g)
    size = (g.n - partner.count(-1)) // 2
    # alpha + |m| <= n for every matching, with equality exactly when m is
    # maximum and the graph is KE; mu is only needed to say which failed
    if alpha + size != g.n:
        mu = matching_number(g)
        if size != mu:
            raise GraphError(f"matching of size {size} is not maximum ({mu})")
        raise GraphError(
            f"certificate requires a Koenig-Egervary graph; got alpha={alpha}, "
            f"mu={mu}, n={g.n}"
        )
    return Certification(False, reason)


def _certificate_failure(g: Graph, partner: list[int], s: frozenset[int]) -> str | None:
    """The first witness against the certificate of a checked matching's
    partner list and a checked s, or None when s passes.  An edge inside s
    is the lexicographically first one, and the heavy edges are met in
    ascending lower endpoint, the order of the sorted matching."""
    masks = g._masks  # noqa: SLF001 - every id here is checked
    inside = 0
    for v in s:
        inside |= 1 << v
    for u in sorted(s):
        # the first member with a neighbour in s meets only later ones
        hit = masks[u] & inside
        if hit:
            return f"not stable: edge ({u}, {(hit & -hit).bit_length() - 1}) inside the set"
    for v in range(g.n):
        if partner[v] == -1 and v not in s:
            return f"exposed vertex {v} missing from the set"
    for u, v in enumerate(partner):
        if v < u:  # exposed, or met already from its lower endpoint
            continue
        hits = (u in s) + (v in s)
        if hits != 1:
            word = "neither endpoint" if hits == 0 else "both endpoints"
            return f"heavy edge ({u}, {v}) has {word} in the set"
    return None


class ExtensionBlockedError(GraphError):
    """The alternating saturation closed a blossom: an edge appeared inside
    the matched image, so the input graph was not blossom-free."""


def extend_stable_through_matching(
    g: Graph, m: Iterable[Edge], s: Iterable[int], b: int
) -> frozenset[int]:
    """Build a maximum stable set containing b from one that excludes it.

    Requires a blossom-free Koenig-Egervary graph with the perfect matching
    m and a maximum stable set s.  Saturates alternately: neighbors of the
    growing matched image inside s, then their matching partners, until no
    new vertices appear; the result swaps the saturated part of s for its
    partner set.  The output passes the certificate scan before it is
    returned (s's certificate has already proved the graph KE, m maximum).
    """
    m = validate_matching(g, m)
    if 2 * len(m) != g.n:
        raise GraphError("extension requires a perfect matching")
    s = g.check_vertex_set(s)
    partner = _match_list(g, m)
    cert = _certify(g, partner, s)
    if not cert:
        raise GraphError(f"s is not a maximum stable set: {cert.reason}")
    g.check_vertex(b)
    if b in s:
        raise GraphError(f"vertex {b} is already in the stable set")
    return _extend(g, partner, s, b)


def _extend(g: Graph, partner: list[int], s: frozenset[int], b: int) -> frozenset[int]:
    """extend_stable_through_matching past its checks: partner is a perfect
    matching's partner list, s a maximum stable set it certifies, and b a
    vertex outside s."""
    adj, masks = g._adj, g._masks  # noqa: SLF001 - every id here is checked
    a_frontier = frozenset(adj[b]) & s
    if not a_frontier:
        # impossible for a maximum s: b would extend it
        raise GraphError(f"vertex {b} has no neighbor in the stable set")
    a_all: set[int] = set()
    b_all: set[int] = set()
    while a_frontier:
        a_all |= a_frontier
        b_frontier = {partner[a] for a in a_frontier}
        b_all |= b_frontier
        reached: set[int] = set()
        for w in b_frontier:
            reached.update(adj[w])
        a_frontier = frozenset((reached & s) - a_all)

    b_mask = _as_mask(b_all)
    for u in sorted(b_all):
        hit = masks[u] & b_mask
        if hit:
            v = (hit & -hit).bit_length() - 1
            raise ExtensionBlockedError(
                f"edge ({min(u, v)}, {max(u, v)}) closed an odd alternating "
                "cycle; the graph is not blossom-free for this matching"
            )

    rest = s - a_all
    result = frozenset(b_all) | rest
    assert b in result
    reason = _certificate_failure(g, partner, result)
    if reason is not None:
        raise AssertionError(f"extension produced a non-maximum set: {reason}")
    return result


def _as_mask(vs: Iterable[int]) -> int:
    mask = 0
    for v in vs:
        mask |= 1 << v
    return mask
