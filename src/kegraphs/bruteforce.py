"""Brute-force oracles, deliberately naive.

These are the independent second routes used by the test suite and the
verification harness.  They share no algorithmic ideas with the
production implementations they check.  Every stable-set answer (every
stable set, the maximum ones, edge-addition stability by definition) comes
from one scan of the vertex subsets in increasing order, brute_stable_sets;
the matching number comes from a bitmask recursion over covered vertices,
cut off by counting (no matching covers more than the vertices left),
rather than an augmenting-path search.  brute_maximum_matchings lists the
matchings of a given size by recursion on the lowest undecided vertex
(matched to a higher neighbour, or exposed); brute_matching_summary walks
the same recursion, memoised, and returns only what the certificate and
cut checks read of that listing: the distinct exposed sets and the union
of the edges.  Facts passes both the matching number from
Edmonds' search.

The exhaustive alternating-walk search (find_blossoms, find_flower,
find_posy) is the oracle for matching's polynomial has_blossom, has_flower
and has_posy.  Its running time grows with the number of alternating
walks, which a vertex cap does not bound usefully, so it runs under a
fixed step budget instead and raises SearchBudgetExceededError when that
runs out.  find_flower and find_posy refuse a matching smaller than
brute_max_matching_size, not through matching's augmenting-path search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import Edge, Graph, GraphError, complement_non_edges, normalize_edge
from .limits import DEFAULT_OMEGA_CAP, check_cap
from .matching import partner_map, validate_matching

# Primitive-step allowance for the exhaustive alternating-structure
# searches: blossom, flower and posy enumeration only.
DEFAULT_SEARCH_BUDGET = 20_000_000


class SearchBudgetExceededError(RuntimeError):
    """An alternating-structure search ran past its step budget."""


def is_stable_set(g: Graph, xs) -> bool:
    xs = g.check_vertex_set(xs)
    mask = 0
    for v in xs:
        mask |= 1 << v
    return all(g._masks[v] & mask == 0 for v in xs)  # noqa: SLF001 - checked ids


def brute_stable_sets(g: Graph) -> list[int]:
    """Every stable set as a vertex bitmask (bit v set iff v is in the set),
    the empty one included, in increasing order.  A set with highest vertex
    v is stable iff it is a stable set below v plus v, and v has no neighbor
    in it; each pass extends the sets found so far by the next vertex."""
    check_cap(g.n, DEFAULT_OMEGA_CAP, "brute stable-set scan")
    out = [0]
    for v, nbrs in enumerate(g._masks):  # noqa: SLF001
        out += [s | 1 << v for s in out if not nbrs & s]
    return out


def brute_max_stable_sets(g: Graph) -> list[frozenset[int]]:
    """The largest sets of brute_stable_sets, in lexicographic order."""
    return largest_stable_sets(brute_stable_sets(g))


def largest_stable_sets(stable_sets: list[int]) -> list[frozenset[int]]:
    """The largest sets of a brute_stable_sets scan, in lexicographic order."""
    best = max(s.bit_count() for s in stable_sets)
    sets = [frozenset(v for v in range(s.bit_length()) if s >> v & 1)
            for s in stable_sets if s.bit_count() == best]
    return sorted(sets, key=sorted)


def brute_edge_addition_stable(g: Graph) -> bool:
    """Edge-addition stability straight from the definition: build G+uv for
    every non-edge uv and compare the largest stable set found by
    brute_stable_sets in it with the largest one in G."""
    def alpha(h: Graph) -> int:
        return max(s.bit_count() for s in brute_stable_sets(h))

    alpha_g = alpha(g)
    return all(alpha(g.with_edge(u, v)) == alpha_g for u, v in complement_non_edges(g))


def brute_max_matching_size(g: Graph) -> int:
    """Matching number by recursion on the lowest uncovered vertex, matched
    to each neighbour before it is left uncovered.  No matching of the
    vertices in mask has more than popcount(mask) // 2 edges, so a mask
    stops branching once its best reaches that count."""
    check_cap(g.n, DEFAULT_OMEGA_CAP, "brute matching number")
    masks = g._masks  # noqa: SLF001
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        bound = mask.bit_count() // 2
        best = 0
        nbrs = masks[v] & mask
        while nbrs and best < bound:
            ub = nbrs & -nbrs
            nbrs ^= ub
            best = max(best, 1 + rec(mask ^ low ^ ub))
        if best < bound:
            best = max(best, rec(mask ^ low))  # leave v uncovered
        memo[mask] = best
        return best

    return rec(g.full_mask)


def brute_maximum_matchings(g: Graph, size: int) -> tuple[frozenset[Edge], ...]:
    """Every matching of exactly size edges, in lexicographic order (of
    their sorted edge lists); given the matching number, these are the
    maximum matchings.

    Exhaustive recursion on the lowest undecided vertex v: match v to each
    higher undecided neighbour in ascending order, then leave v exposed,
    which is allowed while fewer than n - 2*size vertices are exposed.  A
    branch stops once it holds size edges.  The edges of a branch are
    appended with increasing lower endpoint, so each edge list is sorted.
    Two branches first differ at some vertex v, with fewer than size edges
    so far: one matches v to a lower partner than the other, or matches v
    where the other leaves it exposed and takes a later edge (v', w) with
    v' > v.  Either way the branch taken first has the smaller edge list,
    so depth-first order is lexicographic order and nothing is sorted.
    """
    check_cap(g.n, DEFAULT_OMEGA_CAP, "maximum-matching enumeration")
    if not 0 <= 2 * size <= g.n:
        return ()
    masks = g._masks  # noqa: SLF001
    results: list[frozenset[Edge]] = []
    acc: list[Edge] = []

    def rec(undecided: int, exposures: int) -> None:
        if len(acc) == size:
            results.append(frozenset(acc))
            return
        # fewer than size edges, so at least two undecided vertices remain
        low = undecided & -undecided
        v = low.bit_length() - 1
        rest = undecided ^ low
        nbrs = masks[v] & rest
        while nbrs:
            ub = nbrs & -nbrs
            nbrs ^= ub
            acc.append((v, ub.bit_length() - 1))
            rec(rest ^ ub, exposures)
            acc.pop()
        if exposures:
            rec(rest, exposures - 1)

    rec(g.full_mask, g.n - 2 * size)
    return tuple(results)


@dataclass(frozen=True)
class MatchingSummary:
    """What the certificate and cut checks read of a listing of matchings:
    the distinct exposed sets (vertex bitmasks) and the union of the
    edges."""

    exposed: frozenset[int]
    edges: frozenset[Edge]


def brute_matching_summary(g: Graph, size: int) -> MatchingSummary:
    """The summary of brute_maximum_matchings(g, size), without the listing.

    The recursion is the listing's: the lowest undecided vertex v is matched
    to each higher undecided neighbour, then left exposed while exposures
    remain.  A state (undecided, exposures) still has to place
    (popcount(undecided) - exposures) / 2 edges, so the subtree below it
    does not depend on the path to it and is summarised once: the exposed
    sets restricted to undecided, as dict keys, and the edge union as a
    bitmask over v * n + u.  A state is a leaf when no edge is left to
    place; its one matching exposes every undecided vertex.  A child with
    no exposed set has no matching and adds no edge; the exposure child's
    sets gain v.
    """
    check_cap(g.n, DEFAULT_OMEGA_CAP, "maximum-matching summary")
    n = g.n
    if not 0 <= 2 * size <= n:
        return MatchingSummary(frozenset(), frozenset())
    masks = g._masks  # noqa: SLF001
    memo: dict[int, tuple[dict[int, None], int]] = {}

    def rec(undecided: int, exposures: int) -> tuple[dict[int, None], int]:
        key = undecided << 5 | exposures  # exposures <= n <= 16 < 32
        hit = memo.get(key)
        if hit is not None:
            return hit
        if undecided.bit_count() == exposures:
            out = ({undecided: None}, 0)
        else:
            low = undecided & -undecided
            v = low.bit_length() - 1
            rest = undecided ^ low
            nbrs = masks[v] & rest
            exposed, used = {}, 0
            while nbrs:
                ub = nbrs & -nbrs
                nbrs ^= ub
                sub, e = rec(rest ^ ub, exposures)
                if sub:
                    exposed.update(sub)
                    used |= e | 1 << (v * n + ub.bit_length() - 1)
            if exposures:
                sub, e = rec(rest, exposures - 1)
                for x in sub:
                    exposed[x | low] = None
                used |= e
            out = (exposed, used)
        memo[key] = out
        return out

    exposed, used = rec(g.full_mask, n - 2 * size)
    edges = frozenset(divmod(i, n) for i in range(used.bit_length()) if used >> i & 1)
    return MatchingSummary(frozenset(exposed), edges)


# -- exhaustive alternating-walk search ---------------------------------------


@dataclass(frozen=True)
class Blossom:
    """Odd cycle whose heavy edges near-perfectly match it; base first."""

    cycle: tuple[int, ...]

    @property
    def base(self) -> int:
        return self.cycle[0]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.cycle)

    def cycle_edges(self) -> tuple[Edge, ...]:
        cyc = self.cycle
        out = [normalize_edge(cyc[i], cyc[i + 1]) for i in range(len(cyc) - 1)]
        out.append(normalize_edge(cyc[-1], cyc[0]))
        return tuple(out)


@dataclass(frozen=True)
class Flower:
    """A blossom plus an even alternating stem from its base to an exposed
    vertex.  A stem of length zero (the base itself exposed) is recorded as
    the one-vertex tuple and flagged by trivial_stem."""

    blossom: Blossom
    stem: tuple[int, ...]

    @property
    def trivial_stem(self) -> bool:
        return len(self.stem) == 1


@dataclass(frozen=True)
class Posy:
    """Two blossoms whose bases are joined by an odd alternating path whose
    first and last edges are heavy."""

    blossom1: Blossom
    blossom2: Blossom
    path: tuple[int, ...]


class _Budget:
    __slots__ = ("left",)

    def __init__(self):
        self.left = DEFAULT_SEARCH_BUDGET

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceededError(
                "alternating-structure search budget exhausted"
            )


def _collect_blossoms(
    g: Graph, partner: Mapping[int, int], budget: _Budget
) -> list[Blossom]:
    """All blossoms relative to the matching, canonical and deduplicated.

    Walks b -light- x1 -heavy- x2 -light- x3 -heavy- ... and closes with a
    light edge back to b.  Every cycle vertex other than the base is covered
    by a heavy cycle edge, so walk extension always jumps to the partner of
    the vertex just entered.
    """
    found: dict[tuple[int, ...], Blossom] = {}

    def canonical(path: tuple[int, ...]) -> tuple[int, ...]:
        rev = (path[0],) + tuple(reversed(path[1:]))
        return min(path, rev)

    for base_v in range(g.n):
        heavy_of_base = partner.get(base_v)
        path = [base_v]
        visited = {base_v}

        def walk() -> None:
            cur = path[-1]
            for w in g.neighbors(cur):
                budget.spend()
                if w == base_v and len(path) >= 3:
                    # closing edge is light: cur's heavy partner is path[-2]
                    key = canonical(tuple(path))
                    found.setdefault(key, Blossom(key))
                    continue
                if w in visited:
                    continue
                pw = partner.get(w)
                if pw is None or pw in visited or pw == base_v:
                    continue
                visited.add(w)
                visited.add(pw)
                path.append(w)
                path.append(pw)
                walk()
                path.pop()
                path.pop()
                visited.discard(w)
                visited.discard(pw)

        for x1 in g.neighbors(base_v):
            budget.spend()
            if x1 == heavy_of_base:
                continue
            x2 = partner.get(x1)
            if x2 is None or x2 == base_v:
                continue
            visited.update((x1, x2))
            path.extend((x1, x2))
            walk()
            path[:] = [base_v]
            visited.clear()
            visited.add(base_v)

    blossoms = [found[key] for key in found]
    blossoms.sort(key=lambda b: (len(b.cycle), b.cycle))
    return blossoms


def find_blossoms(g: Graph, m: Iterable[Edge]) -> tuple[Blossom, ...]:
    """Every blossom relative to m, in deterministic order."""
    m = validate_matching(g, m)
    return tuple(_collect_blossoms(g, partner_map(m), _Budget()))


def _validated_maximum(g: Graph, m: Iterable[Edge]) -> frozenset[Edge]:
    """m validated as a matching of g, refused unless it is as large as
    the brute-force matching number."""
    m = validate_matching(g, m)
    if len(m) != brute_max_matching_size(g):
        raise GraphError(f"matching of size {len(m)} is not maximum")
    return m


def find_flower(g: Graph, m: Iterable[Edge]) -> Flower | None:
    """A flower relative to the maximum matching m, or None.

    The search is exhaustive: a None answer means no blossom has an even
    alternating stem to an exposed vertex (a base that is itself exposed
    counts, with the trivial stem).
    """
    partner = partner_map(_validated_maximum(g, m))
    exposed = frozenset(v for v in g.vertices() if v not in partner)
    if not exposed:
        return None
    budget_box = _Budget()
    for blossom in _collect_blossoms(g, partner, budget_box):
        if blossom.base in exposed:
            return Flower(blossom, (blossom.base,))
        stem = _find_stem(g, partner, blossom, budget_box)
        if stem is not None:
            return Flower(blossom, stem)
    return None


def _find_stem(
    g: Graph, partner: Mapping[int, int], blossom: Blossom, budget: _Budget
) -> tuple[int, ...] | None:
    """Even alternating path base -heavy- ... -light- exposed, meeting the
    blossom only at the base."""
    base = blossom.base
    block = blossom.vertex_set
    start = partner.get(base)
    if start is None or start in block:
        return None
    path = [base, start]
    visited = {base, start}

    def dfs() -> bool:
        cur = path[-1]  # entered on a heavy edge; an odd prefix so far
        for w in g.neighbors(cur):
            budget.spend()
            if w in visited or w in block:
                continue
            pw = partner.get(w)
            if pw is None:
                path.append(w)  # light edge to an exposed vertex: even stem
                return True
            if pw in visited or pw in block:
                continue
            visited.add(w)
            visited.add(pw)
            path.append(w)
            path.append(pw)
            if dfs():
                return True
            path.pop()
            path.pop()
            visited.discard(w)
            visited.discard(pw)
        return False

    if dfs():
        return tuple(path)
    return None


def find_posy(g: Graph, m: Iterable[Edge]) -> Posy | None:
    """A posy relative to the maximum matching m, or None.

    The joining path is any simple odd alternating path between two blossom
    bases whose first and last edges are heavy; the two blossoms need not be
    disjoint from each other.
    """
    partner = partner_map(_validated_maximum(g, m))
    budget_box = _Budget()
    blossoms = _collect_blossoms(g, partner, budget_box)
    if not blossoms:
        return None
    first_at_base: dict[int, Blossom] = {}
    for b in blossoms:
        first_at_base.setdefault(b.base, b)

    for b1 in sorted(first_at_base):
        start = partner.get(b1)
        if start is None:
            continue  # an exposed base cannot anchor a heavy first edge
        path = [b1, start]
        visited = {b1, start}

        def dfs() -> bool:
            cur = path[-1]  # entered on a heavy edge; odd path length
            if cur in first_at_base and cur != b1:
                return True
            for w in g.neighbors(cur):
                budget_box.spend()
                if w in visited:
                    continue
                pw = partner.get(w)
                if pw is None or pw in visited:
                    continue
                visited.add(w)
                visited.add(pw)
                path.append(w)
                path.append(pw)
                if dfs():
                    return True
                path.pop()
                path.pop()
                visited.discard(w)
                visited.discard(pw)
            return False

        if dfs():
            end = path[-1]
            return Posy(first_at_base[b1], first_at_base[end], tuple(path))
    return None
