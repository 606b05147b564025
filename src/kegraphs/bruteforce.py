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
and has_posy.  All three run one depth-first walker, _walk, and differ
only in the hook it asks about each neighbour: close a blossom, reach an
exposed vertex, reach another base.  The walker reads the matching as the
package's one partner form, the list matching._match_list builds, and the
graph's ascending neighbour tuples directly, as the scans above read the
masks: every id it meets is one the package made, so none is checked
again.  Its running time grows with the number of alternating walks,
which a vertex cap does not bound usefully, so it runs under a fixed step
budget instead and raises SearchBudgetExceededError when that runs out.
find_flower and find_posy refuse a matching smaller than
brute_max_matching_size, not through matching's augmenting-path search.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .graph import Edge, Graph, GraphError, complement_non_edges
from .limits import DEFAULT_OMEGA_CAP, check_cap
from .matching import _match_list, validate_matching

# Primitive-step allowance for the exhaustive alternating-structure
# searches: blossom, flower and posy enumeration only.
DEFAULT_SEARCH_BUDGET = 20_000_000


class SearchBudgetExceededError(RuntimeError):
    """An alternating-structure search ran past its step budget."""


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
    stops branching once its best reaches that count, and leaves v
    uncovered only while its best is below popcount(rest) // 2, the most
    that the rest without v can give."""
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
        rest = mask ^ low
        nbrs = masks[v] & rest
        while nbrs and best < bound:
            ub = nbrs & -nbrs
            nbrs ^= ub
            size = 1 + rec(rest ^ ub)
            if size > best:
                best = size
        if best < rest.bit_count() // 2:  # leave v uncovered
            size = rec(rest)
            if size > best:
                best = size
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


class MatchingSummary(NamedTuple):
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


class Blossom(NamedTuple):
    """Odd cycle whose heavy edges near-perfectly match it; base first."""

    cycle: tuple[int, ...]

    @property
    def base(self) -> int:
        return self.cycle[0]

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.cycle)


class Flower(NamedTuple):
    """A blossom plus an even alternating stem from its base to an exposed
    vertex.  A stem of length zero (the base itself exposed) is recorded as
    the one-vertex tuple and flagged by trivial_stem."""

    blossom: Blossom
    stem: tuple[int, ...]

    @property
    def trivial_stem(self) -> bool:
        return len(self.stem) == 1


class Posy(NamedTuple):
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


def _walk(
    adj: Sequence[tuple[int, ...]],
    partner: list[int],
    path: list[int],
    visited: set[int],
    budget: _Budget,
    stop: Callable[[int], bool],
) -> bool:
    """The one alternating walk of the exhaustive search, depth first from
    path[-1]: a light edge to an unvisited neighbour w, then w's heavy edge
    to its unvisited partner, and on from there.  Neighbours are tried in
    ascending order, one budget step each, and stop(w) is asked about each
    before anything else; a True answer ends the walk, with path as stop
    left it.  Otherwise path and visited come back as they went in, and the
    answer is False.
    """
    for w in adj[path[-1]]:
        budget.spend()
        if stop(w):
            return True
        pw = partner[w]
        if w in visited or pw == -1 or pw in visited:
            continue
        visited.update((w, pw))
        path.extend((w, pw))
        if _walk(adj, partner, path, visited, budget, stop):
            return True
        del path[-2:]
        visited.difference_update((w, pw))
    return False


def _collect_blossoms(g: Graph, partner: list[int], budget: _Budget) -> list[Blossom]:
    """All blossoms relative to the matching, given as its partner list
    (-1 where exposed), canonical and deduplicated.

    Walks b -light- x1 -heavy- x2 -light- x3 -heavy- ... and closes with a
    light edge back to b.  Every cycle vertex other than the base is covered
    by a heavy cycle edge, so the walk jumps to the partner of the vertex
    just entered; b's own heavy edge leads back to b, which is visited, so
    the walk never starts with it.
    """
    found: dict[tuple[int, ...], Blossom] = {}
    for b in range(g.n):
        path = [b]

        def close(w: int) -> bool:
            if w == b and len(path) >= 3:
                # closing edge is light: path[-1]'s heavy partner is path[-2]
                key = min(tuple(path), (b, *reversed(path[1:])))
                found.setdefault(key, Blossom(key))
            return False

        _walk(g._adj, partner, path, {b}, budget, close)  # noqa: SLF001
    return sorted(found.values(), key=lambda blossom: (len(blossom.cycle), blossom.cycle))


def find_blossoms(g: Graph, m: Iterable[Edge]) -> tuple[Blossom, ...]:
    """Every blossom relative to m, in deterministic order."""
    partner = _match_list(g, validate_matching(g, m))
    return tuple(_collect_blossoms(g, partner, _Budget()))


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
    partner = _match_list(g, _validated_maximum(g, m))
    if -1 not in partner:
        return None
    budget = _Budget()
    for blossom in _collect_blossoms(g, partner, budget):
        stem = _find_stem(g, partner, blossom, budget)
        if stem is not None:
            return Flower(blossom, stem)
    return None


def _find_stem(
    g: Graph, partner: list[int], blossom: Blossom, budget: _Budget
) -> tuple[int, ...] | None:
    """Even alternating path base -heavy- ... -light- exposed, meeting the
    blossom only at the base; the trivial stem (base,) if the base is
    itself exposed."""
    base = blossom.base
    start = partner[base]
    if start == -1:
        return (base,)
    if start in blossom.vertex_set:
        return None
    path = [base, start]
    visited = {start, *blossom.cycle}

    def exposed(w: int) -> bool:
        if w in visited or partner[w] != -1:
            return False
        path.append(w)  # light edge to an exposed vertex: even stem
        return True

    if _walk(g._adj, partner, path, visited, budget, exposed):  # noqa: SLF001
        return tuple(path)
    return None


def find_posy(g: Graph, m: Iterable[Edge]) -> Posy | None:
    """A posy relative to the maximum matching m, or None.

    The joining path is any simple odd alternating path between two blossom
    bases whose first and last edges are heavy; the two blossoms need not be
    disjoint from each other.
    """
    partner = _match_list(g, _validated_maximum(g, m))
    adj = g._adj  # noqa: SLF001
    budget = _Budget()
    first_at_base: dict[int, Blossom] = {}
    for blossom in _collect_blossoms(g, partner, budget):
        first_at_base.setdefault(blossom.base, blossom)

    for b1 in sorted(first_at_base):
        start = partner[b1]
        if start == -1:
            continue  # an exposed base cannot anchor a heavy first edge
        path = [b1, start]
        visited = {b1, start}

        def other_base(w: int) -> bool:
            pw = partner[w]  # -1, where w is exposed, is no base
            if w in visited or pw in visited or pw not in first_at_base:
                return False
            path.extend((w, pw))
            return True

        if start in first_at_base or _walk(adj, partner, path, visited, budget, other_base):
            return Posy(first_at_base[b1], first_at_base[path[-1]], tuple(path))
    return None
