"""Brute-force oracles, deliberately naive.

These are the independent second routes used by the test suite and the
verification harness.  They share no algorithmic ideas with the
production implementations they check: stable sets come from a full
subset scan (or, for the list of every stable set, a full include/exclude
recursion), the matching number from a bitmask recursion over covered
vertices rather than an augmenting-path search.
"""

from __future__ import annotations

from .graph import Graph
from .limits import DEFAULT_OMEGA_CAP, check_cap


def is_stable_set(g: Graph, xs) -> bool:
    xs = g.check_vertex_set(xs)
    mask = 0
    for v in xs:
        mask |= 1 << v
    return all(g.adjacency_mask(v) & mask == 0 for v in xs)


def brute_stability_number(g: Graph, cap: int | None = None) -> int:
    check_cap(g.n, cap, DEFAULT_OMEGA_CAP, "brute stability number")
    masks = [g.adjacency_mask(v) for v in g.vertices()]
    best = 0
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size <= best:
            continue
        rest = subset
        ok = True
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if masks[v] & subset:
                ok = False
                break
            rest ^= low
        if ok:
            best = size
    return best


def brute_max_stable_sets(g: Graph, cap: int | None = None) -> list[frozenset[int]]:
    """All maximum stable sets via full subset scan, lexicographic order."""
    check_cap(g.n, cap, DEFAULT_OMEGA_CAP, "brute stable-set enumeration")
    masks = [g.adjacency_mask(v) for v in g.vertices()]
    best = 0
    found: list[int] = []
    for subset in range(1 << g.n):
        size = subset.bit_count()
        if size < best:
            continue
        rest = subset
        ok = True
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if masks[v] & subset:
                ok = False
                break
            rest ^= low
        if not ok:
            continue
        if size > best:
            best = size
            found = [subset]
        else:
            found.append(subset)
    sets = [
        frozenset(v for v in range(g.n) if subset >> v & 1) for subset in found
    ]
    return sorted(sets, key=sorted)


def brute_stable_sets(g: Graph, cap: int | None = None) -> list[frozenset[int]]:
    """Every stable set, the empty one included, by a full include/exclude
    recursion: each vertex is first left out, then taken when no chosen
    neighbor bans it."""
    check_cap(g.n, cap, DEFAULT_OMEGA_CAP, "brute stable-set scan")
    n = g.n
    masks = [g.adjacency_mask(v) for v in g.vertices()]
    out: list[frozenset[int]] = []

    def rec(v: int, chosen: int, banned: int) -> None:
        if v == n:
            out.append(frozenset(u for u in range(n) if chosen >> u & 1))
            return
        rec(v + 1, chosen, banned)
        if not banned >> v & 1:
            rec(v + 1, chosen | 1 << v, banned | masks[v])

    rec(0, 0, 0)
    return out


def brute_max_matching_size(g: Graph, cap: int | None = None) -> int:
    """Matching number by recursion on the lowest uncovered vertex."""
    check_cap(g.n, cap, DEFAULT_OMEGA_CAP, "brute matching number")
    masks = [g.adjacency_mask(v) for v in g.vertices()]
    memo: dict[int, int] = {}

    def rec(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        v = low.bit_length() - 1
        best = rec(mask ^ low)  # leave v uncovered
        nbrs = masks[v] & mask
        while nbrs:
            ub = nbrs & -nbrs
            u = ub.bit_length() - 1
            nbrs ^= ub
            best = max(best, 1 + rec(mask ^ low ^ ub))
        memo[mask] = best
        return best

    return rec(g.full_mask)
