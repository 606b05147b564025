"""Maximum matchings and alternating structures relative to a matching.

The maximum-matching search is the classic blossom-shrinking algorithm.
Tie-breaking is fully deterministic: the greedy seed and the augmenting
searches scan vertices and neighbors in ascending id order, so a given
graph always yields the same matching.

Relative to a matching M, edges in M are heavy and all others light.  A
blossom is an odd cycle whose heavy edges form a near-perfect matching
of the cycle; the one cycle vertex covered by no heavy cycle edge is its
base.  A flower adds an even-length alternating stem from the base to an
exposed vertex (sharing only the base with the cycle); a posy joins the
bases of two blossoms by an odd-length alternating path whose first and
last edges are heavy.

Whether a blossom, a flower or a posy exists is decided in polynomial time
by alternating-tree searches (has_blossom, has_flower, has_posy).  Listing
blossoms and finding a concrete flower or posy (find_blossoms, find_flower,
find_posy) is exhaustive search over alternating walks, guarded by a step
budget; those walkers are the oracle the polynomial tests are checked
against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

from .bruteforce import brute_max_matching_size
from .graph import Edge, Graph, GraphError, normalize_edge
from .limits import (
    DEFAULT_OMEGA_CAP,
    DEFAULT_SEARCH_BUDGET,
    SearchBudgetExceededError,
    check_cap,
)

Matching = frozenset[Edge]


def validate_matching(g: Graph, pairs: Iterable[Edge]) -> Matching:
    """Normalize pairs and check they form a matching of g."""
    edges = set()
    covered: set[int] = set()
    for u, v in pairs:
        e = normalize_edge(int(u), int(v))
        if e not in g.edges:
            raise GraphError(f"pair {e} is not an edge of the graph")
        if e[0] in covered or e[1] in covered:
            raise GraphError(f"edges share a vertex at {e}")
        covered.update(e)
        edges.add(e)
    return frozenset(edges)


def partner_map(m: Matching) -> dict[int, int]:
    out: dict[int, int] = {}
    for u, v in m:
        out[u] = v
        out[v] = u
    return out


def exposed_vertices(g: Graph, m: Iterable[Edge]) -> frozenset[int]:
    """Vertices covered by no edge of the matching."""
    m = validate_matching(g, m)
    covered = {v for e in m for v in e}
    return frozenset(v for v in g.vertices() if v not in covered)


def is_perfect_matching(g: Graph, m: Iterable[Edge]) -> bool:
    return len(exposed_vertices(g, m)) == 0


def is_near_perfect_matching(g: Graph, m: Iterable[Edge]) -> bool:
    return len(exposed_vertices(g, m)) == 1


# -- maximum matching (blossom shrinking) -----------------------------------


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching, deterministic for a given graph."""
    n = g.n
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in g.neighbors(v):
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment_from(g, v, match)
    return frozenset((v, match[v]) for v in range(n) if match[v] > v)


def matching_number(g: Graph) -> int:
    return len(maximum_matching(g))


def _augment_from(g: Graph, root: int, match: list[int]) -> bool:
    n = g.n
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    queue = deque([root])
    finish = -1
    while queue and finish == -1:
        v = queue.popleft()
        for to in g.neighbors(v):
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # v and to lie in the same alternating tree: an odd cycle
                # closed; shrink it to its base.
                cur = _cycle_base(match, base, parent, v, to)
                _shrink(match, base, parent, in_queue, queue, v, to, cur)
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    finish = to
                    break
                if not in_queue[match[to]]:
                    in_queue[match[to]] = True
                    queue.append(match[to])
    if finish == -1:
        return False
    v = finish
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt
    return True


def _cycle_base(match: list[int], base: list[int], parent: list[int], a: int, b: int) -> int:
    seen = set()
    v = a
    while True:
        v = base[v]
        seen.add(v)
        if match[v] == -1:
            break
        v = parent[match[v]]
    v = b
    while True:
        v = base[v]
        if v in seen:
            return v
        v = parent[match[v]]


def _shrink(
    match: list[int],
    base: list[int],
    parent: list[int],
    in_queue: list[bool],
    queue: deque[int],
    v: int,
    to: int,
    cur: int,
) -> None:
    """Contract the odd cycle closed by the edge v-to into its base cur and
    queue the vertices that become outer."""
    in_cycle = [False] * len(base)
    _mark_cycle_path(match, base, parent, in_cycle, v, cur, to)
    _mark_cycle_path(match, base, parent, in_cycle, to, cur, v)
    for i in range(len(base)):
        if in_cycle[base[i]]:
            base[i] = cur
            if not in_queue[i]:
                in_queue[i] = True
                queue.append(i)


def _mark_cycle_path(
    match: list[int],
    base: list[int],
    parent: list[int],
    in_cycle: list[bool],
    v: int,
    stop: int,
    child: int,
) -> None:
    while base[v] != stop:
        in_cycle[base[v]] = True
        in_cycle[base[match[v]]] = True
        parent[v] = child
        child = match[v]
        v = parent[match[v]]


# -- alternating structures --------------------------------------------------


@dataclass(frozen=True)
class Blossom:
    """Odd cycle whose heavy edges near-perfectly match it; base first."""

    cycle: tuple[int, ...]
    kind: ClassVar[str] = "blossom"

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
    kind: ClassVar[str] = "flower"

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
    kind: ClassVar[str] = "posy"


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


def has_blossom(g: Graph, m: Iterable[Edge]) -> bool:
    """Whether some blossom exists relative to the matching m.

    m may be any matching, maximum or not.  The test is exact and
    polynomial: one Edmonds alternating-tree search per candidate base r,
    in the graph with r's partner and every other exposed vertex deleted.
    A blossom based at r avoids exactly those vertices: its other vertices
    are covered by heavy cycle edges, and r's own heavy edge is off the
    cycle.  With r the only exposed vertex there is no augmenting path, and
    r is a base if and only if the search shrinks an odd cycle based at r:
    such a shrink makes a neighbor x of r even, and the even alternating
    path r ... x plus the light edge x r is a simple odd cycle that the
    heavy edges near-perfectly match, leaving r uncovered; conversely, both
    cycle neighbors of a real base r are even, so the edge back to r closes
    a cycle at r.
    """
    match = _match_list(g, validate_matching(g, m))
    return any(_closes_blossom_at(g, match, r) for r in range(g.n))


def _match_list(g: Graph, m: Matching) -> list[int]:
    """Each vertex's partner under m, -1 where exposed."""
    match = [-1] * g.n
    for u, v in m:
        match[u] = v
        match[v] = u
    return match


def _closes_blossom_at(g: Graph, matched: list[int], root: int) -> bool:
    """Edmonds search from root with root the only exposed vertex left."""
    n = g.n
    if g.degree(root) < 2:
        return False
    match = matched[:]
    deleted = [w == -1 for w in match]
    deleted[root] = False
    mate = match[root]
    if mate != -1:
        deleted[mate] = True
        match[mate] = match[root] = -1
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in g.neighbors(v):
            if deleted[to] or base[v] == base[to] or match[v] == to:
                continue
            if to == root or parent[match[to]] != -1:
                cur = _cycle_base(match, base, parent, v, to)
                if cur == root:
                    return True
                _shrink(match, base, parent, in_queue, queue, v, to, cur)
            elif parent[to] == -1:
                # every live vertex but root is matched: no augmenting path
                parent[to] = v
                if not in_queue[match[to]]:
                    in_queue[match[to]] = True
                    queue.append(match[to])
    return False


def is_blossom_free(g: Graph, m: Iterable[Edge]) -> bool:
    return not has_blossom(g, m)


def _require_maximum(g: Graph, m: Matching) -> list[int]:
    """Berge: m is maximum exactly when no exposed vertex starts an
    augmenting path, so one failed search per exposed vertex proves it.
    Returns m as _match_list does (a failed search leaves it unchanged)."""
    match = _match_list(g, m)
    for root in range(g.n):
        if match[root] == -1 and _augment_from(g, root, match):
            raise GraphError(f"matching of size {len(m)} is not maximum")
    return match


def has_flower(g: Graph, m: Iterable[Edge]) -> bool:
    """Whether some flower exists relative to the maximum matching m.

    Exact and polynomial: one alternating BFS per exposed root r, without
    shrinking, answers yes at the first light edge joining two outer
    vertices (r itself is outer).  That edge closes a real blossom whose
    base is where the two tree paths meet, and the tree path from r to
    that base is an even stem.  Conversely, every vertex of a flower's
    cycle is reachable from its stem's exposed end by an even alternating
    path, so Edmonds' search from there marks them all outer and some
    light cycle edge joins two outer vertices.
    """
    match = _require_maximum(g, validate_matching(g, m))
    return any(match[r] == -1 and _closes_odd_cycle(g, match, r) for r in range(g.n))


def _closes_odd_cycle(g: Graph, match: list[int], root: int) -> bool:
    """Alternating BFS from root with no shrinking: whether a light edge
    joins two outer vertices.  The matching is maximum, so every inner
    vertex reached is matched."""
    outer = [False] * g.n
    inner = [False] * g.n
    outer[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in g.neighbors(v):
            if inner[to]:
                continue  # also v's own partner, the vertex v was reached by
            if outer[to]:
                return True
            inner[to] = True
            outer[match[to]] = True
            queue.append(match[to])
    return False


def has_posy(g: Graph, m: Iterable[Edge]) -> bool:
    """Whether some posy exists relative to the maximum matching m.

    Exact and polynomial.  Take the matched blossom bases (one Edmonds
    search per vertex, as in has_blossom), drop every edge at an exposed
    vertex, and add two new vertices s and t, each joined to every base.
    A posy path b1 -heavy- ... -heavy- b2 with b1 != b2 is then exactly an
    augmenting path s b1 ... b2 t, and with s and t the only reachable
    exposed vertices one Edmonds search from s decides whether one exists.
    """
    match = _require_maximum(g, validate_matching(g, m))
    bases = [
        r for r in range(g.n) if match[r] != -1 and _closes_blossom_at(g, match, r)
    ]
    if len(bases) < 2:
        return False
    s, t = g.n, g.n + 1
    edges = [(u, v) for u, v in g.edges if match[u] != -1 and match[v] != -1]
    edges += [(b, x) for b in bases for x in (s, t)]
    return _augment_from(Graph(g.n + 2, edges), s, match + [-1, -1])


def find_flower(g: Graph, m: Iterable[Edge]) -> Flower | None:
    """A flower relative to the maximum matching m, or None.

    The search is exhaustive: a None answer means no blossom has an even
    alternating stem to an exposed vertex (a base that is itself exposed
    counts, with the trivial stem).
    """
    m = validate_matching(g, m)
    _require_maximum(g, m)
    exposed = exposed_vertices(g, m)
    if not exposed:
        return None
    partner = partner_map(m)
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
    m = validate_matching(g, m)
    _require_maximum(g, m)
    partner = partner_map(m)
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


# -- brute-force enumeration oracle ------------------------------------------


def enumerate_maximum_matchings(
    g: Graph, cap: int | None = None
) -> tuple[Matching, ...]:
    """All maximum matchings by exhaustive recursion; a desk-scale oracle."""
    check_cap(g.n, cap, DEFAULT_OMEGA_CAP, "maximum-matching enumeration")
    target = brute_max_matching_size(g, cap=cap)
    edges = sorted(g.edges)
    results: list[Matching] = []
    acc: list[Edge] = []

    def rec(start: int, covered: int) -> None:
        if len(acc) == target:
            results.append(frozenset(acc))
            return
        free = g.n - covered.bit_count()
        if len(acc) + min(free // 2, len(edges) - start) < target:
            return
        for i in range(start, len(edges)):
            u, v = edges[i]
            if covered >> u & 1 or covered >> v & 1:
                continue
            acc.append((u, v))
            rec(i + 1, covered | 1 << u | 1 << v)
            acc.pop()

    rec(0, 0)
    results.sort(key=sorted)
    return tuple(results)
