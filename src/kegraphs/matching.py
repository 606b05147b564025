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

The private searches read a matching as a partner list, each vertex's
mate or -1 where it is exposed (_match_list), the package's one partner
form.  A caller's matching is validated once, by the public function that
receives it, and converted once; a matching the package made reaches
_has_blossom or _flower_and_posy as a partner list unvalidated (for
Facts.matching, the list Facts.partner holds), and the latter still
proves it maximum.  No search writes to the list it is given.

Whether a blossom, a flower or a posy exists is decided in polynomial time
by alternating-tree searches (has_blossom, has_flower, has_posy).  The
searches read the graph's ascending neighbor tuples directly; has_posy's
last search runs on neighbor tuples built for it, not on a new Graph.
has_blossom and has_posy search for bases only among the vertices of the
components of the graph that are not bipartite, since a blossom is an odd
cycle through its base; has_posy tries only the matched ones among them,
as a posy's path starts and ends with a heavy edge at its two bases.  The
private searches take that list from their caller: it is
_odd_component_vertices, read off the package's one BFS 2-colouring,
graph._colour_components.  The public tests colour the graph once per
call, and analysis.Facts reads the list off the one colouring it keeps
per graph.
Each search skips a root with fewer than two matched neighbors other than
its mate, since a base's two light cycle edges end at such vertices.  The
exhaustive walkers that list blossoms and find a concrete flower or posy,
the oracle those tests are checked against, live in bruteforce, as does
the enumeration of every maximum matching.  Everything here runs in
polynomial time, so no routine in this module has a size cap.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .graph import Edge, Graph, GraphError, _colour_components, normalize_edge

Matching = frozenset[Edge]
# Each vertex's neighbors in ascending order, as Graph keeps them.
Adjacency = Sequence[tuple[int, ...]]


def validate_matching(g: Graph, pairs: Iterable[Edge]) -> Matching:
    """Normalize pairs and check they form a matching of g; endpoints
    must be ints that are not bools, as Graph's are, and are never
    coerced."""
    edges = set()
    covered: set[int] = set()
    for u, v in pairs:
        if not (type(u) is int and type(v) is int):
            raise GraphError(f"pair ({u!r}, {v!r}) has an endpoint that is not an integer")
        e = normalize_edge(u, v)
        # the range test comes first: a negative id must not index the masks
        if not (0 <= e[0] and e[1] < g.n and g._masks[e[0]] >> e[1] & 1):  # noqa: SLF001
            raise GraphError(f"pair {e} is not an edge of the graph")
        if e[0] in covered or e[1] in covered:
            raise GraphError(f"edges share a vertex at {e}")
        covered.update(e)
        edges.add(e)
    return frozenset(edges)


def _match_list(g: Graph, m: Matching) -> list[int]:
    """Each vertex's partner under m, -1 where exposed."""
    match = [-1] * g.n
    for u, v in m:
        match[u] = v
        match[v] = u
    return match


def exposed_vertices(g: Graph, m: Iterable[Edge]) -> frozenset[int]:
    """Vertices covered by no edge of the matching."""
    partner = _match_list(g, validate_matching(g, m))
    return frozenset(v for v in g.vertices() if partner[v] == -1)


# -- maximum matching (blossom shrinking) -----------------------------------


def maximum_matching(g: Graph) -> Matching:
    """A maximum matching, deterministic for a given graph."""
    adj = g._adj  # noqa: SLF001 - hot path inside the package
    n = g.n
    match = [-1] * n
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            _augment_from(adj, v, match)
    return frozenset((v, match[v]) for v in range(n) if match[v] > v)


def matching_number(g: Graph) -> int:
    return len(maximum_matching(g))


def _augment_from(adj: Adjacency, root: int, match: list[int]) -> tuple[bool, bool]:
    """Edmonds search from the exposed root over the ascending neighbor
    tuples adj: whether it augmented match (in place) and whether it shrank
    an odd cycle on the way."""
    n = len(adj)
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    queue = deque([root])
    finish = -1
    shrank = False
    while queue and finish == -1:
        v = queue.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and parent[match[to]] != -1):
                # v and to lie in the same alternating tree: an odd cycle
                # closed; shrink it to its base.
                cur = _cycle_base(match, base, parent, v, to)
                _shrink(match, base, parent, in_queue, queue, v, to, cur)
                shrank = True
            elif parent[to] == -1:
                parent[to] = v
                if match[to] == -1:
                    finish = to
                    break
                if not in_queue[match[to]]:
                    in_queue[match[to]] = True
                    queue.append(match[to])
    if finish == -1:
        return False, shrank
    v = finish
    while v != -1:
        pv = parent[v]
        nxt = match[pv]
        match[v] = pv
        match[pv] = v
        v = nxt
    return True, shrank


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


def has_blossom(g: Graph, m: Iterable[Edge]) -> bool:
    """Whether some blossom exists relative to the matching m.

    m may be any matching, maximum or not.  The test is exact and
    polynomial: one Edmonds alternating-tree search per candidate base r,
    in the graph with r's partner and every other exposed vertex deleted.
    The candidates are the vertices of the non-bipartite components of g
    (_odd_component_vertices), as a blossom is an odd cycle through its
    base, matched or exposed; on a bipartite graph no search runs.
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
    return _has_blossom(g, _match_list(g, validate_matching(g, m)), _odd_vertices(g))


def _has_blossom(g: Graph, partner: list[int], odd: list[int]) -> bool:
    """has_blossom of the partner list of a matching the package made, not
    validated again; only the vertices in odd, those of the non-bipartite
    components, are tried as bases."""
    adj = g._adj  # noqa: SLF001 - hot path inside the package
    return any(_closes_blossom_at(adj, partner, r) for r in odd)


def _closes_blossom_at(adj: Adjacency, matched: list[int], root: int) -> bool:
    """Edmonds search from root with root the only exposed vertex left.

    A root with fewer than two neighbors that are matched and are not its
    mate is no base, and is answered without a search: a base has two
    light cycle edges, and the far end of each is a cycle vertex other
    than the base, so it is covered by a heavy cycle edge; that edge is
    not the base's own heavy edge, which is off the cycle."""
    mate = matched[root]
    light = 0
    for w in adj[root]:
        if matched[w] != -1 and w != mate:
            light += 1
    if light < 2:
        return False
    n = len(adj)
    match = matched[:]
    if mate != -1:
        match[mate] = match[root] = -1
    # the live vertices are root and those still matched: root's mate and
    # every other exposed vertex are deleted
    parent = [-1] * n
    base = list(range(n))
    in_queue = [False] * n
    in_queue[root] = True
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for to in adj[v]:
            mt = match[to]
            if (mt == -1 and to != root) or base[v] == base[to] or mt == v:
                continue
            if to == root or parent[mt] != -1:
                cur = _cycle_base(match, base, parent, v, to)
                if cur == root:
                    return True
                _shrink(match, base, parent, in_queue, queue, v, to, cur)
            elif parent[to] == -1:
                # every live vertex but root is matched: no augmenting path
                parent[to] = v
                if not in_queue[mt]:
                    in_queue[mt] = True
                    queue.append(mt)
    return False


def _require_maximum(g: Graph, partner: list[int]) -> bool:
    """Berge: the matching is maximum exactly when no exposed vertex starts
    an augmenting path, so one failed search per exposed vertex proves it.
    Returns whether any of those searches shrank an odd cycle, which is
    has_flower's answer.  The searches run on a copy: an augmenting one
    rewrites it, and partner may be the list Facts shares."""
    adj = g._adj  # noqa: SLF001 - hot path inside the package
    match = partner[:]
    shrank = False
    for root in range(g.n):
        if match[root] == -1:
            augmented, cycle = _augment_from(adj, root, match)
            if augmented:
                size = (g.n - partner.count(-1)) // 2
                raise GraphError(f"matching of size {size} is not maximum")
            shrank |= cycle
    return shrank


def has_flower(g: Graph, m: Iterable[Edge]) -> bool:
    """Whether some flower exists relative to the maximum matching m.

    Exact and polynomial: a flower exists exactly when the alternating BFS
    without shrinking from some exposed root r finds a light edge joining
    two outer vertices (r itself is outer).  That edge closes a real
    blossom whose base is where the two tree paths meet, and the tree path
    from r to that base is an even stem.  Conversely, every vertex of a
    flower's cycle is reachable from its stem's exposed end by an even
    alternating path, so Edmonds' search from there marks them all outer
    and some light cycle edge joins two outer vertices.

    That BFS is not run: the searches that prove m maximum answer it.  Up
    to its first shrink, an Edmonds search from an exposed root makes the
    same moves as the BFS, with the same queue order and neighbor order:
    no vertex has merged, so a vertex is outer exactly when it is the root
    or its partner has a tree parent, and no augmenting path exists.  It
    shrinks at exactly the edge where the BFS finds two outer vertices
    joined, so the flag _require_maximum returns is the answer.
    """
    return _require_maximum(g, _match_list(g, validate_matching(g, m)))


def has_posy(g: Graph, m: Iterable[Edge]) -> bool:
    """Whether some posy exists relative to the maximum matching m.

    Exact and polynomial.  Take the matched blossom bases (one Edmonds
    search per candidate, as in has_blossom), drop every edge at an
    exposed vertex, and add two new vertices s and t, each joined to every
    base.  A posy path b1 -heavy- ... -heavy- b2 with b1 != b2 is then
    exactly an augmenting path s b1 ... b2 t, and with s and t the only
    reachable exposed vertices one Edmonds search from s decides whether
    one exists.  That search runs on neighbor tuples built for it, with s
    and t numbered last so that each tuple stays ascending; no Graph is
    built.

    Only the matched vertices of the odd components (_odd_component_vertices)
    are searched as bases.  A blossom is an odd cycle through its base, so
    its base lies in a component of g that is not bipartite; the search
    from a candidate is exact, so trying more candidates than the bases
    finds the same bases.
    """
    partner = _match_list(g, validate_matching(g, m))
    _require_maximum(g, partner)
    return _has_posy(g, partner, _odd_vertices(g))


def _odd_component_vertices(components: list[tuple[list[int], bool]]) -> list[int]:
    """The vertices, ascending, of the components that are not bipartite,
    read off the components graph._colour_components returns."""
    return sorted(v for component, odd in components if odd for v in component)


def _odd_vertices(g: Graph) -> list[int]:
    """_odd_component_vertices of g, from a colouring of its own."""
    return _odd_component_vertices(_colour_components(g._adj)[1])  # noqa: SLF001


def _has_posy(g: Graph, match: list[int], odd: list[int]) -> bool:
    adj = g._adj  # noqa: SLF001 - hot path inside the package
    bases = [r for r in odd if match[r] != -1 and _closes_blossom_at(adj, match, r)]
    if len(bases) < 2:
        return False
    n = g.n
    ends = (n, n + 1)  # s and t
    is_base = set(bases)
    posy_adj = [
        tuple([w for w in adj[v] if match[w] != -1]) + (ends if v in is_base else ())
        if match[v] != -1
        else ()
        for v in range(n)
    ]
    posy_adj += [tuple(bases)] * 2
    return _augment_from(posy_adj, n, match + [-1, -1])[0]


def _flower_and_posy(g: Graph, partner: list[int], odd: list[int]) -> tuple[bool, bool]:
    """has_flower and has_posy of the partner list of a maximum matching the
    package made, not validated again but proved maximum once for both; the
    proof's searches give the flower answer.  odd is the graph's
    _odd_component_vertices."""
    flower = _require_maximum(g, partner)
    return flower, _has_posy(g, partner, odd)
