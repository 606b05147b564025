"""A fixed pure-Python kernel that gauges how fast the machine runs at the moment.

Shared machines slow down and speed up by 10-20% over seconds to minutes
as other tenants come and go.  The benchmark times this kernel between
its inputs and scales its timings by how much slower or faster the kernel
ran than its nominal time, so that a run's figures follow the package and
not the neighbours.  The kernel uses none of the package's code: a change
to the package cannot move it.  Its work resembles the package's: bitmask
recursion over small graphs, tuple and set building, and function calls.
"""

from __future__ import annotations

import gc
import random
import time

# The kernel time that counts as nominal speed: about its median when run
# alone on the two-core x86 sandbox where the bounds in BENCHMARK.json were
# set.  It only sets the scale of the reported figures; changing it would
# shift every figure, so it stays fixed.
NOMINAL_S = 0.004


def _graphs(count: int = 6, n: int = 13, p: float = 0.35) -> list[tuple[int, ...]]:
    rng = random.Random(20240601)
    out = []
    for _ in range(count):
        masks = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
        out.append(tuple(masks))
    return out


GRAPHS = _graphs()


def _stable_sets(masks: tuple[int, ...]) -> list[frozenset[int]]:
    n = len(masks)
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


def _walks(masks: tuple[int, ...]) -> int:
    """Count simple paths of up to five edges by depth-first search over
    sorted neighbour tuples, the way the package's alternating searches
    walk a graph."""
    n = len(masks)
    adj = tuple(tuple(sorted(w for w in range(n) if masks[v] >> w & 1)) for v in range(n))
    count = 0
    path: list[int] = []
    seen: set[int] = set()

    def dfs(v: int) -> None:
        nonlocal count
        count += 1
        if len(path) == 5:
            return
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                path.append(w)
                dfs(w)
                path.pop()
                seen.discard(w)

    for v in range(n):
        seen.add(v)
        dfs(v)
        seen.discard(v)
    return count


def kernel() -> int:
    """The fixed work; returns a checksum so nothing is optimised away."""
    total = 0
    for masks in GRAPHS:
        sets = _stable_sets(masks)
        best = max(len(s) for s in sets)
        total += best * len(sets) + len({s for s in sets if len(s) == best})
        total += _walks(masks[:9])
    return total


CHECKSUM = kernel()


def sample() -> float:
    """Seconds one kernel run takes now.  The cyclic garbage collector is
    off meanwhile, so the size of the caller's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        checksum = kernel()
        took = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if checksum != CHECKSUM:
        raise RuntimeError("calibration kernel gave a different checksum")
    return took
