"""Reference computations the benchmark checks `edgeideals` against.

Everything here is written from the definitions, by brute force, and uses
nothing from `edgeideals`.  Graphs are given as a vertex count n and a list
of edges (u, v) with 1 <= u < v <= n; monomials are exponent tuples of
length n.  The closed forms are the published ones the checker's results
must agree with:

- Jacques: reg I(C_n) = nu + 2 if n = 2 mod 3, else nu + 1, nu = floor(n/3);
- Beyarslan-Ha-Trung: reg I(C_n)^s = 2s + nu(C_n) - 1 for s >= 2, and
  reg I(F)^s = 2s + nu(F) - 1 for a forest F with at least one edge;
- alpha(I^(s)) = 2s - floor(s/(n+1)) for the designated-cycle class with
  cycles of length 2n+1.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

Edge = tuple[int, int]


def minimal_vertex_covers(n: int, edges: Sequence[Edge]) -> list[frozenset]:
    """Every inclusion-minimal vertex cover, by testing all 2^n subsets."""
    covers = []
    for mask in range(1 << n):
        if not _covers(mask, edges):
            continue
        if any(mask >> (v - 1) & 1 and _covers(mask & ~(1 << (v - 1)), edges)
               for v in range(1, n + 1)):
            continue
        covers.append(frozenset(v for v in range(1, n + 1) if mask >> (v - 1) & 1))
    return covers


def _covers(mask: int, edges: Sequence[Edge]) -> bool:
    return all(mask >> (u - 1) & 1 or mask >> (v - 1) & 1 for u, v in edges)


def in_symbolic_power(exps: Sequence[int], covers: Iterable[frozenset], s: int) -> bool:
    """m in I^(s) iff m lies in (W)^s for every minimal cover W."""
    return all(sum(exps[v - 1] for v in w) >= s for w in covers)


def in_ordinary_power(exps: Sequence[int], edges: Sequence[Edge], s: int) -> bool:
    """m in I^s iff some product of s edges (with repeats) divides m."""
    left = list(exps)

    def search(start: int, need: int) -> bool:
        if need == 0:
            return True
        for i in range(start, len(edges)):
            u, v = edges[i]
            if left[u - 1] and left[v - 1]:
                left[u - 1] -= 1
                left[v - 1] -= 1
                found = search(i, need - 1)
                left[u - 1] += 1
                left[v - 1] += 1
                if found:
                    return True
        return False

    return search(0, s)


def edge_products(n: int, edges: Sequence[Edge], s: int) -> set[tuple[int, ...]]:
    """The distinct products of s edges; they all have degree 2s, so they
    are exactly the minimal generators of I^s."""
    out = set()
    for combo in itertools.combinations_with_replacement(edges, s):
        exps = [0] * n
        for u, v in combo:
            exps[u - 1] += 1
            exps[v - 1] += 1
        out.add(tuple(exps))
    return out


def induced_matching_number(n: int, edges: Sequence[Edge]) -> int:
    """nu(G): the largest set of edges no two of which share a vertex or are
    joined by an edge, by exhaustive search over edge subsets."""
    adjacent = {(u, v) for u, v in edges} | {(v, u) for u, v in edges}

    def compatible(e: Edge, f: Edge) -> bool:
        return all(a != b and (a, b) not in adjacent for a in e for b in f)

    best = 0

    def grow(start: int, chosen: list[Edge]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for i in range(start, len(edges)):
            if all(compatible(edges[i], f) for f in chosen):
                chosen.append(edges[i])
                grow(i + 1, chosen)
                chosen.pop()

    grow(0, [])
    return best


def shortest_odd_cycle(n: int, edges: Sequence[Edge]) -> tuple[int, ...] | None:
    """Vertices of a shortest odd cycle (the least in lexicographic order of
    the sorted vertex tuple among the shortest), or None if G is bipartite.
    Exhaustive over simple paths, so only for small graphs."""
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    best: tuple[int, ...] | None = None

    def walk(path: list[int]) -> None:
        nonlocal best
        head = path[-1]
        for w in nbrs[head]:
            if w == path[0] and len(path) >= 3 and len(path) % 2 == 1:
                found = tuple(sorted(path))
                if best is None or (len(found), found) < (len(best), best):
                    best = found
            elif w > path[0] and w not in path:
                if best is None or len(path) + 1 <= len(best):
                    path.append(w)
                    walk(path)
                    path.pop()

    for start in range(1, n + 1):
        walk([start])
    return best


def jacques_cycle_regularity(n: int) -> int:
    """reg I(C_n) (Jacques): nu + 2 when n = 2 mod 3, else nu + 1."""
    nu = n // 3
    return nu + 2 if n % 3 == 2 else nu + 1


def cycle_power_regularity(n: int, s: int) -> int:
    """reg I(C_n)^s: Jacques at s = 1, Beyarslan-Ha-Trung 2s + nu - 1 after."""
    if s == 1:
        return jacques_cycle_regularity(n)
    return 2 * s + n // 3 - 1


def forest_power_regularity(nu: int, s: int) -> int:
    """reg I(F)^s = 2s + nu(F) - 1 (Beyarslan-Ha-Trung), for every s >= 1."""
    return 2 * s + nu - 1


def alpha_closed_form(s: int, n: int) -> int:
    """alpha(I^(s)) = 2s - floor(s/(n+1)) for cycles of length 2n+1."""
    return 2 * s - s // (n + 1)


def divides(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def is_connected(n: int, edges: Sequence[Edge]) -> bool:
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_bipartite(n: int, edges: Sequence[Edge]) -> bool:
    """Two-colouring by breadth-first search."""
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    colour: dict[int, int] = {}
    for root in range(1, n + 1):
        if root in colour:
            continue
        colour[root] = 0
        queue = [root]
        for v in queue:
            for w in nbrs[v]:
                if w not in colour:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    return False
    return True
