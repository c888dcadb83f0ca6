"""Construction helpers for the graph families of the instance catalog and the
seeded suites."""

from __future__ import annotations

import random
from typing import Sequence

from .graphs import CycleCertificate, Graph, is_bipartite


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    return Graph(k, edges)


def cycle_certificate(k: int) -> CycleCertificate:
    return CycleCertificate.check(cycle_graph(k), tuple(range(1, k + 1)))


def attach_path(g: Graph, at: int, length: int) -> Graph:
    """Append a pendant path of `length` edges at an existing vertex."""
    if not 1 <= at <= g.vertex_count:
        raise ValueError(f"vertex {at} not in graph")
    n = g.vertex_count
    edges = list(g.edges)
    prev = at
    for i in range(1, length + 1):
        edges.append((prev, n + i))
        prev = n + i
    return Graph(n + length, edges)


def cycle_with_paths(k: int, attachments: Sequence[tuple[int, int]]) -> tuple[Graph, CycleCertificate]:
    """Odd cycle C_k with pendant paths; attachments are (cycle vertex, edge count)."""
    g = cycle_graph(k)
    for at, length in attachments:
        g = attach_path(g, at, length)
    return g, CycleCertificate.check(g, tuple(range(1, k + 1)))


def three_triangles() -> tuple[Graph, tuple[CycleCertificate, ...]]:
    """Clique sum of three triangles: a central one sharing an edge with each ear.

    Vertices 1,2,3 form the central triangle; 4 completes a triangle on the
    edge (2,3); 5 completes one on the edge (1,3).
    """
    g = Graph(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (3, 5)])
    cycles = (
        CycleCertificate.check(g, (1, 2, 3)),
        CycleCertificate.check(g, (2, 4, 3)),
        CycleCertificate.check(g, (1, 3, 5)),
    )
    return g, cycles


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)


def _connected(g: Graph) -> bool:
    if g.vertex_count == 0:
        return True
    seen = {1}
    stack = [1]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def random_connected_graph(
    rng: random.Random, n: int, p: float, bipartite: bool | None = None
) -> Graph:
    """Rejection-sample a connected graph, optionally (non-)bipartite."""
    for _ in range(10000):
        g = random_graph(rng, n, p)
        if not _connected(g):
            continue
        if bipartite is not None and is_bipartite(g) != bipartite:
            continue
        return g
    raise RuntimeError(f"no admissible random graph found (n={n}, p={p})")
