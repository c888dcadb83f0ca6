"""Graph families that only the tests use: paths, complete graphs, random
forests and the exhaustive connected bipartite enumeration."""

from __future__ import annotations

import random

from edgeideals.families import _connected
from edgeideals.graphs import Graph, is_bipartite


def path_graph(k: int) -> Graph:
    """Path on k vertices (k - 1 edges)."""
    return Graph(k, [(i, i + 1) for i in range(1, k)])


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)])


def random_forest(rng: random.Random, n: int) -> Graph:
    """Random labelled forest: each vertex beyond the first may attach backwards."""
    edges = []
    for v in range(2, n + 1):
        if rng.random() < 0.8:
            edges.append((rng.randint(1, v - 1), v))
    return Graph(n, edges)


def connected_bipartite_graphs(n: int):
    """Yield every connected bipartite graph on exactly n labelled vertices."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph(n, edges)
        if _connected(g) and is_bipartite(g):
            yield g
