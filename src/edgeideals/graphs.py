"""Finite simple graphs and the exhaustive combinatorial searches used here.

Vertices are labelled 1..n.  Every search in this module (covers, cycles,
induced matchings, partitions) is exhaustive and exact, guarded by a hard
vertex-count bound (default 16) that raises LimitExceeded instead of
silently degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GraphFormatError, LimitExceeded

DEFAULT_MAX_VERTICES = 16


class Graph:
    """An undirected simple graph on vertices 1..vertex_count (no loops)."""

    __slots__ = ("vertex_count", "edges", "_adj")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()):
        n = int(vertex_count)
        if n < 0:
            raise ValueError("negative vertex count")
        norm: list[tuple[int, int]] = []
        seen = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            norm.append(key)
        self.vertex_count = n
        self.edges = tuple(sorted(norm))
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(s) for v, s in adj.items()}

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, frozenset())

    @property
    def vertices(self) -> range:
        return range(1, self.vertex_count + 1)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def is_edgeless(self) -> bool:
        return not self.edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, edges={list(self.edges)})"


@dataclass(frozen=True)
class CycleCertificate:
    """A simple cycle given by its vertex sequence (closing edge implied)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def is_odd(self) -> bool:
        return self.length % 2 == 1

    @property
    def half_length(self) -> int:
        """n for an odd cycle of length 2n+1."""
        if not self.is_odd:
            raise ValueError("half_length is only defined for odd cycles")
        return (self.length - 1) // 2

    @classmethod
    def check(cls, g: Graph, vertices: Sequence[int]) -> "CycleCertificate":
        vs = tuple(int(v) for v in vertices)
        if len(vs) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in cycle {vs}")
        for v in vs:
            if not 1 <= v <= g.vertex_count:
                raise ValueError(f"cycle vertex {v} outside 1..{g.vertex_count}")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if b not in g.neighbors(a):
                raise ValueError(f"cycle edge ({a},{b}) is not an edge of the graph")
        return cls(_canonical_cycle(vs))


def _canonical_cycle(vs: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate to start at the minimum vertex, direction with smaller successor."""
    i = vs.index(min(vs))
    rot = vs[i:] + vs[:i]
    fwd = rot
    rev = (rot[0],) + tuple(reversed(rot[1:]))
    return fwd if fwd[1] < rev[1] else rev


def _check_bound(g: Graph, max_vertices: int) -> None:
    if g.vertex_count > max_vertices:
        raise LimitExceeded(
            f"graph has {g.vertex_count} vertices, exhaustive search bound is {max_vertices}"
        )


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the given vertices plus the old->new index map.

    New labels are 1..k following the sorted order of the chosen vertices.
    """
    chosen = sorted(set(int(v) for v in vertices))
    for v in chosen:
        if not 1 <= v <= g.vertex_count:
            raise ValueError(f"vertex {v} not in graph")
    old_to_new = {v: i + 1 for i, v in enumerate(chosen)}
    keep = set(chosen)
    edges = [
        (old_to_new[u], old_to_new[v]) for u, v in g.edges if u in keep and v in keep
    ]
    return Graph(len(chosen), edges), old_to_new


def neighborhoods(g: Graph, vertices: Iterable[int]) -> frozenset:
    """Union of open neighborhoods of a vertex set.

    For the vertex set of a cycle this already contains the cycle itself,
    so the open and closed conventions agree there.
    """
    out: set[int] = set()
    for v in vertices:
        out |= g.neighbors(v)
    return frozenset(out)


def _adjacency_masks(g: Graph) -> list[int]:
    """masks[v] has bit u set when vertices u+1 and v+1 are adjacent (u, v 0-based)."""
    masks = [0] * g.vertex_count
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return masks


@dataclass(frozen=True)
class CoverSet:
    """All minimal vertex covers, shortest first, and the edgeless flag."""

    covers: tuple[tuple[int, ...], ...]
    edgeless: bool


def minimal_vertex_covers(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> CoverSet:
    """Every inclusion-minimal vertex cover, via maximal independent sets.

    An edgeless graph has the single empty cover (flagged).
    """
    _check_bound(g, max_vertices)
    n = g.vertex_count
    if g.is_edgeless():
        return CoverSet(covers=((),), edgeless=True)
    adj = _adjacency_masks(g)
    full = (1 << n) - 1
    mis: list[int] = []

    def bron_kerbosch(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            mis.append(r)
            return
        # maximal cliques of the complement graph; pivot keeps the branching small
        pool = p | x
        pivot = max(_bits(pool), key=lambda v: (p & ~adj[v] & ~(1 << v)).bit_count())
        cand = p & (adj[pivot] | (1 << pivot))
        for v in _bits(cand):
            vb = 1 << v
            compat = ~adj[v] & ~vb & full
            bron_kerbosch(r | vb, p & compat, x & compat)
            p &= ~vb
            x |= vb

    bron_kerbosch(0, full, 0)
    covers = sorted(
        set(tuple(i + 1 for i in _bits(full & ~s)) for s in mis),
        key=lambda c: (len(c), c),
    )
    return CoverSet(covers=tuple(covers), edgeless=False)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def induced_matching_number(
    g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """nu(G) with a witness induced matching, by exhaustive recursion.

    An induced matching is a set of edges whose endpoint set induces exactly
    those edges; equivalently pairwise disjoint edges with no connecting edge.
    """
    _check_bound(g, max_vertices)
    n = g.vertex_count
    adj = _adjacency_masks(g)
    full = (1 << n) - 1
    memo: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}

    def best(mask: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        got = memo.get(mask)
        if got is not None:
            return got
        pick = -1
        for v in _bits(mask):
            if adj[v] & mask:
                pick = v
                break
        if pick < 0:
            memo[mask] = (0, ())
            return memo[mask]
        vb = 1 << pick
        size, witness = best(mask & ~vb)
        for u in _bits(adj[pick] & mask):
            rest = mask & ~(adj[pick] | adj[u] | vb | (1 << u))
            s2, w2 = best(rest)
            if s2 + 1 > size:
                size = s2 + 1
                witness = ((pick + 1, u + 1),) + w2
        memo[mask] = (size, witness)
        return memo[mask]

    nu, witness = best(full)
    return nu, tuple(sorted(tuple(sorted(e)) for e in witness))


def is_bipartite(g: Graph) -> bool:
    """Whether G has a proper two-colouring: each vertex is coloured when the
    search first reaches it, and an edge inside one colour refutes it."""
    color: dict[int, int] = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


@dataclass(frozen=True)
class CycleData:
    odd_cycles: tuple[CycleCertificate, ...]
    on_cycle: tuple[bool, ...]  # indexed by vertex-1, true when on ANY simple cycle

    def vertex_on_cycle(self, v: int) -> bool:
        return self.on_cycle[v - 1]


def odd_cycles(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> CycleData:
    """Enumerate all simple cycles; report the odd ones and per-vertex flags."""
    _check_bound(g, max_vertices)
    cycles: list[tuple[int, ...]] = []
    adj = {v: sorted(g.neighbors(v)) for v in g.vertices}

    def dfs(start: int, v: int, path: list[int], visited: set[int]) -> None:
        for w in adj[v]:
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in visited:
                visited.add(w)
                path.append(w)
                dfs(start, w, path, visited)
                path.pop()
                visited.remove(w)

    for s in g.vertices:
        dfs(s, s, [s], {s})

    on = [False] * g.vertex_count
    for c in cycles:
        for v in c:
            on[v - 1] = True
    odd = sorted(
        (CycleCertificate(_canonical_cycle(c)) for c in cycles if len(c) % 2 == 1),
        key=lambda c: (c.length, c.vertices),
    )
    return CycleData(odd_cycles=tuple(odd), on_cycle=tuple(on))


@dataclass(frozen=True)
class HypothesesReport:
    """Structural facts about (G, C) used by the regularity statements."""

    n: int
    dominates_open: bool
    h_off_all_cycles: bool
    nu_g: int
    nu_h: int
    gap_at_least_3: bool


def check_hypotheses(
    g: Graph, c: CycleCertificate, max_vertices: int = DEFAULT_MAX_VERTICES
) -> HypothesesReport:
    """Dominance and nu-gap data for a designated odd cycle.

    The neighborhood is the union of open neighborhoods of V(C); for a
    cycle's vertex set it already contains V(C), so it is the closed one too.
    """
    c = CycleCertificate.check(g, c.vertices)
    if not c.is_odd:
        raise ValueError("designated cycle must be odd")
    nbhd = neighborhoods(g, c.vertices)
    all_vs = frozenset(g.vertices)
    h_vertices = tuple(sorted(all_vs - nbhd))
    h_graph, _ = induced_subgraph(g, h_vertices)
    cyc = odd_cycles(g, max_vertices)
    off = all(not cyc.vertex_on_cycle(v) for v in h_vertices)
    nu_g, _ = induced_matching_number(g, max_vertices)
    nu_h, _ = induced_matching_number(h_graph, max_vertices)
    return HypothesesReport(
        n=c.half_length,
        dominates_open=nbhd == all_vs,
        h_off_all_cycles=off,
        nu_g=nu_g,
        nu_h=nu_h,
        gap_at_least_3=nu_g - nu_h >= 3,
    )


def dominating_odd_cycles(g: Graph, max_vertices: int = DEFAULT_MAX_VERTICES) -> bool:
    """Whether g has an odd cycle and every simple odd cycle's neighborhood
    covers all vertices."""
    cycles = odd_cycles(g, max_vertices).odd_cycles
    all_vs = frozenset(g.vertices)
    return bool(cycles) and all(neighborhoods(g, c.vertices) == all_vs for c in cycles)


def parse_graph_text(
    text: str, max_vertices: int = DEFAULT_MAX_VERTICES
) -> tuple[Graph, tuple[CycleCertificate, ...]]:
    """Parse the graph text format: 'n <count>', 'e <u> <v>', 'c <v1> ... <vk>'.

    Blank lines and '#' comments are ignored.  Each 'c' line must be an odd
    cycle of the graph, all of one length.  Errors carry line numbers.  A
    count above max_vertices raises LimitExceeded at its line, before any
    graph is built.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    cycle_lines: list[tuple[int, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag, args = parts[0], parts[1:]
        if tag == "n":
            if n is not None:
                raise GraphFormatError(lineno, "duplicate n line")
            if len(args) != 1 or not (args[0].isascii() and args[0].isdigit()):
                raise GraphFormatError(lineno, "expected 'n <count>'")
            n = int(args[0])
            if n > max_vertices:
                raise LimitExceeded(
                    f"line {lineno}: {n} vertices exceed the {max_vertices} cap"
                )
        elif tag == "e":
            if n is None:
                raise GraphFormatError(lineno, "edge before n line")
            if len(args) != 2:
                raise GraphFormatError(lineno, "expected 'e <u> <v>'")
            try:
                u, v = int(args[0]), int(args[1])
            except ValueError:
                raise GraphFormatError(lineno, "edge endpoints must be integers")
            if u == v:
                raise GraphFormatError(lineno, f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphFormatError(lineno, f"edge ({u},{v}) outside 1..{n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(lineno, f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            edges.append(key)
        elif tag == "c":
            if n is None:
                raise GraphFormatError(lineno, "cycle before n line")
            try:
                vs = tuple(int(a) for a in args)
            except ValueError:
                raise GraphFormatError(lineno, "cycle vertices must be integers")
            if len(vs) < 3:
                raise GraphFormatError(lineno, "cycle needs at least 3 vertices")
            cycle_lines.append((lineno, vs))
        else:
            raise GraphFormatError(lineno, f"unknown line tag {tag!r}")
    if n is None:
        raise GraphFormatError(0, "missing n line")
    g = Graph(n, edges)
    certs = []
    for lineno, vs in cycle_lines:
        try:
            cert = CycleCertificate.check(g, vs)
        except ValueError as exc:
            raise GraphFormatError(lineno, str(exc))
        if not cert.is_odd:
            raise GraphFormatError(lineno, f"designated cycle has even length {cert.length}")
        if certs and cert.length != certs[0].length:
            lengths = sorted({certs[0].length, cert.length})
            raise GraphFormatError(lineno, f"designated cycles have mixed lengths {lengths}")
        certs.append(cert)
    return g, tuple(certs)


def render_graph_text(g: Graph, cycles: Sequence[CycleCertificate] = ()) -> str:
    lines = [f"n {g.vertex_count}"]
    lines += [f"e {u} {v}" for u, v in g.edges]
    lines += ["c " + " ".join(str(v) for v in c.vertices) for c in cycles]
    return "\n".join(lines) + "\n"
