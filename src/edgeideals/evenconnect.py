"""Edge-wise lexicographic ordering, even-connection colons, and the
mechanical ordering and colon-chain checks.

A generator of the s-th power of an edge ideal is a product of s edges,
usually in several ways; each way is an expression.  Expressions are
compared through a fixed total order on the edges, and monomials through
their maximal expressions, which one depth-first search finds as the first
s edges, greatest first, that divide the monomial (`_expression_key`); no
expression is listed.  The colon of consecutive powers is rebuilt from the
even-connected vertex pairs of its generator and compared against the
directly computed colon.  Everything here is exhaustive search over
desk-scale instances.  The checks return data (`LemmaResult`,
`EvenColonResult`); the suites turn it into report rows.

The even-connected pairs of a generator u depend on u alone: they are the
union over u's factorizations into edges, and they come from one dynamic
program over the monomials m that u reaches by removing edges one at a
time (`even_connections`), the products of the sub-multisets of its
factorizations.  Each state holds, as one int, the start vertices whose
walks use exactly the edges of one factorization of m and then step into
each vertex, so every start is followed at once, and the pairs that some
of those walks join.  The states live in a table for the last graph asked
about (`_WalkTable`), keyed by m packed, so the generators and powers of
one graph walk each shared monomial once; every caller finishes one graph
before it starts the next.  After a call the table drops its states once
it holds more than DEFAULT_MAX_STATES.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from .graphs import Graph
from .monomials import (
    _BITS,
    Monomial,
    MonomialIdeal,
    _colon,
    _degree,
    _guard,
    _member,
    _pack,
    _unpack,
    contains,
    first_difference,
    ideal_colon,
    ideal_product,
    ideal_sum,
    variable_power_ideal,
)
from .symbolic import (
    CycleDecomposition,
    _muk_terms,
    edge_ideal,
    layer_index,
    ordinary_power,
)

DEFAULT_MAX_STATES = 100000


@dataclass(frozen=True)
class EdgeOrder:
    """A total order on edges with a companion total order on variables.

    `edges` lists every edge of the host graph, greatest first.
    `variable_rank[i]` ranks 0-based variable i; smaller rank means greater
    variable, used for lexicographic comparison of leftover factors.
    """

    edges: tuple[tuple[int, int], ...]
    variable_rank: tuple[int, ...]
    label: str

    def __post_init__(self):
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("edge order lists an edge twice")
        if sorted(self.variable_rank) != list(range(len(self.variable_rank))):
            raise ValueError("variable ranks must be a permutation")

    @cached_property
    def variables_by_rank(self) -> tuple[int, ...]:
        """0-based variable indices, greatest variable first."""
        n = len(self.variable_rank)
        return tuple(sorted(range(n), key=lambda i: self.variable_rank[i]))

    @classmethod
    def for_graph(cls, g: Graph) -> "EdgeOrder":
        """Default order: edges descending by endpoint pair, x1 > x2 > ..."""
        return cls(
            tuple(sorted(g.edges, reverse=True)),
            tuple(range(g.vertex_count)),
            "endpoint-descending",
        )


@dataclass(frozen=True)
class LeafPeelOrder:
    """Peeling data: the pendant-tree vertices z_1, z_2, ... and the edge order.

    z_i is a leaf of the graph with z_1..z_{i-1} removed and e_i is its
    unique incident edge there.  The edge order puts e_1 > e_2 > ... on
    top and the remaining edges below, compared as monomials under the
    variable order z_1 > ... > z_m > (cycle neighbors) > (cycle walk).
    """

    order: EdgeOrder
    peeled: tuple[int, ...]

    def z_index(self, v: int) -> int:
        """1-based position of v in the peel sequence."""
        return self.peeled.index(v) + 1


def leaf_peel_order(cd: CycleDecomposition) -> LeafPeelOrder:
    if not cd.single_cycle:
        raise ValueError("leaf peeling needs a single designated cycle")
    g = cd.graph
    z_left = set(cd.z_vertices)
    removed: set[int] = set()
    peeled: list[int] = []
    peel_edges: list[tuple[int, int]] = []
    while True:
        pick = None
        for v in sorted(z_left):
            live = [w for w in g.neighbors(v) if w not in removed]
            if len(live) == 1:
                pick = (v, live[0])
                break
        if pick is None:
            break
        v, w = pick
        peeled.append(v)
        peel_edges.append((min(v, w), max(v, w)))
        removed.add(v)
        z_left.discard(v)
    stuck = [
        v
        for v in sorted(z_left)
        if len([w for w in g.neighbors(v) if w not in removed]) >= 2
    ]
    if stuck:
        raise ValueError(f"vertices {stuck} admit no leaf elimination order")
    isolated = sorted(z_left)
    var_seq = peeled + isolated + sorted(cd.y_vertices) + list(cd.cycles[0].vertices)
    rank = [0] * g.vertex_count
    for pos, v in enumerate(var_seq):
        rank[v - 1] = pos
    top = set(peel_edges)
    rest = [e for e in g.edges if e not in top]
    rest.sort(key=lambda e: tuple(sorted((rank[e[0] - 1], rank[e[1] - 1]))))
    order = EdgeOrder(tuple(peel_edges) + tuple(rest), tuple(rank), "leaf-peel")
    return LeafPeelOrder(order, tuple(peeled + isolated))


def _fitted(order: EdgeOrder | None, g: Graph) -> EdgeOrder:
    """`order`, or the default order of g; ValueError when it does not list
    exactly the edges of g or ranks another number of variables."""
    order = order or EdgeOrder.for_graph(g)
    if sorted(order.edges) != list(g.edges) or len(order.variable_rank) != g.vertex_count:
        raise ValueError("edge order does not match the graph")
    return order


def _expression_key(m: Monomial, g: Graph, s: int, order: EdgeOrder):
    """Sort key of m's maximal expression as a product of s edges times a
    leftover: (edge-exponent vector over order.edges, leftover exponents in
    the variable order).

    Tuple comparison of keys is exactly the generator comparison: the edge
    part lexicographically over e_1 > e_2 > ..., ties broken by the
    leftover factor compared lexicographically in the variable order.  The
    search takes the edges greatest first and follows each only by edges no
    greater, so it meets the nondecreasing index sequences in lex order; the
    first s edges whose product divides m have the greatest count vector,
    which fixes the leftover.
    """
    if s < 0:
        raise ValueError("negative power")
    n = g.vertex_count
    if m.nvars != n:
        raise ValueError("monomial universe does not match the graph")
    guard = _guard(n)
    # an edge with an end outside supp(m) never divides what is left; every
    # edge has degree 2, so deg(m) >= 2s is the only degree bound
    edges = [
        (idx, (1 << _BITS * (n - u)) + (1 << _BITS * (n - v)))
        for idx, (u, v) in enumerate(order.edges)
        if m[u - 1] and m[v - 1]
    ]
    chosen: list[int] = []

    def first(start: int, left: int, k: int) -> int | None:
        if k == 0:
            return left
        for at in range(start, len(edges)):
            idx, e = edges[at]
            if (left | guard) - e & guard == guard:
                chosen.append(idx)
                found = first(at, left - e, k - 1)
                if found is not None:
                    return found
                chosen.pop()
        return None

    left = first(0, _pack(m), s) if m.degree() >= 2 * s else None
    if left is None:
        raise ValueError(f"{m.render()} is not in I^{s} for the edge ideal I")
    vec = [0] * len(order.edges)
    for idx in chosen:
        vec[idx] += 1
    rest = left.to_bytes(n, "big")
    return tuple(vec), tuple(rest[i] for i in order.variables_by_rank)


def generator_ordering(
    g: Graph, s: int, r: int = 0, order: EdgeOrder | None = None
) -> tuple[Monomial, ...]:
    """Minimal generators of I^s * m^r, greatest first by their maximal expressions."""
    if s < 1:
        raise ValueError("the edge-power exponent must be at least 1")
    if r < 0:
        raise ValueError("negative tail degree")
    order = _fitted(order, g)
    ideal = ordinary_power(g, s)
    if r:
        ideal = ideal_product(
            ideal, variable_power_ideal(g.vertex_count, range(g.vertex_count), r)
        )
    return tuple(sorted(
        ideal.gens, key=lambda m: _expression_key(m, g, s, order), reverse=True
    ))


class _WalkTable:
    """The walk states of one graph, keyed by packed monomials m.

    For each m met so far `states[m]` holds two ints with bit v * (n + 1) + x
    for vertices v, x.  `into` sets it when some walk from x uses exactly
    the edges of a factorization of m (a multiset of edges whose product is
    m) and then takes one graph step into v; for m = 1 these are the pairs
    of neighbors.  `reach` sets it when some walk through a non-empty
    sub-multiset of a factorization of m joins x to v.  A walk using exactly
    the factorization U ends, after its last step along some e = pq of U,
    at q from the starts that into(m - e) holds at p (and at p from those
    at q); its graph step then reaches the neighbors of that end, which
    gives into(m).  The proper sub-multisets of m's factorizations are the
    sub-multisets of the factorizations of m - e over the edges e dividing
    m, so reach(m) is into(m) together with reach(m - e) for each such e.
    An m that is no product of edges has no factorization and keeps (0, 0).
    """

    __slots__ = ("nvars", "chunk", "edges", "pairs", "upper", "states")

    def __init__(self, g: Graph):
        n = self.nvars = g.vertex_count
        width = n + 1
        self.chunk = (1 << width) - 1
        # starts * spread[v] puts the starts at every neighbor of v
        spread = [0] + [sum(1 << w * width for w in g.neighbors(v)) for v in g.vertices]
        # per edge pq: where its ends sit in the bytes of m and in a state,
        # the neighbors of each end, and the edge's packed product
        self.edges = [
            (p - 1, q - 1, p * width, q * width, spread[p], spread[q],
             (1 << _BITS * (n - p)) + (1 << _BITS * (n - q)))
            for p, q in g.edges
        ]
        # bit a * width + b of the upper triangle a <= b, and its pair
        self.pairs = {a * width + b: (a, b) for a in g.vertices for b in range(a, width)}
        self.upper = sum(1 << bit for bit in self.pairs)
        # with no edge used yet, a walk from x steps into each neighbor v
        into = sum(1 << v * width + x for v in g.vertices for x in g.neighbors(v))
        self.states: dict[int, tuple[int, int]] = {0: (into, 0)}

    def state(self, m: int) -> tuple[int, int]:
        """(into(m), reach(m)), built on first use from the states below it."""
        state = self.states.get(m)
        if state is None:
            chunk, exps = self.chunk, m.to_bytes(self.nvars, "big")
            into = reach = 0
            for i, j, p, q, near_p, near_q, e in self.edges:
                if exps[i] and exps[j]:
                    prev, below = self.states.get(m - e) or self.state(m - e)
                    reach |= below
                    # walks that end along pq at q step on to its neighbors
                    into |= (prev >> p & chunk) * near_q | (prev >> q & chunk) * near_p
            state = self.states[m] = (into, reach | into)
        return state

    def trim(self) -> None:
        """Drop every state but that of m = 1 once more than
        DEFAULT_MAX_STATES are kept."""
        if len(self.states) > DEFAULT_MAX_STATES:
            self.states = {0: self.states[0]}


@lru_cache(maxsize=1)
def _walk_table(g: Graph) -> _WalkTable:
    return _WalkTable(g)


def even_connections(u: Monomial, g: Graph) -> tuple[tuple[int, int], ...]:
    """All vertex pairs joined by a walk through some factorization of u, sorted.

    A walk p_0, ..., p_(2k+1) with k >= 1 takes graph edges at even steps
    (p_0 p_1, p_2 p_3, ...) and factorization edges at odd steps, each at
    most its multiplicity in one factorization of u into edges; vertices may
    repeat.  Pairs are unordered (min endpoint first) and include x = x via
    closed walks.  The pairs of every factorization are joined; there are
    none when u is no product of edges.

    The pairs are reach(u) of the graph's `_WalkTable`, kept for the last
    graph asked about, so the monomials that other generators and powers of
    the same graph share are walked once; past DEFAULT_MAX_STATES states the
    table is emptied after the call.
    """
    if u.nvars != g.vertex_count:
        raise ValueError("monomial universe does not match the graph")
    table = _walk_table(g)
    # a walk read backwards is a walk, so the upper triangle holds every pair
    rest = table.state(_pack(u))[1] & table.upper
    table.trim()
    pairs = table.pairs
    out = []
    while rest:
        low = rest & -rest
        out.append(pairs[low.bit_length() - 1])
        rest ^= low
    return tuple(out)


@dataclass(frozen=True)
class EvenColonResult:
    """Colon of consecutive powers rebuilt from walks vs computed directly."""

    direct: MonomialIdeal
    matches: bool
    witness: Monomial | None
    witness_side: str | None


def colon_via_even_connections(g: Graph, u: Monomial, s: int) -> EvenColonResult:
    """I^s : u for u a generator of I^{s-1}, via even connections.

    Builds I + (x_a x_b over the even-connected pairs of u, x = y allowed)
    and compares it with the direct colon, generated by the quotients g : u
    over the generators g of I^s.  Equality is decided on the row of I^s
    (`_Row.quotients_generate`) without forming the quotients: u * x_a x_b must
    be a generator for every edge and pair ab, and every generator must
    reach u_a + 1 in x_a and u_b + 1 in x_b for one of them (u_a + 2 when
    a = b).  That test is exact here: I^s is generated in degree 2s and
    deg u = 2s - 2, so x_a x_b is a quotient g : u only when g = u * x_a x_b.
    Only when it fails are the quotients split, the direct colon
    minimalized and a witness sought.
    """
    if s < 2:
        raise ValueError("the colon comparison needs s >= 2")
    if u.degree() != 2 * (s - 1):
        raise ValueError(
            f"{u.render()} has degree {u.degree()}, expected {2 * (s - 1)}"
        )
    if u.nvars != g.vertex_count:
        raise ValueError("monomial universe does not match the graph")
    pu = _pack(u)
    if pu not in ordinary_power(g, s - 1).row.members:
        raise ValueError(
            f"{u.render()} is not in I^{s - 1} for the edge ideal I"
        )
    nv = g.vertex_count
    pairs = {(a - 1, b - 1) for a, b in (*g.edges, *even_connections(u, g))}
    # distinct monomials of degree 2 divide none of each other: descending
    # packed order is already canonical
    built = MonomialIdeal._from_minimal(nv, sorted(
        {(1 << _BITS * (nv - 1 - a)) + (1 << _BITS * (nv - 1 - b)) for a, b in pairs},
        reverse=True,
    ))
    row = ordinary_power(g, s).row
    if row.quotients_generate(pu, pairs):
        direct, diff = built, None
    else:
        direct = MonomialIdeal._from_packed(nv, row.split(row.quotients(pu)))
        diff = first_difference(built, direct)
    matches = diff is None
    witness = None if matches else diff[0]
    side = None
    if not matches:
        side = "walk-built colon only" if diff[1] == "left" else "direct colon only"
    return EvenColonResult(direct=direct, matches=matches, witness=witness, witness_side=side)


@dataclass(frozen=True)
class LemmaResult:
    """What an ordering-lemma check covered, and its first failure as data.

    `checked` counts the ordered generator pairs, even-connected pendant
    pairs or colon checks tested (up to the failure, if any) over `size`
    generators, or layers for the colon chain.  `failure` is None when the
    lemma held, and otherwise:

    - order lemma: (j, k, u_j, u_k, u_j : u_k), positions 1-based;
    - leaf lemma: (u_t, a, b, z): the pair (x_a, x_b) and the variable x_z
      that no greater generator's colon with u_t equals;
    - colon chain: (layer, u, partial, q, m, missing): q is the colon of the
      previous layer (of the running partial sum when `partial`) by u, and m
      breaks its shape, as a variable of L absent from q when `missing`.
    """

    order: EdgeOrder
    checked: int
    size: int
    failure: tuple | None = None


def verify_order_lemma(
    g: Graph, s: int, r: int = 0, order: EdgeOrder | None = None
) -> LemmaResult:
    """Pairwise colon discipline along the constructed generator order.

    For every j < k either (u_j : u_k) stays inside I^(s+1) : u_k, or some
    earlier generator's colon with u_k is a single variable dividing the
    quotient u_j / gcd(u_j, u_k).
    """
    order = order or EdgeOrder.for_graph(g)
    us = generator_ordering(g, s, r, order)
    nv = g.vertex_count
    guard = _guard(nv)
    packed = [_pack(u) for u in us]
    higher = ordinary_power(g, s + 1).row
    for k in range(1, len(us)):
        uk = packed[k]
        colons = [_colon(uj, uk, guard) for uj in packed[:k]]
        variables = {q for q in colons if _degree(q, nv) == 1}  # earlier u_i : u_k
        for j, w in enumerate(colons):
            # w * u_k = lcm(u_j, u_k), so no exponent can overflow
            if _member(w, variables, guard) or higher.member(w + uk):
                continue
            failure = (j + 1, k + 1, us[j], us[k], _unpack(w, nv))
            return LemmaResult(order, k * (k - 1) // 2 + j + 1, len(us), failure)
    return LemmaResult(order, len(us) * (len(us) - 1) // 2, len(us))


def verify_leaf_lemma(g: Graph, lp: LeafPeelOrder, s: int) -> LemmaResult:
    """Colon witnesses for even-connected pendant-tree vertex pairs.

    For every generator u_t of I^s and every even-connected pair of distinct
    non-adjacent peel vertices (z_i, z_j) with respect to some factorization
    of u_t, a greater generator u_p must exist with (u_p : u_t) generated by
    z_min{i,j}.  Adjacent pairs only reproduce edge generators of the colon
    and carry no ordering content, so they are not checked: a doubled pendant
    edge is even-connected to itself through a bounce walk yet admits no
    strictly greater companion.
    """
    order = lp.order
    us = generator_ordering(g, s, 0, order)
    zset = set(lp.peeled)
    nv = g.vertex_count
    guard = _guard(nv)
    packed = [_pack(u) for u in us]
    checked = 0
    for t, ut in enumerate(us):
        earlier = None  # the colons u_p : u_t for p < t, built on first use
        for a, b in even_connections(ut, g):
            if a == b or a not in zset or b not in zset or g.has_edge(a, b):
                continue
            checked += 1
            k_min = min(lp.z_index(a), lp.z_index(b))
            z = lp.peeled[k_min - 1]
            if earlier is None:
                earlier = {_colon(up, packed[t], guard) for up in packed[:t]}
            if 1 << _BITS * (nv - z) not in earlier:
                return LemmaResult(order, checked, len(us), (ut, a, b, z))
    return LemmaResult(order, checked, len(us))


def _shape_violation(
    q: MonomialIdeal, base: MonomialIdeal, required: MonomialIdeal
) -> tuple[Monomial, bool] | None:
    """None when q == base + (variables) with every generator of `required`
    among those variables; else the first offending monomial, paired with
    True when it is a missing generator of `required`."""
    variables = [m for m in q.gens if m.degree() == 1]
    rebuilt = ideal_sum(base, MonomialIdeal(q.nvars, variables))
    if rebuilt != q:
        return first_difference(q, rebuilt)[0], False
    missing = [m for m in required.gens if m not in set(variables)]
    if missing:
        return missing[0], True
    return None


def verify_colon_chain(
    g: Graph, cd: CycleDecomposition, s: int, order: EdgeOrder
) -> LemmaResult:
    """Layer-by-layer colon structure of the symbolic-power decomposition.

    Two families of checks per layer i = 1..k: the previous layer coloned
    by each new generator equals I plus variables containing L, and the
    running partial sums coloned by the layer's generators (taken in the
    constructed order) keep that same shape.  Needs a single designated
    cycle; `order` is its leaf-peel order.
    """
    order = _fitted(order, g)
    k, _ = layer_index(s, cd.n)
    ideal = edge_ideal(g)
    terms = _muk_terms(g, cd, s)
    checks = 0
    partial = terms[0]
    for i in range(1, k + 1):
        prev_term, cur_term = terms[i - 1], terms[i]
        for f in cur_term.gens:
            if contains(prev_term, f):
                continue
            checks += 1
            q = ideal_colon(prev_term, f)
            bad = _shape_violation(q, ideal, cd.L)
            if bad is not None:
                return LemmaResult(order, checks, k, (i, f, False, q, *bad))
        # walk the layer generators in edgelex order against the partial sums
        running: list[Monomial] = []
        for u in sorted(
            cur_term.gens, key=lambda f: _expression_key(f, g, s - i, order), reverse=True
        ):
            base = ideal_sum(partial, MonomialIdeal(g.vertex_count, running))
            if contains(base, u):
                running.append(u)
                continue
            checks += 1
            q = ideal_colon(base, u)
            bad = _shape_violation(q, ideal, cd.L)
            if bad is not None:
                return LemmaResult(order, checks, k, (i, u, True, q, *bad))
            running.append(u)
        partial = ideal_sum(partial, cur_term)
    return LemmaResult(order, checks, k)
