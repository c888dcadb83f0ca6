from __future__ import annotations

import os
import random
import re
from collections import Counter

import pytest

from edgeideals import evenconnect
from edgeideals.evenconnect import (
    EdgeOrder,
    EvenColonResult,
    colon_via_even_connections,
    enumerate_factorizations,
    even_connections,
    expression_key,
    generator_ordering,
    leaf_peel_order,
    maximal_expression,
    verify_colon_chain,
    verify_leaf_lemma,
    verify_order_lemma,
)
from edgeideals.families import (
    _connected,
    cycle_certificate,
    cycle_graph,
    cycle_with_paths,
    random_connected_graph,
    random_graph,
    three_triangles,
)
from edgeideals.graphs import CycleCertificate, Graph
from edgeideals.monomials import (
    Monomial,
    MonomialIdeal,
    first_difference,
    ideal_colon,
    ideal_sum,
    parse_ideal,
    parse_monomial,
)
from edgeideals.reports import RunConfig
from edgeideals.suites import GraphInstance, _suite_orderings, default_instances
from edgeideals.symbolic import CycleDecomposition, edge_ideal, ordinary_power

from graph_helpers import path_graph

_SEED = 52061
EXTENDED = bool(os.environ.get("EDGEIDEALS_EXTENDED"))


def _mono(text: str, nv: int) -> Monomial:
    return parse_monomial(text, nv)


def two_paths_graph():
    """C_5 with two 2-edge paths hanging at vertex 1 (9 vertices)."""
    return cycle_with_paths(5, [(1, 2), (1, 2)])


def test_enumerate_factorizations_examples():
    c5 = cycle_graph(5)
    facs = enumerate_factorizations(_mono("x1*x2*x3*x4", 5), c5, 2)
    assert [f.edges for f in facs] == [((1, 2), (3, 4))]
    assert facs[0].remainder.is_unit()

    facs = enumerate_factorizations(_mono("x1*x2^2*x3", 5), c5, 2)
    assert [f.edges for f in facs] == [((1, 2), (2, 3))]

    facs = enumerate_factorizations(_mono("x1^2*x2^2", 5), c5, 2)
    assert [f.edges for f in facs] == [((1, 2), (1, 2))]

    assert enumerate_factorizations(_mono("x1^2*x3^2", 5), c5, 2) == []

    # leftover degree is recorded when the monomial is larger than 2s
    facs = enumerate_factorizations(_mono("x1*x2*x4", 5), c5, 1)
    assert [(f.edges, f.remainder.render()) for f in facs] == [(((1, 2),), "x4")]

    unit = enumerate_factorizations(_mono("x3", 5), c5, 0)
    assert len(unit) == 1 and unit[0].edges == ()
    assert unit[0].remainder == _mono("x3", 5)


def test_default_edge_order():
    c5 = cycle_graph(5)
    order = EdgeOrder.for_graph(c5)
    assert order.edges == ((4, 5), (3, 4), (2, 3), (1, 5), (1, 2))
    assert order.variables_by_rank == (0, 1, 2, 3, 4)
    with pytest.raises(ValueError):
        EdgeOrder(((1, 2), (1, 2)), (0, 1), "dup")
    with pytest.raises(ValueError):
        EdgeOrder(((1, 2),), (0, 2), "bad-ranks")


def _edgelex_key(m: Monomial, g: Graph, s: int):
    """A generator's place in the edge-wise lex order: the key of its best expression."""
    order = EdgeOrder.for_graph(g)
    return expression_key(maximal_expression(m, g, s, order), order)


def test_edgelex_paper_example():
    c5 = cycle_graph(5)
    left = maximal_expression(_mono("x4^2*x5^2", 5), c5, 2)
    right = maximal_expression(_mono("x1^2*x5^2", 5), c5, 2)
    assert left.edges == ((4, 5), (4, 5))
    assert right.edges == ((1, 5), (1, 5))
    assert _edgelex_key(_mono("x4^2*x5^2", 5), c5, 2) > _edgelex_key(_mono("x1^2*x5^2", 5), c5, 2)

    # equal edge parts, decided by the leftover factor: x1 beats x2
    a, b = _mono("x1^2*x2", 5), _mono("x1*x2^2", 5)
    assert maximal_expression(a, c5, 1).edges == maximal_expression(b, c5, 1).edges == ((1, 2),)
    assert _edgelex_key(a, c5, 1) > _edgelex_key(b, c5, 1)

    with pytest.raises(ValueError):
        maximal_expression(_mono("x1^2*x3^2", 5), c5, 2)


def test_maximal_expression_prefers_greater_edges():
    c5 = cycle_graph(5)
    # x2x3x4x5 factors as (2,3)(4,5) and (3,4)... only those two pairs;
    # the maximal one leads with the greatest edge (4,5)
    best = maximal_expression(_mono("x2*x3*x4*x5", 5), c5, 2)
    assert set(best.edges) == {(4, 5), (2, 3)}
    with pytest.raises(ValueError):
        maximal_expression(_mono("x1^2*x3^2", 5), c5, 2)


def test_generator_ordering_total_and_consistent():
    c5 = cycle_graph(5)
    us = generator_ordering(c5, 2)
    assert len(us) == len(set(us)) == len(ordinary_power(c5, 2).gens)
    keys = [_edgelex_key(u, c5, 2) for u in us]
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            assert keys[i] > keys[j], (i, j)
    # the greatest generator is the square of the greatest edge
    assert us[0] == _mono("x4^2*x5^2", 5)
    with pytest.raises(ValueError):
        generator_ordering(c5, 0)


def test_even_connections_single_edge_cycle():
    c5 = cycle_graph(5)
    f = enumerate_factorizations(_mono("x1*x2", 5), c5, 1)[0]
    pairs = even_connections(_mono("x1*x2", 5), c5)
    assert pairs == ((1, 2), (1, 5), (2, 3), (3, 5))
    # (3,5) through the walk 3-2-1-5
    assert _walk_pairs(f, c5) == list(pairs)


def test_even_connections_self_pair():
    c5 = cycle_graph(5)
    u = _mono("x1*x2*x3*x4", 5)
    assert (5, 5) in even_connections(u, c5)  # 5-1-2-3-4-5


def test_even_connections_isolated_edge():
    g = Graph(4, [(1, 2), (3, 4)])
    # only the bounce along the edge itself; nothing new for the colon
    assert even_connections(_mono("x1*x2", 4), g) == ((1, 2),)


def _walk_pairs(f, g: Graph, reuse: bool = False, max_steps: int = 0) -> list:
    """Endpoints of every walk p_0, ..., p_(2k+1) with k >= 1, by brute force.

    Steps p_0 p_1, p_2 p_3, ... are graph edges and steps p_1 p_2, ... edges
    of the factorization, each used at most its multiplicity; with `reuse`
    they may repeat freely, up to `max_steps` factorization steps in all.
    """
    left = Counter(f.edges)
    limit = max_steps if reuse else len(f.edges)
    pairs = set()

    def walk(start: int, at: int, steps: int) -> None:
        if steps:
            pairs.add((min(start, at), max(start, at)))
        if steps == limit:
            return
        for e in list(left):
            if at not in e or not (reuse or left[e]):
                continue
            other = e[1] if e[0] == at else e[0]
            left[e] -= 1
            for nxt in g.neighbors(other):
                walk(start, nxt, steps + 1)
            left[e] += 1

    for x in g.vertices:
        for b in g.neighbors(x):
            walk(x, b, 0)
    return sorted(pairs)


def test_even_connections_match_brute_force_walks():
    rng = random.Random(_SEED + 2)
    graphs, disconnected, isolated, compared = [], 0, 0, 0
    for _ in range(24):
        g = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        if g.is_edgeless():
            continue
        touched = {v for e in g.edges for v in e}
        isolated += len(touched) < g.vertex_count
        disconnected += not _connected(g)
        graphs.append(g)
    assert disconnected >= 3 and isolated >= 3, (disconnected, isolated)
    for g in graphs:
        for s in (2, 3, 4):
            gens = list(ordinary_power(g, s - 1).gens)
            e = rng.choice(g.edges)
            gens += [_edge_power(e, k, g.vertex_count) for k in (2, 3) if k <= s - 1]
            for u in gens:
                assert list(even_connections(u, g)) == _union_of_walk_pairs(u, g), (
                    g.edges, u.render()
                )
                compared += 1
    assert compared > 300, compared


def _union_of_walk_pairs(u, g):
    """The brute-force walk pairs of every factorization of u into edges."""
    fs = enumerate_factorizations(u, g, u.degree() // 2)
    return sorted({p for f in fs for p in _walk_pairs(f, g)})


def test_even_connections_of_all_factorizations_match_brute_force():
    # generators with several factorizations and with repeated edges: the
    # pairs of u join those of every factorization
    rng = random.Random(_SEED + 3)
    compared, several, repeated = 0, 0, 0
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(4, 6), 0.7)
        nv = g.vertex_count
        for s in (2, 3, 4, 5):
            gens = list(ordinary_power(g, s - 1).gens)
            gens = rng.sample(gens, min(len(gens), 12))
            for k in (2, 3):  # e^k times s - 1 - k random edges
                if k <= s - 1:
                    exps = list(_edge_power(rng.choice(g.edges), k, nv))
                    for a, b in rng.choices(g.edges, k=s - 1 - k):
                        exps[a - 1] += 1
                        exps[b - 1] += 1
                    gens.append(Monomial(exps))
            for u in gens:
                facs = [f.edges for f in enumerate_factorizations(u, g, s - 1)]
                assert list(even_connections(u, g)) == _union_of_walk_pairs(u, g), (
                    g.edges, u.render()
                )
                compared += 1
                several += len(facs) > 1
                repeated += any(k > 1 for k in Counter(facs[0]).values())
    assert compared > 300 and several > 30 and repeated > 150, (compared, several, repeated)

    # x2*x3*x5*x6 factors as (2,3)(5,6) and as (2,6)(3,5); the closed walk
    # 1-2-3-6-2-1 takes (2,3) from one and (2,6) from the other, so no
    # single factorization even-connects x1 to itself
    g = Graph(7, [(1, 2), (1, 4), (1, 7), (2, 3), (2, 6), (3, 4), (3, 5), (3, 6),
                  (4, 5), (4, 7), (5, 6), (6, 7)])
    fs = enumerate_factorizations(_mono("x2*x3*x5*x6", 7), g, 2)
    assert [f.edges for f in fs] == [((2, 3), (5, 6)), ((2, 6), (3, 5))]
    pairs = even_connections(_mono("x2*x3*x5*x6", 7), g)
    assert (1, 1) not in pairs
    assert list(pairs) == _union_of_walk_pairs(_mono("x2*x3*x5*x6", 7), g)


def _edge_power(e, k: int, nv: int) -> Monomial:
    exps = [0] * nv
    exps[e[0] - 1] = exps[e[1] - 1] = k
    return Monomial(exps)


def test_even_connections_respect_edge_multiplicity():
    # 5-1-2-3-4-2-1-5 would close a walk at 5, but it crosses (1,2) twice
    # and the factorization (1,2)(3,4) holds it once
    g = Graph(5, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4)])
    (f,) = enumerate_factorizations(_mono("x1*x2*x3*x4", 5), g, 2)
    assert f.edges == ((1, 2), (3, 4))
    pairs = even_connections(_mono("x1*x2*x3*x4", 5), g)
    assert (5, 5) not in pairs
    assert list(pairs) == _walk_pairs(f, g)
    assert (5, 5) in _walk_pairs(f, g, reuse=True, max_steps=3)


def test_even_connections_of_a_monomial_that_is_no_product_of_edges():
    # x1*x3 and x1*x2*x4 of C5 are no products of edges (x1*x2*x4 has x1*x2
    # with x4 left over), nor is x1^2 of any graph: no walk, no pair
    c5 = cycle_graph(5)
    for text in ("x1*x3", "x1*x2*x4", "x1^2", "x3", "1"):
        assert even_connections(_mono(text, 5), c5) == (), text
    assert even_connections(_mono("x1*x4", 4), Graph(4, [(1, 2), (3, 4)])) == ()


def test_even_connections_refuse_another_universe():
    c5 = cycle_graph(5)
    for u in (_mono("x1*x2", 4), _mono("x1*x2", 6)):
        with pytest.raises(ValueError, match="^monomial universe does not match the graph$"):
            even_connections(u, c5)
        with pytest.raises(ValueError, match="^monomial universe does not match the graph$"):
            colon_via_even_connections(c5, u, 2)


def _memo_cases():
    """(graph, s, u) for every generator u of I^(s-1), s = 2..4, on C5 and
    three seeded connected graphs."""
    rng = random.Random(_SEED + 6)
    graphs = [cycle_graph(5)] + [random_connected_graph(rng, n, 0.5) for n in (4, 5, 6)]
    return [(g, s, u) for g in graphs for s in (2, 3, 4) for u in ordinary_power(g, s - 1).gens]


def _memo_results(cases):
    out = {}
    for g, s, u in cases:
        # the monomials next to u: u over one of its edges, u times one edge
        near = [Monomial(x - (i in e) for i, x in enumerate(u, 1)) for e in g.edges
                if all(u[v - 1] for v in e)]
        near += [Monomial(x + (i in e) for i, x in enumerate(u, 1)) for e in g.edges[:2]]
        out[g, s, u] = (
            [even_connections(m, g) for m in near],
            even_connections(u, g),
            colon_via_even_connections(g, u, s),
        )
    return out


def test_walk_table_memo_gives_the_fresh_results():
    cases = _memo_cases()
    assert len(cases) > 200, len(cases)
    fresh = {}
    for case in cases:
        evenconnect._walk_table.cache_clear()
        fresh.update(_memo_results([case]))
    # one table per graph, filled by the other graphs, powers and generators
    # first, in both orders
    evenconnect._walk_table.cache_clear()
    assert _memo_results(cases) == fresh
    evenconnect._walk_table.cache_clear()
    assert _memo_results(cases[::-1]) == fresh
    # the order within one graph and power reversed, the table already full
    g, s = cases[-1][:2]
    same = [c for c in cases if c[:2] == (g, s)][::-1]
    assert _memo_results(same) == {c: fresh[c] for c in same}


def test_walk_table_cache_is_bounded():
    info = evenconnect._walk_table.cache_info()
    assert info.maxsize is not None
    for n in range(3, 3 + info.maxsize + 4):
        even_connections(Monomial((1, 1) + (0,) * (n - 2)), cycle_graph(n))
    assert evenconnect._walk_table.cache_info().currsize == info.maxsize
    evenconnect._walk_table.cache_clear()
    assert evenconnect._walk_table.cache_info().currsize == 0


def test_walk_table_drops_its_states_past_the_bound(monkeypatch):
    g = cycle_graph(6)
    gens = ordinary_power(g, 2).gens
    evenconnect._walk_table.cache_clear()
    want = [even_connections(u, g) for u in gens]
    monkeypatch.setattr(evenconnect, "DEFAULT_MAX_STATES", 5)
    evenconnect._walk_table.cache_clear()
    table = evenconnect._walk_table(g)
    kept = []
    for u, pairs in zip(gens, want):
        assert even_connections(u, g) == pairs
        assert evenconnect._walk_table(g) is table
        kept.append(len(table.states))
    # each call adds up to 4 states (u and the u - e: x1*x2*x3*x4 has three
    # edges); past 5 only the empty product 1 is left
    assert max(kept) <= 5 and kept.count(1) > 3, kept
    evenconnect._walk_table.cache_clear()


def _unfiltered_factorizations(m, g, s):
    """The recursion over every edge of g, as it was before it skipped the
    edges outside supp(m)."""
    edges = g.edges
    out, chosen = [], []

    def rec(start, left, k):
        if k == 0:
            out.append(tuple(chosen))
            return
        if sum(left) < 2 * k:
            return
        for idx in range(start, len(edges)):
            u, v = edges[idx]
            if left[u - 1] >= 1 and left[v - 1] >= 1:
                left[u - 1] -= 1
                left[v - 1] -= 1
                chosen.append((u, v))
                rec(idx, left, k - 1)
                chosen.pop()
                left[u - 1] += 1
                left[v - 1] += 1

    rec(0, list(m), s)
    return out


def test_factorizations_match_the_unfiltered_recursion():
    rng = random.Random(_SEED + 7)
    found, several = 0, 0
    for _ in range(5000):
        g = random_graph(rng, rng.randint(2, 8), rng.choice((0.3, 0.5, 0.8)))
        s = rng.randint(0, 4)
        exps = [0] * g.vertex_count
        if g.edges and rng.random() < 0.7:  # a product of s edges, sometimes times more
            for a, b in rng.choices(g.edges, k=s):
                exps[a - 1] += 1
                exps[b - 1] += 1
            extra = rng.randint(0, 2)
        else:
            extra = rng.randint(0, 2 * s + 2)
        for _ in range(extra):
            exps[rng.randrange(g.vertex_count)] += 1
        m = Monomial(exps)
        got = evenconnect._factorizations(m, g, s)
        assert got == _unfiltered_factorizations(m, g, s), (g.edges, m.render(), s)
        found += bool(got)
        several += len(got) > 1
    assert found > 2500 and several > 500, (found, several)


def test_colon_via_even_connections_cycle():
    c5 = cycle_graph(5)
    res = colon_via_even_connections(c5, _mono("x1*x2", 5), 2)
    want = ideal_sum(edge_ideal(c5), parse_ideal("x3*x5", 5))
    assert res.matches
    assert res.direct == want


def test_colon_via_even_connections_forest():
    p3 = path_graph(3)
    res = colon_via_even_connections(p3, _mono("x1*x2", 3), 2)
    assert res.matches
    assert res.direct == edge_ideal(p3)


def test_colon_via_even_connections_deeper():
    c5 = cycle_graph(5)
    res = colon_via_even_connections(c5, _mono("x1*x2*x3*x4", 5), 3)
    assert res.matches
    with pytest.raises(ValueError):
        colon_via_even_connections(c5, _mono("x1*x2", 5), 1)
    with pytest.raises(ValueError):
        colon_via_even_connections(c5, _mono("x1*x2*x3", 5), 2)
    message = re.escape("x1^2*x3^2 is not in I^2 for the edge ideal I")
    with pytest.raises(ValueError, match=message):
        colon_via_even_connections(c5, _mono("x1^2*x3^2", 5), 3)
    # a product of one edge where I^2 needs two
    with pytest.raises(ValueError, match=re.escape("x1*x2 has degree 2, expected 4")):
        colon_via_even_connections(c5, _mono("x1*x2", 5), 3)


def test_walk_built_colon_matches_monomial_sum():
    graphs = [inst.graph for inst in default_instances(RunConfig())]
    graphs.append(Graph(5, [(1, 2), (1, 5), (2, 3), (2, 4), (3, 4)]))
    for g in graphs:
        for s in (2, 3):
            for u in ordinary_power(g, s - 1).gens:
                res = colon_via_even_connections(g, u, s)
                assert res.matches, (g.edges, u.render())
                assert res.direct == _walk_built_colon(g, u), (g.edges, u.render())


def _walk_built_colon(g, u):
    """I plus x_a x_b over the pairs that `even_connections` returns for u."""
    return _pair_colon(g, evenconnect.even_connections(u, g))


def _pair_colon(g, pairs):
    """I plus x_a x_b over the given vertex pairs."""
    nv = g.vertex_count
    extra = []
    for a, b in pairs:
        exps = [0] * nv
        exps[a - 1] += 1
        exps[b - 1] += 1
        extra.append(Monomial(exps))
    return ideal_sum(edge_ideal(g), MonomialIdeal(nv, extra))


@pytest.mark.skipif(not EXTENDED, reason="set EDGEIDEALS_EXTENDED=1 for the s <= 5 sweep")
def test_colons_match_brute_force_walks_up_to_s5():
    # even_connections equals the brute-force walk pairs of every
    # factorization, and the colon rebuilt from them equals the direct colon
    # and colon_via_even_connections' result, on seeded connected graphs
    rng = random.Random(_SEED + 4)
    compared = 0
    for n in (4, 5, 5, 6, 6, 7, 7):
        g = random_connected_graph(rng, n, 0.5)
        for s in (2, 3, 4, 5):
            for u in ordinary_power(g, s - 1).gens:
                res = colon_via_even_connections(g, u, s)
                walks = _union_of_walk_pairs(u, g)
                assert list(even_connections(u, g)) == walks, (g.edges, s, u.render())
                assert res.matches, (g.edges, s, u.render())
                assert res.direct == _pair_colon(g, walks), (g.edges, s, u.render())
                compared += 1
    assert compared > 3000, compared


def _reference_colon_result(g, u, s):
    """The EvenColonResult rebuilt from the minimalized direct colon and
    first_difference."""
    direct = ideal_colon(ordinary_power(g, s), u)
    diff = first_difference(_walk_built_colon(g, u), direct)
    side = None
    if diff is not None:
        side = "walk-built colon only" if diff[1] == "left" else "direct colon only"
    return EvenColonResult(direct, diff is None, None if diff is None else diff[0], side)


@pytest.mark.parametrize(
    "change, patched",
    [
        (lambda real: real, False),
        (lambda real: (), True),
        (lambda real: real[1:], True),
        (lambda real: tuple(sorted({*real, (1, 1)})), True),
    ],
    ids=["unpatched", "no-pairs", "first-pair-dropped", "self-pair-x1"],
)
def test_colon_result_matches_minimalized_reference(monkeypatch, change, patched):
    real = evenconnect.even_connections
    monkeypatch.setattr(evenconnect, "even_connections", lambda u, g: change(real(u, g)))
    rng = random.Random(_SEED + 1)
    graphs = [cycle_graph(5), two_paths_graph()[0]]
    graphs += [random_connected_graph(rng, rng.randint(4, 6), 0.5) for _ in range(4)]
    mismatches = 0
    for g in graphs:
        for s in (2, 3):
            for u in ordinary_power(g, s - 1).gens:
                res = colon_via_even_connections(g, u, s)
                want = _reference_colon_result(g, u, s)
                assert res == want, (g.edges, s, u.render())
                assert res.direct.gens == want.direct.gens
                mismatches += not res.matches
    # a wrong pair set must reach the minimalizing branch at least once
    assert (mismatches > 0) == patched


def test_colon_equivalence_random_graphs():
    rng = random.Random(_SEED)
    for _ in range(5):
        g = random_connected_graph(rng, rng.randint(4, 6), 0.5)
        for u in ordinary_power(g, 1).gens:
            assert colon_via_even_connections(g, u, 2).matches, (g.edges, u.render())
    for _ in range(3):
        g = random_connected_graph(rng, rng.randint(4, 6), 0.5, bipartite=True)
        for u in ordinary_power(g, 2).gens[:6]:
            assert colon_via_even_connections(g, u, 3).matches, (g.edges, u.render())


def test_verify_order_lemma_cycle():
    c5 = cycle_graph(5)
    for s, r in ((1, 0), (2, 0), (1, 1), (2, 1)):
        res = verify_order_lemma(c5, s, r)
        assert res.failure is None, (s, r, res.failure)
        assert res.order.label == "endpoint-descending"
    res = verify_order_lemma(c5, 2, 0)
    assert (res.checked, res.size) == (15 * 14 // 2, 15)


def test_verify_order_lemma_pendant():
    g, _ = cycle_with_paths(5, [(1, 2)])
    res = verify_order_lemma(g, 2, 1)
    assert res.failure is None, res.failure


def test_leaf_peel_order():
    g, cert = cycle_with_paths(5, [(1, 3)])
    cd = CycleDecomposition.from_graph(g, [cert])
    lp = leaf_peel_order(cd)
    assert lp.peeled == (8, 7, 6) or lp.peeled == (8, 7)
    # vertex 6 neighbors the cycle, so it is a y-vertex, not a peel vertex
    assert lp.peeled == (8, 7)
    assert lp.z_index(8) == 1 and lp.z_index(7) == 2
    order = lp.order
    assert order.label == "leaf-peel"
    assert order.edges == (
        (7, 8), (6, 7), (1, 6), (1, 2), (1, 5), (2, 3), (3, 4), (4, 5)
    )
    # variable order: z's by peel, then y, then the cycle walk
    assert order.variables_by_rank == (7, 6, 5, 0, 1, 2, 3, 4)


def test_leaf_peel_rejects_cycles_among_pendant_vertices():
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6), (6, 7), (7, 8), (8, 9), (7, 9)]
    g = Graph(9, edges)
    cert = CycleCertificate.check(g, (1, 2, 3, 4, 5))
    cd = CycleDecomposition.from_graph(g, [cert])
    with pytest.raises(ValueError):
        leaf_peel_order(cd)
    # the suite skips both peel-order rows with the reason
    rows = _suite_orderings(GraphInstance(g, (cert,), "C5+triangle"), RunConfig(s_max=2))
    peel_rows = [r for r in rows if r.check in ("leaf-lemma", "colon-chain")]
    assert len(peel_rows) == 4
    for r in peel_rows:
        assert r.status == "skipped"
        assert "leaf elimination" in r.reason


def _peeled(graph_and_cert):
    g, cert = graph_and_cert
    return g, leaf_peel_order(CycleDecomposition.from_graph(g, [cert]))


def test_verify_leaf_lemma_nonvacuous():
    # pendant branches at two cycle vertices put the peel pair (7,9) at odd
    # distance, so it is even-connected already at s=2 through 7,6,1,2,8,9
    g, lp = _peeled(cycle_with_paths(5, [(1, 2), (2, 2)]))
    res = verify_leaf_lemma(g, lp, 2)
    assert res.failure is None, res.failure
    assert res.checked > 0
    assert res.order.label == "leaf-peel"


def test_verify_leaf_lemma_adjacent_pairs_not_counted():
    # a doubled pendant edge even-connects its endpoints to themselves, but
    # adjacent pairs only restate edge generators and are not checked
    g, lp = _peeled(cycle_with_paths(5, [(1, 3)]))
    res = verify_leaf_lemma(g, lp, 2)
    assert res.failure is None, res.failure
    assert res.checked == 0


def test_verify_leaf_lemma_vacuous_cases():
    g, lp = _peeled(two_paths_graph())
    res = verify_leaf_lemma(g, lp, 2)
    assert res.failure is None
    assert res.checked == 0

    g7, lp7 = _peeled(cycle_with_paths(7, [(1, 2)]))
    res7 = verify_leaf_lemma(g7, lp7, 2)
    assert res7.failure is None
    assert res7.checked == 0


def test_leaf_lemma_and_colon_chain_counts_on_a_triangle_with_two_pendant_paths():
    # a triangle with two pendant 3-paths at vertex 1: the pairs the leaf
    # lemma checks and the colons the chain checks, at s = 1, 2, 3
    g = Graph(9, [(1, 2), (1, 3), (2, 3), (1, 4), (4, 5), (5, 6), (1, 7), (7, 8), (8, 9)])
    cd = CycleDecomposition.from_graph(g, [CycleCertificate.check(g, (1, 2, 3))])
    lp = leaf_peel_order(cd)
    leaf = [verify_leaf_lemma(g, lp, s) for s in (1, 2, 3)]
    chain = [verify_colon_chain(g, cd, s, lp.order) for s in (1, 2, 3)]
    assert [r.failure for r in leaf + chain] == [None] * 6
    assert [r.checked for r in leaf] == [0, 2, 19]
    assert [r.checked for r in chain] == [0, 8, 64]


def test_verify_colon_chain_nonvacuous():
    g, cert = two_paths_graph()
    cd = CycleDecomposition.from_graph(g, [cert])
    res = verify_colon_chain(g, cd, 3, leaf_peel_order(cd).order)
    assert res.failure is None, res.failure
    assert res.checked >= 2


def test_verify_colon_chain_trivial_cases():
    c5 = cycle_graph(5)
    cd5 = CycleDecomposition.from_graph(c5, [cycle_certificate(5)])
    res = verify_colon_chain(c5, cd5, 3, leaf_peel_order(cd5).order)
    assert res.failure is None

    g7, cert7 = cycle_with_paths(7, [(1, 2)])
    cd7 = CycleDecomposition.from_graph(g7, [cert7])
    order7 = leaf_peel_order(cd7).order
    for s in (1, 2, 3):
        res = verify_colon_chain(g7, cd7, s, order7)
        assert res.failure is None
        assert res.checked == 0

    tri, certs = three_triangles()
    cd3 = CycleDecomposition.from_graph(tri, certs)
    with pytest.raises(ValueError, match="single designated cycle"):
        leaf_peel_order(cd3)
