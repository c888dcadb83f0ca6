from __future__ import annotations

import itertools
import random
import time

import pytest

from edgeideals.errors import GraphFormatError, LimitExceeded
from edgeideals.families import (
    attach_path,
    cycle_graph,
    cycle_with_paths,
    random_connected_graph,
    random_graph,
    three_triangles,
)
from edgeideals.graphs import (
    CycleCertificate,
    Graph,
    check_hypotheses,
    dominating_odd_cycles,
    induced_matching_number,
    induced_subgraph,
    is_bipartite,
    minimal_vertex_covers,
    neighborhoods,
    odd_cycles,
    parse_graph_text,
    render_graph_text,
)

from graph_helpers import complete_graph, path_graph

_SEED = 40909


def brute_minimal_covers(g):
    """Reference: scan all vertex subsets for covers minimal by single removal."""
    n, edges = g.vertex_count, g.edges
    out = []
    for r in range(n + 1):
        for sub in itertools.combinations(range(1, n + 1), r):
            s = set(sub)
            if any(u not in s and v not in s for u, v in edges):
                continue
            minimal = all(
                any((u == v0 and v not in s) or (v == v0 and u not in s) for u, v in edges)
                for v0 in s
            )
            if minimal:
                out.append(tuple(sub))
    return set(out)


def brute_induced_matching(g):
    """Reference: scan edge subsets by increasing size."""
    best = 0
    for r in range(1, g.edge_count + 1):
        found = False
        for combo in itertools.combinations(g.edges, r):
            verts = set(v for e in combo for v in e)
            if len(verts) != 2 * r:
                continue
            induced = [e for e in g.edges if e[0] in verts and e[1] in verts]
            if len(induced) == r:
                best = r
                found = True
                break
        if not found:
            break
    return best


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 3)])
    g = Graph(4, [(2, 1), (3, 4)])
    assert g.edges == ((1, 2), (3, 4))
    assert g.neighbors(1) == frozenset({2})


def test_cycle_certificate_validation():
    g = cycle_graph(5)
    c = CycleCertificate.check(g, (2, 3, 4, 5, 1))
    assert c.vertices == (1, 2, 3, 4, 5)
    assert c.is_odd and c.half_length == 2
    with pytest.raises(ValueError):
        CycleCertificate.check(g, (1, 2, 4))
    with pytest.raises(ValueError):
        CycleCertificate.check(g, (1, 2, 1))


def test_minimal_covers_frozen_values():
    cov = minimal_vertex_covers(cycle_graph(5))
    assert not cov.edgeless
    assert cov.covers == (
        (1, 2, 4),
        (1, 3, 4),
        (1, 3, 5),
        (2, 3, 5),
        (2, 4, 5),
    )
    edge = minimal_vertex_covers(Graph(2, [(1, 2)]))
    assert edge.covers == ((1,), (2,))
    lonely = minimal_vertex_covers(Graph(3, []))
    assert lonely.edgeless and lonely.covers == ((),)


def test_minimal_covers_against_brute_force():
    rng = random.Random(_SEED)
    graphs = [cycle_graph(6), complete_graph(4), path_graph(5), three_triangles()[0]]
    graphs += [random_graph(rng, rng.randint(2, 8), 0.4) for _ in range(20)]
    for g in graphs:
        cov = minimal_vertex_covers(g)
        assert set(cov.covers) == brute_minimal_covers(g)
        # shortest first
        assert [len(c) for c in cov.covers] == sorted(len(c) for c in cov.covers)


def test_cover_bound_refusal():
    with pytest.raises(LimitExceeded):
        minimal_vertex_covers(Graph(17, [(1, 2)]))
    with pytest.raises(LimitExceeded):
        minimal_vertex_covers(Graph(9, [(1, 2)]), max_vertices=8)


def test_induced_matching_frozen_and_oracle():
    assert induced_matching_number(cycle_graph(5))[0] == 1
    assert induced_matching_number(path_graph(5))[0] == 2
    rng = random.Random(_SEED + 1)
    graphs = [cycle_graph(7), complete_graph(5), three_triangles()[0]]
    graphs += [random_graph(rng, rng.randint(2, 8), 0.35) for _ in range(20)]
    for g in graphs:
        nu, witness = induced_matching_number(g)
        assert nu == brute_induced_matching(g)
        # the witness really is an induced matching of the right size
        verts = set(v for e in witness for v in e)
        assert len(witness) == nu and len(verts) == 2 * nu
        induced = [e for e in g.edges if e[0] in verts and e[1] in verts]
        assert sorted(induced) == sorted(witness)


def test_bipartite_and_odd_cycle_witness():
    assert is_bipartite(cycle_graph(6))
    assert is_bipartite(path_graph(7))
    assert not is_bipartite(cycle_graph(7))
    rng = random.Random(_SEED + 2)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9), 0.35)
        assert is_bipartite(g) == (not odd_cycles(g).odd_cycles)


def test_odd_cycle_enumeration():
    data = odd_cycles(cycle_graph(5))
    assert len(data.odd_cycles) == 1
    assert data.odd_cycles[0].vertices == (1, 2, 3, 4, 5)
    assert all(data.on_cycle)
    g, _ = cycle_with_paths(5, [(1, 2)])
    data = odd_cycles(g)
    assert [data.vertex_on_cycle(v) for v in g.vertices] == [True] * 5 + [False] * 2
    tri, _ = three_triangles()
    data = odd_cycles(tri)
    lengths = sorted(c.length for c in data.odd_cycles)
    assert lengths == [3, 3, 3, 5]  # three triangles and one long way around
    assert complete_graph(4).edge_count == 6
    assert len(odd_cycles(complete_graph(4)).odd_cycles) == 4  # the four triangles


def test_neighborhoods_union():
    g = attach_path(cycle_graph(5), 1, 1)
    nb = neighborhoods(g, range(1, 6))
    assert nb == frozenset(range(1, 7))  # includes the cycle and the pendant


def test_induced_subgraph_relabels():
    g, _ = cycle_with_paths(5, [(1, 2)])
    sub, amap = induced_subgraph(g, [6, 7, 2])
    assert amap == {2: 1, 6: 2, 7: 3}
    assert sub.edges == ((2, 3),)


def test_check_hypotheses_gap_instances():
    # C_5 with two 2-edge paths hanging off vertex 1
    g, cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    rep = check_hypotheses(g, cert)
    assert rep.n == 2
    assert not rep.dominates_open
    assert rep.h_off_all_cycles
    assert rep.nu_g == 3 and rep.nu_h == 0 and rep.gap_at_least_3

    # C_7 with one 2-edge path
    g7, cert7 = cycle_with_paths(7, [(1, 2)])
    rep7 = check_hypotheses(g7, cert7)
    assert rep7.nu_g == 3 and rep7.nu_h == 0 and rep7.gap_at_least_3

    # plain C_5 dominates itself but has no gap
    c5 = cycle_graph(5)
    rep5 = check_hypotheses(c5, CycleCertificate.check(c5, (1, 2, 3, 4, 5)))
    assert rep5.dominates_open
    assert rep5.nu_h == 0 and rep5.nu_g - rep5.nu_h == 1
    assert not rep5.gap_at_least_3


def test_dominating_odd_cycles():
    assert dominating_odd_cycles(cycle_graph(5))
    assert dominating_odd_cycles(three_triangles()[0])
    assert not dominating_odd_cycles(cycle_with_paths(5, [(1, 2)])[0])
    # bipartite graph has no odd cycles at all: vacuously not dominating
    assert not dominating_odd_cycles(cycle_graph(6))


def test_parse_graph_text_roundtrip_and_errors():
    text = "# sample\nn 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 1 5\n\nc 1 2 3 4 5\n"
    g, cycles = parse_graph_text(text)
    assert g == cycle_graph(5)
    assert cycles == (CycleCertificate.check(g, (1, 2, 3, 4, 5)),)
    again, cycles2 = parse_graph_text(render_graph_text(g, cycles))
    assert again == g and cycles2 == cycles

    for bad, lineno in [
        ("n 2\ne 1 1\n", 2),
        ("n 2\ne 1 2\ne 2 1\n", 3),
        ("n 2\ne 1 3\n", 2),
        ("e 1 2\n", 1),
        ("n 3\nq 1\n", 2),
        ("n 3\ne 1 2\nc 1 2\n", 3),
        ("n 3\ne 1 2\nc 1 2 3\n", 3),
        # a cycle vertex outside 1..n is a format error, not a crash
        ("n 3\ne 1 2\ne 2 3\ne 1 3\nc 7 1 2\n", 5),
        ("n 3\ne 1 2\ne 2 3\ne 1 3\nc 0 1 2\n", 5),
        # numbers are ASCII digits only: no sign, no '_', no other script's
        # digits, and no more digits than int() converts
        ("n 3\ne +1 2\n", 2),
        ("n 3\ne 1_0 2\n", 2),
        ("n 3\ne 3 \u0661\n", 2),
        ("n 3\ne 1 2\ne 2 3\ne 1 3\nc 1 2 \u0663\n", 5),
        ("n 3\ne -1 2\n", 2),
        ("n " + "1" * 5000 + "\n", 1),
        ("n 3\ne " + "1" * 5000 + " 2\n", 2),
        ("n 3\ne 1 2\ne 2 3\ne 1 3\nc 1 2 " + "3" * 5000 + "\n", 5),
    ]:
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_text(bad)
        assert exc.value.line_number == lineno
    # leading zeros are still ASCII digits
    g, cycles = parse_graph_text("n 03\ne 01 2\ne 2 3\ne 1 3\nc 1 02 3\n")
    assert g.edges == ((1, 2), (1, 3), (2, 3)) and cycles[0].length == 3

    # designated cycles must be odd, and all of one length
    c4 = "n 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
    triangle_and_c5 = (
        "n 8\ne 1 2\ne 2 3\ne 1 3\ne 4 5\ne 5 6\ne 6 7\ne 7 8\ne 4 8\n"
    )
    for bad, message in [
        (c4 + "c 1 2 3 4\n", "line 6: designated cycle has even length 4"),
        (
            triangle_and_c5 + "c 1 2 3\nc 4 5 6 7 8\n",
            "line 11: designated cycles have mixed lengths [3, 5]",
        ),
    ]:
        with pytest.raises(GraphFormatError) as exc:
            parse_graph_text(bad)
        assert str(exc.value) == message


def test_parse_graph_text_finds_a_late_duplicate_in_a_long_file():
    # 20,000 edges on 3,000 vertices, then the first edge again, reversed;
    # a duplicate check that rebuilt a set per line took over 10 s here
    n, count = 3000, 20000
    edges = [(a, b) for a in range(1, 8) for b in range(a + 1, n + 1)][:count]
    text = f"n {n}\n" + "".join(f"e {a} {b}\n" for a, b in edges)
    start = time.perf_counter()
    g, _ = parse_graph_text(text, max_vertices=n)
    assert g.edge_count == count
    with pytest.raises(GraphFormatError) as exc:
        parse_graph_text(text + "e 2 1\n", max_vertices=n)
    assert exc.value.line_number == count + 2
    assert str(exc.value) == f"line {count + 2}: duplicate edge (1,2)"
    assert time.perf_counter() - start < 5


def test_random_connected_helpers():
    rng = random.Random(_SEED + 4)
    g = random_connected_graph(rng, 6, 0.4, bipartite=False)
    assert not is_bipartite(g)
    h = random_connected_graph(rng, 6, 0.4, bipartite=True)
    assert is_bipartite(h)
