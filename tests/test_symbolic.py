from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from edgeideals.errors import LimitExceeded
from edgeideals.families import (
    _connected,
    cycle_certificate,
    cycle_graph,
    cycle_with_paths,
    random_graph,
    three_triangles,
)
from edgeideals.graphs import CycleCertificate, Graph, minimal_vertex_covers
from edgeideals.monomials import (
    Monomial,
    MonomialIdeal,
    alpha_degree,
    contains,
    ideal_intersection,
    ideal_power,
    intersect_with_m_power,
    monomials_of_degree,
    parse_ideal,
    parse_monomial,
    variable_power_ideal,
)
from edgeideals.reports import RunConfig
from edgeideals.suites import default_instances
from edgeideals.symbolic import (
    CycleDecomposition,
    alpha_formula,
    asymptotic_invariants,
    containment_check,
    decompose_symbolic,
    edge_ideal,
    layer_index,
    m2s_identities,
    ordinary_power,
    symbolic_power,
)

from graph_helpers import complete_graph, connected_bipartite_graphs

_SEED = 61553


def cover_degree_member(m: Monomial, g: Graph, s: int) -> bool:
    """Reference: membership by summing exponents over each minimal cover."""
    covers = minimal_vertex_covers(g)
    if covers.edgeless:
        return False
    return all(sum(m[v - 1] for v in w) >= s for w in covers.covers)


def test_edge_ideal_frozen():
    ideal = edge_ideal(cycle_graph(5))
    assert ideal.render() == "(x1*x2, x1*x5, x2*x3, x3*x4, x4*x5)"
    assert edge_ideal(Graph(3, [])).is_zero


def test_ordinary_power_counts():
    base = edge_ideal(cycle_graph(5))
    assert ordinary_power(cycle_graph(5), 1) == base
    sq = ordinary_power(cycle_graph(5), 2)
    # 5 squares plus C(5,2) products, no divisibilities among them
    assert len(sq.gens) == 15
    assert sq == ideal_power(base, 2)
    assert ordinary_power(cycle_graph(5), 0).is_unit
    with pytest.raises(ValueError):
        ordinary_power(cycle_graph(5), -1)


def test_symbolic_power_small_cases():
    g = cycle_graph(5)
    assert symbolic_power(g, 1) == edge_ideal(g)
    assert symbolic_power(g, 2) == ordinary_power(g, 2)
    mu = parse_monomial("x1*x2*x3*x4*x5", 5)
    third = symbolic_power(g, 3)
    assert contains(third, mu)
    assert not contains(ordinary_power(g, 3), mu)
    expected = parse_ideal(
        ", ".join([m.render() for m in ordinary_power(g, 3).gens] + ["x1*x2*x3*x4*x5"]),
        5,
    )
    assert third == expected
    with pytest.raises(ValueError):
        symbolic_power(g, 0)
    assert symbolic_power(Graph(4, []), 2).is_zero


def _pairwise_cover_fold(g: Graph, s: int) -> MonomialIdeal:
    """Reference I^(s): pairwise-lcm intersection of (W)^s over the minimal covers."""
    covers = minimal_vertex_covers(g)
    if covers.edgeless:
        return MonomialIdeal.zero(g.vertex_count)
    out = None
    for w in covers.covers:
        prime = variable_power_ideal(g.vertex_count, [v - 1 for v in w], s)
        out = prime if out is None else ideal_intersection(out, prime)
    return out


def test_symbolic_power_matches_pairwise_cover_fold():
    graphs = [i.graph for i in default_instances(RunConfig())] + [complete_graph(6)]
    rng = random.Random(_SEED + 1)
    disconnected = isolated = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 8), rng.choice((0.3, 0.5, 0.7)))
        touched = {v for e in g.edges for v in e}
        isolated += len(touched) < g.vertex_count
        disconnected += not _connected(g)
        graphs.append(g)
    assert disconnected >= 5 and isolated >= 5, (disconnected, isolated)
    for g in graphs:
        for s in range(1, 5):
            got = symbolic_power(g, s)
            assert got.packed == _pairwise_cover_fold(g, s).packed, (g.edges, s)


def test_symbolic_power_limits():
    with pytest.raises(LimitExceeded):
        symbolic_power(Graph(2, [(1, 2)]), 128)
    for s in (1, 2, 5, 128):
        assert symbolic_power(Graph(3, []), s).is_zero


def test_symbolic_membership_against_cover_oracle():
    rng = random.Random(_SEED)
    graphs = [cycle_graph(5), cycle_graph(7), three_triangles()[0]]
    for g in graphs:
        for s in (1, 2, 3):
            ideal = symbolic_power(g, s)
            pool = list(monomials_of_degree(g.vertex_count, 2 * s))
            rng.shuffle(pool)
            for m in pool[:120]:
                want = cover_degree_member(m, g, s)
                assert contains(ideal, m) == want


def test_bipartite_powers_coincide():
    # on bipartite graphs every symbolic power is the ordinary one
    seen = 0
    for g in connected_bipartite_graphs(5):
        for s in (2, 3):
            assert symbolic_power(g, s) == ordinary_power(g, s)
        seen += 1
    assert seen > 5


def test_cycle_decomposition_classification():
    g, cert = cycle_with_paths(5, [(1, 2)])
    cd = CycleDecomposition.from_graph(g, [cert])
    assert cd.n == 2 and cd.single_cycle
    assert cd.y_vertices == (6,) and cd.z_vertices == (7,)
    assert cd.mu.render() == "x1*x2*x3*x4*x5"
    assert cd.K.render() == "(x7)"
    assert cd.L.render() == "(x1, x2, x3, x4, x5, x6)"

    tri, certs = three_triangles()
    cd3 = CycleDecomposition.from_graph(tri, certs)
    assert cd3.n == 1 and not cd3.single_cycle
    assert len(cd3.mu_list) == 3
    assert cd3.z_vertices == () and cd3.y_vertices == ()
    with pytest.raises(ValueError):
        cd3.mu

    with pytest.raises(ValueError):
        CycleDecomposition.from_graph(tri, [])
    c5 = cycle_graph(5)
    with pytest.raises(ValueError):
        # mixed lengths are rejected
        CycleDecomposition.from_graph(
            tri, [certs[0], CycleCertificate.check(tri, (1, 2, 4, 3, 5))]
        )
    with pytest.raises(ValueError):
        CycleDecomposition.from_graph(c5, [cycle_certificate(7)])


def test_layer_index():
    assert layer_index(3, 2) == (1, 0)
    assert layer_index(5, 2) == (1, 2)
    assert layer_index(6, 2) == (2, 0)
    assert layer_index(2, 1) == (1, 0)


@pytest.mark.parametrize(
    "make,s_values",
    [
        (lambda: (cycle_graph(5), [cycle_certificate(5)]), (1, 2, 3, 4)),
        (lambda: (cycle_graph(7), [cycle_certificate(7)]), (1, 2, 3, 4)),
        (lambda: (three_triangles()[0], three_triangles()[1]), (1, 2, 3)),
        (
            lambda: (
                cycle_with_paths(5, [(1, 2)])[0],
                [cycle_with_paths(5, [(1, 2)])[1]],
            ),
            (1, 2, 3),
        ),
    ],
)
def test_decomposition_matches_symbolic(make, s_values):
    g, certs = make()
    cd = CycleDecomposition.from_graph(g, certs)
    for s in s_values:
        got = decompose_symbolic(g, cd, s)
        assert got.k == s // (cd.n + 1)
        assert got.matches, (s, got.witness, got.witness_side)
        assert got.witness is None
        assert got.total == symbolic_power(g, s)


def test_m2s_identities_cycle():
    g = cycle_graph(5)
    cd = CycleDecomposition.from_graph(g, [cycle_certificate(5)])
    for s in (2, 3, 4):
        rep = m2s_identities(g, cd, s)
        assert rep.jm_ok and rep.jm_witness is None
        assert rep.muk_ok and rep.muk_witness is None
        assert rep.all_odd_cycles_dominating
        assert rep.power_ok and rep.power_witness is None
        assert intersect_with_m_power(symbolic_power(g, s), 2 * s) == ordinary_power(g, s)


def test_m2s_identities_with_pendant_path():
    g, cert = cycle_with_paths(5, [(1, 2)])
    cd = CycleDecomposition.from_graph(g, [cert])
    rep = m2s_identities(g, cd, 3)
    assert rep.jm_ok and rep.muk_ok
    assert not rep.all_odd_cycles_dominating
    assert rep.power_ok is None and rep.power_witness is None
    # here I^(3) cap m^6 strictly contains I^3: mu*x7 is new
    extra = parse_monomial("x1*x2*x3*x4*x5*x7", 7)
    assert contains(intersect_with_m_power(symbolic_power(g, 3), 6), extra)
    assert not contains(ordinary_power(g, 3), extra)


def test_m2s_identities_multi_cycle():
    tri, certs = three_triangles()
    cd = CycleDecomposition.from_graph(tri, certs)
    for s in (2, 3):
        rep = m2s_identities(tri, cd, s)
        assert rep.jm_ok
        assert rep.muk_ok is None and rep.muk_witness is None
        assert rep.all_odd_cycles_dominating
        assert rep.power_ok


def test_alpha_formula_frozen():
    assert [alpha_formula(s, 2) for s in range(1, 7)] == [2, 4, 5, 7, 9, 10]
    assert [alpha_formula(s, 1) for s in range(1, 5)] == [2, 3, 5, 6]


def test_asymptotic_invariants():
    g = cycle_graph(5)
    cd = CycleDecomposition.from_graph(g, [cycle_certificate(5)])
    inv = asymptotic_invariants(g, cd, 4)
    assert inv.formula_ok
    assert dict(inv.alpha_by_s) == {1: 2, 2: 4, 3: 5, 4: 7}
    assert inv.waldschmidt == Fraction(5, 3)
    assert inv.resurgence == Fraction(6, 5)

    g7 = cycle_graph(7)
    cd7 = CycleDecomposition.from_graph(g7, [cycle_certificate(7)])
    inv7 = asymptotic_invariants(g7, cd7, 4)
    assert inv7.formula_ok
    assert inv7.waldschmidt == Fraction(7, 4)
    assert inv7.resurgence == Fraction(8, 7)


def test_containment_grid():
    g = cycle_graph(5)
    for s, t in itertools.product(range(1, 5), range(1, 4)):
        chk = containment_check(g, s, t)
        assert chk.agree, (s, t)
        assert chk.contained == (
            alpha_degree(symbolic_power(g, s)) >= alpha_degree(ordinary_power(g, t))
        )
    assert containment_check(g, 3, 2).contained
    assert not containment_check(g, 3, 3).contained
