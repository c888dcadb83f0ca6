"""Tests of the benchmark's reference computations on hand-checked cases.

    python3 -m pytest -q bench/test_reference.py
"""

import itertools

import reference as ref

TRIANGLE = (3, [(1, 2), (1, 3), (2, 3)])
P3 = (3, [(1, 2), (2, 3)])
C4 = (4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def cycle(k):
    return (k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def path(k):
    return (k, [(i, i + 1) for i in range(1, k)])


def test_minimal_vertex_covers():
    assert sorted(map(sorted, ref.minimal_vertex_covers(*P3))) == [[1, 3], [2]]
    assert sorted(map(sorted, ref.minimal_vertex_covers(*TRIANGLE))) == [[1, 2], [1, 3], [2, 3]]
    assert sorted(map(sorted, ref.minimal_vertex_covers(*C4))) == [[1, 3], [2, 4]]
    assert ref.minimal_vertex_covers(2, []) == [frozenset()]
    assert len(ref.minimal_vertex_covers(*cycle(5))) == 5


def test_symbolic_and_ordinary_membership():
    covers = ref.minimal_vertex_covers(*TRIANGLE)
    edges = TRIANGLE[1]
    assert ref.in_symbolic_power((1, 1, 1), covers, 2)
    assert not ref.in_ordinary_power((1, 1, 1), edges, 2)
    assert ref.in_ordinary_power((2, 1, 1), edges, 2)
    assert not ref.in_symbolic_power((1, 1, 0), covers, 2)
    assert ref.in_ordinary_power((0, 0, 0), edges, 0)


def test_symbolic_equals_ordinary_on_bipartite_c4():
    n, edges = C4
    covers = ref.minimal_vertex_covers(n, edges)
    for s in (1, 2, 3):
        for exps in itertools.product(range(s + 1), repeat=n):
            assert ref.in_symbolic_power(exps, covers, s) == ref.in_ordinary_power(exps, edges, s)


def test_edge_products():
    assert len(ref.edge_products(*TRIANGLE, 2)) == 6
    assert len(ref.edge_products(*C4, 2)) == 9          # x1x2*x3x4 == x1x4*x2x3
    assert ref.edge_products(*P3, 1) == {(1, 1, 0), (0, 1, 1)}


def test_induced_matching_number():
    assert ref.induced_matching_number(2, []) == 0
    assert ref.induced_matching_number(*TRIANGLE) == 1
    assert ref.induced_matching_number(*path(4)) == 1
    assert ref.induced_matching_number(*path(5)) == 2
    assert [ref.induced_matching_number(*cycle(k)) for k in (5, 6, 9)] == [1, 2, 3]


def test_shortest_odd_cycle():
    assert ref.shortest_odd_cycle(*TRIANGLE) == (1, 2, 3)
    assert ref.shortest_odd_cycle(*C4) is None
    assert ref.shortest_odd_cycle(*cycle(7)) == tuple(range(1, 8))
    n, edges = cycle(5)
    assert ref.shortest_odd_cycle(n, edges + [(1, 3)]) == (1, 2, 3)


def test_graph_predicates():
    assert ref.is_bipartite(*C4) and not ref.is_bipartite(*TRIANGLE)
    assert ref.is_connected(*P3) and not ref.is_connected(3, [(1, 2)])


def test_closed_forms():
    # reg I(C_n) for n = 3..9: linear resolutions for n <= 4, then Jacques
    assert [ref.jacques_cycle_regularity(k) for k in range(3, 10)] == [2, 2, 3, 3, 3, 4, 4]
    assert ref.cycle_power_regularity(5, 1) == 3
    assert ref.cycle_power_regularity(5, 2) == 4
    assert ref.cycle_power_regularity(9, 2) == 6
    assert ref.forest_power_regularity(1, 1) == 2      # one edge: I = (x1 x2)
    assert ref.forest_power_regularity(1, 3) == 6      # I^3 = (x1^3 x2^3)
    assert [ref.alpha_closed_form(s, 2) for s in (1, 2, 3)] == [2, 4, 5]
    assert [ref.alpha_closed_form(s, 1) for s in (1, 2, 3, 4)] == [2, 3, 5, 6]


def test_cycle_product_separates_powers():
    # the odd-cycle product lies in I^(k+1) but not in I^(k+1)'s ordinary power
    for k in (1, 2, 3):
        n, edges = cycle(2 * k + 1)
        mu = (1,) * n
        assert ref.in_symbolic_power(mu, ref.minimal_vertex_covers(n, edges), k + 1)
        assert not ref.in_ordinary_power(mu, edges, k + 1)
