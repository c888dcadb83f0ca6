from __future__ import annotations

import itertools
import random
from functools import reduce
from operator import and_, or_

import pytest

from edgeideals import betti
from edgeideals.betti import (
    betti_table,
    hochster_betti_table,
    lcm_closure,
    quotient_regularity,
    regularity,
    socle_regularity,
)
from edgeideals.errors import LimitExceeded
from edgeideals.families import (
    complete_graph,
    cycle_graph,
    cycle_with_paths,
    path_graph,
    random_connected_graph,
    random_forest,
    three_triangles,
)
from edgeideals.graphs import induced_matching_number, render_graph_text
from edgeideals.homology import reduced_homology
from edgeideals.monomials import (
    Monomial,
    MonomialIdeal,
    _guard,
    _pack,
    _quotient_supports,
    _unpack,
    _variables,
    alpha_degree,
    contains,
    ideal_power,
    ideal_sum,
    parse_ideal,
    parse_monomial,
    variable_power_ideal,
)
from edgeideals.symbolic import edge_ideal, ordinary_power, symbolic_power

_SEED = 90217


def _upper_koszul_faces(a: MonomialIdeal, b: Monomial) -> list[tuple[int, ...]]:
    """Faces t of supp(b) with x^(b-t) in a, by direct membership tests."""
    faces = []
    for r in range(len(b.support()) + 1):
        for sub in itertools.combinations(b.support(), r):
            reduced = list(b)
            for i in sub:
                reduced[i] -= 1
            if contains(a, Monomial(reduced)):
                faces.append(sub)
    return faces


def _engine_complex(a: MonomialIdeal, b: Monomial):
    """The engine's full complex at b, as faces, and whether its core is pruned."""
    supports = _quotient_supports(_pack(b), a.packed, _guard(a.nvars))
    facets = betti._facets(supports)
    faces = [_variables(f, a.nvars) for f in betti._faces(facets)]
    return faces, betti._contractible(betti._core(facets))


def test_upper_koszul_small_cases():
    a = parse_ideal("x1", 1)
    x1 = parse_monomial("x1", 1)
    assert _upper_koszul_faces(a, x1) == [()]
    assert _engine_complex(a, x1) == ([()], False)
    assert reduced_homology([()]) == {-1: 1}

    b = parse_ideal("x1*x2", 2)
    assert _engine_complex(b, parse_monomial("x1*x2", 2)) == ([()], False)
    # off a generator multidegree the complex is a cone (here: on x1)
    off = parse_monomial("x1^2*x2", 2)
    faces, pruned = _engine_complex(b, off)
    assert sorted(faces) == sorted(_upper_koszul_faces(b, off)) == [(), (0,)]
    assert pruned and reduced_homology(faces) == {}

    tri = edge_ideal(complete_graph(3))
    top = parse_monomial("x1*x2*x3", 3)
    faces, pruned = _engine_complex(tri, top)
    assert sorted(faces) == sorted(_upper_koszul_faces(tri, top))
    assert sorted(len(f) for f in faces) == [0, 1, 1, 1]
    assert not pruned
    assert reduced_homology(faces) == {0: 2}

    # supports {x1,x2}, {x3} and {x2,x3}: the non-maximal {x3} misses the apex x2
    # that both facets share, so the cone is found on the facets only
    three = parse_ideal("x1*x2*x3^2, x1^2*x2^2, x1^2*x2*x3", 3)
    b = parse_monomial("x1^2*x2^2*x3^2", 3)
    faces, pruned = _engine_complex(three, b)
    assert sorted(faces) == sorted(_upper_koszul_faces(three, b))
    assert pruned and reduced_homology(faces) == {}


def test_lcm_closure_triangle():
    tri = edge_ideal(complete_graph(3))
    got = lcm_closure(tri)
    assert [_unpack(p, 3) for p in got] == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    with pytest.raises(LimitExceeded):
        lcm_closure(edge_ideal(cycle_graph(5)), cap=3)


def test_triangle_betti_table():
    tri = edge_ideal(complete_graph(3))
    table = betti_table(tri)
    assert table.graded() == {(0, 2): 3, (1, 3): 2}
    assert (1, parse_monomial("x1*x2*x3", 3), 2) in table.entries
    assert table.regularity == 2
    assert max(i for i, _, _ in table.entries) == 1
    assert sum(r for (i, _), r in table.graded().items() if i == 0) == 3


def test_betti_rows_zero_iff_minimal_generator():
    rng = random.Random(_SEED)
    ideals = [
        edge_ideal(cycle_graph(5)),
        ordinary_power(cycle_graph(4), 2),
        parse_ideal("x1^2, x1*x2, x2^3", 2),
    ]
    for _ in range(6):
        gens = [
            Monomial((rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)))
            for _ in range(rng.randint(1, 5))
        ]
        gens = [g for g in gens if g.degree() > 0]
        if gens:
            ideals.append(MonomialIdeal(3, tuple(gens)))
    for a in ideals:
        table = betti_table(a)
        row0 = {b: r for i, b, r in table.entries if i == 0}
        assert set(row0) == set(a.gens)
        assert all(r == 1 for r in row0.values())
        assert sum(r for (i, _), r in table.graded().items() if i == 0) == len(a.gens)


def test_regularity_frozen_values():
    assert regularity(parse_ideal("x1*x2", 4)) == 2
    assert regularity(parse_ideal("x1^2*x2^3", 2)) == 5
    assert regularity(parse_ideal("x1^2, x1*x2, x2^2", 2)) == 2
    for t in range(1, 5):
        assert regularity(variable_power_ideal(3, range(3), t)) == t
    assert regularity(edge_ideal(cycle_graph(5))) == 3
    assert regularity(edge_ideal(cycle_graph(7))) == 3
    assert quotient_regularity(edge_ideal(cycle_graph(5))) == 2


def test_linear_resolution_powers():
    # complements of these are chordal, so every power has a linear
    # resolution and regularity equals the generating degree
    for g in (complete_graph(3), complete_graph(4), three_triangles()[0]):
        ideal = edge_ideal(g)
        for s in (1, 2):
            assert regularity(ordinary_power(g, s)) == 2 * s, render_graph_text(g)
    assert regularity(ordinary_power(complete_graph(3), 3)) == 6


def test_forest_quotient_regularity_is_induced_matching_number():
    rng = random.Random(_SEED + 1)
    cases = [path_graph(2), path_graph(5), path_graph(7)]
    cases += [random_forest(rng, rng.randint(3, 8)) for _ in range(6)]
    for g in cases:
        if not g.edges:
            continue
        nu, _ = induced_matching_number(g)
        assert quotient_regularity(edge_ideal(g)) == nu, render_graph_text(g)


def _random_squarefree_ideal(rng: random.Random) -> MonomialIdeal:
    """Squarefree ideal on 2-7 variables, generators of degree 1-4, not an edge ideal."""
    while True:
        n = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 6)):
            support = rng.sample(range(n), rng.randint(1, min(4, n)))
            gens.append(Monomial(tuple(int(i in support) for i in range(n))))
        a = MonomialIdeal(n, gens)
        if any(g.degree() != 2 for g in a.gens):
            return a


def test_engine_matches_hochster_oracle():
    rng = random.Random(_SEED + 2)
    graphs = [
        path_graph(4),
        cycle_graph(5),
        cycle_graph(7),
        complete_graph(4),
        three_triangles()[0],
    ]
    graphs += [random_connected_graph(rng, rng.randint(3, 6), 0.5) for _ in range(6)]
    graphs += [
        random_connected_graph(rng, rng.randint(4, 6), 0.4, bipartite=True)
        for _ in range(4)
    ]
    for g in graphs:
        a = edge_ideal(g)
        assert betti_table(a).entries == hochster_betti_table(a).entries, render_graph_text(g)
    # the engine is not specific to edge ideals: other squarefree ideals, two fields
    for _ in range(25):
        a = _random_squarefree_ideal(rng)
        for kwargs in ({}, {"field": "prime", "prime": 2}):
            got = betti_table(a, **kwargs).entries
            assert got == hochster_betti_table(a, **kwargs).entries, (a.render(), kwargs)


def test_prime_field_agrees_on_small_graphs():
    for g in (path_graph(4), cycle_graph(5)):
        a = edge_ideal(g)
        rational = betti_table(a)
        mod2 = betti_table(a, field="prime", prime=2)
        assert mod2.entries == rational.entries
        assert mod2.prime == 2 and rational.prime is None
        assert (
            hochster_betti_table(a, field="prime", prime=2).entries
            == rational.entries
        )


def test_euler_characteristic_per_multidegree():
    # the engine's per-multidegree complexes match direct membership tests,
    # and their homology has the alternating face count as Euler characteristic
    for a in (edge_ideal(cycle_graph(5)), ordinary_power(cycle_graph(5), 2)):
        degrees = lcm_closure(a)
        for b in degrees[:40]:
            mono = _unpack(b, a.nvars)
            faces, _ = _engine_complex(a, mono)
            assert sorted(faces) == sorted(_upper_koszul_faces(a, mono))
            ranks = reduced_homology(faces)
            alt = sum(r if d % 2 == 0 else -r for d, r in ranks.items())
            assert sum(1 if len(f) % 2 == 1 else -1 for f in faces) == alt


# minimal 6-vertex triangulation of the real projective plane
_RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _tuples(facets: list[int]) -> list[tuple[int, ...]]:
    """Every face of the complex with these facet masks, as bit-position tuples."""
    return [
        tuple(v for v in range(m.bit_length()) if m >> v & 1) for m in betti._faces(facets)
    ]


def _check_core(facets: list[int], fields=({}, {"field": "prime", "prime": 2})):
    """The core is a subcomplex with no dominated vertex left and the same
    reduced homology as the full complex; a pruned core has none.  Its
    relabelling onto 0..k-1 keeps every vertex and the homology too.
    Returns the core and the full complex's homology over the first field."""
    core = betti._core(facets)
    full, kept = _tuples(facets), _tuples(core)
    relabelled = betti._relabel(core)
    k = reduce(or_, core, 0).bit_count()
    assert reduce(or_, relabelled, 0) == (1 << k) - 1, (core, relabelled)
    assert set(kept) <= set(full), (facets, core)
    assert betti._core(core) == core, (facets, core)
    wants = []
    for kwargs in fields:
        want = reduced_homology(full, **kwargs)
        wants.append(want)
        assert reduced_homology(kept, **kwargs) == want, (facets, core, kwargs)
        assert reduced_homology(_tuples(relabelled), **kwargs) == want, (core, relabelled)
        if betti._contractible(core):
            assert want == {}, (facets, core, kwargs)
    return core, wants[0]


def test_core_keeps_homology_of_facet_families():
    # {emptyset} is one facet but no simplex to prune: it carries H~_-1
    assert _check_core([0])[0] == [0]
    assert not betti._contractible(betti._core([0]))
    assert betti._core([]) == [] and not betti._contractible([])
    assert betti._contractible(_check_core([_mask((0, 1, 2)), _mask((0, 3))])[0])
    # two disjoint edges collapse to two points
    assert len(_check_core([_mask((0, 1)), _mask((2, 3))])[0]) == 2
    # no vertex of RP^2 is dominated; its core is itself, with 2-torsion
    rp2 = [_mask(f) for f in _RP2]
    assert sorted(_check_core(rp2)[0]) == sorted(rp2)
    assert reduced_homology(_tuples(rp2), field="prime", prime=2) == {1: 1, 2: 1}
    # vertices 0 and 1 dominate each other: deleting both at once leaves the
    # contractible edge {2, 3}, deleting one leaves a hollow triangle
    mutual = [_mask((0, 1, 2)), _mask((0, 1, 3)), _mask((2, 3))]
    assert reduced_homology(_tuples(_check_core(mutual)[0])) == {1: 1}
    rng = random.Random(_SEED + 4)
    for _ in range(120):
        n = rng.randint(1, 8)
        supports = {_mask(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 7))}
        _check_core(betti._facets(supports))


def test_core_keeps_homology_on_power_multidegrees(monkeypatch):
    # I^(s) and I^s are not squarefree at s = 2, where the Hochster oracle
    # cannot check the engine; every non-cone complex of the catalog graphs'
    # tables is compared with its core instead, and each table with one
    # rebuilt from the full complexes' homology, with no memo
    calls = {"core": 0, "homology": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(betti, "_core", counted("core", betti._core))
    monkeypatch.setattr(betti, "reduced_homology", counted("homology", reduced_homology))
    bow, _ = three_triangles()
    two, _ = cycle_with_paths(5, [(1, 2), (1, 2)])
    compared = collapsed = 0
    for g in (cycle_graph(5), cycle_graph(7), bow, two):
        for s in (1, 2):
            for a in (symbolic_power(g, s), ordinary_power(g, s)):
                guard = _guard(a.nvars)
                entries, complexes, shapes = [], set(), set()
                for b in lcm_closure(a):
                    facets = betti._facets(_quotient_supports(b, a.packed, guard))
                    complexes.add(tuple(sorted(facets)))
                    if reduce(and_, facets):
                        continue  # a cone
                    compared += 1
                    core, homology = _check_core(facets, fields=({},))
                    collapsed += betti._contractible(core)
                    if not betti._contractible(core):
                        shapes.add(tuple(sorted(betti._relabel(core))))
                    mono = _unpack(b, a.nvars)
                    for d, rank in homology.items():
                        entries.append((d + 1, mono, rank))
                entries.sort(key=lambda e: (e[0], e[1].degree(), tuple(-x for x in e[1])))
                calls.update(core=0, homology=0)
                assert betti_table(a).entries == tuple(entries), (render_graph_text(g), s)
                # the memo takes one core per distinct facet tuple and one
                # homology per distinct relabelled core
                assert calls == {"core": len(complexes), "homology": len(shapes)}
    # 3,178 complexes, 1,244 of them contractible without being cones
    assert compared > 3000 and collapsed > 1000


def test_regularity_at_least_alpha():
    rng = random.Random(_SEED + 3)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 6), 0.5)
        a = symbolic_power(g, rng.randint(1, 2))
        assert regularity(a) >= alpha_degree(a)


def test_unit_ideal_table():
    table = betti_table(MonomialIdeal.unit(3))
    assert table.entries == ((0, Monomial.unit(3), 1),)
    assert table.regularity == 0
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal.zero(3))
    # the field is refused before the unit ideal's early return
    with pytest.raises(ValueError, match="4 is not a prime"):
        betti_table(MonomialIdeal.unit(3), field="prime", prime=4)


def test_as_dict_shape():
    """The fields a report serialises: field, prime, regularity, entries, graded."""
    table = betti_table(edge_ideal(complete_graph(3)))
    assert table.regularity == 2
    assert table.field == "rational" and table.prime is None
    assert (0, Monomial((1, 1, 0)), 1) in table.entries
    assert table.graded()[(1, 3)] == 2


def test_hochster_oracle_refuses_bad_input():
    with pytest.raises(ValueError):
        hochster_betti_table(parse_ideal("x1^2", 2))
    with pytest.raises(ValueError):
        hochster_betti_table(MonomialIdeal.unit(2))
    with pytest.raises(LimitExceeded):
        hochster_betti_table(edge_ideal(cycle_graph(9)))


@pytest.mark.parametrize("prime", [1, 4])
@pytest.mark.parametrize("table", [betti_table, hochster_betti_table])
def test_composite_prime_field_refused(table, prime):
    # Z/1 and Z/4 are no fields: the engine and the oracle refuse them themselves
    with pytest.raises(ValueError, match=f"{prime} is not a prime"):
        table(edge_ideal(cycle_graph(5)), field="prime", prime=prime)


def test_resource_caps():
    a = ordinary_power(cycle_graph(5), 2)
    with pytest.raises(LimitExceeded):
        betti_table(a, max_generators=5)
    with pytest.raises(LimitExceeded):
        betti_table(a, max_closure=10)
    with pytest.raises(LimitExceeded):
        betti_table(a, max_support=2)


def test_socle_regularity():
    assert socle_regularity(cycle_graph(5), 1) == 1
    assert socle_regularity(cycle_graph(5), 2) == 3
    assert socle_regularity(cycle_graph(5), 3) == 5
    assert socle_regularity(three_triangles()[0], 2) == 3
    assert socle_regularity(path_graph(4), 1) == 1
    assert socle_regularity(cycle_graph(7), 2) == 3


def test_socle_regularity_reports_a_wrong_symbolic_power(monkeypatch):
    # Adding m^(2s-1) to I^(s) kills the whole degree-(2s-1) piece, x1^(2s-1)
    # included, so the top surviving degree drops to 2s-2; nothing raises.
    real = betti.symbolic_power

    def too_big(g, s, *args):
        n = g.vertex_count
        return ideal_sum(
            real(g, s, *args), ideal_power(variable_power_ideal(n, range(n), 1), 2 * s - 1)
        )

    monkeypatch.setattr(betti, "symbolic_power", too_big)
    assert socle_regularity(cycle_graph(5), 1) == 0
    assert socle_regularity(cycle_graph(5), 2) == 2
    assert socle_regularity(three_triangles()[0], 3) == 4
    monkeypatch.setattr(betti, "symbolic_power", lambda g, s: MonomialIdeal.unit(g.vertex_count))
    assert socle_regularity(cycle_graph(5), 2) == -1
