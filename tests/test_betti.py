from __future__ import annotations

import itertools
import random
from functools import reduce
from operator import and_, or_

import pytest

from edgeideals import betti, homology
from edgeideals.betti import (
    betti_table,
    hochster_betti_table,
    lcm_closure,
    socle_regularity,
)
from edgeideals.errors import LimitExceeded
from edgeideals.families import (
    cycle_graph,
    cycle_with_paths,
    random_connected_graph,
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
    alpha_degree,
    contains,
    ideal_power,
    ideal_sum,
    parse_ideal,
    parse_monomial,
    variable_power_ideal,
)
from edgeideals.symbolic import edge_ideal, ordinary_power, symbolic_power

from graph_helpers import complete_graph, path_graph, random_forest

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
    """The engine's full complex at b, as variable tuples, and whether its core is pruned."""
    supports = _quotient_supports(_pack(b), a.packed, _guard(a.nvars))
    facets = homology._facets(supports)
    faces = [_mask_variables(f, a.nvars) for f in homology._faces(facets)]
    return faces, homology._contractible(homology._core(facets))


def _mask_variables(mask: int, nvars: int) -> tuple[int, ...]:
    """The variables whose guard bit is set in a face mask of the engine."""
    return tuple(i for i, e in enumerate(mask.to_bytes(nvars, "big")) if e)


def _mask(vertices) -> int:
    return sum(1 << v for v in vertices)


def _masks(faces) -> list[int]:
    """Vertex tuples as the vertex bitmasks that `reduced_homology` takes."""
    return [_mask(f) for f in faces]


def test_upper_koszul_small_cases():
    a = parse_ideal("x1", 1)
    x1 = parse_monomial("x1", 1)
    assert _upper_koszul_faces(a, x1) == [()]
    assert _engine_complex(a, x1) == ([()], False)
    assert reduced_homology([0]) == {-1: 1}

    b = parse_ideal("x1*x2", 2)
    assert _engine_complex(b, parse_monomial("x1*x2", 2)) == ([()], False)
    # off a generator multidegree the complex is a cone (here: on x1)
    off = parse_monomial("x1^2*x2", 2)
    faces, pruned = _engine_complex(b, off)
    assert sorted(faces) == sorted(_upper_koszul_faces(b, off)) == [(), (0,)]
    assert pruned and reduced_homology(_masks(faces)) == {}

    tri = edge_ideal(complete_graph(3))
    top = parse_monomial("x1*x2*x3", 3)
    faces, pruned = _engine_complex(tri, top)
    assert sorted(faces) == sorted(_upper_koszul_faces(tri, top))
    assert sorted(len(f) for f in faces) == [0, 1, 1, 1]
    assert not pruned
    assert reduced_homology(_masks(faces)) == {0: 2}

    # supports {x1,x2}, {x3} and {x2,x3}: the non-maximal {x3} misses the apex x2
    # that both facets share, so the cone is found on the facets only
    three = parse_ideal("x1*x2*x3^2, x1^2*x2^2, x1^2*x2*x3", 3)
    b = parse_monomial("x1^2*x2^2*x3^2", 3)
    faces, pruned = _engine_complex(three, b)
    assert sorted(faces) == sorted(_upper_koszul_faces(three, b))
    assert pruned and reduced_homology(_masks(faces)) == {}


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
    assert betti_table(parse_ideal("x1*x2", 4)).regularity == 2
    assert betti_table(parse_ideal("x1^2*x2^3", 2)).regularity == 5
    assert betti_table(parse_ideal("x1^2, x1*x2, x2^2", 2)).regularity == 2
    for t in range(1, 5):
        assert betti_table(variable_power_ideal(3, range(3), t)).regularity == t
    assert betti_table(edge_ideal(cycle_graph(5))).regularity == 3
    assert betti_table(edge_ideal(cycle_graph(7))).regularity == 3
    assert betti_table(edge_ideal(cycle_graph(5))).regularity - 1 == 2


def test_linear_resolution_powers():
    # complements of these are chordal, so every power has a linear
    # resolution and regularity equals the generating degree
    for g in (complete_graph(3), complete_graph(4), three_triangles()[0]):
        ideal = edge_ideal(g)
        for s in (1, 2):
            assert betti_table(ordinary_power(g, s)).regularity == 2 * s, render_graph_text(g)
    assert betti_table(ordinary_power(complete_graph(3), 3)).regularity == 6


def test_forest_quotient_regularity_is_induced_matching_number():
    rng = random.Random(_SEED + 1)
    cases = [path_graph(2), path_graph(5), path_graph(7)]
    cases += [random_forest(rng, rng.randint(3, 8)) for _ in range(6)]
    for g in cases:
        if not g.edges:
            continue
        nu, _ = induced_matching_number(g)
        assert betti_table(edge_ideal(g)).regularity - 1 == nu, render_graph_text(g)


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
        for kwargs in ({}, {"prime": 2}):
            got = betti_table(a, **kwargs).entries
            assert got == hochster_betti_table(a, **kwargs).entries, (a.render(), kwargs)


def test_prime_field_agrees_on_small_graphs():
    for g in (path_graph(4), cycle_graph(5)):
        a = edge_ideal(g)
        rational = betti_table(a)
        mod2 = betti_table(a, prime=2)
        assert mod2.entries == rational.entries
        assert (
            hochster_betti_table(a, prime=2).entries
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
            ranks = reduced_homology(_masks(faces))
            alt = sum(r if d % 2 == 0 else -r for d, r in ranks.items())
            assert sum(1 if len(f) % 2 == 1 else -1 for f in faces) == alt


# minimal 6-vertex triangulation of the real projective plane
_RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 3, 4), (0, 4, 5),
    (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
]


def _check_core(facets: list[int], fields=({}, {"prime": 2})):
    """The core is a subcomplex with no dominated vertex left and the same
    reduced homology as the full complex; a pruned core has none.  Its
    relabelling onto 0..k-1 keeps every vertex and the homology too.
    Returns the core and the full complex's homology over the first field."""
    core = homology._core(facets)
    full, kept = homology._faces(facets), homology._faces(core)
    relabelled = homology._relabel(core)
    k = reduce(or_, core, 0).bit_count()
    assert reduce(or_, relabelled, 0) == (1 << k) - 1, (core, relabelled)
    assert kept <= full, (facets, core)
    assert homology._core(core) == core, (facets, core)
    wants = []
    for kwargs in fields:
        want = reduced_homology(full, **kwargs)
        wants.append(want)
        assert reduced_homology(kept, **kwargs) == want, (facets, core, kwargs)
        assert reduced_homology(homology._faces(relabelled), **kwargs) == want, (core, relabelled)
        if homology._contractible(core):
            assert want == {}, (facets, core, kwargs)
    return core, wants[0]


def test_core_keeps_homology_of_facet_families():
    # {emptyset} is one facet but no simplex to prune: it carries H~_-1
    assert _check_core([0])[0] == [0]
    assert not homology._contractible(homology._core([0]))
    assert homology._core([]) == [] and not homology._contractible([])
    assert homology._contractible(_check_core([_mask((0, 1, 2)), _mask((0, 3))])[0])
    # two disjoint edges collapse to two points
    assert len(_check_core([_mask((0, 1)), _mask((2, 3))])[0]) == 2
    # no vertex of RP^2 is dominated; its core is itself, with 2-torsion
    rp2 = [_mask(f) for f in _RP2]
    assert sorted(_check_core(rp2)[0]) == sorted(rp2)
    assert reduced_homology(homology._faces(rp2), prime=2) == {1: 1, 2: 1}
    # vertices 0 and 1 dominate each other: deleting both at once leaves the
    # contractible edge {2, 3}, deleting one leaves a hollow triangle
    mutual = [_mask((0, 1, 2)), _mask((0, 1, 3)), _mask((2, 3))]
    assert reduced_homology(homology._faces(_check_core(mutual)[0])) == {1: 1}
    rng = random.Random(_SEED + 4)
    for _ in range(120):
        n = rng.randint(1, 8)
        supports = {_mask(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 7))}
        _check_core(homology._facets(supports))


def test_core_keeps_homology_on_power_multidegrees(monkeypatch):
    # I^(s) and I^s are not squarefree at s = 2, where the Hochster oracle
    # cannot check the engine; every non-cone complex of the catalog graphs'
    # tables is compared with its core instead, and each table with one
    # rebuilt from the full complexes' homology, with no memo and no symmetry
    calls = {"core": 0, "homology": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(betti, "_core", counted("core", homology._core))
    monkeypatch.setattr(homology, "reduced_homology", counted("homology", reduced_homology))
    bow, _ = three_triangles()
    two, _ = cycle_with_paths(5, [(1, 2), (1, 2)])
    compared = collapsed = 0
    for g in (cycle_graph(5), cycle_graph(7), bow, two):
        for s in (1, 2):
            for a in (symbolic_power(g, s), ordinary_power(g, s)):
                guard = _guard(a.nvars)
                representatives = _orbit_minima(a, lcm_closure(a))
                entries, complexes, shapes = [], set(), set()
                for b in lcm_closure(a):
                    facets = homology._facets(_quotient_supports(b, a.packed, guard))
                    if b in representatives:
                        complexes.add(tuple(sorted(facets)))
                    if reduce(and_, facets):
                        continue  # a cone
                    compared += 1
                    core, ranks = _check_core(facets, fields=({},))
                    collapsed += homology._contractible(core)
                    if b in representatives and not homology._contractible(core):
                        shapes.add(tuple(sorted(homology._relabel(core))))
                    mono = _unpack(b, a.nvars)
                    for d, rank in ranks.items():
                        entries.append((d + 1, mono, rank))
                entries.sort(key=lambda e: (e[0], e[1].degree(), tuple(-x for x in e[1])))
                calls.update(core=0, homology=0)
                assert betti_table(a).entries == tuple(entries), (render_graph_text(g), s)
                # only each orbit's least multidegree is built; among those the
                # memo takes one core per distinct facet tuple and one homology
                # per distinct relabelled core
                assert calls == {"core": len(complexes), "homology": len(shapes)}
    # 3,178 complexes, 1,244 of them contractible without being cones
    assert compared > 3000 and collapsed > 1000


def _act(perm: tuple[int, ...], exps) -> tuple[int, ...]:
    """The exponent vector with variable i moved to perm[i]."""
    out = [0] * len(exps)
    for i, e in enumerate(exps):
        out[perm[i]] = e
    return tuple(out)


def _generated(perms, nvars: int) -> set[tuple[int, ...]]:
    """Every permutation that the given ones generate, by closing under composition."""
    group = {tuple(range(nvars))}
    stack = list(group)
    while stack:
        q = stack.pop()
        for p in perms:
            r = tuple(p[q[i]] for i in range(nvars))
            if r not in group:
                group.add(r)
                stack.append(r)
    return group


def _brute_force_group(a: MonomialIdeal) -> set[tuple[int, ...]]:
    """Every permutation that maps the generators onto themselves and fixes
    the variables in none of them: permuting those moves no multidegree."""
    gens = set(a.gens)
    occurring = {i for g in a.gens for i in g.support()}
    return {
        p for p in itertools.permutations(range(a.nvars))
        if all(_act(p, g) in gens for g in a.gens)
        and all(p[i] == i for i in range(a.nvars) if i not in occurring)
    }


def _orbit_minima(a: MonomialIdeal, closure: list[int]) -> set[int]:
    """The least packed multidegree of each orbit of the closure under the
    group that `_automorphisms` generates."""
    perms = betti._automorphisms(a)
    minima, done = set(), set()
    for b in closure:
        if b in done:
            continue
        orbit, stack = {b}, [b]
        while stack:
            x = _unpack(stack.pop(), a.nvars)
            for p in perms:
                y = _pack(_act(p, x))
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        done |= orbit
        minima.add(min(orbit))
    return minima


def _table_without_symmetry(a: MonomialIdeal, **kwargs) -> tuple:
    """The table's entries built at every multidegree of the closure, one by one."""
    prime = kwargs.get("prime")
    guard, memo, entries = _guard(a.nvars), {}, []
    for b in lcm_closure(a):
        core = homology._core(homology._facets(_quotient_supports(b, a.packed, guard)))
        mono = _unpack(b, a.nvars)
        for d, rank in homology._core_homology(core, memo, prime).items():
            entries.append((d + 1, mono, rank))
    entries.sort(key=lambda e: (e[0], e[1].degree(), tuple(-x for x in e[1])))
    return tuple(entries)


@pytest.mark.parametrize("refined", [True, False], ids=["refined", "unrefined"])
def test_automorphisms_generate_the_brute_force_group(monkeypatch, refined):
    # without colour refinement every variable is a candidate image, so the
    # backtrack's own generator checks must keep out what is no automorphism
    if not refined:
        monkeypatch.setattr(betti, "_classes", lambda exps, nv: [0] * nv)
    rng = random.Random(_SEED + 5)
    bow, _ = three_triangles()
    cases = [
        edge_ideal(cycle_graph(5)),
        edge_ideal(cycle_graph(6)),
        edge_ideal(complete_graph(5)),
        edge_ideal(path_graph(6)),
        symbolic_power(cycle_graph(5), 2),
        ordinary_power(cycle_graph(5), 2),
        symbolic_power(complete_graph(4), 3),
        ordinary_power(path_graph(4), 3),
        parse_ideal("x1^2, x2^2, x1*x2*x3", 3),
        parse_ideal("x1^3, x1*x2, x2*x3^2", 3),  # no symmetry
        parse_ideal("x1^2*x2, x2^2*x3, x3^2*x1", 3),  # rotations only
        parse_ideal("x1*x2, x2*x3", 5),  # x4 and x5 divide no generator
    ]
    cases += [
        edge_ideal(random_connected_graph(rng, rng.randint(3, 6), 0.5)) for _ in range(8)
    ]
    cases += [symbolic_power(random_connected_graph(rng, 6, 0.4), 2) for _ in range(3)]
    cases += [_random_squarefree_ideal(rng) for _ in range(8)]
    cases = [a for a in cases if a.nvars <= 6]
    orders = []
    for a in cases:
        perms = betti._automorphisms(a)
        want = _brute_force_group(a)
        assert _generated(perms, a.nvars) == want, a.render()
        # no listed permutation is the identity, and each maps the generators onto themselves
        assert all(p != tuple(range(a.nvars)) and p in want for p in perms), a.render()
        orders.append(len(want))
    assert orders[:4] == [10, 12, 120, 2] and orders[9:12] == [1, 3, 2]
    assert 1 in orders[12:] and max(orders[12:]) > 2


def test_orbit_table_matches_table_without_symmetry():
    # one complex per orbit, its entries copied to every member, gives the
    # table built at every multidegree: the catalog at s <= 2, random graphs
    bow, _ = three_triangles()
    two, _ = cycle_with_paths(5, [(1, 2), (1, 2)])
    rng = random.Random(_SEED + 6)
    graphs = [cycle_graph(5), cycle_graph(7), bow, two]
    graphs += [random_connected_graph(rng, rng.randint(4, 7), 0.4) for _ in range(6)]
    symmetric = 0
    for g in graphs:
        for s in (1, 2):
            for a in {symbolic_power(g, s), ordinary_power(g, s)}:
                symmetric += bool(betti._automorphisms(a))
                for kwargs in ({}, {"prime": 3}):
                    got = betti_table(a, **kwargs).entries
                    assert got == _table_without_symmetry(a, **kwargs), (render_graph_text(g), s)
    assert symmetric >= 12


def test_orbit_table_of_complete_graph():
    # K10 has 10! automorphisms and 9 orbits of multidegrees, one per degree
    a = edge_ideal(complete_graph(10))
    assert len(_orbit_minima(a, lcm_closure(a))) == 9
    assert betti_table(a).entries == _table_without_symmetry(a)


def _naive_closure_message(a: MonomialIdeal, cap: int) -> str | None:
    """Round-by-round lcm closure on exponent tuples; the cap message, or None."""
    seen = frontier = set(a.gens)
    while frontier:
        fresh = {tuple(map(max, x, g)) for x in frontier for g in a.gens} - seen
        if len(seen) + len(fresh) > cap:
            return (
                f"lcm closure exceeds {cap} multidegrees "
                f"({len(seen)} found, {len(fresh)} pending)"
            )
        seen, frontier = seen | fresh, fresh
    return None


def test_closure_cap_message_matches_naive_closure():
    bow, _ = three_triangles()
    symmetric = [
        symbolic_power(cycle_graph(6), 2),
        ordinary_power(complete_graph(5), 2),
        edge_ideal(complete_graph(8)),
        symbolic_power(bow, 2),
        parse_ideal("x1^2*x2, x2^2*x3, x3^2*x1, x1*x2*x3*x4", 4),
    ]
    for a in symmetric:
        assert betti._automorphisms(a)
        size = len(lcm_closure(a))
        for cap in sorted({len(a), len(a) + 1, size // 3, size // 2, size - 1, size}):
            want = _naive_closure_message(a, cap)
            if want is None:
                assert cap >= size
                betti_table(a, max_closure=cap)
                continue
            with pytest.raises(LimitExceeded) as info:
                betti_table(a, max_closure=cap)
            assert str(info.value) == want, (a.render(), cap)


def test_regularity_at_least_alpha():
    rng = random.Random(_SEED + 3)
    for _ in range(8):
        g = random_connected_graph(rng, rng.randint(3, 6), 0.5)
        a = symbolic_power(g, rng.randint(1, 2))
        assert betti_table(a).regularity >= alpha_degree(a)


def test_unit_ideal_table():
    table = betti_table(MonomialIdeal.unit(3))
    assert table.entries == ((0, Monomial.unit(3), 1),)
    assert table.regularity == 0
    with pytest.raises(ValueError):
        betti_table(MonomialIdeal.zero(3))
    # the field is refused before the unit ideal's early return
    with pytest.raises(ValueError, match="4 is not a prime"):
        betti_table(MonomialIdeal.unit(3), prime=4)


def test_as_dict_shape():
    """The views a report serialises: regularity, entries, graded."""
    table = betti_table(edge_ideal(complete_graph(3)))
    assert table.regularity == 2
    assert (0, Monomial((1, 1, 0)), 1) in table.entries
    assert table.graded()[(1, 3)] == 2


def test_hochster_oracle_refuses_bad_input():
    with pytest.raises(ValueError):
        hochster_betti_table(parse_ideal("x1^2", 2))
    with pytest.raises(ValueError):
        hochster_betti_table(MonomialIdeal.unit(2))
    with pytest.raises(LimitExceeded):
        hochster_betti_table(edge_ideal(cycle_graph(9)))


@pytest.mark.parametrize("prime", [1, 4, 0, -3])
@pytest.mark.parametrize("table", [betti_table, hochster_betti_table])
def test_composite_prime_field_refused(table, prime):
    # 1, 4, 0 and -3 are no primes: the engine and the oracle refuse them
    # themselves, and 0 is not read as the rationals
    with pytest.raises(ValueError, match=f"{prime} is not a prime"):
        table(edge_ideal(cycle_graph(5)), prime=prime)


def test_resource_caps():
    a = ordinary_power(cycle_graph(5), 2)
    with pytest.raises(LimitExceeded):
        betti_table(a, max_generators=5)
    with pytest.raises(LimitExceeded):
        betti_table(a, max_closure=10)
    # the support cap reads the union of the generators' supports, before the closure
    with pytest.raises(LimitExceeded, match="multidegree support 5 exceeds the 2 cap"):
        betti_table(a, max_support=2)
    with pytest.raises(LimitExceeded, match="support 5 exceeds"):
        betti_table(a, max_closure=10, max_support=4)
    assert betti_table(a, max_support=5).regularity == 4


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
