from __future__ import annotations

import itertools
import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeideals.betti import lcm_closure
from edgeideals.errors import LimitExceeded, UniverseMismatch
from edgeideals.families import random_connected_graph
from edgeideals.monomials import (
    _BITS,
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    _colon,
    _degree,
    _guard,
    _meet_prime_power,
    _member,
    _minimal,
    _pack,
    _Row,
    _unpack,
    alpha_degree,
    contains,
    first_difference,
    ideal_colon,
    ideal_contains,
    ideal_intersection,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect_with_m_power,
    minimalize,
    monomials_of_degree,
    parse_ideal,
    parse_monomial,
    variable_power_ideal,
)
from edgeideals.symbolic import ordinary_power

_SEED = 20311
EXTENDED = bool(os.environ.get("EDGEIDEALS_EXTENDED"))


def naive_minimal(gens):
    """Quadratic reference: keep g unless some distinct generator divides it."""
    uniq = sorted(set(tuple(g) for g in gens))
    out = []
    for g in uniq:
        if not any(h != g and all(a <= b for a, b in zip(h, g)) for h in uniq):
            out.append(g)
    return set(out)


def _naive_ideal(gens):
    """Minimal generators in canonical order: degree, then variable 1 most significant."""
    return sorted(naive_minimal(gens), key=lambda t: (sum(t), [-e for e in t]))


def _naive_closure(gens):
    """Every lcm of a nonempty set of generators, sorted by (degree, exponents)."""
    seen = set(map(tuple, gens))
    frontier = set(seen)
    while frontier:
        fresh = {tuple(map(max, f, g)) for f in frontier for g in gens} - seen
        seen |= fresh
        frontier = fresh
    return sorted(seen, key=lambda t: (sum(t), t))


def _check_against_naive(a, b, d):
    """Each packed ideal operation against the tuple reference."""
    ga, gb = [tuple(g) for g in a.gens], [tuple(g) for g in b.gens]
    assert list(ideal_product(a, b).gens) == _naive_ideal(
        [tuple(x + y for x, y in zip(g, h)) for g in ga for h in gb]
    )
    assert list(ideal_intersection(a, b).gens) == _naive_ideal(
        [tuple(map(max, g, h)) for g in ga for h in gb]
    )
    assert list(ideal_colon(a, d).gens) == _naive_ideal(
        [tuple(max(x - y, 0) for x, y in zip(g, d)) for g in ga]
    )
    assert [_unpack(p, a.nvars) for p in lcm_closure(a)] == _naive_closure(ga)


def random_ideal(rng, nvars, count, maxexp=3):
    gens = [
        Monomial(tuple(rng.randint(0, maxexp) for _ in range(nvars)))
        for _ in range(count)
    ]
    gens = [g for g in gens if not g.is_unit()] or [Monomial.variable(0, nvars)]
    return MonomialIdeal(nvars, gens)


def test_monomial_basics():
    m = Monomial((2, 0, 1))
    assert m.degree() == 3
    assert m.render() == "x1^2*x3"
    assert parse_monomial("x1^2*x3", 3) == m
    assert parse_monomial("1", 4) == Monomial.unit(4)
    assert Monomial.unit(3).render() == "1"
    assert m.support() == (0, 2)
    with pytest.raises(ValueError):
        Monomial((1, -1))
    with pytest.raises(UniverseMismatch):
        contains(MonomialIdeal(2, [(1, 2)]), m)


def test_minimalize_against_naive_oracle():
    rng = random.Random(_SEED)
    for _ in range(60):
        nv = rng.randint(1, 5)
        gens = [
            Monomial(tuple(rng.randint(0, 3) for _ in range(nv)))
            for _ in range(rng.randint(0, 12))
        ]
        got = minimalize(gens)
        assert set(tuple(g) for g in got) == naive_minimal(gens)
        # canonical order: degree, then lex with variable 1 most significant
        keys = [(g.degree(), tuple(-e for e in g)) for g in got]
        assert keys == sorted(keys)
        assert minimalize(got) == got


def test_minimalize_bulk_path_matches_naive():
    rng = random.Random(_SEED + 1)
    gens = [
        Monomial(tuple(rng.randint(0, 4) for _ in range(4))) for _ in range(400)
    ]
    assert set(tuple(g) for g in minimalize(gens)) == naive_minimal(gens)


def test_zero_and_unit_ideals():
    z = MonomialIdeal.zero(3)
    u = MonomialIdeal.unit(3)
    assert z.is_zero and not z.is_unit
    assert u.is_unit and not u.is_zero
    assert ideal_power(z, 0) == u
    assert ideal_product(z, u) == z
    assert ideal_sum(z, u) == u
    with pytest.raises(ValueError):
        alpha_degree(z)
    with pytest.raises(ValueError):
        ideal_colon(u, z)
    # colons of the zero and unit ideals, the unit one in no variables too
    assert ideal_colon(z, Monomial((1, 0, 2))) == z
    assert ideal_colon(u, Monomial((1, 0, 2))) == u
    assert ideal_colon(MonomialIdeal.unit(0), Monomial.unit(0)) == MonomialIdeal.unit(0)
    # a unit generator swallows everything else
    mixed = MonomialIdeal(2, [Monomial((1, 1)), Monomial.unit(2)])
    assert mixed.is_unit


def test_known_colon_value():
    # (x*y, y*z) : y = (x, z)
    a = parse_ideal("x1*x2, x2*x3", 3)
    q = ideal_colon(a, parse_monomial("x2", 3))
    assert q == parse_ideal("x1, x3", 3)


def test_power_of_maximal_ideal_in_five_variables():
    m2 = variable_power_ideal(5, range(5), 2)
    assert len(m2) == 15  # stars and bars C(6,4)
    assert all(g.degree() == 2 for g in m2)
    assert variable_power_ideal(5, range(5), 0).is_unit
    assert variable_power_ideal(5, [], 2).is_zero


def test_membership_semantics_sampled():
    rng = random.Random(_SEED + 2)
    for _ in range(40):
        nv = rng.randint(2, 4)
        a = random_ideal(rng, nv, rng.randint(1, 6))
        b = random_ideal(rng, nv, rng.randint(1, 6))
        inter = ideal_intersection(a, b)
        prod = ideal_product(a, b)
        summ = ideal_sum(a, b)
        d = random_ideal(rng, nv, rng.randint(1, 3))
        quot = ideal_colon(a, d)
        for _ in range(25):
            m = Monomial(tuple(rng.randint(0, 5) for _ in range(nv)))
            in_a, in_b = contains(a, m), contains(b, m)
            assert contains(inter, m) == (in_a and in_b)
            assert contains(summ, m) == (in_a or in_b)
            # product membership implies membership in both factors
            if contains(prod, m):
                assert in_a and in_b
            # colon: m in a:d iff m*g in a for every generator g of d
            assert contains(quot, m) == all(
                contains(a, Monomial(x + y for x, y in zip(m, gg))) for gg in d.gens
            )


@st.composite
def _packed_candidates(draw):
    """Packed monomials of mixed degrees, some drawn twice, in a shuffled list."""
    nv = draw(st.integers(min_value=1, max_value=6))
    mono = st.lists(st.integers(min_value=0, max_value=4), min_size=nv, max_size=nv)
    exps = draw(st.lists(mono, max_size=14))
    exps += draw(st.lists(st.sampled_from(exps), max_size=6)) if exps else []
    return nv, draw(st.permutations([_pack(e) for e in exps]))


@settings(max_examples=120, deadline=None)
@given(_packed_candidates())
def test_prop_minimal_matches_pairwise_reference(case):
    nv, packed = case
    want = [_pack(t) for t in _naive_ideal([_unpack(p, nv) for p in packed])]
    assert list(_minimal(packed, nv)) == want


def test_minimal_raises_on_a_guard_bit_even_when_a_kept_generator_divides_it():
    # 0x81 is x1 with the guard bit set: x1 = 0x01 divides it, yet it must raise
    with pytest.raises(LimitExceeded):
        _minimal([0x01, 0x81], 1)
    with pytest.raises(LimitExceeded):
        _minimal([0x0100, 0x0181, 0x0001], 2)
    assert _minimal([0x01, 0x02, 0x01], 1) == (0x01,)


@st.composite
def _row_cases(draw):
    """Packed generators (duplicates, the unit, one alone), a divisor and a probe.

    The divisor is often a multiple of a generator, so some quotients are
    zero, and the probe often a multiple of one, so it lies in the ideal.
    """
    nv = draw(st.integers(min_value=1, max_value=9))
    exps = st.integers(min_value=0, max_value=MAX_EXPONENT)
    mono = st.lists(exps, min_size=nv, max_size=nv)
    gens = draw(st.one_of(
        st.lists(mono, min_size=1, max_size=12),
        st.just([[0] * nv]),
        st.lists(mono, min_size=1, max_size=1),
    ))
    gens += draw(st.lists(st.sampled_from(gens), max_size=4))

    def near_a_generator():
        base = draw(st.one_of(mono, st.sampled_from(gens)))
        return [min(MAX_EXPONENT, e + draw(st.integers(0, 3))) for e in base]

    d, p = near_a_generator(), near_a_generator()
    return nv, [_pack(g) for g in draw(st.permutations(gens))], _pack(d), _pack(p)


@settings(max_examples=300, deadline=None)
@given(_row_cases())
def test_prop_row_kernel_matches_per_generator_references(case):
    nv, gens, d, p = case
    guard = _guard(nv)
    row = _Row(gens, nv)
    q = row.quotients(d)
    # chunk j is g_j : d, in generator order
    assert q == int.from_bytes(b"".join(
        _colon(g, d, guard).to_bytes(nv, "big") for g in gens), "big")
    quotients = {_colon(g, d, guard) for g in gens}
    assert row.split(q) == quotients
    assert row.has_zero(q) == (0 in quotients)
    assert row.member(p) == _member(p, gens, guard)


def _pair_colon_reference(gens, d, pairs, nv):
    """Whether d * x_a x_b is one of gens for every pair (0-based a <= b),
    and the quotients g : d over gens generate the ideal of the x_a x_b (by
    minimalizing)."""
    units = [1 << _BITS * (nv - 1 - a) for a in range(nv)]
    kept = {units[a] + units[b] for a, b in pairs}
    direct = MonomialIdeal._from_packed(nv, {_colon(g, d, _guard(nv)) for g in gens})
    return all(d + k in set(gens) for k in kept) and MonomialIdeal._from_packed(nv, kept) == direct


def _quadric_pairs(ideal):
    """The pairs (a, b), 0-based a <= b, whose x_a x_b is a minimal generator."""
    nv = ideal.nvars
    units = [1 << _BITS * (nv - 1 - a) for a in range(nv)]
    return [
        (a, b) for a, b in itertools.combinations_with_replacement(range(nv), 2)
        if units[a] + units[b] in ideal.packed
    ]


@settings(max_examples=2000 if EXTENDED else 300, deadline=None)
@given(_row_cases())
def test_prop_masks_and_colon_decision_match_references(case):
    nv, gens, d, _ = case
    row = _Row(gens, nv)
    width = _BITS * len(gens)
    for a in range(nv):
        column = [_unpack(g, nv)[a] for g in gens]
        masks = row.thresholds[a]
        assert len(masks) == max(column) + 1
        for e, mask in enumerate(masks):
            # bit j: the guard bit of byte j, the first generator most significant
            want = sum(1 << width - _BITS * j - 1 for j, x in enumerate(column) if x >= e)
            assert mask == want, (a, e)
    # d, gcd(d, g_0), which makes d * (g_0 : d) a generator, and 1
    low = _pack([min(x, y) for x, y in zip(_unpack(d, nv), _unpack(gens[0], nv))])
    every_pair = list(itertools.combinations_with_replacement(range(nv), 2))
    for c in (d, low, 0):
        direct = MonomialIdeal._from_packed(nv, {_colon(g, c, _guard(nv)) for g in gens})
        quadrics = _quadric_pairs(direct)
        for pairs in (quadrics, quadrics[1:], every_pair, []):
            want = _pair_colon_reference(gens, c, pairs, nv)
            assert row.quotients_generate(c, pairs) == want, (c, pairs)


def test_generates_agrees_with_minimalizing():
    # ideals built as d times products x_a x_b, some times more, so that the
    # quotients by d often generate exactly the ideal of those products
    rng = random.Random(_SEED + 9)
    decided = Counter()
    for _ in range(300):
        nv = rng.randint(1, 5)
        units = [1 << _BITS * (nv - 1 - a) for a in range(nv)]
        d = _pack([rng.randint(0, 3) for _ in range(nv)])
        every_pair = list(itertools.combinations_with_replacement(range(nv), 2))
        pairs = rng.sample(every_pair, rng.randint(1, len(every_pair)))
        gens = [d + units[a] + units[b] for a, b in pairs]
        for _ in range(rng.randint(0, 3)):
            base = rng.choice(gens) if rng.random() < 0.7 else d
            gens.append(base + sum(rng.choices(units, k=rng.randint(1, 2))))
        a = MonomialIdeal._from_packed(nv, gens)
        q = a.row.quotients(d)
        assert a.row.split(q) == {_colon(g, d, _guard(nv)) for g in a.packed}
        extra = [rng.choice(every_pair)]
        for probe in (pairs, pairs[1:], pairs + extra, _quadric_pairs(a), []):
            want = _pair_colon_reference(a.packed, d, probe, nv)
            assert a.row.quotients_generate(d, probe) is want, (nv, gens, d, probe)
            decided[want] += 1
        # a row that is not minimal: the generators with repeats
        row = _Row(sorted(gens), nv)
        assert row.quotients_generate(d, pairs) is _pair_colon_reference(gens, d, pairs, nv)
    assert decided[True] > 100 and decided[False] > 100, decided


def test_colon_decision_on_edge_ideal_powers():
    # I^s : u for u a generator of I^(s-1): the true colon (split and
    # minimalized), without one generator, with a degree-2 non-member and
    # with a square; the decision must equal the minimalized comparison
    rng = random.Random(_SEED + 10)
    seen = Counter()
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 7), 0.5)
        nv = g.vertex_count
        units = [1 << _BITS * (nv - 1 - a) for a in range(nv)]
        for s in (2, 3, 4):
            row = ordinary_power(g, s).row
            gens = ordinary_power(g, s - 1).gens
            for u in rng.sample(gens, min(len(gens), 15)):
                pu = _pack(u)
                true = MonomialIdeal._from_packed(nv, row.split(row.quotients(pu)))
                assert all(_degree(k, nv) == 2 for k in true.packed)
                pairs = _quadric_pairs(true)
                outside = [(a, b) for a, b in itertools.combinations(range(nv), 2)
                           if (a, b) not in pairs]
                squares = [(a, a) for a in range(nv) if (a, a) not in pairs]
                kinds = [("true", pairs), ("minus", pairs[1:])]
                if outside:
                    kinds.append(("non-member", [*pairs, rng.choice(outside)]))
                if squares:
                    kinds.append(("square", [*pairs, rng.choice(squares)]))
                for kind, kept in kinds:
                    ideal = MonomialIdeal._from_packed(nv, {units[a] + units[b] for a, b in kept})
                    want = ideal == true
                    assert want == (kind == "true")
                    assert row.quotients_generate(pu, kept) is want, (g.edges, s, u.render(), kind)
                    seen[kind] += 1
    assert min(seen.values()) > 100, seen


def _reference_difference(a, b):
    """The first minimal generator of a outside b, else of b outside a."""
    inside = lambda m, c: any(all(x <= y for x, y in zip(g, m)) for g in c.gens)
    for m in a.gens:
        if not inside(m, b):
            return m, "left"
    for m in b.gens:
        if not inside(m, a):
            return m, "right"
    return None


def test_first_difference_equal_ideals_by_different_routes():
    a = parse_ideal("x1*x2, x2*x3, x1*x3", 3)
    routes = [
        MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1), (2, 1, 0)]),
        ideal_sum(parse_ideal("x1*x2", 3), parse_ideal("x2*x3, x1*x3, x1^3*x2", 3)),
        ideal_colon(parse_ideal("x1^2*x2, x1*x2*x3, x1^2*x3", 3), parse_monomial("x1", 3)),
    ]
    for b in routes:
        assert b is not a and b.packed == a.packed
        assert first_difference(a, b) is None
        assert first_difference(b, a) is None
    with pytest.raises(UniverseMismatch):
        first_difference(a, parse_ideal("x1*x2", 4))


def test_first_difference_witnesses_match_reference():
    assert first_difference(parse_ideal("x1*x2, x3", 3), parse_ideal("x1, x3^2", 3)) == (
        parse_monomial("x3", 3), "left"
    )
    assert first_difference(parse_ideal("x1", 2), parse_ideal("x1, x2^2", 2)) == (
        parse_monomial("x2^2", 2), "right"
    )
    rng = random.Random(_SEED + 10)
    for _ in range(150):
        nv = rng.randint(1, 5)
        a = random_ideal(rng, nv, rng.randint(1, 5))
        b = random_ideal(rng, nv, rng.randint(1, 5))
        for x, y in ((a, b), (b, a), (a, ideal_sum(a, b)), (ideal_product(a, b), a)):
            assert first_difference(x, y) == _reference_difference(x, y)


def test_inclusion_and_equality():
    rng = random.Random(_SEED + 3)
    for _ in range(30):
        nv = rng.randint(2, 4)
        a = random_ideal(rng, nv, rng.randint(1, 5))
        b = random_ideal(rng, nv, rng.randint(1, 5))
        s = ideal_sum(a, b)
        assert ideal_contains(s, a) and ideal_contains(s, b)
        assert ideal_contains(a, ideal_product(a, b))
        assert ideal_contains(a, ideal_intersection(a, b))
        assert a == MonomialIdeal(nv, list(a.gens) + list(ideal_product(a, b).gens))
        diff = first_difference(a, s)
        if a != s:
            assert diff is not None
            m, side = diff
            assert side == "right" and contains(s, m) and not contains(a, m)


def test_power_additivity_small():
    rng = random.Random(_SEED + 4)
    for _ in range(10):
        a = random_ideal(rng, 3, 3, maxexp=2)
        assert ideal_power(a, 3) == ideal_product(ideal_power(a, 2), a)


def test_intersection_with_m_power_matches_generic_route():
    rng = random.Random(_SEED + 5)
    for _ in range(20):
        nv = rng.randint(2, 4)
        a = random_ideal(rng, nv, rng.randint(1, 5))
        t = rng.randint(0, 5)
        fast = intersect_with_m_power(a, t)
        slow = ideal_intersection(a, variable_power_ideal(nv, range(nv), t))
        assert fast == slow


def test_alpha_degree_is_additive_on_variable_powers():
    p = variable_power_ideal(4, [0, 2], 3)
    assert alpha_degree(p) == 3
    assert alpha_degree(ideal_product(p, p)) == 6


def test_meet_prime_power_matches_pairwise_lcms():
    # zero, unit and random ideals; W empty, partial or full; t = 0..5
    rng = random.Random(_SEED + 6)
    shapes = {"empty": 0, "partial": 0, "full": 0}
    for _ in range(300):
        nv = rng.randint(1, 8)
        gens = [tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(rng.randint(0, 8))]
        a = MonomialIdeal(nv, gens)
        w = sorted(rng.sample(range(nv), rng.randint(0, nv)))
        shapes["empty" if not w else "full" if len(w) == nv else "partial"] += 1
        t = rng.randint(0, 5)
        got = _meet_prime_power(a, w, t)
        want = ideal_intersection(a, variable_power_ideal(nv, w, t))
        assert got.packed == want.packed, (a, w, t)
    assert min(shapes.values()) >= 30, shapes


def test_meet_prime_power_exponent_limit():
    # a deficit filled past 127 raises, in the first variable and in the last
    with pytest.raises(LimitExceeded):
        _meet_prime_power(MonomialIdeal(2, [(100, 0)]), [0], 128)
    with pytest.raises(LimitExceeded):
        _meet_prime_power(MonomialIdeal(2, [(0, 100)]), [1], 128)
    with pytest.raises(LimitExceeded):
        _meet_prime_power(MonomialIdeal(2, [(0, 5)]), [0], 128)
    # a generator already deep enough in W is kept whatever t is
    deep = MonomialIdeal(2, [(100, 100)])
    assert _meet_prime_power(deep, [0, 1], 150) == deep
    assert _meet_prime_power(MonomialIdeal(2, [(100, 0)]), [0], 127).gens == (
        Monomial((127, 0)),
    )


def test_monomials_of_degree_count():
    assert sum(1 for _ in monomials_of_degree(4, 3)) == 20  # C(6,3)
    assert list(monomials_of_degree(3, 0)) == [Monomial.unit(3)]


def test_render_parse_roundtrip():
    rng = random.Random(_SEED + 6)
    for _ in range(50):
        nv = rng.randint(1, 6)
        m = Monomial(tuple(rng.randint(0, 4) for _ in range(nv)))
        assert parse_monomial(m.render(), nv) == m
    a = parse_ideal("(x1*x2, x2*x3)", 3)
    assert a.render() == "(x1*x2, x2*x3)"


small_monomials = st.lists(
    st.integers(min_value=0, max_value=3), min_size=3, max_size=3
).map(Monomial)
small_ideals = st.lists(small_monomials, min_size=1, max_size=5).map(
    lambda gs: MonomialIdeal(3, gs)
)


@settings(max_examples=60, deadline=None)
@given(small_ideals, small_ideals)
def test_prop_intersection_commutes(a, b):
    assert ideal_intersection(a, b) == ideal_intersection(b, a)


@settings(max_examples=60, deadline=None)
@given(small_ideals, small_ideals, small_ideals)
def test_prop_product_distributes_over_sum(a, b, c):
    lhs = ideal_product(a, ideal_sum(b, c))
    rhs = ideal_sum(ideal_product(a, b), ideal_product(a, c))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(small_ideals, small_monomials)
def test_prop_colon_then_multiply_contains(a, d):
    # (a : d) * d subseteq a
    q = ideal_colon(a, d)
    back = ideal_product(q, MonomialIdeal(3, [d]))
    assert ideal_contains(a, back)


def test_packed_kernel_matches_tuple_reference_seeded():
    rng = random.Random(_SEED + 7)
    for _ in range(150):
        nv = rng.randint(1, 8)
        a = random_ideal(rng, nv, rng.randint(1, 8), maxexp=4)
        b = random_ideal(rng, nv, rng.randint(1, 8), maxexp=4)
        d = Monomial(tuple(rng.randint(0, 4) for _ in range(nv)))
        _check_against_naive(a, b, d)
        gens = [Monomial(tuple(rng.randint(0, 4) for _ in range(nv))) for _ in range(30)]
        assert [tuple(g) for g in minimalize(gens)] == _naive_ideal(gens)
    # lcm closures whose generator row spans many machine words: 40-120
    # generators on 9-16 variables, exponents up to 127.  Six variables take
    # three levels each and every generator has level sum 6, so no generator
    # divides another and the closure stays within 3^6 multidegrees.
    shapes = [c for c in itertools.product(range(3), repeat=6) if sum(c) == 6]
    for _ in range(6):
        nv = rng.randint(9, 16)
        active = rng.sample(range(nv), 6)
        levels = {v: (0, *sorted(rng.sample(range(1, 128), 2))) for v in active}
        gens = []
        for shape in rng.sample(shapes, rng.randint(40, 120)):
            exps = [0] * nv
            for v, level in zip(active, shape):
                exps[v] = levels[v][level]
            gens.append(Monomial(exps))
        a = MonomialIdeal(nv, gens)
        assert len(a) == len(gens)
        assert [_unpack(p, nv) for p in lcm_closure(a)] == _naive_closure(a.gens)


@st.composite
def _ideal_pair_and_divisor(draw):
    nv = draw(st.integers(min_value=1, max_value=8))
    mono = st.lists(st.integers(min_value=0, max_value=4), min_size=nv, max_size=nv)
    gens = st.lists(mono, min_size=1, max_size=8)
    return MonomialIdeal(nv, draw(gens)), MonomialIdeal(nv, draw(gens)), Monomial(draw(mono))


@settings(max_examples=80, deadline=None)
@given(_ideal_pair_and_divisor())
def test_prop_packed_kernel_matches_tuple_reference(case):
    _check_against_naive(*case)


def test_exponent_overflow_raises_and_never_wraps():
    x64 = MonomialIdeal(1, [(64,)])
    with pytest.raises(LimitExceeded):
        ideal_product(x64, x64)
    assert ideal_product(x64, MonomialIdeal(1, [(63,)])).gens == (Monomial((127,)),)
    # an overflow in the last variable must not carry into the one before it
    with pytest.raises(LimitExceeded):
        ideal_product(MonomialIdeal(2, [(0, 100)]), MonomialIdeal(2, [(0, 28)]))
    a = MonomialIdeal(1, [(1,)])
    for big in (Monomial((128,)), Monomial((300,))):
        with pytest.raises(LimitExceeded):
            MonomialIdeal(1, [big])
        with pytest.raises(LimitExceeded):
            ideal_colon(a, big)
        with pytest.raises(LimitExceeded):
            contains(a, big)
    with pytest.raises(LimitExceeded):
        variable_power_ideal(2, [0, 1], 128)
    with pytest.raises(LimitExceeded):
        intersect_with_m_power(MonomialIdeal(1, [(100,)]), 128)
