"""Acceptance gate: one test per stated criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v` (each test name is one
criterion) or with `-s` to see the per-criterion summary lines.  The
deeper checks of criteria 7, 10 and 12 run only when EDGEIDEALS_EXTENDED=1
is set; with them the file takes about 10 s on a 2-vCPU machine, and CI
runs it that way too.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

from edgeideals.betti import betti_table, socle_regularity
from edgeideals.evenconnect import (
    colon_via_even_connections,
    leaf_peel_order,
    verify_colon_chain,
    verify_leaf_lemma,
    verify_order_lemma,
)
from edgeideals.families import (
    attach_path,
    cycle_certificate,
    cycle_graph,
    cycle_with_paths,
    random_connected_graph,
    three_triangles,
)
from edgeideals.graphs import (
    CycleCertificate,
    check_hypotheses,
    induced_matching_number,
    induced_subgraph,
    is_bipartite,
    neighborhoods,
    odd_cycles,
)
from edgeideals.monomials import alpha_degree, first_difference
from edgeideals.symbolic import (
    CycleDecomposition,
    alpha_formula,
    asymptotic_invariants,
    containment_check,
    decompose_symbolic,
    edge_ideal,
    m2s_identities,
    ordinary_power,
    symbolic_power,
)

from graph_helpers import connected_bipartite_graphs, random_forest

EXTENDED = bool(os.environ.get("EDGEIDEALS_EXTENDED"))


def _done(num: int, slug: str, start: float) -> None:
    print(f"criterion {num:02d} {slug}: PASS ({time.time() - start:.1f}s)")


def _c5():
    return cycle_graph(5), cycle_certificate(5)


def _c7():
    return cycle_graph(7), cycle_certificate(7)


def _decomp(g, certs):
    return CycleDecomposition.from_graph(g, certs)


def test_criterion_01_alpha_closed_form():
    start = time.time()
    for g, cert in (_c5(), _c7()):
        n = cert.half_length
        for s in range(1, 6):
            got = alpha_degree(symbolic_power(g, s))
            assert got == alpha_formula(s, n) == 2 * s - s // (n + 1), (g, s, got)
    _done(1, "alpha closed form, C5 and C7, s<=5", start)


def _decomposition_instances():
    c5, cert5 = _c5()
    c7, cert7 = _c7()
    bow, bow_certs = three_triangles()
    pend, pend_cert = cycle_with_paths(5, [(1, 2)])
    return (
        ("C5", c5, (cert5,), 4),
        ("C7", c7, (cert7,), 4),
        ("three-triangles", bow, bow_certs, 3),
        ("C5+path", pend, (pend_cert,), 3),
    )


def test_criterion_02_symbolic_decomposition():
    start = time.time()
    for label, g, certs, smax in _decomposition_instances():
        cd = _decomp(g, certs)
        for s in range(1, smax + 1):
            d = decompose_symbolic(g, cd, s)
            assert d.matches, (label, s, d.witness, d.witness_side)
    _done(2, "layer decomposition of symbolic powers", start)


def test_criterion_03_m2s_truncation_identities():
    start = time.time()
    for label, g, certs, smax in _decomposition_instances():
        cd = _decomp(g, certs)
        for s in range(1, smax + 1):
            m = m2s_identities(g, cd, s)
            assert m.jm_ok, (label, s, m.jm_witness)
            if cd.single_cycle:
                assert m.muk_ok, (label, s, m.muk_witness)
    _done(3, "truncation identities, both layer sums", start)


def test_criterion_04_dominant_cycle_truncation():
    start = time.time()
    c5, cert5 = _c5()
    bow, bow_certs = three_triangles()
    pendants = attach_path(attach_path(c5, 1, 1), 3, 1)
    pend_cert = CycleCertificate.check(pendants, (1, 2, 3, 4, 5))
    for label, g, certs in (
        ("C5", c5, (cert5,)),
        ("three-triangles", bow, bow_certs),
        ("C5+pendant-vertices", pendants, (pend_cert,)),
    ):
        cd = _decomp(g, certs)
        for s in range(1, 4):
            m = m2s_identities(g, cd, s)
            assert m.all_odd_cycles_dominating, label
            assert m.power_ok, (label, s, m.power_witness)
    _done(4, "dominant cycles: I^(s) cap m^2s = I^s", start)


def test_criterion_05_bipartite_equality_and_witnesses():
    start = time.time()
    checked = 0
    for n in range(2, 7):
        for g in connected_bipartite_graphs(n):
            for s in (1, 2, 3):
                diff = first_difference(symbolic_power(g, s), ordinary_power(g, s))
                assert diff is None, (g.edges, s, diff)
            checked += 1
    assert checked == 1 + 3 + 19 + 195 + 3031

    rng = random.Random(41509)
    found = 0
    while found < 20:
        g = random_connected_graph(rng, rng.randint(5, 7), 0.5)
        if is_bipartite(g):
            continue
        n = odd_cycles(g).odd_cycles[0].half_length  # the shortest odd cycle
        witnessed = any(
            first_difference(symbolic_power(g, s), ordinary_power(g, s)) is not None
            for s in range(2, n + 2)
        )
        assert witnessed, (g.edges, n)
        found += 1
    _done(5, "bipartite exhaustive equality + 20 odd witnesses", start)


def test_criterion_06_colon_oracle_equivalence():
    start = time.time()
    c5, _ = _c5()
    c7, _ = _c7()
    bow, _ = three_triangles()
    graphs = [c5, c7, bow]
    rng = random.Random(61104)
    while len(graphs) < 23:
        graphs.append(random_connected_graph(rng, rng.randint(4, 7), 0.5))
    compared = 0
    for g in graphs:
        for s in (2, 3):
            for u in ordinary_power(g, s - 1).gens:
                res = colon_via_even_connections(g, u, s)
                assert res.matches, (g.edges, s, u.render(), res.witness)
                compared += 1
    assert compared > 500
    _done(6, f"colon oracle equivalence on {compared} colons", start)


def test_criterion_07_regularity_equality():
    start = time.time()
    c5, _ = _c5()
    bow, _ = three_triangles()
    smax = 3 if EXTENDED else 2
    for label, g in (("C5", c5), ("three-triangles", bow)):
        for s in range(1, smax + 1):
            rs = betti_table(symbolic_power(g, s)).regularity
            ro = betti_table(ordinary_power(g, s)).regularity
            assert rs == ro, (label, s, rs, ro)
    _done(7, f"reg(I^(s)) = reg(I^s), s<={smax}", start)


def test_criterion_08_maintheorem_instance():
    start = time.time()
    g, cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    hyp = check_hypotheses(g, cert)
    assert hyp.gap_at_least_3, (hyp.nu_g, hyp.nu_h)
    assert hyp.h_off_all_cycles
    h, _ = induced_subgraph(g, set(g.vertices) - neighborhoods(g, cert.vertices))
    assert is_bipartite(h)  # H is a forest
    rs = betti_table(symbolic_power(g, 2)).regularity
    ro = betti_table(ordinary_power(g, 2)).regularity
    assert rs == ro, (rs, ro)
    _done(8, "nu-gap instance: hypotheses + reg equality at s=2", start)


def test_criterion_09_forest_regularity_oracle():
    start = time.time()
    rng = random.Random(90815)
    done = 0
    while done < 50:
        f = random_forest(rng, rng.randint(3, 9))
        if f.is_edgeless():
            continue
        nu, _ = induced_matching_number(f)
        assert betti_table(edge_ideal(f)).regularity - 1 == nu, f.edges
        done += 1
    _done(9, "forest quotient regularity equals nu, 50 samples", start)


def test_criterion_10_regularity_lower_bound():
    start = time.time()
    c5, _ = _c5()
    bow, _ = three_triangles()
    smax = 3 if EXTENDED else 2
    for label, g in (("C5", c5), ("three-triangles", bow)):
        nu, _ = induced_matching_number(g)
        for s in range(1, smax + 1):
            qreg = betti_table(symbolic_power(g, s)).regularity - 1
            assert qreg >= 2 * s + nu - 2, (label, s, qreg)
    _done(10, "lower bound 2s+nu-2 on symbolic quotient reg", start)


def test_criterion_11_socle_degree():
    start = time.time()
    c5, _ = _c5()
    bow, _ = three_triangles()
    for label, g in (("C5", c5), ("three-triangles", bow)):
        for s in (1, 2, 3):
            assert socle_regularity(g, s) == 2 * s - 1, (label, s)
    _done(11, "socle degree of I^(s)+m^2s is 2s-1", start)


def test_criterion_12_containment_grid():
    start = time.time()
    c5, cert5 = _c5()
    cd = _decomp(c5, (cert5,))
    bound = asymptotic_invariants(c5, cd, 1).resurgence
    assert bound == Fraction(6, 5)
    worst = Fraction(0)
    for s in range(1, 6):
        for t in range(1, 6):
            cell = containment_check(c5, s, t)
            assert cell.agree, (s, t, cell)
            if not cell.contained:
                worst = max(worst, Fraction(s, t))
    assert worst <= bound
    if EXTENDED:
        # the 6/5 ratio is the exact closed-form supremum; the (6,5) cell
        # itself is a containment, so no grid cell attains the ratio
        cell = containment_check(c5, 6, 5)
        assert cell.contained and cell.agree, cell
    _done(12, f"containment grid, non-containment ratios <= {bound}", start)


def test_criterion_13_ordering_lemmas():
    start = time.time()
    c5, _ = _c5()
    for s, r in ((1, 0), (2, 0), (1, 1), (2, 1)):
        res = verify_order_lemma(c5, s, r)
        assert res.failure is None, (s, r, res.failure)
    two, two_cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    c7p, c7p_cert = cycle_with_paths(7, [(1, 2)])
    for label, g, cert in (("C5+two-P3", two, two_cert), ("C7+P3", c7p, c7p_cert)):
        cd = _decomp(g, (cert,))
        lp = leaf_peel_order(cd)
        for s in (1, 2, 3):
            leaf = verify_leaf_lemma(g, lp, s)
            assert leaf.failure is None, (label, s, leaf.failure)
            chain = verify_colon_chain(g, cd, s, lp.order)
            assert chain.failure is None, (label, s, chain.failure)
    _done(13, "order, leaf, and colon-chain lemmas", start)
