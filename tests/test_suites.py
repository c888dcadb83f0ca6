from __future__ import annotations

import dataclasses

import pytest

from edgeideals import betti, evenconnect, suites
from edgeideals.errors import LimitExceeded
from edgeideals.families import (
    cycle_certificate,
    cycle_graph,
    cycle_with_paths,
    three_triangles,
)
from edgeideals.graphs import Graph, parse_graph_text
from edgeideals.monomials import (
    MonomialIdeal,
    ideal_power,
    ideal_sum,
    parse_monomial,
    variable_power_ideal,
)
from edgeideals.reports import RunConfig, exit_code
from edgeideals.suites import GraphInstance, default_instances, run_suite
from edgeideals.symbolic import ordinary_power, symbolic_power

from graph_helpers import path_graph


def _by_check(reports):
    out = {}
    for r in reports:
        out.setdefault((r.suite, r.check), []).append(r)
    return out


def test_default_instances_respect_vertex_cap():
    cfg = RunConfig()
    labels = [i.label for i in default_instances(cfg)]
    assert labels == ["C5", "C7", "three-triangles", "C5-two-branches"]
    small = default_instances(RunConfig(max_vertices=5))
    assert [i.label for i in small] == ["C5", "three-triangles"]


def test_run_suite_deterministic_and_green():
    cfg = RunConfig(s_min=1, s_max=2)
    first = run_suite(cfg)
    second = run_suite(cfg)
    assert first == second
    assert exit_code(first) == 0
    assert all(r.status in ("pass", "skipped") for r in first)
    # every report carries the config echo
    for r in first:
        keys = dict(r.config)
        assert keys["seed"] == "2024"
        assert keys["field"] == "rational"


def test_run_suite_single_suite_selection():
    cfg = RunConfig(s_min=1, s_max=2, suites=("decomposition",))
    inst = [GraphInstance(cycle_graph(5), (cycle_certificate(5),), "C5")]
    reports = run_suite(cfg, inst)
    assert {r.suite for r in reports} == {"decomposition"}
    assert len(reports) == 2
    assert all(r.status == "pass" for r in reports)


def test_suites_skip_without_designated_cycle():
    cfg = RunConfig(s_min=1, s_max=2)
    inst = [GraphInstance(path_graph(4), (), "P4")]
    reports = run_suite(cfg, inst)
    skips = [r for r in reports if r.status == "skipped"]
    assert skips, "cycle-dependent checks should skip"
    assert all("no designated odd cycle" in r.reason for r in skips)
    assert exit_code(reports) == 0
    # the cycle-free checks still run: colon oracle and order lemma
    by = _by_check(reports)
    assert all(r.status == "pass" for r in by[("banerjee", "colon-equivalence")])
    assert all(r.status == "pass" for r in by[("orderings", "order-lemma")])


def test_edgeless_graph_skips_the_rows_that_compare_nothing():
    # I^s is zero, so the colon and order-lemma rows have no generators to compare
    cfg = RunConfig(s_min=1, s_max=3, suites=("banerjee", "orderings"))
    reports = run_suite(cfg, [GraphInstance(Graph(3, []), (), "edgeless")])
    by = _by_check(reports)
    rows = by[("banerjee", "colon-equivalence")] + by[("orderings", "order-lemma")]
    assert len(rows) == 2 + 6
    for r in rows:
        assert r.status == "skipped", (r.check, r.details)
        assert "edge set is empty" in r.reason
        assert r.instance.label == "edgeless"
    assert {r.check for r in reports if r.status != "skipped"} == {"seeded-colon"}


def test_even_connection_cap_skips_the_colon_rows(monkeypatch):
    # a walk search that hits a resource cap stops every colon comparison
    def capped(u, g):
        raise LimitExceeded("even-connection search exceeds 1 states")

    monkeypatch.setattr(evenconnect, "even_connections", capped)
    cfg = RunConfig(s_min=1, s_max=3, suites=("banerjee",))
    reports = run_suite(cfg, [GraphInstance(cycle_graph(5), (cycle_certificate(5),), "C5")])
    by = _by_check(reports)
    rows = by[("banerjee", "colon-equivalence")] + by[("banerjee", "seeded-colon")]
    assert len(rows) == 2 + 5
    for r in rows:
        assert r.status == "skipped"
        assert r.reason == "even-connection search exceeds 1 states"
    assert exit_code(reports) == 0


@pytest.mark.parametrize(
    "change, side, witnesses",
    [
        # no pair at all: the walk-built colon is I, short of every x_a x_b
        (
            lambda real: (),
            "direct colon only",
            ["x3*x5", "x3*x5", "x3^2", "x3*x5", "x2*x3", "x2*x4", "x4^2"],
        ),
        # x1 paired with itself: x1^2 lies in no colon checked here
        (lambda real: tuple(sorted({*real, (1, 1)})), "walk-built colon only", ["x1^2"] * 7),
    ],
    ids=["no-pairs", "self-pair-x1"],
)
def test_colon_rows_fail_on_wrong_even_connections(monkeypatch, change, side, witnesses):
    real = evenconnect.even_connections
    monkeypatch.setattr(evenconnect, "even_connections", lambda u, g: change(real(u, g)))
    cfg = RunConfig(s_min=1, s_max=3, suites=("banerjee",))
    reports = run_suite(cfg, [GraphInstance(cycle_graph(5), (cycle_certificate(5),), "C5")])
    by = _by_check(reports)
    rows = by[("banerjee", "colon-equivalence")] + by[("banerjee", "seeded-colon")]
    assert len(rows) == 2 + 5
    assert [r.status for r in rows] == ["fail"] * 7
    assert [r.witnesses for r in rows] == [(w, side) for w in witnesses]
    assert exit_code(reports) == 1


def test_regularity_gate_reason():
    g, cert = cycle_with_paths(5, [(1, 2)])
    cfg = RunConfig(s_min=1, s_max=1, suites=("regularity",))
    reports = run_suite(cfg, [GraphInstance(g, (cert,), "C5+P2")])
    by = _by_check(reports)
    (r,) = by[("regularity", "sym-vs-ordinary")]
    assert r.status == "skipped"
    assert r.reason == "cycle does not dominate; nu(G)-nu(H) < 3"
    # the unconditional statements still run on the gated instance
    assert by[("regularity", "lower-bound")][0].status == "pass"
    assert by[("regularity", "socle")][0].status == "pass"


def test_regularity_gate_reason_names_odd_cycle_in_h():
    # C5-two-branches with the triangle 10-11-12 hung off the end of a
    # branch: the gap is 3, but the triangle lies in H.
    edges = [(1, 2), (1, 5), (1, 6), (1, 8), (2, 3), (3, 4), (4, 5), (6, 7), (8, 9),
             (7, 10), (10, 11), (10, 12), (11, 12)]
    text = "n 12\n" + "".join(f"e {u} {v}\n" for u, v in edges) + "c 1 2 3 4 5\n"
    g, certs = parse_graph_text(text)
    # the generator cap skips the Betti tables; the gate is decided before them
    cfg = RunConfig(s_min=1, s_max=1, suites=("regularity",), max_generators=5)
    by = _by_check(run_suite(cfg, [GraphInstance(g, certs, "C5-branch-triangle")]))
    (r,) = by[("regularity", "sym-vs-ordinary")]
    assert r.status == "skipped"
    assert r.reason == "cycle does not dominate; H meets an odd cycle"


def _count_tables(monkeypatch):
    """Record every ideal passed to suites.betti_table, and the capped ones."""
    calls, capped = [], []
    real = suites.betti_table

    def counted(a, **kwargs):
        calls.append(a)
        try:
            return real(a, **kwargs)
        except LimitExceeded:
            capped.append(a)
            raise

    monkeypatch.setattr(suites, "betti_table", counted)
    return calls, capped


@pytest.mark.parametrize(
    "label, graph_and_cert",
    [
        ("C5", lambda: (cycle_graph(5), cycle_certificate(5))),
        ("C5-two-branches", lambda: cycle_with_paths(5, [(1, 2), (1, 2)])),
    ],
)
def test_regularity_suite_builds_one_table_per_ideal(monkeypatch, label, graph_and_cert):
    g, cert = graph_and_cert()
    calls, capped = _count_tables(monkeypatch)
    cfg = RunConfig(s_min=1, s_max=3, suites=("regularity",))
    reports = suites._suite_regularity(GraphInstance(g, (cert,), label), cfg)
    expected = []
    for s in (1, 2, 3):
        sym, ordinary = symbolic_power(g, s), ordinary_power(g, s)
        expected.append(sym)
        if sym not in capped and ordinary != sym:
            expected.append(ordinary)
    assert calls == expected
    if label == "C5":
        assert capped == []
    else:
        # the s = 3 closure passes the cap: built once, and both rows skip
        assert capped == [symbolic_power(g, 3)]
        s3 = [r for r in reports if r.instance.s == 3 and r.check != "socle"]
        assert [r.status for r in s3] == ["skipped", "skipped"]
        assert s3[0].reason == s3[1].reason and "lcm closure" in s3[0].reason


def test_socle_row_fails_on_a_wrong_symbolic_power(monkeypatch):
    # I^(s) + m^(2s-1) contains x1^(2s-1) and every other monomial of that
    # degree: the socle row must fail with a witness, not raise.
    def too_big(g, s, *args):
        n = g.vertex_count
        return ideal_sum(
            symbolic_power(g, s, *args),
            ideal_power(variable_power_ideal(n, range(n), 1), 2 * s - 1),
        )

    monkeypatch.setattr(betti, "symbolic_power", too_big)
    monkeypatch.setattr(suites, "symbolic_power", too_big)
    cfg = RunConfig(s_min=1, s_max=2, suites=("regularity",))
    inst = GraphInstance(cycle_graph(5), (cycle_certificate(5),), "C5")
    reports = run_suite(cfg, [inst])
    by = _by_check(reports)
    socle = by[("regularity", "socle")]
    assert [r.status for r in socle] == ["fail", "fail"]
    assert socle[0].witnesses == ("socle degree 0 != 1", "x1 in I^(1)")
    assert socle[1].witnesses == ("socle degree 2 != 3", "x1^3 in I^(2)")
    assert exit_code(reports) == 1


def test_maintheorem_instance_regularity_passes():
    g, cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    cfg = RunConfig(s_min=2, s_max=2, suites=("regularity", "hypotheses"))
    reports = run_suite(cfg, [GraphInstance(g, (cert,), "C5-two-branches")])
    by = _by_check(reports)
    (eq,) = by[("regularity", "sym-vs-ordinary")]
    assert eq.status == "pass", eq.reason
    (hyp,) = by[("hypotheses", "structure")]
    assert "gap>=3=True" in hyp.details


def test_three_triangles_m2s_muk_skip():
    g, certs = three_triangles()
    cfg = RunConfig(s_min=2, s_max=2, suites=("m2s",))
    reports = run_suite(cfg, [GraphInstance(g, certs, "bowtie")])
    by = _by_check(reports)
    assert by[("m2s", "jm-truncation")][0].status == "pass"
    (muk,) = by[("m2s", "muk-truncation")]
    assert muk.status == "skipped"
    assert "single designated cycle" in muk.reason
    assert by[("m2s", "power-truncation")][0].status == "pass"


def test_seeded_sweeps_depend_on_seed():
    cfg_a = RunConfig(s_min=1, s_max=1, suites=("banerjee",), seed=1)
    cfg_b = RunConfig(s_min=1, s_max=1, suites=("banerjee",), seed=2)
    inst = []
    a = run_suite(cfg_a, inst)
    b = run_suite(cfg_b, inst)
    assert [r.check for r in a] == ["seeded-colon"] * 5
    hashes_a = [r.instance.graph_hash for r in a]
    hashes_b = [r.instance.graph_hash for r in b]
    assert hashes_a != hashes_b
    assert all(r.status == "pass" for r in a + b)


def _orderings_rows(inst, s):
    return _by_check(suites._suite_orderings(inst, RunConfig(s_min=s, s_max=s)))


def test_order_lemma_row_fails_without_the_higher_power(monkeypatch):
    # with I^(s+1) zero only the single-variable branch can admit a pair
    real = evenconnect.ordinary_power

    def zero_above(g, s):
        return MonomialIdeal.zero(g.vertex_count) if s == 2 else real(g, s)

    monkeypatch.setattr(evenconnect, "ordinary_power", zero_above)
    inst = GraphInstance(cycle_graph(5), (cycle_certificate(5),), "C5")
    rows = _orderings_rows(inst, 1)[("orderings", "order-lemma")]
    assert [r.status for r in rows] == ["fail", "fail"]
    assert rows[0].witnesses == (
        "u_3=x2*x3", "u_4=x1*x5", "quotient x2*x3 escapes both branches"
    )
    assert rows[1].witnesses == (
        "u_10=x1*x2*x3", "u_14=x1^2*x5", "quotient x2*x3 escapes both branches"
    )
    assert rows[0].config == (("edge_order", "endpoint-descending"),)


def test_leaf_lemma_row_fails_on_a_reversed_generator_order(monkeypatch):
    real = evenconnect.generator_ordering

    def reversed_order(*args, **kwargs):
        return real(*args, **kwargs)[::-1]

    monkeypatch.setattr(evenconnect, "generator_ordering", reversed_order)
    g, cert = cycle_with_paths(5, [(1, 2), (2, 2)])
    (row,) = _orderings_rows(GraphInstance(g, (cert,), "C5-branches"), 2)[
        ("orderings", "leaf-lemma")
    ]
    assert row.status == "fail"
    assert row.witnesses == (
        "u_t=x1*x2*x6*x8", "pair (x7,x9)", "no greater generator with colon (x7)"
    )
    assert row.config == (("edge_order", "leaf-peel"),)


def test_colon_chain_row_fails_when_a_required_variable_is_missing(monkeypatch):
    # L enlarged by the pendant variables, which no layer colon contains
    real = suites._decomposition

    def enlarged(inst):
        cd = real(inst)
        gens = cd.L.gens + cd.K.gens
        return dataclasses.replace(cd, L=MonomialIdeal(inst.graph.vertex_count, gens))

    monkeypatch.setattr(suites, "_decomposition", enlarged)
    g, cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    (row,) = _orderings_rows(GraphInstance(g, (cert,), "C5-two-branches"), 3)[
        ("orderings", "colon-chain")
    ]
    assert row.status == "fail"
    assert row.witnesses == (
        "layer 1, f=x1*x2*x3*x4*x5*x7",
        "variable x7 missing from the colon",
        "(x1, x2, x3, x4, x5, x6, x8)",
    )
    assert row.config == (("edge_order", "leaf-peel"),)


def test_colon_chain_row_fails_when_a_colon_is_not_edges_plus_variables(monkeypatch):
    # x7*x9 is no edge, and no layer colon contains it
    real = evenconnect.edge_ideal

    def with_chord(g):
        return ideal_sum(real(g), MonomialIdeal(g.vertex_count, [parse_monomial("x7*x9", 9)]))

    monkeypatch.setattr(evenconnect, "edge_ideal", with_chord)
    g, cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    (row,) = _orderings_rows(GraphInstance(g, (cert,), "C5-two-branches"), 3)[
        ("orderings", "colon-chain")
    ]
    assert row.status == "fail"
    assert row.witnesses == (
        "layer 1, f=x1*x2*x3*x4*x5*x7",
        "colon is not edge ideal plus variables: x7*x9",
        "(x1, x2, x3, x4, x5, x6, x8)",
    )


def test_every_row_names_its_instance():
    cfg = RunConfig()
    catalog = {i.label: tuple(c.vertices for c in i.cycles) for i in default_instances(cfg)}
    reports = run_suite(cfg)
    for r in reports:
        label = r.instance.label
        assert label in catalog or label.startswith("seeded-"), (r.check, label)
        if label in catalog:
            assert r.instance.cycles == catalog[label], (r.check, label)
