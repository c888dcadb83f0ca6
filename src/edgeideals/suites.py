"""Built-in verification suites over graph instances.

Each suite turns one statement family into VerificationReports: exact ideal
identities for the symbolic-power decompositions, colon oracles, ordering
lemmas, and regularity statements.  Checks whose hypotheses do not hold on an
instance are reported as skipped with the gating reason, never as failures,
and resource-capped computations degrade to skips the same way.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .betti import betti_table, socle_regularity
from .errors import LimitExceeded
from .evenconnect import (
    EvenColonResult,
    LemmaResult,
    colon_via_even_connections,
    leaf_peel_order,
    verify_colon_chain,
    verify_leaf_lemma,
    verify_order_lemma,
)
from .families import (
    cycle_certificate,
    cycle_graph,
    cycle_with_paths,
    random_connected_graph,
    three_triangles,
)
from .graphs import CycleCertificate, Graph, HypothesesReport, check_hypotheses
from .monomials import Monomial, first_difference
from .reports import InstanceInfo, RunConfig, VerificationReport, describe_instance
from .symbolic import (
    CycleDecomposition,
    asymptotic_invariants,
    containment_check,
    decompose_symbolic,
    m2s_identities,
    ordinary_power,
    symbolic_power,
)


@dataclass(frozen=True)
class GraphInstance:
    graph: Graph
    cycles: tuple[CycleCertificate, ...] = ()
    label: str = ""


def default_instances(cfg: RunConfig) -> list[GraphInstance]:
    """The worked instance catalog: two plain odd cycles, the three-triangle
    clique sum, and the two-branch graph whose nu-gap meets the main theorem."""
    bow, bow_cycles = three_triangles()
    two, two_cert = cycle_with_paths(5, [(1, 2), (1, 2)])
    catalog = [
        GraphInstance(cycle_graph(5), (cycle_certificate(5),), "C5"),
        GraphInstance(cycle_graph(7), (cycle_certificate(7),), "C7"),
        GraphInstance(bow, bow_cycles, "three-triangles"),
        GraphInstance(two, (two_cert,), "C5-two-branches"),
    ]
    return [i for i in catalog if i.graph.vertex_count <= cfg.max_vertices]


def _betti_kwargs(cfg: RunConfig) -> dict:
    return {"prime": cfg.prime, "max_generators": cfg.max_generators}


def _decomposition(inst: GraphInstance) -> CycleDecomposition | None:
    if not inst.cycles:
        return None
    return CycleDecomposition.from_graph(inst.graph, inst.cycles)


# I^s is the zero ideal, so a colon or ordering row would compare nothing.
_EDGELESS = "the edge set is empty, so there are no generators to compare"


def _skip(suite: str, check: str, info: InstanceInfo, reason: str) -> VerificationReport:
    return VerificationReport(suite, check, info, "skipped", reason=reason)


def _row(
    suite: str,
    check: str,
    info: InstanceInfo,
    witnesses: Sequence[str] = (),
    details: str = "",
    config: tuple[tuple[str, str], ...] = (),
) -> VerificationReport:
    """A `fail` row carrying the witnesses when there are any, else a `pass`
    row with the details."""
    if witnesses:
        return VerificationReport(
            suite, check, info, "fail", witnesses=tuple(witnesses), config=config
        )
    return VerificationReport(suite, check, info, "pass", details=details, config=config)


def _s_range(cfg: RunConfig) -> range:
    return range(cfg.s_min, cfg.s_max + 1)


def _suite_decomposition(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    g = inst.graph
    cd = _decomposition(inst)
    out = []
    for s in _s_range(cfg):
        info = describe_instance(g, inst.cycles, s=s, label=inst.label)
        if cd is None:
            out.append(_skip("decomposition", "layer-sum", info, "no designated odd cycle"))
            continue
        d = decompose_symbolic(g, cd, s)
        out.append(
            _row(
                "decomposition", "layer-sum", info,
                () if d.matches else (d.witness.render(), f"only in {d.witness_side}"),
                details=f"{d.k + 1} layers, {len(d.total.gens)} generators",
            )
        )
    return out


def _suite_m2s(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    g = inst.graph
    cd = _decomposition(inst)
    out = []
    for s in _s_range(cfg):
        info = describe_instance(g, inst.cycles, s=s, label=inst.label)
        if cd is None:
            out.append(_skip("m2s", "truncation", info, "no designated odd cycle"))
            continue
        m = m2s_identities(g, cd, s)
        out.append(
            _row("m2s", "jm-truncation", info, () if m.jm_ok else (m.jm_witness.render(),))
        )
        if m.muk_ok is None:
            out.append(_skip("m2s", "muk-truncation", info, "single designated cycle required"))
        else:
            out.append(
                _row("m2s", "muk-truncation", info, () if m.muk_ok else (m.muk_witness.render(),))
            )
        if not m.all_odd_cycles_dominating:
            out.append(_skip("m2s", "power-truncation", info, "odd cycles do not dominate"))
        else:
            out.append(
                _row(
                    "m2s", "power-truncation", info,
                    () if m.power_ok else (m.power_witness.render(),),
                )
            )
    return out


def _suite_invariants(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    g = inst.graph
    cd = _decomposition(inst)
    info = describe_instance(g, inst.cycles, label=inst.label)
    if cd is None:
        return [_skip("invariants", "alpha-formula", info, "no designated odd cycle")]
    out = []
    inv = asymptotic_invariants(g, cd, cfg.s_max)
    alpha_txt = " ".join(f"{s}:{a}" for s, a in inv.alpha_by_s)
    bad = [
        f"s={s}: {a} != {b}"
        for (s, a), (_, b) in zip(inv.alpha_by_s, inv.formula_by_s)
        if a != b
    ]
    out.append(
        _row(
            "invariants", "alpha-formula", info, bad,
            details=f"alpha {alpha_txt}; waldschmidt {inv.waldschmidt}; "
            f"resurgence {inv.resurgence}",
        )
    )
    bound = inv.resurgence
    worst = Fraction(0)
    non_containments = 0
    disagree = []
    for s in _s_range(cfg):
        for t in _s_range(cfg):
            cell = containment_check(g, s, t)
            if not cell.agree:
                disagree.append(f"(s={s}, t={t})")
            if not cell.contained:
                non_containments += 1
                worst = max(worst, Fraction(s, t))
    cells = len(_s_range(cfg)) ** 2
    witnesses = disagree[:5]
    if not witnesses and worst > bound:
        witnesses = [f"non-containment ratio {worst} exceeds {bound}"]
    out.append(
        _row(
            "invariants", "containment-grid", info, witnesses,
            details=f"{cells} cells, {non_containments} non-containments, "
            f"max ratio {worst} <= {bound}",
        )
    )
    return out


def _first_mismatch(
    g: Graph, gens: Sequence[Monomial], s: int
) -> EvenColonResult | None:
    """The first colon I^s : u, over the generators u, whose walk-built and
    direct forms differ; LimitExceeded passes through."""
    for u in gens:
        res = colon_via_even_connections(g, u, s)
        if not res.matches:
            return res
    return None


def _colon_witnesses(bad: EvenColonResult | None) -> tuple[str, ...]:
    return () if bad is None else (bad.witness.render(), bad.witness_side or "")


def _suite_banerjee(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    g = inst.graph
    out = []
    for s in _s_range(cfg):
        if s < 2:
            continue
        info = describe_instance(g, inst.cycles, s=s, label=inst.label)
        if g.is_edgeless():
            out.append(_skip("banerjee", "colon-equivalence", info, _EDGELESS))
            continue
        gens = ordinary_power(g, s - 1).gens
        if len(gens) > cfg.max_generators:
            out.append(
                _skip(
                    "banerjee", "colon-equivalence", info,
                    f"{len(gens)} generators exceed the {cfg.max_generators} cap",
                )
            )
            continue
        try:
            bad = _first_mismatch(g, gens, s)
        except LimitExceeded as exc:
            out.append(_skip("banerjee", "colon-equivalence", info, str(exc)))
            continue
        out.append(
            _row(
                "banerjee", "colon-equivalence", info, _colon_witnesses(bad),
                details=f"{len(gens)} colon ideals compared",
            )
        )
    return out


def _lemma_row(
    check: str, info: InstanceInfo, res: LemmaResult, witnesses: Callable, details: str
) -> VerificationReport:
    """An orderings row: the failure rendered by `witnesses`, if any, else a
    pass with the details; either way it names the edge order used."""
    return _row(
        "orderings", check, info,
        () if res.failure is None else witnesses(*res.failure),
        details=details,
        config=(("edge_order", res.order.label),),
    )


def _order_witnesses(j, k, uj, uk, quotient) -> tuple[str, ...]:
    return (
        f"u_{j}={uj.render()}",
        f"u_{k}={uk.render()}",
        f"quotient {quotient.render()} escapes both branches",
    )


def _leaf_witnesses(ut, a, b, z) -> tuple[str, ...]:
    return (f"u_t={ut.render()}", f"pair (x{a},x{b})", f"no greater generator with colon (x{z})")


def _chain_witnesses(layer, u, partial, q, m, missing) -> tuple[str, ...]:
    where = f"partial colon by {u.render()}" if partial else f"f={u.render()}"
    if missing:
        msg = f"variable {m.render()} missing from the colon"
    else:
        msg = f"colon is not edge ideal plus variables: {m.render()}"
    return (f"layer {layer}, {where}", msg, q.render())


def _suite_orderings(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    """The order lemma at r = 0, 1 for each s; with a designated cycle, the
    leaf lemma and the colon chain along its leaf-peel order, found once."""
    g = inst.graph
    cd = _decomposition(inst)
    peel, no_peel = None, None
    if cd is not None:
        try:
            peel = leaf_peel_order(cd)
        except ValueError as exc:
            no_peel = str(exc)
    out = []
    for s in _s_range(cfg):
        for r in (0, 1):
            info = describe_instance(g, inst.cycles, s=s, r=r, label=inst.label)
            if g.is_edgeless():
                out.append(_skip("orderings", "order-lemma", info, _EDGELESS))
                continue
            size = len(ordinary_power(g, s).gens) * g.vertex_count ** r
            if size > cfg.max_generators:
                out.append(
                    _skip(
                        "orderings", "order-lemma", info,
                        f"about {size} generators exceed the {cfg.max_generators} cap",
                    )
                )
                continue
            res = verify_order_lemma(g, s, r)
            out.append(
                _lemma_row(
                    "order-lemma", info, res, _order_witnesses,
                    f"{res.checked} ordered pairs over {res.size} generators",
                )
            )
        if cd is None:
            continue
        info = describe_instance(g, inst.cycles, s=s, label=inst.label)
        if peel is None:
            out.append(_skip("orderings", "leaf-lemma", info, no_peel))
            out.append(_skip("orderings", "colon-chain", info, no_peel))
            continue
        res = verify_leaf_lemma(g, peel, s)
        out.append(
            _lemma_row(
                "leaf-lemma", info, res, _leaf_witnesses,
                f"{res.checked} even-connected pendant pairs over {res.size} generators",
            )
        )
        res = verify_colon_chain(g, cd, s, peel.order)
        out.append(
            _lemma_row(
                "colon-chain", info, res, _chain_witnesses,
                f"{res.checked} colon checks across {res.size} layers",
            )
        )
    return out


def _equality_gate(hyp: HypothesesReport) -> str | None:
    """Why reg I^(s) = reg I^s is not asserted for (G, C), or None when it is:
    C dominates G, or nu(G)-nu(H) >= 3 with H off every odd cycle."""
    if hyp.dominates_open or (hyp.gap_at_least_3 and hyp.h_off_all_cycles):
        return None
    failed = ["cycle does not dominate"]
    if not hyp.gap_at_least_3:
        failed.append("nu(G)-nu(H) < 3")
    if not hyp.h_off_all_cycles:
        failed.append("H meets an odd cycle")
    return "; ".join(failed)


def _suite_regularity(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    """One Betti table of I^(s) per s serves both regularity rows; I^s gets
    its own table only where it differs from I^(s)."""
    g = inst.graph
    cd = _decomposition(inst)
    kwargs = _betti_kwargs(cfg)
    out = []
    info0 = describe_instance(g, inst.cycles, label=inst.label)
    if cd is None:
        return [_skip("regularity", "sym-vs-ordinary", info0, "no designated odd cycle")]
    hyp = check_hypotheses(g, cd.cycles[0], cfg.max_vertices)
    nu_g = hyp.nu_g
    gate = _equality_gate(hyp)
    for s in _s_range(cfg):
        info = describe_instance(g, inst.cycles, s=s, label=inst.label)
        sym = symbolic_power(g, s)
        capped = None
        try:
            rs = betti_table(sym, **kwargs).regularity
        except LimitExceeded as exc:
            capped = str(exc)
        if gate is not None or capped is not None:
            out.append(_skip("regularity", "sym-vs-ordinary", info, gate or capped))
        else:
            ordinary = ordinary_power(g, s)
            try:
                ro = rs if ordinary == sym else betti_table(ordinary, **kwargs).regularity
            except LimitExceeded as exc:
                out.append(_skip("regularity", "sym-vs-ordinary", info, str(exc)))
            else:
                out.append(
                    _row(
                        "regularity", "sym-vs-ordinary", info,
                        () if rs == ro else (f"symbolic {rs}", f"ordinary {ro}"),
                        details=f"reg {rs} on both sides",
                    )
                )
        if capped is not None:
            out.append(_skip("regularity", "lower-bound", info, capped))
        else:
            qreg, lower = rs - 1, 2 * s + nu_g - 2
            out.append(
                _row(
                    "regularity", "lower-bound", info,
                    () if qreg >= lower else (f"quotient reg {qreg} < {lower}",),
                    details=f"quotient reg {qreg} >= {lower}",
                )
            )
        socle = socle_regularity(g, s)
        witnesses: tuple[str, ...] = ()
        if socle != 2 * s - 1:
            # Every degree-(2s-1) monomial then lies in the computed I^(s).
            top = Monomial.variable(0, g.vertex_count).pow(2 * s - 1)
            witnesses = (f"socle degree {socle} != {2 * s - 1}", f"{top.render()} in I^({s})")
        out.append(
            _row("regularity", "socle", info, witnesses, details=f"socle degree {socle}")
        )
    return out


def _suite_hypotheses(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    g = inst.graph
    info = describe_instance(g, inst.cycles, label=inst.label)
    if not inst.cycles:
        return [_skip("hypotheses", "structure", info, "no designated odd cycle")]
    out = []
    for cert in inst.cycles:
        hyp = check_hypotheses(g, cert, cfg.max_vertices)
        out.append(
            _row(
                "hypotheses", "structure", info,
                details=(
                    f"cycle {'-'.join(map(str, cert.vertices))}: n={hyp.n}, "
                    f"dominates={hyp.dominates_open}, nu(G)={hyp.nu_g}, "
                    f"nu(H)={hyp.nu_h}, gap>=3={hyp.gap_at_least_3}, "
                    f"H off cycles={hyp.h_off_all_cycles}"
                ),
            )
        )
    return out


_SUITE_FUNCS: dict[str, Callable[[GraphInstance, RunConfig], list[VerificationReport]]] = {
    "decomposition": _suite_decomposition,
    "m2s": _suite_m2s,
    "invariants": _suite_invariants,
    "banerjee": _suite_banerjee,
    "orderings": _suite_orderings,
    "regularity": _suite_regularity,
    "hypotheses": _suite_hypotheses,
}


def _seeded_skips(
    suite: str, check: str, label: str, cfg: RunConfig, s: int | None = None
) -> list[VerificationReport]:
    """The five rows of a seeded sweep, none drawn: its graphs have 4 to 6 vertices."""
    reason = f"seeded graphs need at least 4 vertices; the max_vertices cap is {cfg.max_vertices}"
    return [
        _skip(suite, check, describe_instance(Graph(0), s=s, label=f"{label}-{index}"), reason)
        for index in range(5)
    ]


def _seeded_banerjee(cfg: RunConfig) -> list[VerificationReport]:
    """Colon oracle agreement on seed-reproducible random graphs."""
    if cfg.max_vertices < 4:
        return _seeded_skips("banerjee", "seeded-colon", "seeded", cfg, s=2)
    rng = random.Random(cfg.seed)
    out = []
    for index in range(5):
        g = random_connected_graph(rng, rng.randint(4, min(6, cfg.max_vertices)), 0.5)
        info = describe_instance(g, s=2, label=f"seeded-{index}")
        try:
            bad = _first_mismatch(g, ordinary_power(g, 1).gens, 2)
        except LimitExceeded as exc:
            out.append(_skip("banerjee", "seeded-colon", info, str(exc)))
            continue
        out.append(
            _row(
                "banerjee", "seeded-colon", info, _colon_witnesses(bad),
                details=f"{g.edge_count} colon ideals compared",
            )
        )
    return out


def _seeded_bipartite(cfg: RunConfig) -> list[VerificationReport]:
    """Symbolic equals ordinary on seed-reproducible bipartite graphs."""
    if cfg.max_vertices < 4:
        return _seeded_skips("invariants", "bipartite-equality", "seeded-bipartite", cfg)
    rng = random.Random(cfg.seed + 1)
    out = []
    smax = min(cfg.s_max, 3)
    for index in range(5):
        g = random_connected_graph(
            rng, rng.randint(4, min(6, cfg.max_vertices)), 0.5, bipartite=True
        )
        info = describe_instance(g, label=f"seeded-bipartite-{index}")
        witnesses: tuple[str, ...] = ()
        for s in range(1, smax + 1):
            diff = first_difference(symbolic_power(g, s), ordinary_power(g, s))
            if diff is not None:
                witnesses = (f"s={s}", diff[0].render(), diff[1])
                break
        out.append(
            _row("invariants", "bipartite-equality", info, witnesses, details=f"s <= {smax}")
        )
    return out


def run_suite(
    cfg: RunConfig, instances: Sequence[GraphInstance] | None = None
) -> list[VerificationReport]:
    """Run the selected suites over the given (or default) instances.

    Report order is deterministic: instances in input order, suites in
    canonical order, s ascending; the seeded sweeps come last.  Every
    report echoes the run configuration.
    """
    if instances is None:
        instances = default_instances(cfg)
    selected = cfg.selected_suites()
    reports: list[VerificationReport] = []
    for inst in instances:
        for suite in selected:
            reports.extend(_SUITE_FUNCS[suite](inst, cfg))
    if "banerjee" in selected:
        reports.extend(_seeded_banerjee(cfg))
    if "invariants" in selected:
        reports.extend(_seeded_bipartite(cfg))
    echo = tuple(cfg.echo())
    return [dataclasses.replace(r, config=r.config + echo) for r in reports]
