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
    colon_via_even_connections,
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
    return {
        "field": cfg.field,
        "prime": cfg.prime,
        "max_generators": cfg.max_generators,
    }


def _decomposition(inst: GraphInstance) -> CycleDecomposition | None:
    if not inst.cycles:
        return None
    return CycleDecomposition.from_graph(inst.graph, inst.cycles)


# I^s is the zero ideal, so a colon or ordering row would compare nothing.
_EDGELESS = "the edge set is empty, so there are no generators to compare"


def _skip(suite: str, check: str, info: InstanceInfo, reason: str) -> VerificationReport:
    return VerificationReport(suite, check, info, "skipped", reason=reason)


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
        if d.matches:
            out.append(
                VerificationReport(
                    "decomposition", "layer-sum", info, "pass",
                    details=f"{d.k + 1} layers, {len(d.total.gens)} generators",
                )
            )
        else:
            out.append(
                VerificationReport(
                    "decomposition", "layer-sum", info, "fail",
                    witnesses=(d.witness.render(), f"only in {d.witness_side}"),
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
        if m.jm_ok:
            out.append(VerificationReport("m2s", "jm-truncation", info, "pass"))
        else:
            out.append(
                VerificationReport(
                    "m2s", "jm-truncation", info, "fail",
                    witnesses=(m.jm_witness.render(),),
                )
            )
        if m.muk_sum is None:
            out.append(_skip("m2s", "muk-truncation", info, "single designated cycle required"))
        elif m.muk_ok:
            out.append(VerificationReport("m2s", "muk-truncation", info, "pass"))
        else:
            out.append(
                VerificationReport(
                    "m2s", "muk-truncation", info, "fail",
                    witnesses=(m.muk_witness.render(),),
                )
            )
        if not m.all_odd_cycles_dominating:
            out.append(_skip("m2s", "power-truncation", info, "odd cycles do not dominate"))
        elif m.power_ok:
            out.append(VerificationReport("m2s", "power-truncation", info, "pass"))
        else:
            out.append(
                VerificationReport(
                    "m2s", "power-truncation", info, "fail",
                    witnesses=(m.power_witness.render(),),
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
    if inv.formula_ok:
        out.append(
            VerificationReport(
                "invariants", "alpha-formula", info, "pass",
                details=f"alpha {alpha_txt}; waldschmidt {inv.waldschmidt}; "
                f"resurgence {inv.resurgence}",
            )
        )
    else:
        bad = [
            f"s={s}: {a} != {b}"
            for (s, a), (_, b) in zip(inv.alpha_by_s, inv.formula_by_s)
            if a != b
        ]
        out.append(
            VerificationReport(
                "invariants", "alpha-formula", info, "fail", witnesses=tuple(bad)
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
    if disagree:
        out.append(
            VerificationReport(
                "invariants", "containment-grid", info, "fail",
                witnesses=tuple(disagree[:5]),
            )
        )
    elif worst > bound:
        out.append(
            VerificationReport(
                "invariants", "containment-grid", info, "fail",
                witnesses=(f"non-containment ratio {worst} exceeds {bound}",),
            )
        )
    else:
        out.append(
            VerificationReport(
                "invariants", "containment-grid", info, "pass",
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
        if bad is None:
            out.append(
                VerificationReport(
                    "banerjee", "colon-equivalence", info, "pass",
                    details=f"{len(gens)} colon ideals compared",
                )
            )
        else:
            out.append(
                VerificationReport(
                    "banerjee", "colon-equivalence", info, "fail",
                    witnesses=(
                        bad.witness.render(),
                        bad.witness_side or "",
                    ),
                )
            )
    return out


def _suite_orderings(inst: GraphInstance, cfg: RunConfig) -> list[VerificationReport]:
    g = inst.graph
    cd = _decomposition(inst)
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
            out.append(verify_order_lemma(g, s, r))
        if cd is not None:
            out.append(verify_leaf_lemma(g, cd, s))
            out.append(verify_colon_chain(g, cd, s))
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
                if rs == ro:
                    out.append(
                        VerificationReport(
                            "regularity", "sym-vs-ordinary", info, "pass",
                            details=f"reg {rs} on both sides",
                        )
                    )
                else:
                    out.append(
                        VerificationReport(
                            "regularity", "sym-vs-ordinary", info, "fail",
                            witnesses=(f"symbolic {rs}", f"ordinary {ro}"),
                        )
                    )
        if capped is not None:
            out.append(_skip("regularity", "lower-bound", info, capped))
        else:
            qreg, lower = rs - 1, 2 * s + nu_g - 2
            if qreg >= lower:
                out.append(
                    VerificationReport(
                        "regularity", "lower-bound", info, "pass",
                        details=f"quotient reg {qreg} >= {lower}",
                    )
                )
            else:
                out.append(
                    VerificationReport(
                        "regularity", "lower-bound", info, "fail",
                        witnesses=(f"quotient reg {qreg} < {lower}",),
                    )
                )
        socle = socle_regularity(g, s)
        if socle == 2 * s - 1:
            out.append(
                VerificationReport(
                    "regularity", "socle", info, "pass",
                    details=f"socle degree {socle}",
                )
            )
        else:
            # Every degree-(2s-1) monomial then lies in the computed I^(s).
            top = Monomial.variable(0, g.vertex_count).pow(2 * s - 1)
            out.append(
                VerificationReport(
                    "regularity", "socle", info, "fail",
                    witnesses=(
                        f"socle degree {socle} != {2 * s - 1}",
                        f"{top.render()} in I^({s})",
                    ),
                )
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
            VerificationReport(
                "hypotheses", "structure", info, "pass",
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


def _seeded_banerjee(cfg: RunConfig) -> list[VerificationReport]:
    """Colon oracle agreement on seed-reproducible random graphs."""
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
        if bad is None:
            out.append(
                VerificationReport(
                    "banerjee", "seeded-colon", info, "pass",
                    details=f"{g.edge_count} colon ideals compared",
                )
            )
        else:
            out.append(
                VerificationReport(
                    "banerjee", "seeded-colon", info, "fail",
                    witnesses=(bad.witness.render(), bad.witness_side or ""),
                )
            )
    return out


def _seeded_bipartite(cfg: RunConfig) -> list[VerificationReport]:
    """Symbolic equals ordinary on seed-reproducible bipartite graphs."""
    rng = random.Random(cfg.seed + 1)
    out = []
    smax = min(cfg.s_max, 3)
    for index in range(5):
        g = random_connected_graph(
            rng, rng.randint(4, min(6, cfg.max_vertices)), 0.5, bipartite=True
        )
        info = describe_instance(g, label=f"seeded-bipartite-{index}")
        witness = None
        for s in range(1, smax + 1):
            diff = first_difference(symbolic_power(g, s), ordinary_power(g, s))
            if diff is not None:
                witness = (s, diff)
                break
        if witness is None:
            out.append(
                VerificationReport(
                    "invariants", "bipartite-equality", info, "pass",
                    details=f"s <= {smax}",
                )
            )
        else:
            s, (mono, side) = witness
            out.append(
                VerificationReport(
                    "invariants", "bipartite-equality", info, "fail",
                    witnesses=(f"s={s}", mono.render(), side),
                )
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
