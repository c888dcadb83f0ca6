"""Edge ideals, their symbolic powers, and the cycle-sum decompositions.

The ground truth for I^(s) is always the intersection of the s-th powers
of the minimal-cover primes (edge ideals are radical, so the minimal
covers carry the whole associated set).  The covers of the last graph asked
about are kept as a table of each prime's packed variables, so I^(1),
I^(2), ... of one graph enumerate them once.  The intersection is taken one
cover at a time on packed generators: a monomial lies in (W)^s exactly when
its degree in W's variables is at least s, so each generator either stays
or is raised by every W-monomial of its deficit, and no ideal is built
between covers.  The structured sums built here are verified against that
oracle, never the other way round.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import LimitExceeded
from .graphs import (
    DEFAULT_MAX_VERTICES,
    CycleCertificate,
    Graph,
    dominating_odd_cycles,
    minimal_vertex_covers,
    neighborhoods,
)
from .monomials import (
    MAX_EXPONENT,
    Monomial,
    MonomialIdeal,
    _meet,
    _units,
    alpha_degree,
    first_difference,
    ideal_contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect_with_m_power,
    variable_power_ideal,
)


@lru_cache(maxsize=None)
def edge_ideal(g: Graph) -> MonomialIdeal:
    """I(G), generated by x_u x_v over the edges of G.

    Distinct squarefree products of two variables never divide each other,
    and one degree in descending packed order is canonical order.
    """
    x = _units(g.vertex_count, range(g.vertex_count))
    return MonomialIdeal._from_minimal(
        g.vertex_count, sorted((x[u - 1] + x[v - 1] for u, v in g.edges), reverse=True)
    )


@lru_cache(maxsize=None)
@lru_cache(maxsize=None)
def ordinary_power(g: Graph, s: int) -> MonomialIdeal:
    """I(G)^s, for s >= 2 the product of the cached I(G)^(s-1) with I(G)."""
    if s < 0:
        raise ValueError("negative power")
    if s < 2 or g.is_edgeless():
        return ideal_power(edge_ideal(g), s)
    if s > MAX_EXPONENT:
        # (x_u x_v)^s is a minimal generator: refuse before building I^(s-1)
        raise LimitExceeded(
            f"I^{s} has an exponent above {MAX_EXPONENT}, the packed-monomial limit"
        )
    return ideal_product(ordinary_power(g, s - 1), edge_ideal(g))


@lru_cache(maxsize=1)
def _cover_primes(g: Graph, max_vertices: int) -> tuple[tuple[int, ...], ...] | None:
    """The packed variables of each minimal cover, in cover order; None when
    G has no edges.

    Kept for the last graph asked about, as the walk table is: callers
    finish one graph before they start the next, so the powers of one graph
    enumerate its covers once.  The bound is part of the key and is checked
    on every miss.
    """
    covers = minimal_vertex_covers(g, max_vertices)
    if covers.edgeless:
        return None
    x = _units(g.vertex_count, range(g.vertex_count))
    return tuple(tuple(x[v - 1] for v in w) for w in covers.covers)


@lru_cache(maxsize=None)
def symbolic_power(g: Graph, s: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> MonomialIdeal:
    """I(G)^(s) as the intersection over minimal covers W of (W)^s.

    The unit ideal is met with one (W)^s at a time, in cover order, on
    packed generators (`_meet`), so the first step gives the first cover's
    power itself and only the result becomes an ideal.
    """
    if s < 1:
        raise ValueError("symbolic power needs s >= 1")
    primes = _cover_primes(g, max_vertices)
    if primes is None:
        return MonomialIdeal.zero(g.vertex_count)
    packed: tuple[int, ...] = (0,)
    for units in primes:
        packed = _meet(packed, g.vertex_count, units, s)
    return MonomialIdeal._from_minimal(g.vertex_count, packed)


@dataclass(frozen=True)
class CycleDecomposition:
    """A designation of equal-length odd cycles with the derived ideals.

    mu_list holds the squarefree cycle-vertex products; J is the ideal they
    generate.  L is generated by the cycle variables together with their
    outside neighbors (the y's); K by the remaining variables (the z's).
    """

    graph: Graph
    cycles: tuple[CycleCertificate, ...]
    n: int
    mu_list: tuple[Monomial, ...]
    J: MonomialIdeal
    L: MonomialIdeal
    K: MonomialIdeal
    y_vertices: tuple[int, ...]
    z_vertices: tuple[int, ...]

    @classmethod
    def from_graph(cls, g: Graph, cycles) -> "CycleDecomposition":
        certs = tuple(CycleCertificate.check(g, c.vertices) for c in cycles)
        if not certs:
            raise ValueError("at least one designated cycle is required")
        lengths = {c.length for c in certs}
        if len(lengths) != 1:
            raise ValueError(f"designated cycles have mixed lengths {sorted(lengths)}")
        (length,) = lengths
        if length % 2 == 0:
            raise ValueError("designated cycles must be odd")
        n = (length - 1) // 2
        mus = []
        for c in certs:
            exps = [0] * g.vertex_count
            for v in c.vertices:
                exps[v - 1] = 1
            mus.append(Monomial(exps))
        cyc_vs = sorted(set(v for c in certs for v in c.vertices))
        nbhd = neighborhoods(g, cyc_vs)
        ys = sorted(nbhd - set(cyc_vs))
        zs = sorted(set(g.vertices) - nbhd - set(cyc_vs))
        nv = g.vertex_count
        L = MonomialIdeal(nv, [Monomial.variable(v - 1, nv) for v in cyc_vs + ys])
        K = MonomialIdeal(nv, [Monomial.variable(v - 1, nv) for v in zs])
        return cls(
            graph=g,
            cycles=certs,
            n=n,
            mu_list=tuple(mus),
            J=MonomialIdeal(nv, mus),
            L=L,
            K=K,
            y_vertices=tuple(ys),
            z_vertices=tuple(zs),
        )

    @property
    def single_cycle(self) -> bool:
        return len(self.cycles) == 1

    @property
    def mu(self) -> Monomial:
        if not self.single_cycle:
            raise ValueError("mu is only defined for a single designated cycle")
        return self.mu_list[0]


def layer_index(s: int, n: int) -> tuple[int, int]:
    """Write s = k(n+1) + r with 0 <= r <= n; returns (k, r)."""
    return divmod(s, n + 1)


@dataclass(frozen=True)
class SymbolicDecomposition:
    """The sum over i <= k of J^i I^(s - i(n+1)) with its oracle comparison."""

    k: int
    total: MonomialIdeal
    matches: bool
    witness: Monomial | None
    witness_side: str | None


def decompose_symbolic(g: Graph, cd: CycleDecomposition, s: int) -> SymbolicDecomposition:
    """Build sum_i J^i I^{s-i(n+1)} and compare it with the symbolic power."""
    if cd.graph != g:
        raise ValueError("decomposition belongs to a different graph")
    k, _ = layer_index(s, cd.n)
    total = ideal_sum(*(
        ideal_product(ideal_power(cd.J, i), ordinary_power(g, s - i * (cd.n + 1)))
        for i in range(k + 1)
    ))
    diff = first_difference(total, symbolic_power(g, s))
    if diff is None:
        return SymbolicDecomposition(k, total, True, None, None)
    witness, side = diff
    side_name = "decomposition" if side == "left" else "symbolic_power"
    return SymbolicDecomposition(k, total, False, witness, side_name)


def _muk_terms(g: Graph, cd: CycleDecomposition, s: int) -> list[MonomialIdeal]:
    """The summands mu^i K^i I^(s - i(n+1)), i = 0..k, for a single cycle."""
    k, _ = layer_index(s, cd.n)
    terms = []
    for i in range(k + 1):
        t = ideal_product(ordinary_power(g, s - i * (cd.n + 1)), ideal_power(cd.K, i))
        terms.append(ideal_product(t, MonomialIdeal(g.vertex_count, [cd.mu.pow(i)])))
    return terms


@dataclass(frozen=True)
class M2SIdentities:
    """The three descriptions of I^(s) intersected with m^(2s)."""

    jm_ok: bool
    jm_witness: Monomial | None
    muk_ok: bool | None                # None when more than one cycle is designated
    muk_witness: Monomial | None
    all_odd_cycles_dominating: bool
    power_ok: bool | None              # I^(s) cap m^2s == I^s, only under dominance
    power_witness: Monomial | None


def m2s_identities(g: Graph, cd: CycleDecomposition, s: int) -> M2SIdentities:
    nv = g.vertex_count
    k, _ = layer_index(s, cd.n)
    lhs = intersect_with_m_power(symbolic_power(g, s), 2 * s)

    jm_terms = []
    for i in range(k + 1):
        t = ideal_product(ideal_power(cd.J, i), ordinary_power(g, s - i * (cd.n + 1)))
        t = ideal_product(t, variable_power_ideal(nv, range(nv), i))
        jm_terms.append(t)
    jm_sum = ideal_sum(*jm_terms)
    jm_diff = first_difference(lhs, jm_sum)
    jm_ok = jm_diff is None

    muk_ok: bool | None = None
    muk_witness = None
    if cd.single_cycle:
        muk_diff = first_difference(lhs, ideal_sum(*_muk_terms(g, cd, s)))
        muk_ok = muk_diff is None
        muk_witness = muk_diff[0] if muk_diff else None

    dominant = dominating_odd_cycles(g)
    power_ok: bool | None = None
    power_witness = None
    if dominant:
        pw_diff = first_difference(lhs, ordinary_power(g, s))
        power_ok = pw_diff is None
        power_witness = pw_diff[0] if pw_diff else None

    return M2SIdentities(
        jm_ok=jm_ok,
        jm_witness=jm_diff[0] if jm_diff else None,
        muk_ok=muk_ok,
        muk_witness=muk_witness,
        all_odd_cycles_dominating=dominant,
        power_ok=power_ok,
        power_witness=power_witness,
    )


def alpha_formula(s: int, n: int) -> int:
    """2s - floor(s/(n+1)), the initial degree of I^(s) for this cycle class."""
    return 2 * s - s // (n + 1)


@dataclass(frozen=True)
class AsymptoticInvariants:
    n: int
    alpha_by_s: tuple[tuple[int, int], ...]
    formula_by_s: tuple[tuple[int, int], ...]
    formula_ok: bool
    waldschmidt: Fraction
    resurgence: Fraction


def asymptotic_invariants(g: Graph, cd: CycleDecomposition, s_max: int) -> AsymptoticInvariants:
    """Exact alpha values against the closed forms; limits as exact fractions.

    The closed forms for the Waldschmidt constant and the resurgence hold
    for the designated cycle class; the sampled alpha values give the
    finite-range agreement, they do not prove the limit by themselves.
    """
    n = cd.n
    alphas = tuple((s, alpha_degree(symbolic_power(g, s))) for s in range(1, s_max + 1))
    formula = tuple((s, alpha_formula(s, n)) for s in range(1, s_max + 1))
    return AsymptoticInvariants(
        n=n,
        alpha_by_s=alphas,
        formula_by_s=formula,
        formula_ok=alphas == formula,
        waldschmidt=Fraction(2 * n + 1, n + 1),
        resurgence=Fraction(2 * n + 2, 2 * n + 1),
    )


@dataclass(frozen=True)
class ContainmentCheck:
    contained: bool
    agree: bool


def containment_check(g: Graph, s: int, t: int) -> ContainmentCheck:
    """Direct test of I^(s) subseteq I^t against the alpha-degree criterion.

    The criterion (alpha(I^(s)) < alpha(I^t) iff non-containment) is a
    theorem for the odd-cycle clique-sum class; `agree` records whether the
    two routes coincide on this instance.
    """
    sym = symbolic_power(g, s)
    pw = ordinary_power(g, t)
    contained = ideal_contains(pw, sym)
    return ContainmentCheck(
        contained=contained,
        agree=contained == (alpha_degree(sym) >= alpha_degree(pw)),
    )
