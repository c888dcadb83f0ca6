"""Exact symbolic-power and regularity toolkit for edge ideals of graphs.

The package computes ordinary and symbolic powers of edge ideals, their
multigraded Betti tables and Castelnuovo-Mumford regularity, and runs the
verification suites that check the decomposition, colon, ordering, and
regularity statements on desk-scale instances.  All arithmetic is exact.
"""

from .betti import (
    BettiTable,
    betti_table,
    hochster_betti_table,
    socle_regularity,
)
from .errors import GraphFormatError, LimitExceeded, UniverseMismatch
from .evenconnect import (
    EdgeOrder,
    colon_via_even_connections,
    even_connections,
    enumerate_factorizations,
    generator_ordering,
    leaf_peel_order,
    verify_colon_chain,
    verify_leaf_lemma,
    verify_order_lemma,
)
from .graphs import (
    CycleCertificate,
    Graph,
    check_hypotheses,
    induced_matching_number,
    is_bipartite,
    minimal_vertex_covers,
    parse_graph_text,
    render_graph_text,
)
from .monomials import Monomial, MonomialIdeal, parse_ideal, parse_monomial
from .reports import RunConfig, VerificationReport, emit_report, exit_code
from .suites import GraphInstance, default_instances, run_suite
from .symbolic import (
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

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "CycleCertificate",
    "CycleDecomposition",
    "EdgeOrder",
    "Graph",
    "GraphFormatError",
    "GraphInstance",
    "LimitExceeded",
    "Monomial",
    "MonomialIdeal",
    "RunConfig",
    "UniverseMismatch",
    "VerificationReport",
    "alpha_formula",
    "asymptotic_invariants",
    "betti_table",
    "check_hypotheses",
    "colon_via_even_connections",
    "containment_check",
    "decompose_symbolic",
    "default_instances",
    "edge_ideal",
    "emit_report",
    "enumerate_factorizations",
    "even_connections",
    "exit_code",
    "generator_ordering",
    "hochster_betti_table",
    "induced_matching_number",
    "is_bipartite",
    "leaf_peel_order",
    "m2s_identities",
    "minimal_vertex_covers",
    "ordinary_power",
    "parse_graph_text",
    "parse_ideal",
    "parse_monomial",
    "render_graph_text",
    "run_suite",
    "socle_regularity",
    "symbolic_power",
    "verify_colon_chain",
    "verify_leaf_lemma",
    "verify_order_lemma",
]
