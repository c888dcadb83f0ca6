"""Span tracing of `edgeideals` from outside the package.

`Tracer.install()` replaces each public module-level function of the traced
modules with a wrapper that records a span (name, start, end, parent span,
operation id), in every module of the package that binds the function, so
`suites.regularity` and `betti.regularity` are wrapped alike.  The
private per-suite functions of `suites` are wrapped too, one name per suite.
Leaf calls made millions of times (`contains`) and generator functions, whose
work happens after they return, stay unwrapped; their cost shows as self time
of their callers.

Spans stay in memory until `write()`; `layer_metrics()` turns them into
per-module self times (span duration minus the time its child spans cover)
and the counters recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

TRACED_MODULES = (
    "graphs", "monomials", "symbolic", "evenconnect",
    "betti", "homology", "suites", "reports",
)

# Called millions of times per run; measured through their callers.
UNWRAPPED = {"monomials.contains"}

SUITE_FUNCS = (
    "decomposition", "m2s", "invariants", "banerjee",
    "orderings", "regularity", "hypotheses",
)
SEEDED_SWEEPS = {"_seeded_banerjee": "seeded_banerjee", "_seeded_bipartite": "seeded_bipartite"}

# (module, function) -> metric group; functions not listed fall into
# "graphs.structure" (hypotheses, induced matching, odd cycles) or "<module>.other".
GROUPS = {
    ("graphs", "minimal_vertex_covers"): "graphs.covers",
    ("monomials", "minimalize"): "monomials.minimalize",
    ("monomials", "ideal_intersection"): "monomials.intersection",
    ("monomials", "ideal_intersection_many"): "monomials.intersection",
    ("monomials", "intersect_with_m_power"): "monomials.intersection",
    ("monomials", "ideal_product"): "monomials.product",
    ("monomials", "ideal_power"): "monomials.product",
    ("monomials", "ideal_colon"): "monomials.colon",
    ("monomials", "first_difference"): "monomials.first_difference",
    ("monomials", "ideal_contains"): "monomials.first_difference",
    ("monomials", "ideal_equal"): "monomials.first_difference",
    ("symbolic", "symbolic_power"): "symbolic.symbolic_power",
    ("symbolic", "ordinary_power"): "symbolic.ordinary_power",
    ("symbolic", "decompose_symbolic"): "symbolic.decompose",
    ("symbolic", "m2s_identities"): "symbolic.m2s",
    ("symbolic", "asymptotic_invariants"): "symbolic.invariants",
    ("symbolic", "containment_check"): "symbolic.invariants",
    ("symbolic", "alpha_formula"): "symbolic.invariants",
    ("evenconnect", "enumerate_factorizations"): "evenconnect.factorizations",
    ("evenconnect", "even_connections"): "evenconnect.walk_search",
    ("evenconnect", "colon_via_even_connections"): "evenconnect.colon_check",
    ("evenconnect", "verify_order_lemma"): "evenconnect.order_lemma",
    ("evenconnect", "verify_leaf_lemma"): "evenconnect.leaf_lemma",
    ("evenconnect", "verify_colon_chain"): "evenconnect.colon_chain",
    ("betti", "socle_regularity"): "betti.socle",
    ("betti", "quotient_graded_dimension"): "betti.socle",
    ("betti", "betti_table"): "betti.table",
    ("betti", "regularity"): "betti.table",
    ("betti", "quotient_regularity"): "betti.table",
    ("betti", "lcm_closure"): "betti.closure",
    ("homology", "boundary_rank"): "homology.boundary_rank",
    ("homology", "rank_rational"): "homology.rank_rational",
    ("homology", "rank_mod_p"): "homology.rank_mod_p",
    ("reports", "emit_report"): "reports.emit",
    ("reports", "emit_json"): "reports.emit",
    ("reports", "emit_csv"): "reports.emit",
    ("reports", "emit_text"): "reports.emit",
    ("reports", "report_dict"): "reports.emit",
}

TIME_GROUPS = (
    "graphs.covers", "graphs.structure",
    "monomials.minimalize", "monomials.intersection", "monomials.product",
    "monomials.colon", "monomials.first_difference", "monomials.other",
    "symbolic.symbolic_power", "symbolic.ordinary_power", "symbolic.decompose",
    "symbolic.m2s", "symbolic.invariants", "symbolic.other",
    "evenconnect.factorizations", "evenconnect.walk_search",
    "evenconnect.colon_check", "evenconnect.order_lemma",
    "evenconnect.leaf_lemma", "evenconnect.colon_chain", "evenconnect.other",
    "betti.socle", "betti.table", "betti.closure", "betti.other",
    "homology.boundary_rank", "homology.rank_rational", "homology.rank_mod_p",
    "homology.other",
    *(f"suites.{name}" for name in SUITE_FUNCS),
    *(f"suites.{name}" for name in SEEDED_SWEEPS.values()),
    "suites.other",
    "reports.emit", "reports.other",
)

COUNTERS = (
    "graphs.covers_calls", "graphs.covers_found",
    "monomials.minimalize_in", "monomials.minimalize_out",
    "evenconnect.factorizations", "evenconnect.connected_pairs",
    "betti.tables", "betti.closure_size", "betti.nonzero_entries",
    "homology.boundary_rank_calls", "homology.matrix_rows",
    "reports.output_bytes",
)


def _count_covers(c, args, kwargs, result):
    c["graphs.covers_calls"] += 1
    c["graphs.covers_found"] += len(result.covers)


def _count_minimalize(c, args, kwargs, result):
    c["monomials.minimalize_in"] += len(args[0] if args else kwargs["gens"])
    c["monomials.minimalize_out"] += len(result)


def _count_factorizations(c, args, kwargs, result):
    c["evenconnect.factorizations"] += len(result)


def _count_pairs(c, args, kwargs, result):
    c["evenconnect.connected_pairs"] += len(result)


def _count_table(c, args, kwargs, result):
    c["betti.tables"] += 1
    c["betti.nonzero_entries"] += len(result.entries)


def _count_closure(c, args, kwargs, result):
    c["betti.closure_size"] += len(result)


def _count_boundary(c, args, kwargs, result):
    lower = args[0] if args else kwargs["lower"]
    upper = args[1] if len(args) > 1 else kwargs["upper"]
    c["homology.boundary_rank_calls"] += 1
    if lower and upper:
        c["homology.matrix_rows"] += len(upper)


def _count_emit(c, args, kwargs, result):
    c["reports.output_bytes"] += len(result)


COUNT_HOOKS = {
    ("graphs", "minimal_vertex_covers"): _count_covers,
    ("monomials", "minimalize"): _count_minimalize,
    ("evenconnect", "enumerate_factorizations"): _count_factorizations,
    ("evenconnect", "even_connections"): _count_pairs,
    ("betti", "betti_table"): _count_table,
    ("betti", "lcm_closure"): _count_closure,
    ("homology", "boundary_rank"): _count_boundary,
    ("reports", "emit_report"): _count_emit,
}


def _is_traced_function(obj) -> bool:
    if inspect.isgeneratorfunction(obj):
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Records spans around the package's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self.spans: list[tuple] = []      # (index, name id, start, end, parent, op)
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self.op = 0
        self._stack: list[int] = []
        self._next = 0

    def _wrap(self, name: str, group: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        tracer = self
        stack = self._stack
        spans = self.spans
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._next
            tracer._next = idx + 1
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((idx, nid, start, end, parent, tracer.op))
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions in every loaded module of the package."""
        package = [m for n, m in sys.modules.items()
                   if m is not None and (n == "edgeideals" or n.startswith("edgeideals."))]
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"edgeideals.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not _is_traced_function(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = (short, attr)
                if f"{short}.{attr}" in UNWRAPPED:
                    continue
                group = GROUPS.get(key, "graphs.structure" if short == "graphs" else f"{short}.other")
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", group, obj,
                                               COUNT_HOOKS.get(key))
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        suites = sys.modules["edgeideals.suites"]
        table = suites._SUITE_FUNCS
        for suite in SUITE_FUNCS:
            table[suite] = self._wrap(f"suites.{suite}", f"suites.{suite}", table[suite])
        for attr, name in SEEDED_SWEEPS.items():
            setattr(suites, attr,
                    self._wrap(f"suites.{name}", f"suites.{name}", getattr(suites, attr)))

    def layer_metrics(self) -> dict[str, float]:
        """Self time per group, call counters, and span totals."""
        child = [0.0] * self._next
        for idx, nid, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = {group: 0.0 for group in TIME_GROUPS}
        covered = 0.0
        for idx, nid, start, end, parent, op in self.spans:
            self_time[self.groups[nid]] += (end - start) - child[idx]
            if parent < 0:
                covered += end - start
        out = {f"{group}_s": value for group, value in self_time.items()}
        out.update(self.counts)
        c = self.counts
        # useful share of the work: generators kept, multidegrees with a nonzero Betti number
        out["monomials.minimalize_kept_share"] = (
            c["monomials.minimalize_out"] / c["monomials.minimalize_in"]
            if c["monomials.minimalize_in"] else 0.0
        )
        out["betti.entries_per_closure"] = (
            c["betti.nonzero_entries"] / c["betti.closure_size"] if c["betti.closure_size"] else 0.0
        )
        out["trace.spans"] = len(self.spans)
        out["trace.covered_s"] = covered
        return out

    def write(self, path) -> None:
        """Write every span as a tab-separated line, in order of completion."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for idx, nid, start, end, parent, op in self.spans:
                fh.write(f"{idx}\t{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
