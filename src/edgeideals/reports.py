"""Run configuration, verification reports, and deterministic emitters.

Reports are plain frozen data.  Serialization is byte-stable: identical
inputs and config produce identical bytes, so timing is excluded unless
explicitly requested.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .betti import DEFAULT_MAX_GENERATORS
from .graphs import DEFAULT_MAX_VERTICES, CycleCertificate, Graph
from .homology import check_field

SUITE_NAMES = (
    "decomposition",
    "m2s",
    "invariants",
    "banerjee",
    "orderings",
    "regularity",
    "hypotheses",
)

FORMATS = ("json", "csv", "text")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; echoed into every report."""

    s_min: int = 1
    s_max: int = 3
    suites: tuple[str, ...] = ("all",)
    prime: int | None = None  # None: over Q; else over GF(prime)
    seed: int = 2024
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_generators: int = DEFAULT_MAX_GENERATORS
    output_format: str = "text"

    def __post_init__(self):
        if self.s_min < 1:
            raise ValueError("s_min must be at least 1")
        if self.s_max < self.s_min:
            raise ValueError(f"empty power range {self.s_min}..{self.s_max}")
        if self.max_vertices <= 0 or self.max_generators <= 0:
            raise ValueError("size bounds must be positive")
        unknown = set(self.suites) - set(SUITE_NAMES) - {"all"}
        if unknown:
            raise ValueError(f"unknown suites: {sorted(unknown)}")
        check_field(self.prime)
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")

    def selected_suites(self) -> tuple[str, ...]:
        if "all" in self.suites:
            return SUITE_NAMES
        # preserve the canonical order regardless of how flags were given
        return tuple(s for s in SUITE_NAMES if s in self.suites)

    def echo(self) -> tuple[tuple[str, str], ...]:
        return (
            ("s_min", str(self.s_min)),
            ("s_max", str(self.s_max)),
            ("suites", ",".join(self.selected_suites())),
            ("field", "rational" if self.prime is None else "prime"),
            ("prime", "" if self.prime is None else str(self.prime)),
            ("seed", str(self.seed)),
            ("max_vertices", str(self.max_vertices)),
            ("max_generators", str(self.max_generators)),
        )


def graph_hash(g: Graph) -> str:
    """Stable short fingerprint of the labelled graph."""
    payload = repr((g.vertex_count, g.edges)).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True)
class InstanceInfo:
    """What a report was about: the graph, designated cycles, and powers."""

    graph_hash: str
    vertex_count: int
    edge_count: int
    cycles: tuple[tuple[int, ...], ...] = ()
    s: int | None = None
    r: int | None = None
    label: str = ""


def describe_instance(
    g: Graph,
    cycles: Sequence[CycleCertificate] = (),
    s: int | None = None,
    r: int | None = None,
    label: str = "",
) -> InstanceInfo:
    return InstanceInfo(
        graph_hash=graph_hash(g),
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        cycles=tuple(c.vertices for c in cycles),
        s=s,
        r=r,
        label=label,
    )


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    check: str
    instance: InstanceInfo
    status: str
    witnesses: tuple[str, ...] = ()
    reason: str | None = None
    details: str = ""
    config: tuple[tuple[str, str], ...] = ()
    seconds: float | None = None

    def __post_init__(self):
        if self.status not in ("pass", "fail", "skipped"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "fail" and not self.witnesses:
            raise ValueError("a failing report must carry a witness")
        if self.status == "skipped" and not self.reason:
            raise ValueError("a skipped report must carry a reason")


def report_dict(r: VerificationReport, include_timing: bool = False) -> dict:
    out = {
        "suite": r.suite,
        "check": r.check,
        "instance": {
            "graph_hash": r.instance.graph_hash,
            "vertex_count": r.instance.vertex_count,
            "edge_count": r.instance.edge_count,
            "cycles": [list(c) for c in r.instance.cycles],
            "s": r.instance.s,
            "r": r.instance.r,
            "label": r.instance.label,
        },
        "status": r.status,
        "witnesses": list(r.witnesses),
        "reason": r.reason,
        "details": r.details,
        "config": {k: v for k, v in r.config},
    }
    if include_timing:
        out["seconds"] = r.seconds
    return out


def emit_json(reports: Iterable[VerificationReport], include_timing: bool = False) -> bytes:
    payload = [report_dict(r, include_timing) for r in reports]
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


_CSV_COLUMNS = (
    "suite",
    "check",
    "status",
    "graph_hash",
    "vertex_count",
    "edge_count",
    "cycles",
    "s",
    "r",
    "label",
    "reason",
    "details",
    "witnesses",
    "config",
)


def emit_csv(reports: Iterable[VerificationReport], include_timing: bool = False) -> bytes:
    buf = io.StringIO()
    cols = _CSV_COLUMNS + (("seconds",) if include_timing else ())
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for r in reports:
        row = [
            r.suite,
            r.check,
            r.status,
            r.instance.graph_hash,
            r.instance.vertex_count,
            r.instance.edge_count,
            "|".join("-".join(map(str, c)) for c in r.instance.cycles),
            "" if r.instance.s is None else r.instance.s,
            "" if r.instance.r is None else r.instance.r,
            r.instance.label,
            r.reason or "",
            r.details,
            "|".join(r.witnesses),
            ";".join(f"{k}={v}" for k, v in r.config),
        ]
        if include_timing:
            row.append("" if r.seconds is None else f"{r.seconds:.3f}")
        writer.writerow(row)
    return buf.getvalue().encode()


def emit_text(reports: Iterable[VerificationReport], include_timing: bool = False) -> bytes:
    reports = list(reports)
    lines = []
    for r in reports:
        inst = r.instance
        bits = [f"{r.suite}/{r.check}", f"graph={inst.graph_hash}"]
        if inst.label:
            bits.append(inst.label)
        if inst.s is not None:
            bits.append(f"s={inst.s}")
        if inst.r is not None:
            bits.append(f"r={inst.r}")
        head = " ".join(bits)
        line = f"[{r.status.upper():7}] {head}"
        if r.status == "skipped":
            line += f" ({r.reason})"
        elif r.details:
            line += f" ({r.details})"
        if r.status == "fail":
            line += " witnesses: " + "; ".join(r.witnesses)
        if include_timing and r.seconds is not None:
            line += f" [{r.seconds:.3f}s]"
        lines.append(line)
    counts = {
        "pass": sum(1 for r in reports if r.status == "pass"),
        "fail": sum(1 for r in reports if r.status == "fail"),
        "skipped": sum(1 for r in reports if r.status == "skipped"),
    }
    lines.append(
        f"{len(reports)} checks: {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['skipped']} skipped"
    )
    return ("\n".join(lines) + "\n").encode()


def emit_report(
    reports: Iterable[VerificationReport],
    output_format: str,
    include_timing: bool = False,
) -> bytes:
    if output_format == "json":
        return emit_json(reports, include_timing)
    if output_format == "csv":
        return emit_csv(reports, include_timing)
    if output_format == "text":
        return emit_text(reports, include_timing)
    raise ValueError(f"unknown output format {output_format!r}")


def exit_code(reports: Iterable[VerificationReport]) -> int:
    """0 iff nothing failed; skips do not fail a run."""
    return 1 if any(r.status == "fail" for r in reports) else 0
