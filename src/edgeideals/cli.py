"""Command line front end: file ingestion, suite runs, and printers.

Verbs: `check` runs verification suites and exits nonzero iff a check
failed; `sympow`, `reg`, and `invariants` print symbolic-power generators,
Betti tables, and the alpha/Waldschmidt/resurgence data for graph files.
Graph files use one record per line: `n <count>`, `e <u> <v>`, and optional
`c <v1> <v2> ...` designated-cycle lines.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .betti import DEFAULT_MAX_GENERATORS, betti_table
from .errors import GraphFormatError, LimitExceeded
from .graphs import DEFAULT_MAX_VERTICES, parse_graph_text
from .homology import check_field
from .monomials import alpha_degree
from .reports import FORMATS, SUITE_NAMES, RunConfig, emit_report, exit_code
from .suites import GraphInstance, default_instances, run_suite
from .symbolic import CycleDecomposition, asymptotic_invariants, symbolic_power


def _parse_field(value: str) -> int | None:
    """None for 'rational', or a number p for coefficients mod p (primality is
    checked with the other option values, in _usage_error)."""
    if value == "rational":
        return None
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"field must be 'rational' or a prime, not {value!r}"
        )


def _usage_error(args) -> str | None:
    """The first invalid option value shared by the verbs, or None."""
    if args.s_min < 1:
        return f"--s-min must be at least 1, not {args.s_min}"
    if args.s_max < args.s_min:
        return f"--s-max {args.s_max} is below --s-min {args.s_min}"
    for flag, value in (("--max-vertices", args.max_vertices),
                        ("--max-generators", getattr(args, "max_generators", 1))):
        if value < 1:
            return f"{flag} must be at least 1, not {value}"
    try:
        check_field(getattr(args, "field", None))
    except ValueError as exc:
        return f"--field {exc}"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeideals",
        description="Exact symbolic-power and regularity checks for edge ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, files_required: bool) -> None:
        sp.add_argument(
            "files",
            nargs="+" if files_required else "*",
            help="graph files (n/e/c records); check uses a built-in catalog "
            "when none are given",
        )
        sp.add_argument("--s-min", type=int, default=1, metavar="S")
        sp.add_argument("--s-max", type=int, default=3, metavar="S")
        sp.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
        sp.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES, metavar="N")

    check = sub.add_parser("check", help="run verification suites")
    common(check, files_required=False)
    check.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES + ("all",),
        help="suite to run (repeatable; default all)",
    )
    check.add_argument("--field", type=_parse_field)
    check.add_argument("--seed", type=int, default=2024)
    check.add_argument("--format", choices=FORMATS, default="text")
    check.add_argument(
        "--max-generators", type=int, default=DEFAULT_MAX_GENERATORS, metavar="N"
    )
    check.set_defaults(func=_cmd_check)

    sympow = sub.add_parser("sympow", help="print symbolic power generators")
    common(sympow, files_required=True)
    sympow.set_defaults(func=_cmd_sympow)

    reg = sub.add_parser("reg", help="print Betti tables and regularity")
    common(reg, files_required=True)
    reg.add_argument("--field", type=_parse_field)
    reg.add_argument(
        "--max-generators", type=int, default=DEFAULT_MAX_GENERATORS, metavar="N"
    )
    reg.set_defaults(func=_cmd_reg)

    inv = sub.add_parser("invariants", help="print alpha sequence and closed forms")
    common(inv, files_required=True)
    inv.set_defaults(func=_cmd_invariants)

    return parser


def _read_instance(path: str, max_vertices: int) -> GraphInstance:
    try:
        g, certs = parse_graph_text(Path(path).read_text(), max_vertices)
    except (GraphFormatError, LimitExceeded) as exc:
        # name the file in front of the line the message already names
        exc.args = (f"{path}: {exc}",)
        raise
    return GraphInstance(g, certs, label=Path(path).name)


def _write(data: bytes, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_bytes(data)
    else:
        sys.stdout.write(data.decode())


def _cmd_check(args) -> int:
    cfg = RunConfig(
        s_min=args.s_min,
        s_max=args.s_max,
        suites=tuple(args.suite) if args.suite else ("all",),
        prime=args.field,
        seed=args.seed,
        max_vertices=args.max_vertices,
        max_generators=args.max_generators,
        output_format=args.format,
    )
    if args.files:
        instances = [_read_instance(p, args.max_vertices) for p in args.files]
    else:
        instances = default_instances(cfg)
    reports = run_suite(cfg, instances)
    _write(emit_report(reports, cfg.output_format), args.out)
    return exit_code(reports)


def _no_edges(path: str, s: int) -> int:
    """Report an edgeless graph, whose I^(s) is the zero ideal: a usage error."""
    print(f"error: {path}: the graph has no edges, so I^({s}) is the zero ideal",
          file=sys.stderr)
    return 2


def _cmd_sympow(args) -> int:
    lines = []
    for path in args.files:
        inst = _read_instance(path, args.max_vertices)
        for s in range(args.s_min, args.s_max + 1):
            ideal = symbolic_power(inst.graph, s, args.max_vertices)
            if ideal.is_zero:
                return _no_edges(path, s)
            lines.append(
                f"# {path} s={s}: {len(ideal.gens)} minimal generators, "
                f"alpha={alpha_degree(ideal)}"
            )
            lines.extend(m.render() for m in ideal.gens)
    _write(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_reg(args) -> int:
    field = "rational" if args.field is None else "prime"
    lines = []
    for path in args.files:
        inst = _read_instance(path, args.max_vertices)
        for s in range(args.s_min, args.s_max + 1):
            ideal = symbolic_power(inst.graph, s, args.max_vertices)
            if ideal.is_zero:
                return _no_edges(path, s)
            table = betti_table(ideal, args.field, max_generators=args.max_generators)
            lines.append(f"# {path} s={s}: regularity {table.regularity} ({field})")
            for (i, j), rank in sorted(table.graded().items()):
                lines.append(f"beta[{i}][{j}] = {rank}")
    _write(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def _cmd_invariants(args) -> int:
    lines = []
    for path in args.files:
        inst = _read_instance(path, args.max_vertices)
        if not inst.cycles:
            print(f"error: {path}: no designated cycle ('c' line) present", file=sys.stderr)
            return 2
        cd = CycleDecomposition.from_graph(inst.graph, inst.cycles)
        inv = asymptotic_invariants(inst.graph, cd, args.s_max)
        lines.append(f"# {path}: n={inv.n}")
        for (s, a), (_, f) in zip(inv.alpha_by_s, inv.formula_by_s):
            marker = "" if a == f else f"  (formula says {f})"
            lines.append(f"alpha(s={s}) = {a}{marker}")
        lines.append(f"formula agreement: {inv.formula_ok}")
        lines.append(f"waldschmidt = {inv.waldschmidt}")
        lines.append(f"resurgence = {inv.resurgence}")
    _write(("\n".join(lines) + "\n").encode(), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_error(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
