"""The four workloads: seeded inputs, the timed calls into `edgeideals`, and
the checks of the program's outputs.

Each workload has three steps.  `prepare(seed, workdir)` builds the inputs
from the seed alone (set-up time).  `run(prepared, tracer)` is the timed
region: only calls into the program, whose results it keeps.  `check(...)`
runs after the timer has stopped and compares those results with
`reference` or with theorems the method must satisfy.

An operation fails when the program raises, exits nonzero, returns a `fail`
row (or its own oracle comparison fails), or gives an answer the checks
refute.  Only the last is a wrong answer, which makes the run incorrect; the
others are failures the program reports itself.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# Program functions are looked up on their modules at call time, so the
# traced run's wrappers see these calls.
from edgeideals import cli, evenconnect, monomials, symbolic
from edgeideals.graphs import Graph

import reference as ref


@dataclass
class Outcome:
    attempted: int
    failed: int
    decided: int
    wrong: list[str] = field(default_factory=list)   # answers the checks refute
    errors: list[str] = field(default_factory=list)  # failures the program reports
    digest: str | None = None


def _cycle_edges(k: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, k)] + [(1, k)]


# The built-in catalog of `edgeideals check`, transcribed from its
# definition: label -> (vertex count, edges, half length of the designated
# odd cycles).
CATALOG = {
    "C5": (5, _cycle_edges(5), 2),
    "C7": (7, _cycle_edges(7), 3),
    "three-triangles": (5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5), (3, 5)], 1),
    "C5-two-branches": (9, _cycle_edges(5) + [(1, 6), (6, 7), (1, 8), (8, 9)], 2),
}
CATALOG_S = (1, 2, 3)


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run the `edgeideals` entry point in this process, capturing output.
    Returns (exit code or None if it raised, stdout, stderr or traceback)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def _set_op(tracer, op: int) -> None:
    if tracer is not None:
        tracer.op = op


def _random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random labelled spanning tree: each vertex after the first, in a
    random order, joins one vertex placed before it."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)]


def _connected_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree on n vertices plus m - n + 1 random extra edges."""
    edges = set(_random_tree(rng, n))
    rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    edges.update(rng.sample(rest, m - n + 1))
    return sorted(edges)


def _forest(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random labelled forest on n vertices with m >= 1 edges."""
    return sorted(rng.sample(_random_tree(rng, n), m))


# The seeded graphs of the three sweeps are fixed shapes drawn
# once from SHAPE_SEED; `--seed` relabels their vertices.  Every seed then
# does the same amount of work in a different vertex order, so run-to-run
# differences are the machine's, not the inputs'.
SHAPE_SEED = 1903


def _permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def _relabel(perm: list[int], edges) -> list[tuple[int, int]]:
    """The edges with vertex v renamed perm[v - 1]."""
    return sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)


# ---------------------------------------------------------------- catalog

def catalog_prepare(seed: int, workdir: Path) -> dict:
    return {"argv": ["check", "--format", "json", "--seed", str(seed)]}


def catalog_run(prep: dict, tracer) -> tuple:
    _set_op(tracer, 0)
    return call_cli(prep["argv"])


def catalog_check(prep: dict, result: tuple) -> Outcome:
    code, out, err = result
    try:
        rows = json.loads(out) if code is not None else None
    except ValueError:
        rows = None
    if rows is None or code not in (0, 1):
        return Outcome(1, 1, 0, errors=[f"check exited {code}: {err.strip()[-300:]}"])
    failed = {i for i, r in enumerate(rows) if r["status"] == "fail"}
    errors = {i: f"fail row {rows[i]['suite']}/{rows[i]['check']} {rows[i]['instance']['label']}"
              f" s={rows[i]['instance']['s']}: {rows[i]['witnesses']}" for i in failed}
    wrong: dict[int, str] = {}        # row index -> refuted answer
    whole: list[str] = []             # faults of the run as a whole
    if code != (1 if failed else 0):
        whole.append(f"exit code {code} with {len(failed)} fail rows")
    nu = {label: ref.induced_matching_number(n, edges) for label, (n, edges, _) in CATALOG.items()}
    alpha_rows = set()
    for i, r in enumerate(rows):
        label, s, status = r["instance"]["label"], r["instance"]["s"], r["status"]
        if label not in CATALOG:
            continue
        nverts, _, half = CATALOG[label]
        if r["check"] == "alpha-formula" and status == "pass":
            alpha_rows.add(label)
            found = {
                int(a): int(b) for a, b in re.findall(r"(\d+):(\d+)", r["details"].split(";")[0])
            }
            want = {t: ref.alpha_closed_form(t, half) for t in CATALOG_S}
            if found != want:
                wrong[i] = f"{label} alpha {found} != closed form {want}"
        elif r["check"] == "sym-vs-ordinary" and label in ("C5", "C7"):
            m = re.fullmatch(r"reg (\d+) on both sides", r["details"])
            want = ref.cycle_power_regularity(nverts, s)
            if status == "skipped":
                errors[i] = f"{label} s={s} regularity row skipped: {r['reason']}"
            elif status == "pass" and (m is None or int(m.group(1)) != want):
                wrong[i] = f"{label} s={s} regularity {r['details']!r}, closed form {want}"
        elif r["check"] == "lower-bound" and status == "pass":
            m = re.fullmatch(r"quotient reg (\d+) >= (-?\d+)", r["details"])
            lower = 2 * s + nu[label] - 2
            if m is None or int(m.group(2)) != lower or int(m.group(1)) < lower:
                wrong[i] = f"{label} s={s} lower bound {r['details']!r}, nu={nu[label]}"
    whole.extend(f"no passing alpha-formula row for {label}" for label in CATALOG
                 if label not in alpha_rows)
    bad = set(range(len(rows))) if whole else set(errors) | set(wrong)
    decided = sum(r["status"] != "skipped" for r in rows)
    return Outcome(
        attempted=len(rows),
        failed=len(bad),
        decided=decided,
        wrong=whole + list(wrong.values()),
        errors=list(errors.values())[:5],
        digest=hashlib.sha256(out.encode()).hexdigest(),
    )


# -------------------------------------------------------- bipartite-sweep

SWEEP_S = (1, 2, 3)
SWEEP_SIX = 40            # connected bipartite graphs on 6 vertices
SWEEP_ODD = 30            # connected non-bipartite graphs on 5 or 6 vertices


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def _from_mask(pairs, mask: int) -> list[tuple[int, int]]:
    return [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def bipartite_prepare(seed: int, workdir: Path) -> dict:
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    cases = []   # (n, edges, s, odd cycle or None)
    for n in range(2, 6):
        pairs = _all_pairs(n)
        for mask in range(1 << len(pairs)):
            edges = _from_mask(pairs, mask)
            if ref.is_connected(n, edges) and ref.is_bipartite(n, edges):
                cases.extend((n, edges, s, None) for s in SWEEP_S)
    # One permutation per vertex count relabels the shapes, so distinct
    # shapes stay distinct graphs and no power is served from the cache.
    perms = {n: _permutation(rng, n) for n in (5, 6)}
    pairs = _all_pairs(6)
    chosen: set[int] = set()
    while len(chosen) < SWEEP_SIX:
        mask = shapes.getrandbits(len(pairs))
        edges = _from_mask(pairs, mask)
        if mask not in chosen and ref.is_connected(6, edges) and ref.is_bipartite(6, edges):
            chosen.add(mask)
            cases.extend((6, _relabel(perms[6], edges), s, None) for s in SWEEP_S)
    odd: set[tuple] = set()
    while len(odd) < SWEEP_ODD:
        n = shapes.choice((5, 6))
        edges = _from_mask(_all_pairs(n), shapes.getrandbits(n * (n - 1) // 2))
        if (n, tuple(edges)) in odd or not ref.is_connected(n, edges) or ref.is_bipartite(n, edges):
            continue
        odd.add((n, tuple(edges)))
        edges = _relabel(perms[n], edges)
        cycle = ref.shortest_odd_cycle(n, edges)
        cases.append((n, edges, (len(cycle) + 1) // 2, cycle))
    return {"cases": cases, "graphs": [Graph(n, edges) for n, edges, _, _ in cases]}


def bipartite_run(prep: dict, tracer) -> list:
    results = []
    for op, (g, (_, _, s, _)) in enumerate(zip(prep["graphs"], prep["cases"])):
        _set_op(tracer, op)
        try:
            sym = symbolic.symbolic_power(g, s)
            ordp = symbolic.ordinary_power(g, s)
            results.append((sym, ordp, monomials.first_difference(sym, ordp)))
        except Exception:
            results.append(traceback.format_exc())
    return results


def bipartite_check(prep: dict, results: list) -> Outcome:
    failed, wrong, errors = 0, [], []
    for (n, edges, s, cycle), res in zip(prep["cases"], results):
        if isinstance(res, str):
            failed += 1
            errors.append(f"raised on n={n} {edges} s={s}: {res.strip().splitlines()[-1]}")
            continue
        sym, ordp, diff = res
        problem = None
        if {tuple(m) for m in ordp.gens} != ref.edge_products(n, edges, s):
            problem = "I^s generators differ from the distinct products of s edges"
        elif cycle is None and diff is not None:
            problem = f"bipartite graph with I^(s) != I^s, witness {tuple(diff[0])}"
        elif cycle is not None:
            problem = _odd_cycle_problem(n, edges, s, cycle, sym, ordp, diff)
        if problem:
            failed += 1
            wrong.append(f"n={n} edges={edges} s={s}: {problem}")
    decided = sum(not isinstance(r, str) for r in results)
    return Outcome(len(results), failed, decided, wrong[:5], errors[:5])


def _odd_cycle_problem(n, edges, s, cycle, sym, ordp, diff) -> str | None:
    mu = tuple(1 if v in cycle else 0 for v in range(1, n + 1))
    covers = ref.minimal_vertex_covers(n, edges)
    if not (ref.in_symbolic_power(mu, covers, s) and not ref.in_ordinary_power(mu, edges, s)):
        return "reference disagrees with the odd-cycle theorem"
    if diff is None:
        return "non-bipartite graph with I^(s) == I^s"
    if not any(ref.divides(g, mu) for g in sym.gens):
        return "odd-cycle product missing from I^(s)"
    if any(ref.divides(g, mu) for g in ordp.gens):
        return "odd-cycle product found in I^s"
    witness, side = tuple(diff[0]), diff[1]
    in_sym = ref.in_symbolic_power(witness, covers, s)
    in_ord = ref.in_ordinary_power(witness, edges, s)
    if (side == "left") != (in_sym and not in_ord) or (side == "right") != (in_ord and not in_sym):
        return f"witness {witness} ({side}) refuted by the reference"
    return None


# ----------------------------------------------------------- colon-sweep

COLON_S = (2, 3, 4)
# (vertices, edges) of the seeded connected graphs
COLON_SHAPES = ((4, 4), (5, 5), (5, 6), (6, 6), (6, 7), (6, 8), (7, 7), (7, 8))


def colon_prepare(seed: int, workdir: Path) -> dict:
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    specs = [CATALOG[label][:2] for label in ("C5", "C7", "three-triangles")]
    specs += [(n, _relabel(_permutation(rng, n), _connected_graph(shapes, n, m)))
              for n, m in COLON_SHAPES]
    return {"specs": specs, "graphs": [Graph(n, edges) for n, edges in specs]}


def colon_run(prep: dict, tracer) -> list:
    results = []
    for gi, g in enumerate(prep["graphs"]):
        for s in COLON_S:
            for u in symbolic.ordinary_power(g, s - 1).gens:
                _set_op(tracer, len(results))
                try:
                    res = evenconnect.colon_via_even_connections(g, u, s)
                    results.append((gi, s, u, res.matches, res.direct))
                except Exception:
                    results.append((gi, s, u, traceback.format_exc(), None))
    return results


def colon_check(prep: dict, results: list) -> Outcome:
    failed, wrong, errors = 0, [], []
    for gi, s, u, matches, direct in results:
        n, edges = prep["specs"][gi]
        where = f"graph {edges} s={s} u={tuple(u)}"
        if isinstance(matches, str) or not matches:
            failed += 1
            errors.append(f"{where}: " + (matches.strip().splitlines()[-1] if matches else
                                          "walk-built colon differs from the direct colon"))
            continue
        got = {tuple(g) for g in direct.gens}
        want = _colon_reference(n, edges, tuple(u), s)
        if any(sum(g) != 2 for g in got):
            problem = "direct colon has a generator of degree other than 2"
        elif got != want:
            problem = f"colon generators {sorted(got)} != reference {sorted(want)}"
        else:
            continue
        failed += 1
        wrong.append(f"{where}: {problem}")
    decided = sum(not isinstance(r[3], str) for r in results)
    return Outcome(len(results), failed, decided, wrong[:5], errors[:5])


def _colon_reference(n: int, edges, u: tuple[int, ...], s: int) -> set[tuple[int, ...]]:
    """The x_a x_b (a <= b) with x_a x_b u in I^s; when every generator of
    I^s : u has degree 2 these generate it."""
    out = set()
    for a in range(n):
        for b in range(a, n):
            pair = [0] * n
            pair[a] += 1
            pair[b] += 1
            if ref.in_ordinary_power([x + y for x, y in zip(u, pair)], edges, s):
                out.add(tuple(pair))
    return out


# -------------------------------------------------------------- reg-prime

REG_S = (1, 2)
REG_CYCLES = (5, 6, 7, 8, 9)
REG_FORESTS = ((8, 7), (8, 7), (8, 6), (7, 6))   # (vertices, edges)
REG_PRIME = 32003


def reg_prepare(seed: int, workdir: Path) -> dict:
    shapes, rng = random.Random(SHAPE_SEED), random.Random(seed)
    graphs = [("cycle", k, _cycle_edges(k)) for k in REG_CYCLES]
    graphs += [("forest", n, _relabel(_permutation(rng, n), _forest(shapes, n, m)))
               for n, m in REG_FORESTS]
    files = []
    for index, (kind, n, edges) in enumerate(graphs):
        path = workdir / f"{index}-{kind}-{n}.graph"
        path.write_text(f"n {n}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
        files.append((str(path), kind, n, edges))
    argv = ["reg", *(f[0] for f in files), "--field", str(REG_PRIME), "--s-max", str(max(REG_S))]
    return {"files": files, "argv": argv}


def reg_run(prep: dict, tracer) -> tuple:
    _set_op(tracer, 0)
    return call_cli(prep["argv"])


def reg_check(prep: dict, result: tuple) -> Outcome:
    code, out, err = result
    expected = len(prep["files"]) * len(REG_S)
    if code != 0:
        return Outcome(expected, expected, 0, errors=[f"reg exited {code}: {err.strip()[-300:]}"])
    tables: dict[tuple[str, int], dict] = {}
    current = None
    for line in out.splitlines():
        head = re.fullmatch(r"# (.+) s=(\d+): regularity (-?\d+) \((\w+)\)", line)
        if head:
            current = {"reg": int(head.group(3)), "field": head.group(4), "betti": {}}
            tables[(head.group(1), int(head.group(2)))] = current
            continue
        entry = re.fullmatch(r"beta\[(\d+)\]\[(\d+)\] = (\d+)", line)
        if entry and current is not None:
            current["betti"][(int(entry.group(1)), int(entry.group(2)))] = int(entry.group(3))
    failed, wrong = 0, []
    for path, kind, n, edges in prep["files"]:
        nu = ref.induced_matching_number(n, edges)
        for s in REG_S:
            table = tables.get((path, s))
            if kind == "cycle":
                want = ref.cycle_power_regularity(n, s)
            else:
                want = ref.forest_power_regularity(nu, s)
            gens = len(ref.edge_products(n, edges, s))
            if table is None:
                problem = "no table printed"
            elif table["field"] != "prime":
                problem = f"computed over {table['field']}"
            elif table["reg"] != want:
                problem = f"regularity {table['reg']} != closed form {want}"
            elif table["betti"].get((0, 2 * s)) != gens:
                problem = f"beta[0][{2 * s}] = {table['betti'].get((0, 2 * s))} != {gens} generators"
            else:
                continue
            failed += 1
            wrong.append(f"{kind} n={n} edges={edges} s={s}: {problem}")
    decided = sum(1 for key in tables if any(key[0] == f[0] for f in prep["files"]))
    return Outcome(expected, failed, decided, wrong[:5])


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    check: object


WORKLOADS = {
    "catalog": Workload(catalog_prepare, catalog_run, catalog_check),
    "bipartite-sweep": Workload(bipartite_prepare, bipartite_run, bipartite_check),
    "colon-sweep": Workload(colon_prepare, colon_run, colon_check),
    "reg-prime": Workload(reg_prepare, reg_run, reg_check),
}
