"""Benchmark runner for `edgeideals`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh interpreter (`rep.py`),
one process at a time, until S seconds have passed and at least one
repetition (two when traced) is done.  With `--trace 0` every repetition is untraced and
the last output line carries the end-to-end metrics; with `--trace 1`
untraced and traced repetitions alternate, and it carries the per-layer
metrics of the traced ones, with the traced wall time and its ratio to the
untraced one.  Values are medians over repetitions.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it holds
the run's metadata.  The full record, every repetition included, goes to
`bench/_runs/`, and the spans of the last traced repetition next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("catalog", "bipartite-sweep", "colon-sweep", "reg-prime")
# Repetitions per run at least: one, or one untraced and one traced.
MIN_REPS = {0: 1, 1: 2}
# Set-up-only processes per run, on top of one set-up per repetition.
SETUP_ONLY_RUNS = 3
# Start no repetition that could end past this many seconds into the run.
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "checks_decided": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("trace.overhead", "monomials.minimalize_kept_share", "betti.entries_per_closure"):
        return "ratio"
    if name == "reports.output_bytes":
        return "bytes"
    return "count"


def metadata() -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_rep(workload: str, seed: int, trace: int, timeout: float, extra: list[str]) -> dict:
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), *extra]
    spawned = perf_counter()
    try:
        done = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True,
                              text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s", "elapsed": perf_counter() - spawned}
    elapsed = perf_counter() - spawned
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": f"rep.py exited {done.returncode}: {done.stderr.strip()[-500:]}",
                "elapsed": elapsed}
    record = json.loads(lines[-1])
    record["elapsed"] = elapsed
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "edgeideals" / "__init__.py").is_file():
        print(f"error: no edgeideals sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = metadata()
    runs_dir = BENCH / "_runs"
    runs_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = runs_dir / f"{stem}.spans.tsv" if args.trace else None
    start = perf_counter()
    reps: list[dict] = []
    while True:
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS[args.trace] and elapsed >= args.seconds:
            break
        longest = max((r["elapsed"] for r in reps), default=0.0)
        if reps and elapsed + longest > DEADLINE_S:
            break
        traced = args.trace == 1 and len(reps) % 2 == 1
        rep = run_rep(args.workload, args.seed, int(traced), DEADLINE_S + 20 - elapsed,
                      ["--spans", str(spans)] if traced else [])
        rep["traced"] = traced
        reps.append(rep)
        if "error" in rep:
            break

    setups = [] if args.trace else [
        run_rep(args.workload, args.seed, 0, 60, ["--setup-only"]) for _ in range(SETUP_ONLY_RUNS)
    ]
    errors = [r["error"] for r in reps + setups if "error" in r]
    good = [r for r in reps if "error" not in r]
    attempted = sum(r["attempted"] for r in good) + len(errors)
    failed = sum(r["failed"] for r in good) + len(errors)
    wrong = [w for r in good for w in r["wrong"]]
    digests = {r["digest"] for r in good}
    if len(digests) > 1:
        wrong.append("output bytes differ between repetitions")
    if len({r["decided"] for r in good}) > 1:
        wrong.append("verdict count differs between repetitions")
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    meta["numpy"] = good[0]["numpy"] if good else None

    metrics: dict[str, float] = {}
    if plain and (not args.trace or traced):
        wall = statistics.median(r["wall_s"] for r in plain)
        if args.trace:
            names = traced[0]["layers"]
            metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
            metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
            metrics["trace.overhead"] = metrics["trace.wall_s"] / wall
            units = {k: layer_unit(k) for k in metrics}
        else:
            decided = plain[0]["decided"]
            metrics = {
                "wall_s": wall,
                "checks_per_s": decided / wall,
                "checks_decided": decided,
                "setup_s": statistics.median(
                    r["setup_s"] for r in plain + setups if "setup_s" in r),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            }
            units = END_TO_END_UNITS
    else:
        units = {}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta, "repetitions": reps, "setup_only": setups,
        "wrong": wrong,
    }
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in errors + wrong[:10]:
        print(f"problem: {line}", file=sys.stderr)
    for line in [e for r in good for e in r["errors"]][:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"meta": meta, "repetitions": len(reps)}))
    print(json.dumps({
        "correct": not wrong and not errors,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
