"""One repetition of one workload, in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1 --spawned T

`--spawned` is the parent's `time.perf_counter()` just before it started this
process (the monotonic clock is shared by all processes), so set-up time
runs from interpreter start to the first timed call.  Prints one JSON line.
`edgeideals` keeps process-wide unbounded caches (`edge_ideal`,
`ordinary_power`, `symbolic_power`), so a second repetition in the same
process would time cache hits; each repetition therefore gets its own process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def power_caches() -> list:
    """Every lru_cache layer of the power caches (`ordinary_power` is
    decorated twice).  Taken before the tracer replaces the module names."""
    from edgeideals import symbolic

    return [symbolic.edge_ideal, symbolic.symbolic_power, symbolic.ordinary_power,
            symbolic.ordinary_power.__wrapped__]


def cache_stats(caches: list) -> dict[str, int]:
    infos = [c.cache_info() for c in caches]
    return {
        "symbolic.cache_hits": sum(i.hits for i in infos),
        "symbolic.cache_misses": sum(i.misses for i in infos),
        "symbolic.cache_entries": sum(i.currsize for i in infos),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed call and report set-up time only")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepared = workload.prepare(args.seed, workdir)
        if args.trace:
            caches = power_caches()
            caches_before = cache_stats(caches)
            tracer = Tracer()
            tracer.install()
        else:
            tracer = None
        start = perf_counter()
        if args.setup_only:
            print(json.dumps({"setup_s": start - args.spawned}))
            return
        result = workload.run(prepared, tracer)
        end = perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record = {
            "setup_s": start - args.spawned,
            "wall_s": end - start,
            "peak_rss_mb": peak_rss_mb,
            "numpy": numpy.__version__,
        }
        if args.trace:
            layers = tracer.layer_metrics()
            after = cache_stats(caches)
            layers.update({k: after[k] - caches_before[k] for k in after})
            layers["symbolic.cache_entries"] = after["symbolic.cache_entries"]
            record["layers"] = layers
            if args.spans:
                tracer.write(args.spans)
        outcome = workload.check(prepared, result)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        decided=outcome.decided,
        wrong=outcome.wrong,
        errors=outcome.errors,
        digest=outcome.digest,
    )
    print(json.dumps(record))


if __name__ == "__main__":
    main()
