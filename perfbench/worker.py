"""One round of one workload in a fresh interpreter; prints its result as JSON.

run.py starts this script with ``sys.executable`` and passes the moment it
spawned the process, so that set-up time counts from process start:

    worker.py --workload NAME --seed N --spawn-ns T --out-dir DIR
              [--setup-only] [--trace] [--full-checks]
"""

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, merge, write_json
from workloads import WORKLOADS

# The tail is taken per block of this many ops and the run reports the median
# block: the 11th-largest of 100k fast calls is set by a handful of host
# hiccups, while the p99.5 of a 2000-op block is a property of the program.
TAIL_BLOCK = 2000


def _check_import_source():
    """The program under test is the checkout's own src/gtbasis, never an installed copy."""
    import gtbasis
    src = Path.cwd().resolve() / "src" / "gtbasis"
    where = Path(gtbasis.__file__).resolve().parent
    if where != src:
        raise SystemExit(f"gtbasis imported from {where}, expected {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--full-checks", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    state = workload.setup(args.seed)
    first_call = time.monotonic_ns()
    result = {"setup_s": (first_call - args.spawn_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None and workload.in_process:
        tracer.install()
    rnd = workload.run(state, tracer, args.out_dir)
    wall_s = (time.monotonic_ns() - first_call) / 1e9
    peak_rss_kb = workload.peak_rss_kb()
    if tracer is not None and workload.in_process:
        tracer.uninstall()

    checks_began = time.monotonic_ns()
    problems = workload.check(state, rnd, args.full_checks, args.out_dir)
    _check_import_source()
    result["check_s"] = (time.monotonic_ns() - checks_began) / 1e9
    latencies = rnd.latencies_ns
    blocks = _blocks(latencies)
    result.update({
        "wall_s": wall_s,
        "ops": len(latencies),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": statistics.median(_tail(block) for block in blocks) / 1e6,
        "tail_quantile": 1.0 - 10 / len(blocks[0]),
        "tail_block": len(blocks[0]),
        "peak_rss_mb": peak_rss_kb / 1024,
        "attempted": workload.attempted(rnd),
        "failed": len(rnd.failed),
        "problems": problems,
        "digest": workload.digest(rnd),
    })
    if tracer is not None:
        result["trace"] = _trace_result(workload, tracer, rnd, args)
    print(json.dumps(result))
    return 0


def _blocks(latencies):
    """Ops in run order, cut into blocks of about TAIL_BLOCK ops (one block if fewer)."""
    count = max(1, len(latencies) // TAIL_BLOCK)
    size = len(latencies) / count
    return [latencies[round(i * size):round((i + 1) * size)] for i in range(count)]


def _tail(block):
    """The highest percentile of the block that still has ten samples beyond it."""
    ordered = sorted(block)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def _trace_result(workload, tracer, rnd, args) -> dict:
    """Raw per-layer totals of the traced round; the spans go to a file."""
    out = Path(args.out_dir) / f"trace-{workload.name}-seed{args.seed}.json"
    if workload.in_process:
        summary = tracer.summary()
        spans = tracer.spans()
    else:
        children = rnd.extra["children"]
        summary = merge(children)
        spans = [child.pop("spans") for child in children]
        summary["cli"] = [dict(child["cli"], latency_s=lat / 1e9)
                          for child, lat in zip(children, rnd.latencies_ns)]
    summary.update(workload.trace_extra(rnd))
    write_json(out, {"workload": workload.name, "seed": args.seed,
                     "summary": summary, "spans": spans})
    return summary


if __name__ == "__main__":
    sys.exit(main())
