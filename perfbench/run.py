"""The gtbasis benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gtbasis checkout; the program under test is that
checkout's ``src/gtbasis``.  Every timed round is a fresh interpreter started
with ``sys.executable`` and ``GTBASIS_THREADS=1``, so caches start cold, as
they do for a command-line user.

``--trace 0`` measures the end-to-end metrics: a few set-up-only starts, then
timed rounds for about S seconds (at least one round).  ``--trace 1`` runs
one untraced and one traced round and reports the per-layer metrics.  Either
way the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("verify-all", "exact-build", "genfun-grid", "cli-calls")
SETUP_STARTS = 4          # set-up-only starts per run, besides the timed rounds
ROUND_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _spawn(root: Path, out_dir: Path, workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, GTBASIS_THREADS="1", PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out-dir", str(out_dir), *flags, "--spawn-ns"]
    cmd.append(str(time.monotonic_ns()))
    # Its own session, so that a round that times out is killed with every
    # process it started.
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"{workload} round timed out after {ROUND_TIMEOUT_S}s") from exc
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(root, out_dir, workload, seed, seconds):
    setups = [_spawn(root, out_dir, workload, seed, "--setup-only")["setup_s"]
              for _ in range(SETUP_STARTS)]
    start = time.monotonic()
    rounds, durations = [], []
    # Rounds run while the next one is expected to end within the budget;
    # only the first round runs the expensive gates, so they are not counted
    # in the expected length.
    while not rounds or time.monotonic() - start + statistics.median(durations) <= seconds:
        began = time.monotonic()
        flags = ("--full-checks",) if not rounds else ()
        rounds.append(_spawn(root, out_dir, workload, seed, *flags))
        durations.append(time.monotonic() - began - rounds[-1]["check_s"])
    setups += [r["setup_s"] for r in rounds]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_ms": (statistics.median(r["op_p50_ms"] for r in rounds), "ms"),
        "op_tail_ms": (statistics.median(r["op_tail_ms"] for r in rounds), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    first = rounds[0]
    notes = [f"{len(rounds)} round(s) of {first['ops']} ops, {len(setups)} set-ups; "
             f"op_tail_ms is the median over blocks of {first['tail_block']} ops "
             f"of the p{100 * first['tail_quantile']:.4g} latency"]
    return rounds, metrics, notes


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _hit_ratio(info) -> float:
    return _ratio(info["hits"], info["hits"] + info["misses"]) if info else 0.0


def _per_layer(names, summary: dict, untraced: dict, traced: dict) -> dict:
    """Per-layer metrics from a traced round's raw totals.

    A metric "<layer>.<what>.<field>" reads the tracer total named
    "<layer>.<what>" in the table its field selects; the rest are special.
    """
    counts, caches, cli = summary["counts"], summary["caches"], summary.get("cli", [])

    def cli_median(values):
        return statistics.median(values) if cli else 0.0

    special = {
        "scalars.coeff_bits.max": summary["coeff_bits_max"],
        "mvpoly.mul.terms_out_max": summary["max"].get("mvpoly.mul.terms", 0),
        "hseries.terms.max": max((v for k, v in summary["max"].items()
                                  if k.startswith("hseries.")), default=0),
        "verify.checks.failed": summary.get("verify_failed", 0),
        "cli.import_s": cli_median([call["import_s"] for call in cli]),
        "cli.main.self_s": cli_median([call["main_self_s"] for call in cli]),
        "cli.process_s": cli_median([call["latency_s"] - call["import_s"] - call["main_s"]
                                     for call in cli]),
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
    }
    fields = {
        "calls": lambda key: counts.get(key, 0),
        "self_s": lambda key: summary["self_s"].get(key, 0.0),
        "busy_s": lambda key: summary["total_s"].get(key, 0.0),
        "nonzero_ratio": lambda key: _ratio(summary["nonzero"].get(key, 0),
                                            counts.get(key, 0)),
        "hit_ratio": lambda key: _hit_ratio(caches.get(key)),
    }
    metrics = {}
    for name, unit in names:
        key, field = name.rsplit(".", 1)
        if name in special:
            metrics[name] = (special[name], unit)
        elif field in fields:
            metrics[name] = (fields[field](key), unit)
        else:
            raise BenchError(f"no rule gives the per-layer metric {name}")
    return metrics


def _traced(root, out_dir, workload, seed):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    untraced = _spawn(root, out_dir, workload, seed, "--full-checks")
    traced = _spawn(root, out_dir, workload, seed, "--trace")
    rounds = [untraced, traced]
    metrics = _per_layer(names, traced["trace"], untraced, traced)
    notes = [f"traced wall {traced['wall_s']:.3f}s, untraced {untraced['wall_s']:.3f}s; "
             f"spans in {out_dir.name}/trace-{workload}-seed{seed}.json"]
    if traced["trace"]["missing"]:
        notes.append(f"not traced, absent from gtbasis: {traced['trace']['missing']}")
    return rounds, metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "gtbasis" / "__init__.py").is_file():
        print(f"error: {root} holds no src/gtbasis to benchmark; run from the root "
              f"of a gtbasis checkout", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        if args.trace:
            rounds, metrics, notes = _traced(root, out_dir, args.workload, args.seed)
        else:
            rounds, metrics, notes = _end_to_end(root, out_dir, args.workload, args.seed,
                                                 args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds of one seed gave different outputs")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in notes + problems:
        print(f"{args.workload}: {line}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
