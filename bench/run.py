"""gacalc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--src DIR]

With ``--trace 0`` the run starts fresh set-up processes before and after
one fresh measuring process and prints the end-to-end metrics; with
``--trace 1`` one fresh process runs a fixed op count with untraced and
traced chunks interleaved and prints the per-layer metrics. Human-readable
lines come first; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. ``--src`` points at another
source tree, which ``compare.py`` uses to run the same benchmark code on
two commits. See README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracer
import workloads
from worker import child_env

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
SETUPS = 12  # set-up processes per run, half before and half after measuring

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_p50_us": ("us", "lower"),
    "op_tail_us": ("us", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}


def _per_layer() -> dict:
    table = {}
    for layer in tracer.LAYERS:
        table[f"{layer}.calls"] = ("count", "lower")
        table[f"{layer}.self_s"] = ("s", "lower")
    for layer in tracer.PAIR_LAYERS:
        table[f"{layer}.term_pairs"] = ("count", "lower")
    table["algebra.gp.ns_per_pair"] = ("ns", "lower")
    for name in ("expr.tokens", "expr.ast_nodes", "expr.typed_errors"):
        table[name] = ("count", "lower")
    for name in ("cli.interp_floor_s", "cli.import_s", "cli.main_s"):
        table[name] = ("s", "lower")
    table["trace.ops"] = ("count", "higher")
    table["trace.spans"] = ("count", "lower")
    table["trace.untraced_ops_per_s"] = ("op/s", "higher")
    table["trace.traced_ops_per_s"] = ("op/s", "higher")
    table["trace.overhead"] = ("ratio", "lower")
    table["trace.unattributed_s"] = ("s", "lower")
    return table


PER_LAYER = _per_layer()


def host() -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}


class WorkerError(RuntimeError):
    pass


def spawn(mode: str, args) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), mode, args.workload,
            str(args.seed), str(args.seconds), str(args.src)]
    proc = subprocess.run(argv, cwd=CHECKOUT, env=child_env(str(args.src)),
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise WorkerError(f"worker {mode} failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict]:
    setups = [spawn("setup", args)["setup_s"] for _ in range(SETUPS // 2)]
    m = spawn("measure", args)
    setups += [spawn("setup", args)["setup_s"] for _ in range(SETUPS - SETUPS // 2)]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": m["ops_per_s"],
        "op_p50_us": m["p50_us"],
        "op_tail_us": m["tail_us"],
        "peak_rss_mb": m["peak_rss_mb"],
    }
    print(f"{args.workload} seed {args.seed}: {m['ops']} ops, {m['busy_s']:.3f} s busy, "
          f"closed loop, one client")
    for name, (unit, _) in END_TO_END.items():
        print(f"  {name:<12} {values[name]:.6g} {unit}")
    rate = m["failed"] / m["attempted"]
    print(f"  {'error_rate':<12} {rate:.6g} ratio ({m['failed']} of {m['attempted']})")
    w = m["whole"]
    print(f"  ops_per_s, op_p50_us, op_tail_us: over the fastest {m['fastest']} executions "
          f"of each of the {m['entries']} pool entries (of at least {m['executions']} each); "
          f"op_tail_us is p{m['tail_pct']:g} ({m['tail_beyond']} samples beyond it)")
    print(f"  whole run: {w['ops_per_s']:.6g} op/s, p50 {w['p50_us']:.6g} us, "
          f"p{w['tail_pct']:g} {w['tail_us']:.6g} us ({w['tail_beyond']} samples beyond it)")
    print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    return values, m


def run(args) -> dict:
    if args.trace:
        m = spawn("trace", args)
        values = m["metrics"]
        print(f"{args.workload} seed {args.seed}: traced run of {values['trace.ops']} ops "
              f"(overhead {values['trace.overhead']:+.1%})")
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<40} {values[name]:.6g} {unit}")
        table = PER_LAYER
    else:
        values, m = end_to_end(args)
        table = END_TO_END
    print(f"  host: {json.dumps(host())}")
    for example in m["examples"]:
        print(f"  FAILED {example}")
    return {
        "correct": m["failed"] == 0,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in table.items()},
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="gacalc benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, default=CHECKOUT / "src",
                        help="source tree holding the gacalc package (default: ./src)")
    args = parser.parse_args(argv)
    args.src = args.src.resolve()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (args.src / "gacalc" / "__init__.py").is_file():
        print(f"run.py: no gacalc package under {args.src}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
