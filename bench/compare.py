"""Compare two source trees (a parent commit and a change) on the benchmark.

    python3 bench/compare.py --base PARENT_CHECKOUT --head CHANGE_CHECKOUT [--out compare.json]

Both sides run this copy of the benchmark (``run.py --src <side>/src``),
so benchmark code and settings are identical; each run lasts
``BENCHMARK.json``'s ``run_seconds``. Every workload gets ten pairs of
runs; pair i uses seed 1000+i for both sides and alternates which side
runs first. For each workload it
prints each side's median and quartiles of every end-to-end metric, the
fraction of pairs the change wins (ties count for neither), and, from as
many alternating pairs of traced runs, the change/parent ratio of the
medians of every per-layer metric.
The JSON written to --out also records the seeds and the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

RUN = Path(__file__).resolve().with_name("run.py")
PAIRS = 10
SEED = 1000
SECONDS = json.loads((bench.CHECKOUT / "BENCHMARK.json").read_text())["run_seconds"]


def host() -> dict:
    """The benchmark's host line plus the CPU model."""
    info = bench.host()
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        info["cpu"] = next(
            (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
            "unknown",
        )
    return info


def run_side(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace), "--src", str(checkout / "src")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def alternating(args, workload: str, trace: int) -> dict:
    """Metric values per side over PAIRS pairs of runs; pair i uses seed
    SEED+i on both sides, and the side that runs first alternates."""
    sides = {"base": args.base, "head": args.head}
    values: dict = {"base": {}, "head": {}, "failed": {"base": 0, "head": 0}}
    for i in range(PAIRS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            result = run_side(sides[side], workload, SEED + i, trace)
            values["failed"][side] += result["failed"]
            for name, metric in result["metrics"].items():
                values[side].setdefault(name, []).append(metric["value"])
    return values


def compare_workload(args, workload: str) -> dict:
    e2e = alternating(args, workload, 0)
    rows = {}
    for name, (unit, better) in bench.END_TO_END.items():
        base, head = e2e["base"][name], e2e["head"][name]
        wins = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
        rows[name] = {"unit": unit, "better": better, "base": quartiles(base),
                      "head": quartiles(head), "head_wins": wins / PAIRS}
    traced = alternating(args, workload, 1)
    layers = {}
    for name in bench.PER_LAYER:
        base = statistics.median(traced["base"][name])
        if base:
            layers[name] = statistics.median(traced["head"][name]) / base
    return {"end_to_end": rows, "per_layer_ratio": layers, "failed": e2e["failed"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--head", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, help="write the comparison, the seeds and the host here as JSON")
    args = parser.parse_args(argv)
    args.base, args.head = args.base.resolve(), args.head.resolve()
    report = {
        "host": host(),
        "seeds": list(range(SEED, SEED + PAIRS)),
        "seconds": SECONDS,
        "base": str(args.base),
        "head": str(args.head),
        "workloads": {},
    }
    for workload in bench.workloads.WORKLOADS:
        result = compare_workload(args, workload)
        report["workloads"][workload] = result
        print(f"{workload}: {PAIRS} pairs, failed ops base {result['failed']['base']} "
              f"head {result['failed']['head']}")
        for name, row in result["end_to_end"].items():
            (bq1, bmed, bq3), (hq1, hmed, hq3) = row["base"], row["head"]
            print(f"  {name:<12} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  head {hmed:.6g} "
                  f"[{hq1:.6g}, {hq3:.6g}] {row['unit']}  head/base {hmed / bmed:.3f}  "
                  f"head wins {row['head_wins']:.0%} ({row['better']} is better)")
        for name, ratio in result["per_layer_ratio"].items():
            print(f"    {name:<40} head/base {ratio:.3f}")
    print(f"host: {json.dumps(report['host'])}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
