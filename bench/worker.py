"""One fresh benchmark process: ``setup``, ``measure`` or ``trace`` one
workload and print one JSON object. Started by ``run.py``; see README.md.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS SRC
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
BUILD_DIR = CHECKOUT / ".bench_build"
TRACE_CHUNKS = 8
PROBE_ROUNDS = 7


class Latencies:
    """Every op latency of a run, in order, summarised at its end.

    The latencies are spooled to a file in the build directory, so the
    measuring process's memory, whose peak is a metric, does not grow
    with the op count; ``summary`` reads them back after that peak has
    been taken.

    Op ``k`` of a run is an execution of pool entry ``k % pool``. The
    timing metrics come from each entry's ``fastest`` executions, so
    every entry counts equally and each of them is timed at the moments
    the host ran it fastest, as ``timeit`` takes the best of its
    repeats: the shared host this benchmark was built on ran the same
    code 1.3-1.8 times slower for stretches of seconds to minutes, and
    whole-run figures of ten 25 s runs of one build spread 0.18-0.40
    (IQR/median) in ``kernel_dense``. A cost paid on every execution
    shows in all three metrics; a stall that hits an entry on fewer
    than all but ``fastest`` of its executions shows only in the
    whole-run figures, which ``summary`` returns as well. The tail is
    the highest percentile, on a 0.1 grid up to ``cap``, with at least
    ten samples beyond it. Above the cap it would measure the host: on a
    shared VM with 2 vCPUs, 0.1-0.2% of ``rotor_stream`` ops were
    preempted for 1-5 ms, and p99.9 of the same code read 0.94-4.5 ms
    across runs."""

    CHUNK = 4096

    def __init__(self, path: Path, pool: int, fastest: int, cap: float) -> None:
        path.parent.mkdir(exist_ok=True)
        self.path = path
        self.pool = pool
        self.fastest = fastest
        self.cap = cap
        self.file = open(path, "wb")
        self.buf = array("q")
        self.ops = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        self.ops += 1
        self.total_ns += ns
        self.buf.append(ns)
        if len(self.buf) == self.CHUNK:
            self.buf.tofile(self.file)
            del self.buf[:]

    def summary(self) -> dict:
        self.buf.tofile(self.file)
        self.file.close()
        samples = array("q")
        samples.frombytes(self.path.read_bytes())
        self.path.unlink()
        entries = [sorted(samples[e :: self.pool]) for e in range(min(self.pool, len(samples)))]
        chosen = [ns for runs in entries for ns in runs[: self.fastest]]
        return dict(
            self._stats(chosen),
            ops=len(samples),
            busy_s=self.total_ns / 1e9,
            entries=len(entries),
            fastest=self.fastest,
            executions=min(len(runs) for runs in entries),
            whole=self._stats(samples),
        )

    def _stats(self, samples) -> dict:
        samples = sorted(samples)
        n = len(samples)
        pct = min(self.cap, math.floor(1000 * (1 - 10 / n)) / 10) if n > 10 else 0.0
        rank = max(1, math.ceil(pct / 100 * n))
        return {
            "ops_per_s": n / (sum(samples) / 1e9),
            "p50_us": statistics.median(samples) / 1e3,
            "tail_us": samples[rank - 1] / 1e3,
            "tail_pct": pct,
            "tail_beyond": n - rank,
        }


class Outcomes:
    """What the verifier needs from a run: the first result of each kept
    pool index, every exception by index and type, and execution counts."""

    def __init__(self, workload, size: int) -> None:
        self.keep = workload.keep
        self.first: dict = {}
        self.raised: Counter = Counter()
        self.executions = [0] * size


def loop(calls, start, out: Outcomes, count=None, seconds=None, cycle=1, record=None):
    """Run ops start, start+1, ... in a closed loop, one at a time, for
    ``count`` ops, or for ``seconds`` and then on to the end of the
    current ``cycle`` ops, so a timed run is made of whole cycles of the
    mix. Each op's latency in ns goes to ``record``; return the next op
    index and the busy ns."""
    size = len(calls)
    clock = time.perf_counter_ns
    stop_i = start + count if count is not None else None
    stop_ns = clock() + int(seconds * 1e9) if seconds is not None else None
    first, keep, raised, executions = out.first, out.keep, out.raised, out.executions
    i, busy = start, 0
    t1 = clock()
    while (i < stop_i) if stop_i is not None else (t1 < stop_ns or (i - start) % cycle):
        idx = i % size
        fn, args = calls[idx]
        t0 = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # counted and judged by the verifier
            result = exc
        t1 = clock()
        busy += t1 - t0
        if record is not None:
            record(t1 - t0)
        executions[idx] += 1
        if isinstance(result, Exception):
            raised[idx, type(result)] += 1
        if idx not in first and (keep is None or idx in keep):
            first[idx] = result
        i += 1
    return i, busy


def verify(workload, ga, out: Outcomes) -> tuple[int, int, list[str]]:
    """(attempted, failed, a few failure messages)."""
    failed = 0
    examples: list[str] = []
    for (idx, exc_type), n in out.raised.items():
        expected = workload.expected_error(idx)
        if expected is None or not issubclass(exc_type, getattr(ga, expected)):
            failed += n
            examples.append(f"op {idx}: unexpected {exc_type.__name__}")
    for idx, result in sorted(out.first.items()):
        if isinstance(result, Exception) and workload.expected_error(idx) is None:
            continue  # counted above
        message = workload.check(idx, result)
        if message is not None:
            failed += out.executions[idx]
            examples.append(f"op {idx}: {message}")
    return sum(out.executions), failed, examples[:5]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process workloads ----------------------------------------------------


def _setup(name: str, seed: int, src: str):
    wl = workloads.make(name, seed)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import gacalc

    t1 = time.perf_counter()
    calls = wl.bind(gacalc)
    t2 = time.perf_counter()
    loop(calls, 0, Outcomes(wl, len(calls)), count=wl.warmup)
    t3 = time.perf_counter()
    return wl, gacalc, calls, (t1 - t0) + (t3 - t2)


def measure(name: str, seed: int, seconds: float, src: str) -> dict:
    wl, ga, calls, setup_s = _setup(name, seed, src)
    out = Outcomes(wl, len(calls))
    lat = Latencies(BUILD_DIR / f"lat-{os.getpid()}.bin", len(calls), wl.fastest, wl.tail_cap)
    loop(calls, wl.warmup, out, seconds=seconds, cycle=len(calls), record=lat.add)
    rss = peak_rss_mb()
    attempted, failed, examples = verify(wl, ga, out)
    return dict(lat.summary(), setup_s=setup_s, peak_rss_mb=rss,
                attempted=attempted, failed=failed, examples=examples)


def trace(name: str, seed: int, src: str) -> dict:
    """Fixed op count, so counts repeat exactly for a seed; untraced and
    traced chunks of the same ops alternate, which makes their ratio the
    tracing overhead even while the host's speed drifts."""
    import tracer as tracing

    wl, ga, calls, _ = _setup(name, seed, src)
    out = Outcomes(wl, len(calls))
    tr = tracing.Tracer()
    busy_ns = {False: 0, True: 0}
    chunk = wl.trace_ops // TRACE_CHUNKS
    start = wl.warmup
    for c in range(TRACE_CHUNKS):
        for traced in ((False, True) if c % 2 == 0 else (True, False)):
            if traced:
                tr.install(ga)
            try:
                busy_ns[traced] += loop(calls, start, out, count=chunk)[1]
            finally:
                tr.uninstall()
        start += chunk
    attempted, failed, examples = verify(wl, ga, out)
    summary = tr.summary()
    metrics = layer_metrics(summary)
    # the traced chunks ran the same ops as the untraced ones: half the errors
    typed = (ga.AlgebraError, ga.GaSyntaxError, ga.EvalError)
    metrics["expr.typed_errors"] = sum(n for (_, t), n in out.raised.items() if issubclass(t, typed)) // 2
    metrics.update(overhead_metrics(chunk * TRACE_CHUNKS, busy_ns[False] / 1e9, busy_ns[True] / 1e9, summary))
    metrics.update(cli_probes(src))
    return dict(metrics=metrics, attempted=attempted, failed=failed, examples=examples)


def layer_metrics(summary: dict) -> dict:
    metrics: dict = {}
    for layer, row in summary["layers"].items():
        metrics[f"{layer}.calls"] = row["calls"]
        metrics[f"{layer}.self_s"] = row["self_ns"] / 1e9
    for layer, pairs in summary["term_pairs"].items():
        metrics[f"{layer}.term_pairs"] = pairs
    gp = summary["layers"]["algebra.gp"]["self_ns"]
    metrics["algebra.gp.ns_per_pair"] = gp / summary["term_pairs"]["algebra.gp"] if gp else 0.0
    metrics["expr.tokens"] = summary["tokens"]
    metrics["expr.ast_nodes"] = summary["ast_nodes"]
    return metrics


def overhead_metrics(ops: int, untraced_s: float, traced_s: float, summary: dict) -> dict:
    return {
        "trace.ops": ops,
        "trace.spans": summary["spans"],
        "trace.untraced_ops_per_s": ops / untraced_s,
        "trace.traced_ops_per_s": ops / traced_s,
        "trace.overhead": traced_s / untraced_s - 1.0,
        "trace.unattributed_s": traced_s - summary["root_ns"] / 1e9,
    }


# -- launch-cost probes ---------------------------------------------------


def child_env(src: str) -> dict:
    """Environment of every launched interpreter: gacalc from ``src`` and
    bytecode caches on, as for an installed ``ga``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = src
    return env


def launch(argv: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=env, cwd=CHECKOUT, capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - t0, proc


def cli_probes(src: str) -> dict:
    """Launch-cost split: bare interpreter, import of gacalc.cli on top of
    it, and the rest of a ``ga eval`` launch. Medians of interleaved rounds."""
    env = child_env(src)
    argvs = {
        "floor": ["-c", "pass"],
        "import": ["-c", "import gacalc.cli"],
        "main": ["-m", "gacalc.cli", "eval", "rot(e1, exp(-0.5*3.141592653589793/2*e12))"],
    }
    launch(argvs["import"], env)  # warm the caches
    rounds = []
    for _ in range(PROBE_ROUNDS):
        rounds.append({key: launch(argv, env)[0] for key, argv in argvs.items()})
    # differences within a round cancel most of the host's drift
    return {
        "cli.interp_floor_s": statistics.median(r["floor"] for r in rounds),
        "cli.import_s": statistics.median(r["import"] - r["floor"] for r in rounds),
        "cli.main_s": statistics.median(r["main"] - r["import"] for r in rounds),
    }


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, src = argv
    seed, seconds = int(seed), float(seconds)
    result = {"setup": lambda: {"setup_s": _setup(name, seed, src)[3]},
              "measure": lambda: measure(name, seed, seconds, src),
              "trace": lambda: trace(name, seed, src)}[mode]()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
