"""Tests of the benchmark itself: seeded inputs, metric names, verifier.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH.parent
sys.path[:0] = [str(BENCH), str(CHECKOUT / "src")]

import gacalc  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(name):
    assert workloads.make(name, 7).specs == workloads.make(name, 7).specs
    assert workloads.make(name, 7).specs != workloads.make(name, 8).specs


def test_metric_tables_match_benchmark_json():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            (name, unit, better) for name, (unit, better) in table.items()
        ]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_match_benchmark_json(trace):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "rotor_stream",
         "--seed", "3", "--seconds", "0.5", "--trace", trace],
        capture_output=True, text=True, timeout=170, cwd=CHECKOUT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec[key]]
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _first_result(wl, calls, want):
    for idx in sorted(wl.keep) if wl.keep is not None else range(len(calls)):
        fn, args = calls[idx]
        try:
            result = fn(*args)
        except (gacalc.AlgebraError, gacalc.GaSyntaxError, gacalc.EvalError):
            continue
        if want(idx, result):
            return idx, result
    raise AssertionError("no suitable op in the pool")


def _flip(mv):
    bits, c = next(iter(mv.terms.items()))
    return gacalc.Multivector(mv.sig, {**mv.terms, bits: -c})


def test_kernel_verifier_rejects_one_flipped_sign():
    wl = workloads.make("kernel_dense", 5)
    idx, result = _first_result(wl, wl.bind(gacalc), lambda i, r: bool(r))
    assert wl.check(idx, result) is None
    assert wl.check(idx, _flip(result)) is not None


def test_rotor_verifier_rejects_one_flipped_sign():
    wl = workloads.make("rotor_stream", 5)
    calls = wl.bind(gacalc)
    idx, result = _first_result(wl, calls, lambda i, r: wl.specs[i][0] == "rotate")
    assert wl.check(idx, result) is None
    assert wl.check(idx, _flip(result)) is not None


def test_script_verifier_rejects_one_flipped_sign():
    wl = workloads.make("script_batch", 5)
    calls = wl.bind(gacalc)
    for fn, args in calls:  # bindings first: reads refer to earlier lets
        try:
            fn(*args)
        except (gacalc.AlgebraError, gacalc.GaSyntaxError, gacalc.EvalError):
            pass
    idx, result = _first_result(
        wl, calls, lambda i, r: wl.specs[i][2][0] == "read" and " + " in r
    )
    assert wl.check(idx, result) is None
    assert wl.check(idx, result.replace(" + ", " - ", 1)) is not None


def test_script_verifier_requires_the_expected_typed_error():
    wl = workloads.make("script_batch", 5)
    idx = next(i for i in range(len(wl.specs)) if wl.expected_error(i))
    wl.bind(gacalc)
    assert wl.check(idx, gacalc.Multivector.scalar(gacalc.G3, 1.0)) is not None
    assert wl.check(idx, ValueError("untyped")) is not None


def test_timing_metrics_come_from_each_entrys_fastest_executions(tmp_path):
    lat = worker.Latencies(tmp_path / "lat.bin", pool=2, fastest=2, cap=99.0)
    for us in (5, 7, 1, 3, 9, 9, 2, 2):  # entry 0: 5, 1, 9, 2; entry 1: 7, 3, 9, 2
        lat.add(us * 1000)
    summary = lat.summary()
    assert (summary["ops"], summary["entries"], summary["executions"]) == (8, 2, 4)
    assert summary["ops_per_s"] == 4 / (8000 / 1e9)  # 1, 2, 2 and 3 us
    assert summary["p50_us"] == 2.0
    assert summary["whole"]["ops_per_s"] == 8 / (38000 / 1e9)
