"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

Smoke runs keep two or three requests per round, so the whole file takes
under a minute.  They check the harness, not hyperquad: every metric named
in BENCHMARK.json is printed with its unit, a planted wrong reference
digest is counted as a failure, traced self times are non-negative and
nest, and the computed counts repeat exactly for a seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _smoke(workload: str, trace: int, *extra: str):
    return _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--limit", "2", *extra)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _smoke(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines), m["name"]
    if not trace:
        assert any(line.startswith("fail_ratio 0.000000 ratio") for line in lines)


def test_planted_wrong_digest_counts_as_failure(tmp_path):
    ref = workloads.load_reference()
    for entry in ref["orbit-factor"]["orbit"]:
        entry["digest"] = "0" * 24
    planted = tmp_path / "reference.json"
    planted.write_text(json.dumps(ref))
    lines, result = _smoke("orbit-factor", 0, "--reference", str(planted))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    ratio = next(line for line in lines if line.startswith("fail_ratio"))
    assert float(ratio.split()[1]) > 0


def _traced_round(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "3", "--rounds", "1", "--limit", "3", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["grid-sweep", "orbit-factor"])
def test_traced_self_times_nest_and_counts_repeat(workload):
    report = _traced_round(workload)
    counts = {k: v for k, (v, unit) in report["layers"].items() if unit == "count"}
    assert counts == {
        k: v for k, (v, unit) in _traced_round(workload)["layers"].items() if unit == "count"
    }
    assert report["nesting_errors"] == 0
    spans = report["spans"]
    for calls, total, own in spans.values():
        assert own >= 0 and own <= total + 1e-9
    request = spans.pop(tracing.REQUEST)
    assert request[0] == 3
    assert sum(own for _, _, own in spans.values()) + request[2] <= request[1] + 1e-9


def test_tracer_self_time_excludes_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def parent():
        time.sleep(0.01)
        wrapped_leaf()
        wrapped_leaf()

    tracer.wrap("parent", parent)()
    calls, total, own = tracer.spans["parent"]
    leaf_calls, leaf_total, leaf_own = tracer.spans["leaf"]
    assert (calls, leaf_calls) == (1, 2)
    assert leaf_own == pytest.approx(leaf_total)
    assert 0.009 <= own <= total - leaf_total
    assert tracer.nesting_errors == 0


def test_grid_round_repeats_for_a_seed_and_covers_the_grid():
    pools = workloads.Pools(workloads.load_reference(), "grid-sweep")
    first = pools.next_round(random.Random(5))
    assert first == pools.next_round(random.Random(5))
    closed = {tuple(r.entry["cell"]) for r in first
              if r.kind == "verify" and r.entry["case"] == "III1"}
    assert len(closed) == 162
    assert sum(r.kind == "predict" for r in first) == 54
    assert sum(r.entry["case"] == "III2" for r in first) == 18
