"""hyperquad benchmark: one workload, one closed-loop client, seeded inputs.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; hyperquad is imported from the `src` directory next to
this one.  Each measurement runs in a fresh interpreter (worker.py), one
process at a time, with BLAS and OpenMP pinned to one thread.

--trace 0 prints the end-to-end metrics: set-up time (median over four
fresh processes), then requests per second and latency over whole rounds
run until --seconds have passed.  --trace 1 runs the first round of the
seed twice, untraced and then traced, each in its own process, and prints
the per-layer metrics of the traced one with the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Without the
hyperquad sources the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import calibration  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 4
TIME_LIMIT_S = 170  # every process of one run ends within this


class BenchError(RuntimeError):
    """A worker process failed; the run prints no result."""


def spawn(worker_args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the next process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *worker_args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S} s time limit") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with status {proc.returncode}")
    report = json.loads(lines[-1])
    if not Path(report["hyperquad"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported hyperquad from {report['hyperquad']}, not {SRC}")
    return report


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def scaled_setup(report: dict) -> float:
    return report["setup_s"] * calibration.REFERENCE_S / report["setup_calibration_s"]


def end_to_end(workload: str, setups: list[dict], res: dict):
    raw = res["latencies_s"]
    lat = calibration.scaled(raw, res["calibration_s"])
    pct = workloads.TAIL_PERCENTILE[workload]
    tail, beyond = percentile(lat, pct)
    ok = res["attempted"] - res["failed"]
    metrics = {
        "setup_s": (statistics.median(scaled_setup(r) for r in setups), "s"),
        "req_per_s": (ok / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = [
        "times are at the reference machine speed; unscaled: "
        f"req_per_s {ok / sum(raw):.6g}, latency_p50_ms "
        f"{statistics.median(raw) * 1000:.6g}, setup_s "
        f"{statistics.median(r['setup_s'] for r in setups):.6g}; calibration kernel "
        f"{statistics.median(res['calibration_s']) * 1e3:.4f} ms "
        f"(reference {calibration.REFERENCE_S * 1e3:.4f} ms)",
        f"latency_tail_ms is p{pct} of {len(lat)} samples, {beyond} beyond it"
        + ("" if beyond >= 10 else " (fewer than ten: read it as unresolved)"),
        f"setup_s is the median of {len(setups)} fresh processes",
        f"fail_ratio {res['failed'] / res['attempted']:.6f} ratio "
        f"({res['failed']} of {res['attempted']})",
        f"cell_repeat_share {res['cell_repeat_share']:.4f} ratio "
        f"(requests whose (p, t, k, s) cell appeared earlier in the run)",
        f"rounds {res['rounds']}, busy {res['busy_s']:.3f} s, loop closed, 1 client",
    ]
    return metrics, notes


def per_layer(plain: dict, traced: dict):
    metrics = {name: tuple(vu) for name, vu in traced["layers"].items()}
    busy = [sum(calibration.scaled(r["latencies_s"], r["calibration_s"]))
            for r in (plain, traced)]
    metrics["trace.overhead_ratio"] = (busy[1] / busy[0], "ratio")
    metrics["workload.cell_repeat_share"] = (traced["cell_repeat_share"], "ratio")
    spans = dict(traced["spans"])
    request = spans.pop("request")
    layer_self = sum(rec[2] for rec in spans.values())
    top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:5]
    factor_total = spans.get("gfkernel.factor", [0, 0.0, 0.0])[1]
    notes = [
        f"one round: {traced['attempted']} requests, traced {traced['busy_s']:.3f} s, "
        f"untraced {plain['busy_s']:.3f} s",
        f"self time in layers {layer_self:.3f} s, in harness glue {request[2]:.3f} s, "
        f"request spans {request[1]:.3f} s, nesting errors {traced['nesting_errors']}",
        "largest self times: " + ", ".join(
            f"{name} {rec[2]:.3f} s ({rec[2] / request[1]:.0%})" for name, rec in top
        ),
        f"gfkernel.factor spans with their children: {factor_total:.3f} s "
        f"({factor_total / request[1]:.0%} of request time)",
    ]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=0,
                    help="keep only the first LIMIT requests of each round (smoke runs)")
    ap.add_argument("--reference", default=str(workloads.REFERENCE))
    args = ap.parse_args(argv)

    if not (SRC / "hyperquad" / "__init__.py").is_file():
        print(f"error: no hyperquad sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--reference", args.reference, "--limit", str(args.limit)]
    try:
        if args.trace:
            plain = spawn(common + ["--rounds", "1"], deadline)
            traced = spawn(common + ["--rounds", "1", "--trace"], deadline)
            metrics, notes = per_layer(plain, traced)
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
        else:
            setups = [
                spawn(common + ["--setup-only"], deadline)
                for _ in range(SETUP_SAMPLES - 1)
            ]
            res = spawn(common + ["--seconds", str(args.seconds)], deadline)
            setups.append(res)
            metrics, notes = end_to_end(args.workload, setups, res)
            attempted, failed = res["attempted"], res["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
