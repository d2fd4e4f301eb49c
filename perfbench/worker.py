"""One benchmark process: set up, run rounds in a closed loop, report JSON.

run.py starts this in a fresh interpreter for every measurement, with
hyperquad's source directory on PYTHONPATH.  The calibration kernel is
timed after set-up and between requests, outside every timed region.
The last line of standard output is one JSON object; tracebacks of failed
requests go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback

import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="start no new round once this much time has passed")
    ap.add_argument("--rounds", type=int, default=0, help="stop after this many rounds")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--limit", type=int, default=0,
                    help="keep only the first LIMIT requests of each round (smoke runs)")
    ap.add_argument("--reference", default=str(workloads.REFERENCE))
    args = ap.parse_args(argv)

    pools = workloads.Pools(workloads.load_reference(args.reference), args.workload)
    t0 = time.perf_counter()
    ctx = workloads.Context(pools)
    setup_s = time.perf_counter() - t0
    import calibration
    import hyperquad

    calibration.measure()  # first calls pay numpy's lazy initialisation
    out = {
        "setup_s": setup_s,
        "setup_calibration_s": calibration.measure(),
        "hyperquad": hyperquad.__file__,
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rng = random.Random(args.seed)
    latencies: list[float] = []
    gaps = [calibration.measure()]
    failed = 0
    seen: set = set()
    repeats = 0
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        reqs = pools.next_round(rng)
        if args.limit:
            reqs = reqs[: args.limit]
        for req in reqs:
            repeats += req.cell in seen
            seen.add(req.cell)
            call = ctx.prepare(req)
            if tracer is not None:
                call = tracer.wrap(tracing.REQUEST, call)
            start = time.perf_counter()
            try:
                result = call()
            except Exception:
                result = None
                traceback.print_exc()
            latencies.append(time.perf_counter() - start)
            gaps.append(calibration.measure())
            if result is None or not workloads.check(req, result):
                failed += 1
                print(f"failed: {req.kind} {req.entry}", file=sys.stderr)
        rounds += 1
        elapsed = time.perf_counter() - loop_start
        if args.rounds and rounds >= args.rounds:
            break
        if elapsed >= args.seconds:
            break

    out.update(
        rounds=rounds,
        attempted=len(latencies),
        failed=failed,
        latencies_s=latencies,
        calibration_s=gaps,
        busy_s=sum(latencies),
        cell_repeat_share=repeats / len(latencies),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["layers"] = {
            name: list(vu) for name, vu in tracing.layer_metrics(tracer).items()
        }
        out["nesting_errors"] = tracer.nesting_errors
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
