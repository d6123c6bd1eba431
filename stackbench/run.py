"""Benchmark entry point: one workload, one seed, one JSON line.

Usage (from the repository root)::

    python3 stackbench/run.py --workload search-closed --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` measures the program as shipped and prints the end-to-end
metrics; ``--trace 1`` switches on the benchmark's own layer timing,
exports the program's spans, and prints the per-layer metrics.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and a full record
of the run (both metric sets, the check counts) is written to
``stackbench/out/``.  The process exits non-zero when a check fails or
the program cannot be imported.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()   # setup_s counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

WORKLOADS = {"search-closed": "wl_search",
             "cf-remote-updates": "wl_cf_remote"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import oracle
    from common import pin_self
    from run_state import END_TO_END, PER_LAYER, CheckFailed, Run

    _, worker_cpu = pin_self()
    oracle.selftest()
    run = Run(args.seed, args.seconds, bool(args.trace), T_START, worker_cpu)
    correct = True
    problem = None
    try:
        __import__(WORKLOADS[args.workload]).run(run)
    except CheckFailed as exc:
        correct, problem = False, str(exc)

    from repro.serving import get_tracer

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        spans = get_tracer().export_json(
            os.path.join(out_dir, f"{stem}-spans.json"))
        traces = spans["traces"]
        run.layer("telemetry.spans_per_req",
                  sum(len(t["spans"]) for t in traces) / max(1, len(traces)),
                  "count")
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {k: {"value": (run.layers if args.trace
                                  else run.metrics).get(k, 0.0),
                        "unit": u} for k, u in names.items()},
    }
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "correct": correct, "problem": problem,
                   "attempted": run.attempted, "failed": run.failed,
                   "end_to_end": run.metrics, "per_layer": run.layers},
                  fh, indent=1)
    if problem:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
