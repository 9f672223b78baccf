"""One benchmark pass in a fresh process.

Usage: python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Imports ``trisurf`` from the checkout's ``src``, sets up the workload,
prints ``READY {json}``, runs the timed pass, checks the outputs and
prints one ``RESULT {json}`` line.  With ``--trace`` the layer functions
are wrapped and the spans are written under ``bench/out``.

The speed probe (speed.py) samples the host from the start of the
process to the end of an untraced pass.  ``READY`` carries the probe's
time and speed factor over the set-up; an untraced ``RESULT`` carries
the pass and operation times both without the probe's own time
(``wall_s``, ``op_ms``) and normalised to the reference speed
(``norm_wall_s``, ``norm_op_ms``).  A traced pass runs unprobed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    speed = SpeedProbe()
    speed.start()
    began = time.perf_counter()

    sys.path.insert(0, str(SRC))
    import trisurf

    if Path(trisurf.__file__).resolve().parent != SRC / "trisurf":
        print(f"error: imported trisurf from {trisurf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Clock, Tracer, span_cost_s
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](trisurf, args.seed)
    ready = time.perf_counter()
    setup = speed.window(began, ready)
    print("READY " + json.dumps({"speed_probe_s": setup.probe_s(began, ready),
                                 "factor": setup.factor}), flush=True)
    if args.setup_only or args.trace:
        speed.stop()
    if args.setup_only:
        return 0

    # A traced pass reports no operations, so it stamps none inside the program.
    tracer = Tracer(args.workload) if args.trace else None
    clock = Clock(None if tracer else workload.op_call)
    if tracer:
        tracer.install()
    try:
        workload.run(clock)
    finally:
        speed.stop()
        clock.remove()
        if tracer:
            tracer.remove()
    workload.check()
    marks = clock.marks
    ops = [(marks[a], marks[b]) for a, b in workload.ops]
    result = {
        "wall_s": marks[-1] - marks[0],
        "op_ms": [1000 * (b - a) for a, b in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": workload.outcome.attempted,
        "failures": workload.outcome.failures,
        "probes": workload.probes,
        "known_defects": workload.probe(),
        "untraced": clock.missing,
    }
    if not tracer:
        window = speed.window(marks[0], marks[-1])
        result["wall_s"] = window.program_s(marks[0], marks[-1])
        result["norm_wall_s"] = window.program_s(marks[0], marks[-1]) * window.factor
        result["op_ms"] = [1000 * window.program_s(a, b) for a, b in ops]
        result["norm_op_ms"] = [1000 * window.normalise(a, b) for a, b in ops]
        result["speed_samples"] = len(window.starts)
    else:
        tracer.check_required()
        result["layers"] = tracer.metrics()
        result["span_cost_s"] = span_cost_s()
        result["untraced"] += tracer.untraced
        tracer.write(ROOT / "bench" / "out" / f"spans-{args.workload}-seed{args.seed}.json")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
