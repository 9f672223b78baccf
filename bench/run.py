"""trisurf benchmark: one command for every workload and metric.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {certificate,closure,kernel-large}
                         --seed N --seconds S --trace {0,1}

Every pass runs in a fresh worker process at ``jobs=1`` (see worker.py).

``--trace 0`` measures the end-to-end metrics.  Passes of identical work
repeat while another one is expected to finish within ``--seconds`` (at
least one).  A shared host runs the same code at speeds that differ by
up to 1.8x for minutes at a time, so every time is taken at the
reference speed (speed.py): the measured time without the speed probe's
own share, scaled by how fast the probe ran meanwhile.  ``norm_wall_s``
is the median pass, and ``norm_op_p50_ms`` and ``norm_op_p90_ms`` are
quantiles of the operation latencies of all passes.  ``setup_s`` is the
median, over fresh processes spread through the run, of the time from
process start to ready, taken the same way.  ``peak_rss_mb`` is the
median peak RSS of the pass processes.  The measured times, unscaled,
are printed and recorded beside them.

``--trace 1`` alternates untraced and traced passes for ``--seconds`` and
reports the per-layer metrics of the fastest traced pass, with two
measures of the tracing overhead (see ``per_layer``).

Each run prints its metrics by name and unit, the machine, the named
failures, known defects and untraced names, writes a record under
``bench/out``, and prints one JSON object as its last line.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKER = ROOT / "bench" / "worker.py"
DEADLINE_S = 170.0
# Set-up-only processes after each pass, so set-up samples span the run.
SETUP_ONLY_PER_PASS = 2


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *flags: str) -> tuple[float, dict]:
    """Run one worker; return (setup_s at the reference speed, result)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags]
    started = time.perf_counter()
    # A fixed hash seed makes every pass of a run do identical work.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - started, 0.0), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if not ready_line.startswith("READY ") or code != 0:
        timed_out = time.perf_counter() >= deadline
        raise WorkerFailed(
            f"worker {' '.join(flags) or 'pass'} for {workload} "
            + ("passed the deadline" if timed_out else f"exited with code {code}")
        )
    result = {}
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if "--setup-only" not in flags and not result:
        raise WorkerFailed(f"worker for {workload} printed no result")
    setup = json.loads(ready_line[len("READY "):])
    return (ready - started - setup["speed_probe_s"]) * setup["factor"], result


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list, dict]:
    setups, passes = [], []
    began = time.perf_counter()
    while True:
        go = time.perf_counter()
        setup, result = spawn(workload, seed, deadline)
        setups.append(setup)
        passes.append(result)
        setups += [spawn(workload, seed, deadline, "--setup-only")[0]
                   for _ in range(SETUP_ONLY_PER_PASS)]
        if time.perf_counter() - began + (time.perf_counter() - go) > seconds:
            break
    ops = [ms for r in passes for ms in r["norm_op_ms"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "norm_wall_s": statistics.median(r["norm_wall_s"] for r in passes),
        "norm_op_p50_ms": statistics.median(ops),
        "norm_op_p90_ms": p90(ops),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    raw_ops = [ms for r in passes for ms in r["op_ms"]]
    info = {
        "wall_s": round(statistics.median(r["wall_s"] for r in passes), 4),
        "op_p50_ms": round(statistics.median(raw_ops), 4),
        "op_p90_ms": round(p90(raw_ops), 4),
        "pass_wall_s": [round(r["wall_s"], 4) for r in passes],
        "pass_norm_wall_s": [round(r["norm_wall_s"], 4) for r in passes],
        "speed_factor": [round(r["norm_wall_s"] / r["wall_s"], 4) for r in passes],
        "setup_samples": len(setups),
        "op_samples": len(ops),
    }
    return metrics, passes, info


def per_layer(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list, dict]:
    """Alternate untraced and traced passes; report the fastest traced one.

    ``trace.overhead_s`` is the tracer's cost per span, timed in a
    calibration loop of the traced worker, times the spans of that pass.
    ``trace.overhead_paired_s`` is the median over the pairs of the traced
    minus the untraced wall time; it is printed as unresolved when the
    distance between the quartiles of those differences exceeds it.
    """
    plain, traced = [], []
    began = time.perf_counter()
    while True:
        go = time.perf_counter()
        plain.append(spawn(workload, seed, deadline)[1])
        traced.append(spawn(workload, seed, deadline, "--trace")[1])
        if time.perf_counter() - began + (time.perf_counter() - go) > seconds:
            break
    best = min(traced, key=lambda r: r["wall_s"])
    metrics = {name: value for name, (value, _) in best["layers"].items()}
    metrics["trace.overhead_s"] = best["span_cost_s"] * metrics["trace.spans"]
    diffs = [t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)]
    paired = statistics.median(diffs)
    if len(diffs) < 2:
        resolution = "unresolved (one pair)"
    else:
        q1, _, q3 = statistics.quantiles(diffs, n=4)
        resolution = ("resolved" if q3 - q1 < paired else
                      f"unresolved (quartiles {q1:.4f} .. {q3:.4f} s)")
    metrics["trace.overhead_paired_s"] = paired
    info = {
        "pairs": len(plain),
        "span_cost_us": round(1e6 * best["span_cost_s"], 4),
        "paired_overhead": resolution,
        "traced_wall_s": round(best["wall_s"], 4),
    }
    return metrics, [*plain, *traced], info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "trisurf" / "__init__.py").is_file():
        print(f"error: no trisurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    host = machine()
    host["loadavg_before"] = loadavg()
    try:
        if args.trace:
            metrics, passes, info = per_layer(args.workload, args.seed, args.seconds, deadline)
        else:
            metrics, passes, info = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host["loadavg_after"] = loadavg()
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    known = [d for r in passes for d in r["known_defects"]]
    untraced = [u for r in passes for u in r.get("untraced", [])]
    probes = sum(r["probes"] for r in passes)
    error_rate = (len(failures) + len(known)) / (attempted + probes)

    print(f"# trisurf benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v!r}" for k, v in host.items()))
    print("passes: " + str(len(passes)) + "".join(f", {k}: {v}" for k, v in info.items()))
    for name, unit in declared.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ({len(failures)} failed and {len(known)} known "
          f"defects of {attempted} ops and checks plus {probes} probes)")
    for failure in failures:
        print(f"FAILED: {failure}")
    for defect in sorted(set(known)):
        print(f"known defect (counted in error_rate, {known.count(defect)} of "
              f"{len(passes)} passes): {defect}")
    for name in sorted(set(untraced)):
        print(f"untraced: {name}")

    correct = not failures
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": host, "info": info, "metrics": metrics,
        "error_rate": error_rate, "failures": failures, "known_defects": known,
        "untraced": untraced,
        "passes": [{k: v for k, v in r.items() if k != "op_ms"} for r in passes],
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
