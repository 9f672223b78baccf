"""Repeat the benchmark over several seeds and report its spread.

Usage (from the root of a checkout):

    python3 bench/prove.py [--workloads W ...] [--seeds N] [--first-seed S]
                           [--write PATH]

Runs ``bench/run.py --trace 0`` once per (workload, seed), sequentially,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json.  ``--write`` also makes one ``--trace 1`` run
per workload and saves everything, with the machine record of every run,
as a JSON file (the committed baseline is one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict] | None:
    """The result line and the record of one benchmark run, or None."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None
    record = ROOT / "bench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(lines[-1]), json.loads(record.read_text())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args()

    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = run_once(workload, seed, spec["run_seconds"], 0)
            if done is None:
                return 1
            result, record = done
            runs.append({"seed": seed, "result": result, "machine": record["machine"],
                         "info": record["info"]})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {values}", flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            if spread > bound:
                ok = False
            print(f"  {name:12s} median {median:10.4g} {metric['unit']:3s} spread "
                  f"{spread:6.3f} bound {bound} {'ok' if spread <= bound else 'WIDE'}"
                  f"{' (< bound/3)' if spread < bound / 3 else ''}", flush=True)
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
        if args.write:
            done = run_once(workload, args.first_seed, spec["run_seconds"], 1)
            if done is None:
                return 1
            result, record = done
            summary["workloads"][workload]["traced"] = {
                "seed": args.first_seed, "machine": record["machine"], "info": record["info"],
                "untraced": record["untraced"],
                "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            }
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
