"""Record one point of the benchmark trajectory.  Run from the repository
root:

    python3 bench/record.py --label "parent of the index change"

For every workload it makes RUNS untraced runs with seeds 1 to RUNS
and one traced run with seed 1, one process at a time.  It prints each
end-to-end metric's median and quartile spread (the distance between
the first and third quartile as a share of the median) beside its bound,
and appends the point to bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = list(range(1, RUNS + 1))
    point = {
        "label": args.label,
        "commit": commit(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "traced_seed": 1,
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        results = [run(name, seed, bench["run_seconds"], 0) for seed in seeds]
        traced = run(name, 1, bench["run_seconds"], 1)
        summary = {}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, mid, q3 = quantiles(values, n=4)
            summary[metric] = {"median": median(values), "q1": q1, "q3": q3,
                               "unit": units[metric]}
            print(f"{name:<16} {metric:<14} median {median(values):12.4f} "
                  f"spread {(q3 - q1) / mid:.3f} bound {bounds[metric]}")
        point["workloads"][name] = {
            "ops_attempted": sum(r["attempted"] for r in results + [traced]),
            "ops_failed": sum(r["failed"] for r in results + [traced]),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {"points": []}
    doc["points"].append(point)
    TRAJECTORY.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
