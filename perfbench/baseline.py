"""Measure the benchmark baseline: repeated untraced runs plus one traced run.

Usage: python3 perfbench/baseline.py OUT_FILE

Runs perfbench/run.py once per seed 1..RUNS on each workload, one run at a
time, and writes to OUT_FILE, for each end-to-end metric, the median and
quartiles of the per-run values with their spread (interquartile distance /
median), plus the layer split of one traced run (seed 1).  The seconds per
run come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

RUNS = 10


def bench(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    args = ap.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out: dict = {"machine": run.machine(), "run_seconds": seconds, "runs": RUNS,
                 "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for name in run.WORKLOADS:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        failed = attempted = 0
        for seed in range(1, RUNS + 1):
            r = bench(name, seed, seconds, 0)["result"]
            failed += r["failed"]
            attempted += r["attempted"]
            for m in bounds:
                values[m].append(r["metrics"][m]["value"])
        entry: dict = {"fail_share": failed / attempted, "metrics": {}}
        for m, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                   "bound": bounds[m], "values": v}
            print(f"{name:17s} {m:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {spread:6.3f}  (bound {bounds[m]})", flush=True)
        traced = bench(name, 1, seconds, 1)
        entry["traced"] = {
            "layer_share": traced["detail"]["layer_share"],
            "layer_split_check": traced["detail"]["layer_split_check"],
            "metrics": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        }
        print(f"{name:17s} layer split {traced['detail']['layer_split_check']}: "
              + ", ".join(f"{k} {v:.2f}" for k, v in entry["traced"]["layer_share"].items()
                          if v >= 0.005), flush=True)
        out["workloads"][name] = entry
    with open(args.out, "w") as fh:
        fh.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
