"""Write the known-good record digests of every workload, at its benchmark
size and at its self-test size, from the program in src/.

Usage: python3 perfbench/make_golden.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run is compared with what it writes.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    run.GOLDEN.mkdir(exist_ok=True)
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workloads in (run.WORKLOADS, run.tiny_workloads()):
        for w in workloads.values():
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                job = run.Job(w, Path(tmp), time.perf_counter() + run.RUN_LIMIT_S, [])
                if w.seed_used:
                    job.input_path = str(Path(tmp) / "input.json")
                    Path(job.input_path).write_text(json.dumps({"eps_n": [5, w.n], "shapes": []}))
                s = job.run(job.untraced_argv())
                if s.code != 0:
                    print(f"{w.name}: exit code {s.code}", file=sys.stderr)
                    return 1
                records = run.exhaustive_records(w, s.out)
            doc = {"workload": w.name, "n": w.n, "records": records}
            run.golden_path(w).write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{run.golden_path(w).name}: {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
