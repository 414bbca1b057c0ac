"""lie-degrees benchmark: time to a certificate on four sweeps.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is taken from src/ next to this
directory and each workload run is a fresh interpreter (PYTHONPATH=src,
PYTHONHASHSEED=0, LIE_DEGREES_THREADS removed, at most nproc workers).

--trace 0 repeats the workload for S seconds and reports the end-to-end
metrics: wall_s (launch to exit of one run, fastest run), cpu_s (user +
system, worker processes included, least of the runs), peak_rss_mb (largest
resident set of any process of a run, median) and setup_s (a fresh
interpreter importing lie_degrees.cli and building its parser, sampled twice
between the runs and at least 20 times in all, fastest sample).  The three
times are scaled to a machine of fixed speed: each is multiplied by
REFERENCE_S / the fastest run of perfbench/reference.py, a fixed program timed
between the workload runs.  The detail line keeps the unscaled values.

--trace 1 repeats the workload untraced for S/2 seconds, then runs it once
under perfbench/tracer.py and reports the per-layer metrics computed from
the spans, plus trace.overhead_s (traced wall minus the fastest untraced
run, the statistic wall_s reports).
Per-layer notes: self_s is span time minus child-span time, summed over all
processes; repeat_share is 1 - distinct argument keys / calls, with keys
counted per process (what a per-process cache sees); with --jobs 2 the
parent's suites.run_suite self time is its wait on the pool;
suites.check.<name>.s comes from the traced report's --timing field;
trace.outside_s is traced wall minus the main process's layer self time
(interpreter start, imports, exit).

Every run's output is compared record by record (one check of a report, one
row of a table) with the known-good digests in perfbench/golden/, written by
perfbench/make_golden.py; shape-sweep witnesses, which depend on the seed,
are checked against an independent hook length formula.  verify-all-jobs2
also checks once per invocation that the --jobs 1 report is byte-identical
to the --jobs 2 one.  failed / attempted is the fail share.  The last stdout
line is the result JSON; the line before it records the quartiles, the fail
share and the machine (Python, nproc, git sha, load average).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_build" / "perfbench"

RUN_LIMIT_S = 170.0     # one invocation ends well inside the 180 s limit
MIN_REPEATS = 3
MIN_SETUP_SAMPLES = 20
PROBES_PER_RUN = 2      # set-up and reference runs between two workload runs
NPROC = len(os.sched_getaffinity(0))
JOBS = str(min(2, NPROC))
SETUP_CODE = "import lie_degrees.cli as c; c.build_parser()"

CHECKS = (
    "steinberg", "anchor_degrees", "prop_compgl", "prop_dominance", "prop_glgu",
    "lemma_bracket_ratios", "lemma_products", "oracle_sym_squares",
    "oracle_alt_squares", "oracle_branching", "octuple_closed_form",
    "bgl_brackets", "poly_brackets", "epsilon_certificates", "merge_ratios",
    "stclass_chains", "ratio_witness", "epsilon_an",
)
LAYERS = tuple(tracer.TRACED)
# (name, unit, statistic over the runs of one invocation).  Contention from
# other tenants of a shared machine only ever slows a run down; it flickers
# within a second and its level drifts over minutes.  So the workloads are
# sized for short runs, many per invocation, and the fastest run is the
# steadiest estimate of wall and CPU time.  Set-up, sampled between the runs,
# is taken the same way: on a shared 2-core machine, over ten 25 s windows the
# median of ~20 samples ranged over 0.13-0.18 s and their minimum over
# 0.11-0.13 s.  Memory does not vary.
END_TO_END = (("wall_s", "s", min), ("cpu_s", "s", min),
              ("peak_rss_mb", "MB", statistics.median), ("setup_s", "s", min))
# The level drifts by 40% or more over minutes for every process alike, so the
# times are also scaled by the fastest run of perfbench/reference.py, timed
# between the workload runs, to what they would be where that run takes
# REFERENCE_S.  In five of six paired trials (5 to 11 windows of 25 s) this cut
# the spread of wall_s two- to fourfold (shape-sweep 0.37 to 0.14, bounds-table
# 0.13 to 0.05); in the sixth, verify-all-jobs2, it rose from 0.07 to 0.16.
REFERENCE_S = 0.105      # its fastest run on a quiet 2-core Xeon at 2.0 GHz


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI sweep, or the shape-sweep library calls."""

    name: str
    n: int                                  # the rank range is 1..n (epsilon: 5..n)
    cli: tuple[str, ...] = ()               # CLI arguments before --n; empty for shape-sweep
    output: str = "report"                  # "report", "csv" or "shape"
    witness_sizes: tuple[int, int] = (0, 0)
    witness_count: int = 0
    jobs_check: bool = False                # compare --jobs 1 and --jobs 2 report bytes
    majority: tuple[str, ...] = ()          # layers expected to hold most layer self time
    minor: tuple[str, ...] = ()             # layers expected to hold almost none

    @property
    def seed_used(self) -> bool:
        return self.output == "shape"

    @property
    def jobs(self) -> int:
        return int(self.cli[self.cli.index("--jobs") + 1]) if "--jobs" in self.cli else 1


WORKLOADS = {w.name: w for w in (
    # Steinberg maximality over symbols: the longest single task of verify all.
    Workload("symbol-sweep", 12,
             ("verify", "steinberg", "--family", "GL,GU,BC,D,2D", "--q", "2,3,4,5",
              "--jobs", "1"),
             majority=("unipotent",), minor=("qexact",)),
    # Certified ln/exp/pow enclosures: Fraction arithmetic, no symbols.
    Workload("bounds-table", 2,
             ("bounds", "--family", "A,2A,B,C,D,2D", "--q", "2,3,4,5", "--format", "csv"),
             output="csv", majority=("qexact",), minor=("unipotent", "partitions")),
    # Young diagrams only: every shape once (epsilon) against re-read neighbours (witness).
    Workload("shape-sweep", 26, output="shape", witness_sizes=(15, 24),
             witness_count=1000, majority=("partitions", "symmetric"),
             minor=("qexact", "unipotent")),
    # The command users run: all checks dealt to two worker processes.
    Workload("verify-all-jobs2", 6, ("verify", "all", "--q", "2,3,4", "--jobs", JOBS),
             jobs_check=True),
)}


def tiny_workloads() -> dict[str, Workload]:
    """The same workloads at sizes that run in about a second (self-test)."""
    sizes = {"symbol-sweep": 4, "bounds-table": 1, "shape-sweep": 9, "verify-all-jobs2": 3}
    out = {name: replace(w, n=sizes[name]) for name, w in WORKLOADS.items()}
    out["shape-sweep"] = replace(out["shape-sweep"], witness_sizes=(6, 9), witness_count=20)
    return out


# ---------------------------------------------------------------------------
# inputs and known-good records
# ---------------------------------------------------------------------------

def all_partitions(n: int, max_part: int | None = None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if max_part is None else max_part), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first,) + rest


def hook_degree(parts) -> int:
    """S_n degree by the hook length formula, independent of lie_degrees."""
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    product = 1
    for i, p in enumerate(parts):
        for j in range(p):
            product *= (p - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(parts)) // product


def draw_shapes(w: Workload, seed: int) -> list[list[int]]:
    lo, hi = w.witness_sizes
    pool = [list(p) for n in range(lo, hi + 1) for p in all_partitions(n)]
    return random.Random(seed).sample(pool, w.witness_count)


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def exhaustive_records(w: Workload, out: bytes) -> list[str]:
    """Digest per record of the seed-independent part of one run's output."""
    text = out.decode()
    if w.output == "csv":
        return [_digest(line) for line in text.splitlines()]
    if w.output == "shape":
        rows = [json.loads(line) for line in text.splitlines()]
        return [_digest(_canon(r)) for r in rows if "eps" in r]
    doc = json.loads(text)
    checks = doc.pop("checks")
    records = [_canon(doc)]
    for check in checks:
        check.pop("wall_ms", None)      # present only in the traced run (--timing)
        records.append(_canon(check))
    return [_digest(r) for r in records]


def witness_failures(shapes: list[list[int]], out: bytes) -> tuple[int, int]:
    """(attempted, failed) over the ratio witnesses of one shape-sweep run."""
    rows = [json.loads(line) for line in out.decode().splitlines()]
    got = {tuple(r["shape"]): r["witness"] for r in rows if "shape" in r}
    excluded = {Fraction(2), Fraction(1), Fraction(1, 2)}
    failed = 0
    for lam in shapes:
        w = got.get(tuple(lam))
        ok = (isinstance(w, list) and w and all(isinstance(p, int) and p > 0 for p in w)
              and all(a >= b for a, b in zip(w, w[1:])) and sum(w) == sum(lam))
        if ok:
            ratio = Fraction(hook_degree(w), hook_degree(lam))
            ok = ratio >= Fraction(1, 100) and ratio not in excluded
        failed += not ok
    return len(shapes), failed


def golden_path(w: Workload) -> Path:
    return GOLDEN / f"{w.name}-n{w.n}.json"


def load_golden(w: Workload) -> list[str]:
    with open(golden_path(w)) as fh:
        return json.load(fh)["records"]


def compare(expected: list[str], got: list[str]) -> tuple[int, int]:
    attempted = max(len(expected), len(got))
    return attempted, attempted - sum(e == g for e, g in zip(expected, got))


# ---------------------------------------------------------------------------
# running one workload process
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "LIE_DEGREES_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: bytes
    ok: bool = False            # every record of the run matched known-good


def run_child(argv: list[str], work: Path, timeout: float) -> Sample:
    """Run argv to its exit; its process group is killed after timeout seconds."""
    out_path = work / "stdout"
    with open(out_path, "wb") as out, open(work / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env(), start_new_session=True)

        def kill_group():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 1.0), kill_group)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, out_path.read_bytes())


@dataclass
class Job:
    """One workload invocation: its argv, inputs and running record counts."""

    w: Workload
    work: Path
    deadline: float
    expected: list[str]
    shapes: list[list[int]] = field(default_factory=list)
    input_path: str = ""
    attempted: int = 0
    failed: int = 0

    def untraced_argv(self, cli: tuple[str, ...] | None = None) -> list[str]:
        if self.w.output == "shape":
            return [sys.executable, str(BENCH / "shape_sweep.py"), self.input_path]
        return [sys.executable, "-m", "lie_degrees.cli", *(cli or self.w.cli),
                "--n", f"1..{self.w.n}"]

    def traced_argv(self, trace_dir: Path, run_id: str) -> list[str]:
        head = [sys.executable, str(BENCH / "tracer.py"), str(trace_dir), run_id]
        if self.w.output == "shape":
            return head + ["shape_sweep", self.input_path]
        timing = ("--timing",) if self.w.cli[0] == "verify" else ()
        return head + ["lie_degrees.cli", *self.w.cli, "--n", f"1..{self.w.n}", *timing]

    def run(self, argv: list[str]) -> Sample:
        return run_child(argv, self.work, self.deadline - time.perf_counter())

    def check(self, s: Sample) -> None:
        """Count the records of one run and the ones that differ from known-good."""
        failed_before = self.failed
        got: list[str] = []
        if s.code == 0:
            try:
                got = exhaustive_records(self.w, s.out)
            except (ValueError, KeyError, TypeError):
                got = []
        attempted, failed = compare(self.expected, got)
        self.attempted += attempted
        self.failed += attempted if s.code != 0 else failed
        if self.shapes:
            wa, wf = witness_failures(self.shapes, s.out) if got else (len(self.shapes),) * 2
            self.attempted += wa
            self.failed += wf
        s.ok = s.code == 0 and self.failed == failed_before

    def check_jobs_identity(self, jobs2_out: bytes) -> None:
        cli = list(self.w.cli)
        cli[cli.index("--jobs") + 1] = "1"
        s = self.run(self.untraced_argv(tuple(cli)))
        self.attempted += 1
        self.failed += not (s.code == 0 and s.out == jobs2_out)


def measure(job: Job, seconds: float,
            with_setup: bool) -> tuple[list[Sample], list[float], list[float]]:
    """Repeat the untraced workload for about `seconds`; between the runs, time
    set-up and the reference program.  Returns runs, set-up and reference walls."""
    setup_argv = [sys.executable, "-c", SETUP_CODE]
    reference_argv = [sys.executable, str(BENCH / "reference.py")]
    samples: list[Sample] = []
    setups: list[float] = []
    references: list[float] = []

    def probe() -> None:
        r = job.run(reference_argv)
        if r.code != 0:
            raise RuntimeError(f"perfbench/reference.py exited with {r.code}")
        references.append(r.wall)
        setups.append(job.run(setup_argv).wall)

    if with_setup:
        job.run(setup_argv)             # warm the file cache and bytecode; not counted
        job.run(reference_argv)
    started = time.perf_counter()
    while True:
        for _ in range(PROBES_PER_RUN if with_setup else 0):
            probe()
        s = job.run(job.untraced_argv())
        job.check(s)
        samples.append(s)
        now = time.perf_counter()
        if len(samples) >= MIN_REPEATS and now - started + s.wall > seconds:
            break
        if job.deadline - now < 3 * s.wall + 10:    # keep time for the checks and traced run
            break
    while with_setup and len(setups) < MIN_SETUP_SAMPLES:
        probe()
    return samples, setups, references


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    spec: list[tuple[str, str]] = []
    for layer in ("unipotent", "qexact", "maxdegree", "partitions", "symmetric"):
        for fn in tracer.TRACED[layer]:
            name = f"{layer}.{fn}"
            spec.append((f"{name}.calls", "count"))
            if name in tracer.GENERATORS:
                spec.append((f"{name}.items", "count"))
            spec.append((f"{name}.self_s", "s"))
            if name in tracer.KEYED:
                spec.append((f"{name}.repeat_share", "share"))
            if name in tracer.BITS:
                spec.append((f"{name}.max_bits", "bits"))
    spec += [(f"suites.check.{c}.s", "s") for c in CHECKS]
    spec += [("suites.critical_path_s", "s"), ("suites.worker_idle_s", "s"),
             ("suites.render.self_s", "s"), ("cli.main.self_s", "s")]
    spec += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    spec += [("trace.wall_s", "s"), ("trace.outside_s", "s"), ("trace.overhead_s", "s"),
             ("trace.spans", "count"), ("trace.lost_tasks", "count")]
    return spec


@dataclass
class Segment:
    header: dict
    start: list[float]
    end: list[float]
    parent: list[int]
    name: list[int]


def read_segments(trace_dir: Path) -> list[Segment]:
    segments = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        header = json.loads(path.read_text())
        n = header["spans"]
        arrays = [array("d"), array("d"), array("i"), array("i")]
        with open(path.with_suffix(".bin"), "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, n)
        segments.append(Segment(header, *(a.tolist() for a in arrays)))
    return segments


def self_times(seg: Segment) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    dur = [e - s for s, e in zip(seg.start, seg.end)]
    own = dur[:]
    for i, p in enumerate(seg.parent):
        if p >= 0:
            own[p] -= dur[i]
    return own


def analyse_trace(w: Workload, trace_dir: Path, traced: Sample,
                  untraced_fastest: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced run, and the layer-split check failures."""
    m: dict[str, float] = {name: 0 if unit in ("count", "bits") else 0.0
                           for name, unit in per_layer_spec()}
    segments = read_segments(trace_dir)
    main = [s for s in segments if s.header["main"]]
    problems: list[str] = []
    if len(main) != 1:
        problems.append(f"expected one main-process segment, got {len(main)}")
    calls: dict[str, int] = {}
    distinct: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    main_layer_self = 0.0
    task_time_by_pid: dict[int, float] = {}
    run_suite_s = 0.0
    for seg in segments:
        names = seg.header["names"]
        for i, nm in enumerate(names):
            calls[nm] = calls.get(nm, 0) + seg.header["calls"][i]
            distinct[nm] = distinct.get(nm, 0) + seg.header["distinct"][i]
            if f"{nm}.items" in m:
                m[f"{nm}.items"] += seg.header["items"][i]
            if f"{nm}.max_bits" in m:
                m[f"{nm}.max_bits"] = max(m[f"{nm}.max_bits"], seg.header["max_bits"][i])
        own = self_times(seg)
        for i, nid in enumerate(seg.name):
            nm = names[nid]
            if seg.end[i] < seg.start[i]:
                problems.append(f"span {nm} never closed")
            layer = nm.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own[i]
                if seg.header["main"]:
                    main_layer_self += own[i]
            if f"{nm}.self_s" in m:
                m[f"{nm}.self_s"] += own[i]
            if nm in ("suites.render_table", "suites.SuiteReport.to_json",
                      "suites.SuiteReport.to_csv"):
                m["suites.render.self_s"] += own[i]
            elif nm == "suites._run_task":
                pid = seg.header["pid"]
                task_time_by_pid[pid] = task_time_by_pid.get(pid, 0.0) + seg.end[i] - seg.start[i]
            elif nm == "suites.run_suite":
                run_suite_s += seg.end[i] - seg.start[i]
        m["trace.spans"] += len(seg.name)
        if seg.header["main"]:
            root = [i for i, p in enumerate(seg.parent) if p < 0]
            root_s = sum(seg.end[i] - seg.start[i] for i in root)
            if len(root) != 1 or names[seg.name[root[0]]] != tracer.ROOT:
                problems.append("main segment has no single root span")
            if not math.isclose(sum(own), root_s, rel_tol=1e-6, abs_tol=1e-6):
                problems.append("self times do not add up to the root span")
            if not 0.0 < root_s < traced.wall:
                problems.append(f"root span of {root_s:.3f} s outside the {traced.wall:.3f} s wall")
    for nm, c in calls.items():
        if f"{nm}.calls" in m:
            m[f"{nm}.calls"] = c
        if f"{nm}.repeat_share" in m and c:
            m[f"{nm}.repeat_share"] = 1 - distinct[nm] / c
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_s"] = s

    check_s = 0.0
    tasks = 0
    if w.output == "report" and traced.code == 0:
        for c in json.loads(traced.out)["checks"]:
            tasks += 1
            check_s += c["wall_ms"] / 1000
            m[f"suites.check.{c['check']}.s"] += c["wall_ms"] / 1000
        m["suites.critical_path_s"] = max(task_time_by_pid.values(), default=0.0)
        m["suites.worker_idle_s"] = w.jobs * run_suite_s - check_s
        worker_tasks = sum(1 for s in segments if not s.header["main"])
        if w.jobs > 1:
            m["trace.lost_tasks"] = tasks - worker_tasks
    m["trace.wall_s"] = traced.wall
    m["trace.outside_s"] = traced.wall - main_layer_self
    m["trace.overhead_s"] = traced.wall - untraced_fastest
    if m["trace.lost_tasks"]:
        problems.append(f"{m['trace.lost_tasks']:.0f} worker task(s) wrote no spans")

    total = sum(layer_self.values())
    if total > 0:
        if w.majority and sum(layer_self[x] for x in w.majority) <= 0.5 * total:
            problems.append(f"{'+'.join(w.majority)} is not the majority of layer self time")
        for layer in w.minor:
            if layer_self[layer] > 0.05 * total:
                problems.append(f"{layer} has {layer_self[layer] / total:.0%} of layer self time")
    return m, problems


# ---------------------------------------------------------------------------
# machine record and entry point
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():     # not a parent directory's repository
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> dict:
    return {"python": sys.version.split()[0], "nproc": NPROC, "git_sha": git_sha(),
            "loadavg_1m": os.getloadavg()[0]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "lie_degrees" / "cli.py").is_file():
        print(f"no lie_degrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = workloads[args.workload]
    try:
        expected = load_golden(w)
    except FileNotFoundError:
        print(f"no known-good records at {golden_path(w)}", file=sys.stderr)
        return 2
    env_start = machine()
    work = WORK / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        job = Job(w, work, deadline, expected)
        if w.seed_used:
            job.shapes = draw_shapes(w, args.seed)
            job.input_path = str(work / "input.json")
            with open(job.input_path, "w") as fh:
                json.dump({"eps_n": [5, w.n], "shapes": job.shapes}, fh)
        detail: dict = {}
        if args.trace == 0:
            samples, setups, references = measure(job, args.seconds, with_setup=True)
            timed = [s for s in samples if s.ok] or samples     # a failed run is not timed
            series = {"wall_s": [s.wall for s in timed], "cpu_s": [s.cpu for s in timed],
                      "peak_rss_mb": [s.rss_mb for s in timed], "setup_s": setups}
            unscaled = {name: stat(series[name]) for name, _, stat in END_TO_END}
            scale = REFERENCE_S / min(references)
            metrics = {name: {"value": unscaled[name] * (scale if unit == "s" else 1),
                              "unit": unit} for name, unit, _ in END_TO_END}
            detail["unscaled"] = unscaled
            detail["reference_s"] = quartiles(references)
            detail["quartiles"] = {name: quartiles(v) for name, v in series.items()}
        else:
            samples, _, _ = measure(job, args.seconds / 2, with_setup=False)
            trace_dir = work / "trace"
            trace_dir.mkdir()
            run_id = f"{w.name}-{args.seed}-{os.getpid()}"
            traced = job.run(job.traced_argv(trace_dir, run_id))
            job.check(traced)
            values, problems = analyse_trace(w, trace_dir, traced,
                                             min(s.wall for s in samples))
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in per_layer_spec()}
            layer_total = sum(values[f"layer.{x}.self_s"] for x in LAYERS) or 1.0
            detail["layer_share"] = {x: values[f"layer.{x}.self_s"] / layer_total
                                     for x in LAYERS}
            detail["layer_split_check"] = problems or "pass"
            for p in problems:
                print(f"layer-split check: {p}", file=sys.stderr)
        if w.jobs_check:
            job.check_jobs_identity(samples[-1].out)
        fail_share = job.failed / job.attempted
        detail.update({"workload": w.name, "n": w.n, "seed": args.seed,
                       "seed_used": w.seed_used, "trace": args.trace, "runs": len(samples),
                       "fail_share": fail_share, "machine": env_start,
                       "loadavg_1m_end": os.getloadavg()[0]})
        for name, v in metrics.items():
            print(f"{w.name} {name} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
        print(f"{w.name} fail_share = {fail_share:.6g} ({job.failed}/{job.attempted})",
              file=sys.stderr)
        print(json.dumps({"detail": detail}))
        print(json.dumps({"correct": job.failed == 0, "attempted": job.attempted,
                          "failed": job.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
