"""Self-test of the benchmark harness at tiny sizes (about 15 s in all)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

E2E_UNITS = [(name, unit) for name, unit, _ in run.END_TO_END]


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_SETUP_SAMPLES", 1)
    return run.tiny_workloads()


def bench(capsys, workloads, name, trace):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)],
                    workloads)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_workload_prints_every_end_to_end_metric(capsys, quick, name):
    detail, result = bench(capsys, quick, name, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(E2E_UNITS)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["fail_share"] == 0 and detail["seed_used"] == (name == "shape-sweep")


@pytest.mark.parametrize("name", ["symbol-sweep", "verify-all-jobs2"])
def test_traced_run_prints_every_per_layer_metric(capsys, quick, name):
    detail, result = bench(capsys, quick, name, 1)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.per_layer_spec())
    assert metrics["trace.lost_tasks"]["value"] == 0
    assert metrics["unipotent.degree_symbol.calls"]["value"] > 0
    assert metrics["suites.check.steinberg.s"]["value"] > 0
    if name == "verify-all-jobs2":     # every check runs in a worker process
        assert metrics["symmetric.octuple_ratio.calls"]["value"] > 0
        assert metrics["qexact.ln_interval.calls"]["value"] > 0
    assert detail["layer_split_check"] == "pass"


def test_corrupted_known_good_record_counts_as_failed(capsys, quick, monkeypatch):
    w = quick["symbol-sweep"]
    good = run.load_golden(w)
    bad = good[:2] + ["0" * 16] + good[3:]
    monkeypatch.setattr(run, "load_golden", lambda _: bad)
    detail, result = bench(capsys, quick, "symbol-sweep", 0)
    assert not result["correct"]
    assert result["failed"] == 1 and detail["fail_share"] > 0


def test_witness_check_rejects_excluded_and_missing_witnesses():
    shapes = [[3, 1], [2, 2], [2, 1, 1]]
    out = "\n".join(json.dumps(r) for r in (
        {"shape": [3, 1], "witness": [2, 2]},      # ratio 2/3: accepted
        {"shape": [2, 2], "witness": [2, 2]},      # ratio 1: excluded
        {"shape": [2, 1, 1], "witness": None},
    )).encode()
    assert run.witness_failures(shapes, out) == (3, 2)


def test_benchmark_json_matches_the_harness():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_spec()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "symbol-sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
