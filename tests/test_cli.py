import argparse
import json
import subprocess
import sys

import pytest

from lie_degrees.cli import COMMANDS, build_parser, command_parser, main, parse_partition
from lie_degrees.partitions import Partition


def run_cli(*args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "lie_degrees.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_parse_partition():
    assert parse_partition("3,2,1") == Partition((3, 2, 1))
    assert parse_partition("2^3,1") == Partition((2, 2, 2, 1))
    assert parse_partition("1^20") == Partition((1,) * 20)


def test_degree_commands():
    r = run_cli("degree", "gl", "--partition", "2,2,2", "--q", "2")
    assert r.returncode == 0 and r.stdout.strip() == "5952"
    r = run_cli("degree", "gl", "--partition", "3,2,1", "--q", "2")
    assert r.stdout.strip() == "6480"
    r = run_cli("degree", "sym", "--partition", "3,2,1")
    assert r.stdout.strip() == "16"
    r = run_cli("degree", "gu", "--partition", "2,2", "--q", "3")
    assert r.stdout.strip() == "90"
    r = run_cli("degree", "symbol", "--x", "1,2", "--y", "0,1,2", "--q", "3")
    assert r.stdout.strip() == "81"


def test_degree_table_contains_paper_row():
    r = run_cli("degree", "gl", "--n", "6", "--q", "2", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "partition,a_value,degree"
    assert '"2,2,2",6,5952' in lines


def test_bmax_command():
    r = run_cli("bmax", "gl", "--n", "2", "--q", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "2" and lines[1].startswith("witness:")


def test_epsilon_commands():
    r = run_cli("epsilon", "an", "--n", "5")
    assert r.returncode == 0 and r.stdout.strip() == "7/5"
    r = run_cli("epsilon", "an", "--n", "5..7", "--format", "csv")
    lines = r.stdout.splitlines()
    assert lines[0] == "n,b,epsilon,epsilon_decimal"
    assert lines[1].startswith("5,5,7/5,1.4")
    r = run_cli("epsilon", "cert", "--family", "A", "--rank", "15", "--q", "3")
    assert r.stdout.strip() == "certified_gt_one"
    r = run_cli("epsilon", "cert", "--family", "A", "--rank", "14", "--q", "3")
    assert r.stdout.strip() == "listed_exception"


def test_ratio_search():
    r = run_cli("ratio-search", "--partition", "1^20",
                "--exclude", "2,1,1/2", "--delta", "1/100")
    assert r.returncode == 0
    assert "ratio:" in r.stdout


def test_bounds_table():
    r = run_cli("bounds", "--family", "A", "--n", "1..8", "--q", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0].startswith("family,n,q,lower,c,upper")
    for line in lines[1:]:
        cells = line.split(",")
        lower, c, upper = float(cells[6]), float(cells[7]), float(cells[8])
        assert lower <= c <= upper


def test_verify_report_and_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "steinberg", "--family", "GL", "--n", "1..6",
                "--q", "2,3", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "lie-degrees-report/1"
    assert doc["summary"]["fail"] == 0
    assert doc["checks"][0]["check"] == "steinberg"
    assert doc["checks"][0]["verdict"] == "pass"


def test_verify_reports_byte_identical(tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in range(3)]
    run_cli("verify", "props", "--n", "1..6", "--q", "2,3", "--out", str(paths[0]))
    run_cli("verify", "props", "--n", "1..6", "--q", "2,3", "--out", str(paths[1]))
    run_cli("verify", "props", "--n", "1..6", "--q", "2,3", "--jobs", "3",
            "--out", str(paths[2]), env={"LIE_DEGREES_THREADS": "2"})
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    r = run_cli("verify", "lemmas", "--q", "2,3", "--format", "csv", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "check,params,verdict,witness"
    assert all(",pass," in line or line.endswith(",pass") or ",report," in line
               for line in lines[1:])


def test_usage_errors_exit_2():
    assert run_cli("nonsense").returncode == 2
    r = run_cli("degree", "gl", "--partition", "x,y")
    assert r.returncode == 2
    r = run_cli("epsilon", "cert", "--family", "A", "--rank", "1", "--q", "6")
    assert r.returncode == 2


def test_command_parser_matches_the_full_parser():
    full = build_parser()
    [subs] = [a.choices for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subs) == list(COMMANDS)
    for name in COMMANDS:
        assert command_parser(name).format_help() == subs[name].format_help()
    for argv in (["degree", "gl", "--partition", "2,2,2", "--q", "3"],
                 ["degree", "symbol", "--n", "4", "--symbol-family", "D"],
                 ["verify", "steinberg", "--family", "BC", "--n", "1..4", "--timing"],
                 ["bmax", "gl", "--n", "3", "--q", "2"],
                 ["bounds", "--family", "A,B"],
                 ["epsilon", "an", "--n", "5..7"],
                 ["epsilon", "cert", "--family", "A", "--rank", "2", "--q", "3"],
                 ["ratio-search", "--partition", "3,1", "--exclude", "2"]):
        expected = vars(full.parse_args(argv))
        assert expected.pop("command") == argv[0]
        assert vars(command_parser(argv[0]).parse_args(argv[1:])) == expected


def test_usage_errors_in_a_command_exit_2(capsys):
    for argv in (["verify", "everything"], ["bmax", "gl", "--n", "3"], ["degree", "gl", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: lie-degrees {argv[0]} ")


def test_main_entry_direct():
    assert main(["degree", "gl", "--partition", "2,2,2", "--q", "2"]) == 0
