import argparse
import hashlib
import json
import subprocess
import sys
import time

import pytest

import lie_degrees
from lie_degrees.cli import (
    COMMANDS,
    build_parser,
    command_parser,
    main,
    parse_partition,
    parse_range,
)
from lie_degrees.partitions import Partition


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lie_degrees.cli", *args],
                          capture_output=True, text=True)


def test_parse_partition():
    assert parse_partition("3,2,1") == Partition((3, 2, 1))
    assert parse_partition("2^3,1") == Partition((2, 2, 2, 1))
    assert parse_partition("1^20") == Partition((1,) * 20)
    assert parse_partition("3,2^0") == Partition((3,))
    with pytest.raises(ValueError, match="negative power count in '2\\^-1'"):
        parse_partition("3,2^-1")


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


def _all_digits(n: int) -> str:
    """str(n) past Python's int-to-str digit limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_bounds_writes_integers_past_the_digit_limit():
    # the q-part of B_60(49) is 49^(60^2), 6,085 digits: beyond the 4,300 that
    # Python converts by default
    st = _all_digits(49 ** 3600)
    assert len(st) == 6085
    args = ("bounds", "--family", "B", "--q", "49", "--n", "60..60", "--format")
    r = run_cli(*args, "csv")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1].split(",")[-1] == st
    r = run_cli(*args, "json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["rows"][0][-1] == st


def test_library_renderers_write_the_bounds_bytes_of_the_cli():
    # the library renders the 6,085-digit q-part itself, and leaves the
    # caller's digit limit as it was
    from lie_degrees import tables
    limit = sys.get_int_max_str_digits()
    header, rows = tables.bounds_table("B", 60, 60, 49)
    for fmt in ("csv", "json"):
        r = run_cli("bounds", "--family", "B", "--q", "49", "--n", "60..60", "--format", fmt)
        assert r.returncode == 0, r.stderr
        assert tables.render_table(header, rows, fmt, "bounds") == r.stdout
        assert sys.get_int_max_str_digits() == limit


def test_arguments_keep_the_digit_limit():
    long_q = "4" + "9" * 5000
    for args in (("bounds", "--q", long_q), ("bounds", "--n", long_q),
                 ("degree", "gl", "--partition", long_q)):
        r = run_cli(*args)
        assert r.returncode == 2
        assert "Exceeds the limit" in r.stderr


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
    run_cli("verify", "props", "--n", "1..6", "--q", "2,3", "--jobs", "2",
            "--out", str(paths[2]))
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


def test_verify_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    for out in (tmp_path, tmp_path / "missing" / "report.json"):
        code = main(["verify", "steinberg", "--family", "GL", "--n", "1..2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"error: cannot write --out {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # no temporary file is left behind


def test_usage_errors_exit_2():
    assert run_cli("nonsense").returncode == 2
    r = run_cli("degree", "gl", "--partition", "x,y")
    assert r.returncode == 2
    # 2^-1 is no run of parts: refused, not read as the partition (3)
    r = run_cli("degree", "gl", "--partition", "3,2^-1", "--q", "3")
    assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: negative power count in '2^-1'\n")
    r = run_cli("epsilon", "cert", "--family", "A", "--rank", "1", "--q", "6")
    assert r.returncode == 2


def test_a_q_that_is_not_a_prime_power_is_a_usage_error(capsys):
    # no field has 6 elements: no rows and no verdict, only the error
    for argv in (["bounds", "--family", "B", "--q", "6", "--n", "2..3"],
                 ["bounds", "--family", "A", "--q", "2,6", "--n", "1..2"],
                 ["bounds", "--family", "D", "--q", "6", "--n", "1..1"],  # no rank in range
                 ["epsilon", "cert", "--family", "A", "--rank", "15", "--q", "6"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: q must be a prime power\n")
    assert main(["bounds", "--family", "D", "--q", "1", "--n", "1..1"]) == 2
    assert capsys.readouterr() == ("", "error: q must be >= 2\n")


def test_a_large_prime_q_is_accepted_quickly(capsys):
    # the prime-power check costs O(log q) root extractions, not sqrt(q) divisions
    q = 2 ** 61 - 1
    for argv in (["epsilon", "cert", "--family", "B", "--rank", "3", "--q", str(q)],
                 ["bounds", "--family", "C", "--q", str(q), "--n", "2..2"]):
        start = time.perf_counter()
        assert main(argv) == 0
        assert time.perf_counter() - start < 10
        assert capsys.readouterr().out


def test_degree_without_a_label_is_a_usage_error(capsys):
    for kind in ("gl", "gu", "sym"):
        assert main(["degree", kind, "--q", "2"]) == 2
        assert capsys.readouterr().err == f"error: degree {kind} needs --partition or --n\n"


def test_reversed_ranges_are_usage_errors(capsys):
    with pytest.raises(ValueError, match="empty range"):
        parse_range("5..3")
    assert parse_range("3..5") == (3, 5) and parse_range("4") == (4, 4)
    for argv in (["bounds", "--n", "5..3"], ["epsilon", "an", "--n", "9..5"],
                 ["verify", "lemmas", "--n", "4..2"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: empty range")


def test_epsilon_an_refuses_n_below_two_however_the_range_is_written(capsys):
    # --n 1..4 started at 2, and 0..1 and 1..1 --format csv printed an empty table
    for n, fmt in (("1", "json"), ("1..4", "json"), ("0..1", "json"), ("1..1", "csv")):
        assert main(["epsilon", "an", "--n", n, "--format", fmt]) == 2
        assert capsys.readouterr() == ("", "error: n must be >= 2\n")


def test_verify_refuses_an_unknown_family_before_any_check(capsys):
    for argv in (["verify", "props", "--family", "XX", "--n", "1..2", "--q", "3"],
                 ["verify", "all", "--family", "A", "--jobs", "2"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: unknown family {argv[3]!r}\n")


def test_an_empty_q_list_is_a_usage_error(capsys):
    # no blank table, no empty JSON columns, no "q values must be >= 2"
    for argv in (["bounds", "--q", ""], ["bounds", "--q", ","],
                 ["bounds", "--q", "", "--format", "json"],
                 ["verify", "lemmas", "--q", ""], ["verify", "all", "--q", ","]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: no q values given\n")


def test_fewer_than_one_job_is_a_usage_error(capsys):
    for jobs in ("0", "-2"):
        assert main(["verify", "lemmas", "--q", "2", "--jobs", jobs]) == 2
        assert capsys.readouterr().err == "error: parallelism must be >= 1\n"


def test_zero_denominators_are_usage_errors(capsys):
    assert main(["ratio-search", "--partition", "3,1", "--exclude", "2,1/0"]) == 2
    assert main(["ratio-search", "--partition", "3,1", "--delta", "1/0"]) == 2
    assert capsys.readouterr().err == "error: zero denominator in '1/0'\n" * 2


def test_a_huge_exponent_is_a_usage_error_at_once():
    # Fraction("1e100000000") builds 10**100000000 by a power, which the
    # input digit limit does not see; the parser refuses the exponent itself
    for delta in ("1e100000000", "1E-100000000"):
        start = time.perf_counter()
        r = run_cli("ratio-search", "--partition", "3,2,1", "--delta", delta)
        assert time.perf_counter() - start < 1
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith(f"error: exponent of {delta!r} exceeds ")


def test_an_exponent_within_the_limit_reads_as_its_fraction(capsys):
    assert main(["ratio-search", "--partition", "3,2,1", "--delta", "1/100"]) == 0
    plain = capsys.readouterr()
    for delta in ("1e-2", "1E-2", "0.1e-1", " 10e-3 "):
        assert main(["ratio-search", "--partition", "3,2,1", "--delta", delta]) == 0
        assert capsys.readouterr() == plain


def test_internal_arithmetic_errors_exit_3(capsys, monkeypatch):
    from lie_degrees import maxdegree

    def contradiction(n, q):
        raise ArithmeticError(f"non-integral b(GL_{n}({q}))")

    monkeypatch.setattr(maxdegree, "b_gl_exact", contradiction)
    assert main(["bmax", "gl", "--n", "3", "--q", "2"]) == 3
    assert capsys.readouterr().err == "internal error: non-integral b(GL_3(2))\n"


def test_a_check_that_raises_is_an_error_record_and_the_others_are_kept(capsys, monkeypatch):
    from lie_degrees import suites
    argv = ["verify", "all", "--n", "1..3", "--q", "2"]
    assert main(argv) == 0
    passing = json.loads(capsys.readouterr().out)

    def check_lemma_products(q_max, m):
        raise ArithmeticError(f"non-integral bound at q = {q_max}")

    monkeypatch.setattr(suites, "check_lemma_products", check_lemma_products)
    outputs = []
    for jobs in ("1", "2"):
        assert main([*argv, "--jobs", jobs]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    [i] = [k for k, c in enumerate(passing["checks"]) if c["check"] == "lemma_products"]
    assert doc["checks"][i] == {
        "check": "lemma_products", "params": {"q_max": 2, "m": 40}, "verdict": "error",
        "witness": {"error": "ArithmeticError: non-integral bound at q = 2"}, "values": {}}
    del doc["checks"][i], passing["checks"][i]
    assert doc["checks"] == passing["checks"]
    summary = passing["summary"]
    assert doc["summary"] == {**summary, "pass": summary["pass"] - 1, "error": 1}


def test_internal_error_in_a_worker_exits_3(capsys, monkeypatch):
    # an error outside the check: a worker cannot pickle the record it built
    from lie_degrees import suites

    def check_lemma_products(q_max, m):
        return [], {"bound": (q for q in range(q_max))}

    monkeypatch.setattr(suites, "check_lemma_products", check_lemma_products)
    assert main(["verify", "lemmas", "--n", "1..3", "--q", "2", "--jobs", "2"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("internal error: worker process "), line
    assert line.endswith(" ended with exit status 1 while running check 'lemma_products'"), line


_DEAD_WORKER_CLI = """
import os, sys
from lie_degrees import cli, suites

def check_lemma_products(q_max, m):  # a worker killed mid-task
    os._exit(9)

suites.check_lemma_products = check_lemma_products
sys.exit(cli.main(["verify", "lemmas", "--n", "1..3", "--jobs", "2"]))
"""


def test_a_dead_worker_is_an_internal_error_not_a_traceback():
    # a fresh interpreter, so that the forked workers are its own, and a
    # timeout, so that a hang fails the test instead of the test run
    import os
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lie_degrees.__file__)))
    proc = subprocess.run([sys.executable, "-c", _DEAD_WORKER_CLI], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("internal error: worker process "), line
    assert line.endswith(" ended with exit status 9 while running check 'lemma_products'"), line


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
    for argv in (["verify", "everything"], ["verify", "all", "--format", "xml"],
                 ["bmax", "gl", "--n", "3"], ["degree", "gl", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: lie-degrees {argv[0]} ")


def test_main_entry_direct():
    assert main(["degree", "gl", "--partition", "2,2,2", "--q", "2"]) == 0


def test_run_exits_with_mains_code_and_freezes_the_heap_once(capsys, monkeypatch):
    # gc.freeze is patched, so this process is never frozen
    import gc

    from lie_degrees import cli, suites
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(None))
    monkeypatch.setattr(suites, "check_lemma_products", lambda q_max, m: ([{"q": q_max}], {}))
    for argv, code in ((["degree", "gl", "--partition", "2,2,2", "--q", "2"], 0),
                       (["verify", "lemmas", "--n", "1..3", "--q", "2"], 1),
                       (["verify", "lemmas", "--q", ""], 2),
                       (["degree", "gl", "--bogus"], 2)):  # argparse raises SystemExit(2)
        freezes.clear()
        with pytest.raises(SystemExit) as exc:
            cli.run(argv)
        assert (exc.value.code, len(freezes)) == (code, 1), argv
    capsys.readouterr()


def test_main_does_not_freeze_the_heap(capsys):
    import gc
    before = gc.get_freeze_count()
    assert main(["degree", "gl", "--partition", "2,2,2", "--q", "2"]) == 0
    assert main(["verify", "lemmas", "--n", "1..3", "--q", "2", "--jobs", "2"]) == 0
    assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_the_console_script_goes_through_run():
    import pathlib
    tomllib = pytest.importorskip("tomllib")
    with open(pathlib.Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"lie-degrees": "lie_degrees.cli:run"}


# python -m lie_degrees.cli, with an exit handler that reports the heap frozen
_MODULE_ENTRY = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv = ["lie-degrees", "degree", "sym", "--partition", "3,2,1"]
runpy.run_module("lie_degrees.cli", run_name="__main__")
"""


def test_the_module_entry_goes_through_run_and_keeps_exit_handlers():
    import os
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lie_degrees.__file__)))
    proc = subprocess.run([sys.executable, "-c", _MODULE_ENTRY], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "16\n", "frozen True\n")


@pytest.mark.parametrize("args", [
    ("verify", "all", "--n", "1..3", "--q", "2", "--jobs", "2", "--out", "r.json"),
    ("bounds", "--family", "A,2A,B,C,D,2D", "--q", "2,3", "--n", "1..4", "--format", "csv",
     "--out", "b.csv"),
], ids=["verify", "bounds"])
def test_no_file_pipe_or_worker_is_left_for_the_collector(tmp_path, args):
    # the frozen heap is never collected, so nothing the program opens may
    # wait for the collector to be closed: in dev mode, with ResourceWarning
    # an error, a file, pipe or worker that a command leaves open (in a
    # reference cycle, say) is reported on stderr
    import os
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lie_degrees.__file__)))
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
                           "import sys; from lie_degrees import cli; sys.exit(cli.main(sys.argv[1:]))",
                           *args], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / args[-1]).stat().st_size > 0


# sha256 of the whole stdout of commands the benchmark runs (perfbench/golden/
# holds them record by record), and of wider ones: report bytes are part of
# the certificate
PINNED_OUTPUTS = [
    (("verify", "all", "--q", "2,3,4", "--n", "1..6", "--jobs", "1"),
     "de9ce695fdbc010aa162ba0adfa97f9ed9df176dd7ba6de22dec2a6a38980144"),
    (("verify", "all", "--q", "2,3,4", "--n", "1..6", "--jobs", "2"),
     "de9ce695fdbc010aa162ba0adfa97f9ed9df176dd7ba6de22dec2a6a38980144"),
    (("epsilon", "an", "--n", "5..26", "--format", "csv"),
     "5f8651146ad2904deec419d894035e3a20e38dc4e00cf9e7cd4992825565bf7d"),
    (("bounds", "--family", "A,2A,B,C,D,2D", "--q", "2,3,4,5", "--n", "1..2", "--format", "csv"),
     "4e69023e8ad2cb037be2a0bb9deb4dba64701bb9d289411cfc881e0155497bcb"),
    (("verify", "steinberg", "--family", "GL,GU,BC,D,2D", "--q", "2,3,4,5", "--n", "1..12",
      "--jobs", "1"),
     "ff43e466db5995c4a6a5622c7b933f989cdd84fa9636e81cea5820496adb3b1f"),
    # ranks beyond the benchmark's, where the runner-up search skips the most labels
    (("verify", "steinberg", "--family", "GL,GU,BC,D,2D", "--q", "2,3,5,7", "--n", "13..16",
      "--jobs", "1"),
     "66d949e915c3707238d531b283c53df9647959b08fd6d8991a0cfb8bed9c7efc"),
    # group orders beyond the benchmark's n <= 2 bounds rows: the st, seitz and c columns
    (("bounds", "--family", "A,2A,B,C,D,2D", "--q", "2,3,4,5,7,8,9", "--n", "1..12",
      "--format", "csv"),
     "5a7d1abb77dfcf4ff0395497b83f9f8aef0f77e0eb83ae1e47c705e694b866a7"),
    # larger q and n: the ln/exp/pow enclosures on bigger arguments
    (("bounds", "--family", "A,2A,B,C,D,2D", "--q", "11,13,16,25", "--n", "13..24",
      "--format", "csv"),
     "08fd40bc6e446dd75069ed6ba179cb3ff6ed10d33d06b81a54498c019011bfe2"),
    (("verify", "all", "--q", "2,3,4,5", "--n", "1..10", "--jobs", "1"),
     "c17a98dd77307462d115c40461a993ba4faf1f0f14afe13659ede9ad8954b221"),
    (("bmax", "gl", "--n", "12", "--q", "3"),
     "37dea71373bc9557c544e40b07d05c012a9de39864880c35d00e5492d6bfa6f1"),
    (("degree", "gu", "--n", "9", "--q", "3", "--format", "csv"),
     "d58f67a9c6a5f1026235ab8cb48e5a116e52d9371977356ced228a5063923a85"),
    # the csv report: one writer for reports and tables
    (("verify", "all", "--q", "2,3", "--n", "1..5", "--format", "csv", "--jobs", "1"),
     "14498d5c4af6cc02abb6250f4afd27c8ddf6db613c89ba4a713f1584310d12e4"),
]


@pytest.mark.parametrize("args, digest", PINNED_OUTPUTS,
                         ids=[" ".join(args) for args, _ in PINNED_OUTPUTS])
def test_benchmarked_command_output_bytes_are_pinned(args, digest):
    import os
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lie_degrees.__file__)))
    proc = subprocess.run([sys.executable, "-m", "lie_degrees.cli", *args],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest
