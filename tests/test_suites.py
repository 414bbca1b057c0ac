import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from lie_degrees import maxdegree, suites, symmetric, unipotent


def test_fmt_rational():
    f = suites.fmt_rational(Fraction(7, 5))
    assert f == {"ratio": "7/5", "decimal": "1.4"}
    f = suites.fmt_rational(Fraction(1, 3))
    assert f["ratio"] == "1/3" and f["decimal"].startswith("0.3333333333333")


def test_check_prop_compgl_sweep():
    # exhaustive over all shapes of n <= 20 and their higher addable nodes
    record = suites.check_prop_compgl(20, (2, 3, 4, 5))
    assert record["verdict"] == "pass" and record["values"]["cases"] > 20000


def test_check_ratio_witness():
    record = suites.check_ratio_witness(15, 16)
    assert record["verdict"] == "pass" and record["values"]["shapes"] > 300


def test_check_octuple_closed_form_fails_on_a_wrong_hook_length(monkeypatch):
    assert suites.check_octuple_closed_form(20, 30, 1)["verdict"] == "pass"
    broken = symmetric.formal_hook_length
    monkeypatch.setattr(symmetric, "formal_hook_length", lambda lam, node: broken(lam, node) + 1)
    record = suites.check_octuple_closed_form(20, 30, 1)
    assert record["verdict"] == "fail"
    assert set(record["witness"]) == {"lam", "move"}
    assert record["values"] == {"verified": 20}


_OCTUPLE_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import maxdegree, suites, symmetric, unipotent
    if __debug__:
        sys.exit("not running under python -O")
    broken = symmetric.formal_hook_length
    symmetric.formal_hook_length = lambda lam, node: broken(lam, node) + 1
    verdict = suites.check_octuple_closed_form(20, 30, 1)["verdict"]
    sys.exit(0 if verdict == "fail" else f"verdict {verdict} for a wrong hook length")
""")


def _run_under_python_O(source):
    src = os.path.dirname(os.path.dirname(suites.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", "-c", source],
                          capture_output=True, text=True, env=env, timeout=60)


def test_octuple_check_survives_python_O():
    proc = _run_under_python_O(_OCTUPLE_UNDER_O)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_stclass_chains_fails_on_a_degree_that_drops_along_a_chain(monkeypatch):
    assert suites.check_stclass_chains(3, (2,))["verdict"] == "pass"
    degree = unipotent.degree_symbol  # right on reduced symbols, 0 on the others
    monkeypatch.setattr(unipotent, "degree_symbol", lambda sym, q: (
        degree(sym, q) if unipotent.canonicalize(sym).symbol == sym else 0))
    record = suites.check_stclass_chains(3, (2,))
    assert record["verdict"] == "fail"
    assert set(record["witness"]) == {"family", "n", "q", "symbol", "error"}


_STCLASS_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import suites, unipotent
    if __debug__:
        sys.exit("not running under python -O")
    degree = unipotent.degree_symbol
    unipotent.degree_symbol = lambda sym, q: (
        degree(sym, q) if unipotent.canonicalize(sym).symbol == sym else 0)
    verdict = suites.check_stclass_chains(3, (2,))["verdict"]
    sys.exit(0 if verdict == "fail" else f"verdict {verdict} for a degree that drops")
""")


def test_stclass_check_survives_python_O():
    proc = _run_under_python_O(_STCLASS_UNDER_O)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_merge_ratios_fails_on_a_wrong_block_weight(monkeypatch):
    assert suites.check_merge_ratios(6)["verdict"] == "pass"
    weight = maxdegree._block_weight  # 1/8 of it moves every ratio out of (81/512, 1)
    monkeypatch.setattr(maxdegree, "_block_weight", lambda q, d, k: weight(q, d, k) / 8)
    t = maxdegree.CentralizerTypeGL(((1, 2), (1, 1)))
    with pytest.raises(ArithmeticError, match="not in"):
        maxdegree.merge_ratio_sl_n_2(t)
    record = suites.check_merge_ratios(6)
    assert record["verdict"] == "fail" and set(record["witness"]) == {"type"}


_MERGE_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import maxdegree, suites
    if __debug__:
        sys.exit("not running under python -O")
    weight = maxdegree._block_weight
    maxdegree._block_weight = lambda q, d, k: weight(q, d, k) / 8
    verdict = suites.check_merge_ratios(6)["verdict"]
    sys.exit(0 if verdict == "fail" else f"verdict {verdict} for a wrong block weight")
""")


def test_merge_ratio_check_survives_python_O():
    proc = _run_under_python_O(_MERGE_UNDER_O)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_prop_dominance_includes_q2_pair():
    record = suites.check_prop_dominance(10, (3, 4, 5))
    assert record["verdict"] == "pass"
    assert record["values"]["q2_smallest_counterexample"] == [[[2, 2, 2], [3, 2, 1]]]


def test_check_prop_glgu_equalities():
    record = suites.check_prop_glgu(12, (2, 3))
    assert record["verdict"] == "pass"
    assert record["values"]["equality_beyond_trivial_steinberg_22"] == []


def test_check_epsilon_an_reports_only():
    record = suites.check_epsilon_an(5, 12)
    assert record["verdict"] == "report"
    rows = {r["n"]: r["epsilon"]["ratio"] for r in record["values"]["rows"]}
    assert rows[5] == "7/5" and rows[6] == "13/5"
    assert record["witness"] is None  # no epsilon below 1 in this range


def test_run_suite_selection_and_exit_semantics():
    cfg = suites.SuiteConfig(n_min=1, n_max=5, q_list=(2, 3))
    report = suites.run_suite(cfg, "steinberg")
    assert report.all_pass
    assert {c["check"] for c in report.checks} == {"steinberg"}
    assert len(report.checks) == 5  # one record per configured family
    doc = json.loads(report.to_json())
    assert doc["schema"] == suites.SCHEMA
    assert doc["summary"] == {"pass": 5, "fail": 0, "report": 0}
    assert "wall_ms" not in json.dumps(doc)


def test_run_suite_parallel_matches_serial():
    cfg1 = suites.SuiteConfig(n_min=1, n_max=4, q_list=(2,), parallelism=1)
    cfg2 = suites.SuiteConfig(n_min=1, n_max=4, q_list=(2,), parallelism=3)
    r1 = suites.run_suite(cfg1, "props")
    r2 = suites.run_suite(cfg2, "props")
    assert r1.to_json() == r2.to_json()


def test_report_timing_opt_in():
    cfg = suites.SuiteConfig(n_min=1, n_max=3, q_list=(2,))
    report = suites.run_suite(cfg, "lemmas")
    assert "wall_ms" in report.to_json(timing=True)
    assert "wall_ms" in report.to_csv(timing=True).splitlines()[0]


def test_suite_config_validation():
    with pytest.raises(ValueError):
        suites.SuiteConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError):
        suites.SuiteConfig(q_list=(1,))
    with pytest.raises(ValueError):
        suites.SuiteConfig(fmt="xml")
    with pytest.raises(ValueError):
        suites.run_suite(suites.SuiteConfig(), "bogus")


def test_write_atomic(tmp_path):
    path = tmp_path / "out.json"
    suites.write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert not os.path.exists(str(path) + ".tmp")
    suites.write_atomic(str(path), "again\n")
    assert path.read_text() == "again\n"
    with pytest.raises(TypeError):
        suites.write_atomic(str(path), None)  # the write fails part-way
    assert path.read_text() == "again\n"
    assert list(tmp_path.glob("*.tmp")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_degrees_table_paper_row():
    header, rows = suites.degrees_table("gl", 6, 2)
    assert header == ["partition", "a_value", "degree"]
    assert ["2,2,2", 6, 5952] in rows
    assert ["3,2,1", 4, 6480] in rows


def test_degrees_table_symbols_and_sym():
    header, rows = suites.degrees_table("BC", 2, 2)
    assert sorted(r[-1] for r in rows) == [1, 1, 5, 5, 9, 16]
    header, rows = suites.degrees_table("sym", 5, None)
    assert sorted(r[-1] for r in rows) == [1, 1, 4, 4, 5, 5, 6]


def test_bounds_table_brackets_hold():
    from fractions import Fraction

    header, rows = suites.bounds_table("A", 1, 12, 2)
    assert header[3:6] == ["lower", "c", "upper"]
    for row in rows:
        lower, c, upper = (Fraction(row[3]), Fraction(row[4]), Fraction(row[5]))
        assert lower <= c <= upper
        assert float(row[6]) <= float(row[7]) <= float(row[8])
        assert int(row[10]) == 2 ** (row[1] * (row[1] - 1) // 2)


def test_epsilon_table():
    header, rows = suites.epsilon_table(5, 8)
    assert rows[0][:3] == [5, 5, "7/5"]
    assert rows[3][:2] == [8, 70]


def test_render_table_json_stringifies_huge_ints():
    text = suites.render_table(["v"], [[2 ** 80]], "json", "t")
    doc = json.loads(text)
    assert doc["rows"][0][0] == str(2 ** 80)
