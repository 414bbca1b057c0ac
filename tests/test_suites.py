import hashlib
import json
import os
import pickle
import stat
import subprocess
import sys
import textwrap
import threading
from fractions import Fraction

import pytest

from lie_degrees import maxdegree, qexact, suites, symmetric, tables, unipotent


def _run(check, **params):
    """The record the suite runner builds for check at params, without its
    wall time."""
    record = suites._run_task((check, params))
    del record["_elapsed"]
    return record


def test_fmt_rational():
    f = tables.fmt_rational(Fraction(7, 5))
    assert f == {"ratio": "7/5", "decimal": "1.4"}
    f = tables.fmt_rational(Fraction(1, 3))
    assert f["ratio"] == "1/3" and f["decimal"].startswith("0.3333333333333")


def test_check_prop_compgl_sweep():
    # exhaustive over all shapes of n <= 20 and their higher addable nodes
    record = _run(suites.check_prop_compgl, n_max=20, q_list=(2, 3, 4, 5))
    assert record["verdict"] == "pass" and record["values"]["cases"] > 20000


def test_check_lemma_bracket_ratios_beyond_the_pinned_q():
    record = _run(suites.check_lemma_bracket_ratios, s_max=12, q_list=(5, 7, 16), grid_max=30)
    assert record["verdict"] == "pass"


def test_check_ratio_witness():
    record = _run(suites.check_ratio_witness, n_min=15, n_max=16)
    assert record["verdict"] == "pass" and record["values"]["shapes"] > 300


def test_check_octuple_closed_form_fails_on_a_wrong_hook_length(monkeypatch):
    assert _run(suites.check_octuple_closed_form, count=20, n_max=30, seed=1)["verdict"] == "pass"
    broken = symmetric.formal_hook_length
    monkeypatch.setattr(symmetric, "formal_hook_length", lambda lam, node: broken(lam, node) + 1)
    record = _run(suites.check_octuple_closed_form, count=20, n_max=30, seed=1)
    assert record["verdict"] == "fail"
    assert set(record["witness"]) == {"lam", "move"}
    assert record["values"] == {"verified": 20}


def _downup_move_octuple_picks(count, n_max, seed):
    """The octuple check's selection on DownUpMove objects, kept as a
    reference: the (lam, first, second) of each octuple it checks."""
    import random
    from lie_degrees.partitions import Partition
    rng = random.Random(seed)
    picks = []
    attempts = 0
    while len(picks) < count and attempts < 100 * count:
        attempts += 1
        n = rng.randint(8, n_max)
        parts = []
        rem, prev = n, n
        while rem:
            p = rng.randint(1, min(prev, rem))
            parts.append(p)
            rem -= p
            prev = p
        lam = Partition(tuple(sorted(parts, reverse=True)))
        moves = [m for m, _ in symmetric.downup_neighborhood(lam)]
        rng.shuffle(moves)
        picked = None
        for m1 in moves[:8]:
            for m2 in moves[:8]:
                iset = {m1.remove.i, m1.add.i, m2.remove.i, m2.add.i}
                jset = {m1.remove.j, m1.add.j, m2.remove.j, m2.add.j}
                if len(iset) == 4 and len(jset) == 4:
                    picked = (m1, m2)
                    break
            if picked:
                break
        if picked:
            picks.append((lam, *picked))
    return picks


def test_octuple_check_picks_the_same_pairs_as_the_move_object_selection(monkeypatch):
    seen = []
    real = symmetric.octuple_ratio

    def recording(lam, move):
        seen.append((lam.parts, *move))
        return real(lam, move)

    monkeypatch.setattr(symmetric, "octuple_ratio", recording)
    record = _run(suites.check_octuple_closed_form, count=1000, n_max=60, seed=20260810)
    assert record["verdict"] == "pass" and record["values"] == {"verified": 1000}
    expected = [(lam.parts, (tuple(m1.remove), tuple(m1.add)), (tuple(m2.remove), tuple(m2.add)))
                for lam, m1, m2 in _downup_move_octuple_picks(1000, 60, 20260810)]
    assert seen == expected == list(suites._octuple_sample(1000, 60, 20260810))


def test_octuple_sample_is_pinned():
    # the report records only the count, so the digest is what shows that the
    # check still draws the same octuples; the (parts, m1, m2) are plain ints
    sample = list(suites._octuple_sample(1000, 60, 20260810))
    assert sample[0] == ((5, 3, 3), ((1, 5), (4, 1)), ((3, 3), (2, 4)))
    digest = hashlib.sha256(repr(sample).encode()).hexdigest()
    assert digest == "2868da2d92a243d9a917ff6dda2025ce68978a331f0216b76df89310cbc4ffdc"


@pytest.mark.parametrize("seed", [0, 1, 20260810])
def test_octuple_draws_are_those_of_randrange_and_shuffle(seed):
    # the same values, and the generator left in the same state (the next
    # 64 bits agree): a guard on the draws beyond the one digest above
    import random
    ours, theirs = random.Random(seed), random.Random(seed)
    for width in range(1, 301):
        for a in (0, 1, 8):
            assert a + suites._randbelow(ours.getrandbits, width) == theirs.randrange(a, a + width)
            assert ours.getrandbits(64) == theirs.getrandbits(64)
    for length in range(121):
        mine, expected = list(range(length)), list(range(length))
        suites._shuffle(ours.getrandbits, mine)
        theirs.shuffle(expected)
        assert mine == expected
        assert ours.getrandbits(64) == theirs.getrandbits(64)


def test_octuple_sample_refuses_an_empty_size_range():
    # randrange raised here; a rejection loop on width 0 would never end
    with pytest.raises(ValueError, match="^n_max must be >= 8$"):
        next(suites._octuple_sample(1, 7, 0))


def test_octuple_check_failure_names_the_move_objects(monkeypatch):
    def wrong(lam, move):
        raise ArithmeticError("closed form differs")

    monkeypatch.setattr(symmetric, "octuple_ratio", wrong)
    record = _run(suites.check_octuple_closed_form, count=2, n_max=30, seed=1)
    parts, (r1, a1), (r2, a2) = next(suites._octuple_sample(2, 30, 1))
    assert record["witness"] == {
        "lam": parts,
        "move": f"(DownUpMove(remove=Node(i={r1[0]}, j={r1[1]}), add=Node(i={a1[0]}, j={a1[1]})), "
                f"DownUpMove(remove=Node(i={r2[0]}, j={r2[1]}), add=Node(i={a2[0]}, j={a2[1]})))",
    }


_OCTUPLE_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import maxdegree, suites, symmetric, unipotent
    if __debug__:
        sys.exit("not running under python -O")
    broken = symmetric.formal_hook_length
    symmetric.formal_hook_length = lambda lam, node: broken(lam, node) + 1
    task = (suites.check_octuple_closed_form, {"count": 20, "n_max": 30, "seed": 1})
    verdict = suites._run_task(task)["verdict"]
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
    assert _run(suites.check_stclass_chains, rank_max=3, q_list=(2,))["verdict"] == "pass"
    degree = unipotent._class_degree  # right except at the Steinberg classes, where it is 0
    steinberg = {rows for n in (2, 3) for fam in ("BC", "D")
                 for rows in unipotent._steinberg_classes(n, fam)}
    monkeypatch.setattr(unipotent, "_class_degree", lambda rows, q: (
        0 if rows in steinberg else degree(rows, q)))
    record = _run(suites.check_stclass_chains, rank_max=3, q_list=(2,))
    assert record["verdict"] == "fail"
    assert set(record["witness"]) == {"family", "n", "q", "symbol", "error"}


_STCLASS_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import suites, unipotent
    if __debug__:
        sys.exit("not running under python -O")
    degree = unipotent._class_degree
    steinberg = {rows for n in (2, 3) for fam in ("BC", "D")
                 for rows in unipotent._steinberg_classes(n, fam)}
    unipotent._class_degree = lambda rows, q: 0 if rows in steinberg else degree(rows, q)
    task = (suites.check_stclass_chains, {"rank_max": 3, "q_list": (2,)})
    verdict = suites._run_task(task)["verdict"]
    sys.exit(0 if verdict == "fail" else f"verdict {verdict} for a degree that drops")
""")


def test_stclass_check_survives_python_O():
    proc = _run_under_python_O(_STCLASS_UNDER_O)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _per_chain_stclass_check(rank_max, q_list):
    """The chain check as it was before the step forest: one stclass_chain
    per (class, q), degrees of the chain's symbols as stored."""
    failures = []
    chains = 0
    for fam in ("BC", "D", "2D"):
        for n in range(2 if fam != "BC" else 1, rank_max + 1):
            targets = unipotent._steinberg_classes(n, fam)
            for sym in unipotent.enumerate_symbols(n, fam):
                if (sym.X, sym.Y) in targets:
                    continue
                for q in q_list:
                    try:
                        chain = unipotent.stclass_chain(sym, q)
                        degs = [unipotent.degree_symbol(s, q) for s in chain]
                    except ArithmeticError as exc:
                        error = str(exc)
                    else:
                        if all(a < b for a, b in zip(degs, degs[1:])):
                            chains += 1
                            continue
                        error = f"degrees {degs} along the chain do not increase"
                    failures.append({"family": fam, "n": n, "q": q,
                                     "symbol": [sym.X, sym.Y],
                                     "error": error})
    return {"verdict": "pass" if not failures else "fail",
            "witness": failures[0] if failures else None,
            "values": {"chains": chains}, "failures": len(failures)}


def _stclass_outcome(record):
    return {k: record[k] for k in ("verdict", "witness", "values")}


def test_stclass_forest_check_matches_the_per_chain_check(monkeypatch):
    expected = _per_chain_stclass_check(5, (2, 3))
    assert expected["verdict"] == "pass"
    record = _run(suites.check_stclass_chains, rank_max=5, q_list=(2, 3))
    assert _stclass_outcome(record) == _stclass_outcome(expected)
    # a 2D class of rank 5 that D chains cross into; no move is offered from it
    blocked = ((1, 2, 3, 4), (0, 1))
    candidates = unipotent._chain_candidates
    monkeypatch.setattr(unipotent, "_chain_candidates", lambda x, y: (
        iter(()) if (x, y) == blocked else candidates(x, y)))
    expected = _per_chain_stclass_check(5, (2, 3))
    record = _run(suites.check_stclass_chains, rank_max=5, q_list=(2, 3))
    assert expected["failures"] > 1 and expected["witness"]["family"] == "D"
    assert expected["witness"]["symbol"] != list(blocked)
    assert expected["witness"]["error"].startswith(
        "no degree-increasing move from Symbol((1, 2, 3, 4), (0, 1))")
    assert _stclass_outcome(record) == _stclass_outcome(expected)


_ASSERTS_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import partitions, symmetric
    from lie_degrees.partitions import Node, Partition
    from lie_degrees.symmetric import DownUpMove, OctupleMove
    if __debug__:
        sys.exit("not running under python -O")

    def raises(call, text):
        try:
            call()
        except ArithmeticError as exc:
            if text not in str(exc):
                sys.exit(f"wrong error: {exc}")
        else:
            sys.exit(f"no ArithmeticError ({text})")

    lam = Partition((3, 1))
    cells = partitions._odd_hook_cells
    partitions._odd_hook_cells = lambda beta: cells(beta) * 2
    raises(lambda: partitions.odd_hook_cells(lam), "repeat a cell")
    partitions._odd_hook_cells = lambda beta: [(1, 1)]
    raises(lambda: partitions.odd_hook_cells(lam), "is not a hook")
    partitions._odd_hook_cells = cells
    hooks = partitions.odd_hook_cells
    partitions.odd_hook_cells = lambda lam: hooks(lam)[1:]
    raises(lambda: partitions.odd_hook_sequence(lam), "not ceil(n/2)")
    partitions.odd_hook_cells = lambda lam: [(0, 2), (1, 2)]
    raises(lambda: partitions.odd_hook_sequence(lam), "is even")
    partitions.odd_hook_cells = lambda lam: [(0, 3), (1, 4)]
    raises(lambda: partitions.odd_hook_sequence(lam), "exceed 2i - 1")
    partitions.odd_hook_cells = hooks
    assert partitions.odd_hook_sequence(lam) == [1, 3]

    one = Partition((1,))
    raises(lambda: symmetric._cross_hook(one, Node(1, 1), Node(3, 3)), "cross cell Node(i=1, j=3)")
    symmetric._downup_parts = lambda parts, move: parts  # lets moves off the diagram through
    far = OctupleMove(DownUpMove(Node(5, 5), Node(6, 6)), DownUpMove(Node(7, 7), Node(8, 8)))
    raises(lambda: symmetric.octuple_ratio(one, far), "meet Node(i=6, j=6)")
""")


def test_hook_and_octuple_verdicts_survive_python_O():
    proc = _run_under_python_O(_ASSERTS_UNDER_O)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_merge_ratios_fails_on_a_wrong_block_weight(monkeypatch):
    assert _run(suites.check_merge_ratios, n_max=6)["verdict"] == "pass"
    weight = maxdegree._block_weight  # 1/8 of it moves every ratio out of (81/512, 1)
    monkeypatch.setattr(maxdegree, "_block_weight", lambda q, d, k: weight(q, d, k) / 8)
    t = maxdegree.CentralizerTypeGL(((1, 2), (1, 1)))
    with pytest.raises(ArithmeticError, match="not in"):
        maxdegree.merge_ratio_sl_n_2(t)
    record = _run(suites.check_merge_ratios, n_max=6)
    assert record["verdict"] == "fail" and set(record["witness"]) == {"type"}


_MERGE_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import maxdegree, suites
    if __debug__:
        sys.exit("not running under python -O")
    weight = maxdegree._block_weight
    maxdegree._block_weight = lambda q, d, k: weight(q, d, k) / 8
    verdict = suites._run_task((suites.check_merge_ratios, {"n_max": 6}))["verdict"]
    sys.exit(0 if verdict == "fail" else f"verdict {verdict} for a wrong block weight")
""")


def test_merge_ratio_check_survives_python_O():
    proc = _run_under_python_O(_MERGE_UNDER_O)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_check_prop_dominance_includes_q2_pair():
    record = _run(suites.check_prop_dominance, n_max=10, q_list=(3, 4, 5))
    assert record["verdict"] == "pass"
    assert record["values"]["q2_smallest_counterexample"] == [[[2, 2, 2], [3, 2, 1]]]


def test_check_anchor_degrees_fail_record(monkeypatch):
    monkeypatch.setattr(unipotent, "degree_gl", lambda lam, q: sum(lam.parts) * q)
    assert _run(suites.check_anchor_degrees) == {
        "check": "anchor_degrees", "params": {}, "verdict": "fail",
        "witness": {"got": [12, 12], "expected": [5952, 6480]},
        "values": {"deg_222": 12, "deg_321": 12},
    }


def test_check_prop_dominance_fail_record_when_only_q2_is_wrong(monkeypatch):
    cases = _run(suites.check_prop_dominance, n_max=6, q_list=(3,))["values"]["cases"]
    degree = unipotent.degree_gl
    # at q = 2 only: deg (3,2,1) drops to 5000, below 5952 = deg (2,2,2) and
    # above the degrees of the shapes dominating (3,2,1) (at most 1240), so the
    # known pair is no longer a violation and no new one appears; q = 3 is untouched
    monkeypatch.setattr(unipotent, "degree_gl",
                        lambda lam, q: 5000 if (q, lam.parts) == (2, (3, 2, 1)) else degree(lam, q))
    assert _run(suites.check_prop_dominance, n_max=6, q_list=(3,)) == {
        "check": "prop_dominance", "params": {"n_max": 6, "q_list": (3,)},
        "verdict": "fail", "witness": {"q2_violations": []},
        "values": {"cases": cases, "q2_smallest_counterexample": []},
    }


def test_check_lemma_products_fail_record_names_the_failing_q(monkeypatch):
    report = {"ok": False, "per_q": {2: {"poly_lower": True, "alternating": False},
                                     3: {"poly_lower": True, "alternating": True}}}
    monkeypatch.setattr(qexact, "product_bound_suite", lambda q_max, m: report)
    assert _run(suites.check_lemma_products, q_max=3, m=40) == {
        "check": "lemma_products", "params": {"q_max": 3, "m": 40}, "verdict": "fail",
        "witness": {2: {"alternating": False}}, "values": {"q_checked": [2, 3]},
    }


def test_check_octuple_closed_form_fail_record_when_too_few_are_verified(monkeypatch):
    monkeypatch.setattr(symmetric, "downup_moves", lambda parts: [])  # nothing to pick
    assert _run(suites.check_octuple_closed_form, count=3, n_max=20, seed=1) == {
        "check": "octuple_closed_form", "params": {"count": 3, "n_max": 20, "seed": 1},
        "verdict": "fail", "witness": {"done": 0}, "values": {"verified": 0},
    }


def test_check_prop_glgu_equalities():
    record = _run(suites.check_prop_glgu, n_max=12, q_list=(2, 3))
    assert record["verdict"] == "pass"
    assert record["values"]["equality_beyond_trivial_steinberg_22"] == []


def test_check_prop_glgu_fails_on_an_unexpected_equality(monkeypatch):
    # GU degrees read as GL degrees: gl >= gu still holds everywhere, so only
    # the equalities beyond the trivial, Steinberg and (2,2) shapes show it
    monkeypatch.setattr(unipotent, "degree_gu", unipotent.degree_gl)
    record = _run(suites.check_prop_glgu, n_max=8, q_list=(2, 3, 4))
    extra = record["values"]["equality_beyond_trivial_steinberg_22"]
    assert record["verdict"] == "fail" and extra[:2] == [[2, 1], [2, 1, 1]]
    assert record["witness"] == {"equality_beyond_trivial_steinberg_22": extra}


def test_check_epsilon_an_reports_only():
    record = _run(suites.check_epsilon_an, n_min=5, n_max=12)
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
    assert doc["schema"] == tables.SCHEMA
    assert doc["summary"] == {"pass": 5, "fail": 0, "report": 0}
    assert "wall_ms" not in json.dumps(doc)


def test_run_suite_parallel_matches_serial():
    cfg1 = suites.SuiteConfig(n_min=1, n_max=4, q_list=(2,), parallelism=1)
    cfg2 = suites.SuiteConfig(n_min=1, n_max=4, q_list=(2,), parallelism=3)
    r1 = suites.run_suite(cfg1, "props")
    r2 = suites.run_suite(cfg2, "props")
    assert r1.to_json() == r2.to_json()


_DEAD_WORKER = textwrap.dedent("""
    import os, sys, time
    from lie_degrees import suites

    def check_lemma_products(q_max, m):  # a worker killed mid-task
        os._exit(9)

    suites.check_lemma_products = check_lemma_products
    started = time.monotonic()
    try:
        suites.run_suite(suites.SuiteConfig(n_max=3, parallelism=2), "lemmas")
        sys.exit("run_suite returned")
    except RuntimeError as exc:
        message = str(exc)
    assert time.monotonic() - started < 10, time.monotonic() - started
    assert message.endswith("exit status 9 while running check 'lemma_products'"), message
    try:
        os.waitpid(-1, os.WNOHANG)
        sys.exit("a worker was left behind")
    except ChildProcessError:
        pass
""")


def test_a_dead_worker_raises_instead_of_hanging():
    # a fresh interpreter, so that no other child is about, and a timeout, so
    # that a hang fails the test instead of the test run
    src = os.path.dirname(os.path.dirname(suites.__file__))
    proc = subprocess.run([sys.executable, "-c", _DEAD_WORKER], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture
def forked(monkeypatch):
    """The pids of the workers forked while the test runs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_worker_exception_reaches_the_caller(monkeypatch, forked):
    # raised in a forked worker, it comes back as that check's error record
    def check_lemma_products(q_max, m):
        raise ArithmeticError(f"non-integral bound at q = {q_max}")

    monkeypatch.setattr(suites, "check_lemma_products", check_lemma_products)
    report = suites.run_suite(suites.SuiteConfig(n_max=3, q_list=(2,), parallelism=2), "lemmas")
    [record] = [c for c in report.checks if c["check"] == "lemma_products"]
    assert record["verdict"] == "error" and record["values"] == {}
    assert record["witness"] == {"error": "ArithmeticError: non-integral bound at q = 2"}
    assert not report.all_pass
    assert all(c["verdict"] == "pass" for c in report.checks if c is not record)
    assert len(forked) == 2 and all(_reaped(pid) for pid in forked)


def test_forked_run_returns_records_in_task_order(forked):
    # more tasks than workers, and indices that need more than one byte
    def check_echo(i):
        return [], {"i": i}

    records = suites._run_forked([(check_echo, {"i": i}) for i in range(300)], 3)
    assert [r["values"]["i"] for r in records] == list(range(300))
    assert all(r["_elapsed"] >= 0 for r in records)
    assert len(forked) == 3 and all(_reaped(pid) for pid in forked)


def test_suite_config_refuses_fewer_than_one_worker():
    for jobs in (0, -2):
        with pytest.raises(ValueError, match="parallelism"):
            suites.SuiteConfig(parallelism=jobs)


def test_suite_config_refuses_non_int_ranks_and_workers():
    for field, bad in (("n_min", 1.0), ("n_max", 3.0), ("n_max", True), ("parallelism", 2.5)):
        with pytest.raises(TypeError, match=f"^{field} must be an int, not {type(bad).__name__}$"):
            suites.SuiteConfig(families=("GL",), q_list=(2,), **{field: bad})


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
    with pytest.raises(ValueError, match="^no q values given$"):
        suites.SuiteConfig(q_list=())
    with pytest.raises(ValueError, match="^no families given$"):
        suites.SuiteConfig(families=())
    with pytest.raises(ValueError):
        suites.run_suite(suites.SuiteConfig(), "bogus")


def test_suite_config_is_immutable_and_checked_on_replace():
    cfg = suites.SuiteConfig(q_list=(2,))
    with pytest.raises(AttributeError):
        cfg.q_list = (2.0,)
    with pytest.raises(TypeError, match="^q must be an int, not float$"):
        cfg._replace(q_list=(2.0,))
    with pytest.raises(ValueError, match="^n_max must be >= 4$"):
        cfg._replace(n_min=4, n_max=3)
    assert cfg._replace(n_max=4).n_max == 4 and cfg.n_max == 10
    assert pickle.loads(pickle.dumps(cfg)) == cfg
    assert suites.SuiteConfig(families=["GL", "D"]).families == ("GL", "D")


def test_suite_config_and_report_keep_their_defaults():
    cfg = suites.SuiteConfig()
    assert (cfg.families, cfg.n_min, cfg.n_max, cfg.q_list,
            cfg.parallelism) == (("GL", "GU", "BC", "D", "2D"), 1, 10, (2, 3), 1)
    cfg = suites.SuiteConfig(("GL",), 2, 3, (4,), 2)  # positional, in field order
    assert (cfg.families, cfg.n_min, cfg.n_max, cfg.q_list,
            cfg.parallelism) == (("GL",), 2, 3, (4,), 2)
    first, second = suites.SuiteReport({}), suites.SuiteReport(config={})
    assert first.checks == [] and first.checks is not second.checks and first.all_pass


def test_every_entry_point_refuses_an_unknown_family():
    calls = (lambda: maxdegree.min_rank("E"), lambda: maxdegree.order_pprime("E", 3, 2),
             lambda: maxdegree.GroupSpec("E", 3, 2), lambda: unipotent.steinberg_symbol(3, "E"),
             lambda: unipotent.enumerate_symbols(3, "E"),
             lambda: unipotent.verify_steinberg_max(3, (2,), "E"),
             lambda: tables.degrees_table("E", 3, 2), lambda: suites.SuiteConfig(families=("E",)),
             lambda: suites.SuiteConfig(families=("GL", "A")))  # A names groups, not labels
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_write_atomic(tmp_path):
    path = tmp_path / "out.json"
    tables.write_atomic(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert not os.path.exists(str(path) + ".tmp")
    tables.write_atomic(str(path), "again\n")
    assert path.read_text() == "again\n"
    with pytest.raises(TypeError):
        tables.write_atomic(str(path), None)  # the write fails part-way
    assert path.read_text() == "again\n"
    assert list(tmp_path.glob("*.tmp")) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_write_atomic_writes_a_fifo_in_place(tmp_path):
    # a rename would replace the FIFO (or a device such as /dev/null) with a
    # regular file that no reader ever sees
    path = tmp_path / "fifo"
    os.mkfifo(path)
    got = []

    def read():
        with open(path) as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    tables.write_atomic(str(path), "report\n")
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == ["report\n"]
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


def test_write_atomic_writes_through_a_symlink(tmp_path):
    # renaming over the link would make it a regular file and leave the file
    # it names stale
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target.name)
    tables.write_atomic(str(link), "new\n")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == "new\n"
    target.unlink()  # a link to a missing file in an existing directory
    tables.write_atomic(str(link), "again\n")
    assert link.is_symlink() and target.read_text() == "again\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


def test_degrees_table_paper_row():
    header, rows = tables.degrees_table("gl", 6, 2)
    assert header == ["partition", "a_value", "degree"]
    assert ["2,2,2", 6, 5952] in rows
    assert ["3,2,1", 4, 6480] in rows


def test_degrees_table_symbols_and_sym():
    header, rows = tables.degrees_table("BC", 2, 2)
    assert sorted(r[-1] for r in rows) == [1, 1, 5, 5, 9, 16]
    header, rows = tables.degrees_table("sym", 5, None)
    assert sorted(r[-1] for r in rows) == [1, 1, 4, 4, 5, 5, 6]


def test_bounds_table_brackets_hold():
    from fractions import Fraction

    header, rows = tables.bounds_table("A", 1, 12, 2)
    assert header[3:6] == ["lower", "c", "upper"]
    for row in rows:
        lower, c, upper = (Fraction(row[3]), Fraction(row[4]), Fraction(row[5]))
        assert lower <= c <= upper
        assert float(row[6]) <= float(row[7]) <= float(row[8])
        assert int(row[10]) == 2 ** (row[1] * (row[1] - 1) // 2)


def test_epsilon_table():
    header, rows = tables.epsilon_table(5, 8)
    assert rows[0][:3] == [5, 5, "7/5"]
    assert rows[3][:2] == [8, 70]


def test_report_json_stringifies_huge_ints_and_leaves_bools():
    big = 2 ** 53
    report = suites.SuiteReport(config={"q_list": [2, 3]}, checks=[{
        "check": "synthetic", "params": {"limit": big, "flag": True},
        "verdict": "pass", "witness": None,
        "values": {"rows": [{"b": big + 1, "small": big - 1, "neg": -big,
                             "pair": (big, 7), "ok": False}]},
    }])
    for text in (report.to_json(), report.to_json(timing=True)):
        check = json.loads(text)["checks"][0]
        assert check["params"] == {"limit": str(big), "flag": True}
        assert check["values"]["rows"] == [{"b": str(big + 1), "small": big - 1,
                                            "neg": str(-big), "pair": [str(big), 7],
                                            "ok": False}]
    assert json.loads(report.to_json())["config"] == {"q_list": [2, 3]}


def test_reports_write_ints_past_the_digit_limit():
    # 49^3600 has 6,085 digits, past the 4,300 Python converts by default;
    # the reports write it in full and leave the caller's limit as it was
    big = 49 ** 3600
    limit = sys.get_int_max_str_digits()
    report = suites.SuiteReport(config={}, checks=[{
        "check": "synthetic", "params": {"q_part": big}, "verdict": "fail",
        "witness": {"degree": big}, "values": {}}])
    check = json.loads(report.to_json())["checks"][0]
    sys.set_int_max_str_digits(0)
    try:
        digits = str(big)
    finally:
        sys.set_int_max_str_digits(limit)
    assert check["params"] == {"q_part": digits} and check["witness"] == {"degree": digits}
    assert report.to_csv().count(digits) == 2
    assert sys.get_int_max_str_digits() == limit


def test_report_csv_quotes_params_and_witness():
    report = suites.SuiteReport(config={}, checks=[
        {"check": "steinberg", "params": {"family": "GL", "q_list": [2, 3]},
         "verdict": "fail", "witness": {"n": 4, "runner_up": "(2, 2)"}, "values": {},
         "_elapsed": 0.0125},
        {"check": "epsilon_an", "params": {}, "verdict": "report", "witness": None,
         "values": {}},
    ])
    assert report.to_csv() == (
        'check,params,verdict,witness\n'
        'steinberg,"{""family"": ""GL"", ""q_list"": [2, 3]}",fail,'
        '"{""n"": 4, ""runner_up"": ""(2, 2)""}"\n'
        'epsilon_an,{},report,null\n')
    assert report.to_csv(timing=True) == (
        'check,params,verdict,witness,wall_ms\n'
        'steinberg,"{""family"": ""GL"", ""q_list"": [2, 3]}",fail,'
        '"{""n"": 4, ""runner_up"": ""(2, 2)""}",12.5\n'
        'epsilon_an,{},report,null,0\n')


def test_render_table_json_stringifies_huge_ints():
    text = tables.render_table(["v"], [[2 ** 80]], "json", "t")
    doc = json.loads(text)
    assert doc["rows"][0][0] == str(2 ** 80)
