"""Mutation table: each row breaks one field of the degree plans that
unipotent builds (orders.QProduct) and names the checks of the suite that
must then leave "pass", each with a witness; every other check passes.  A
mutation that no check notices is a gap in what the suite certifies.

Known gap, with no row: adding 1 to the a-value of every symbol leaves every
check below passing.  The symbol degrees are only compared with each other
(Steinberg maximality, degree-increasing chains), and q times each degree
keeps every comparison; catching it waits for a check that pins the symbol
degrees themselves, such as the Harish-Chandra series sums.
"""

import pytest

from lie_degrees import suites, unipotent

Q_LIST = (2, 3, 4)


def _tasks():
    """The steinberg and props tasks at n <= 8 and the chains at rank <= 6."""
    cfg = suites.SuiteConfig(n_max=8, q_list=Q_LIST)
    return (suites._suite_tasks(cfg, "steinberg") + suites._suite_tasks(cfg, "props")
            + [(suites.check_stclass_chains, {"rank_max": 6, "q_list": Q_LIST})])


def _key(record):
    family = record["params"].get("family")
    return record["check"] + (f" {family}" if family else "")


def _clear_plan_caches():
    unipotent._symbol_plan.cache_clear()
    unipotent._partition_degree.cache_clear()
    unipotent._hook_lengths.cache_clear()


@pytest.fixture
def mutate(monkeypatch):
    """mutate(families, change): _build_plan returns change(plan) for the
    plans of those families and the real plan for the others."""
    real = unipotent._build_plan

    def apply(families, change):
        def build(label, fam, rank):
            plan = real(label, fam, rank)
            return change(plan) if fam in families else plan

        monkeypatch.setattr(unipotent, "_build_plan", build)
        _clear_plan_caches()

    yield apply
    monkeypatch.undo()
    _clear_plan_caches()


SYMBOLS = ("BC", "D", "2D")
EVERY = ("GL", "GU") + SYMBOLS


MUTATIONS = [
    ("a + 1 for every family", EVERY, lambda p: p._replace(a=p.a + 1),
     {"anchor_degrees": "fail"}),
    ("GL: first hook dropped", ("GL",), lambda p: p._replace(minus=p.minus[1:]),
     {"anchor_degrees": "fail", "prop_compgl": "fail", "prop_dominance": "fail"}),
    ("GU: first odd-hook factor dropped", ("GU",), lambda p: p._replace(plus=p.plus[1:]),
     {"prop_glgu": "fail"}),
    ("GU: first even-hook factor dropped", ("GU",), lambda p: p._replace(minus=p.minus[1:]),
     {"prop_glgu": "fail"}),
    ("a GU label gets its GL product", ("GU",),
     lambda p: p._replace(fam="GL", minus=p.minus + p.plus, plus=()),
     {"prop_glgu": "fail"}),
    ("power of two dropped", EVERY, lambda p: p._replace(two_power=0),
     {"steinberg BC": "fail", "stclass_chains": "fail"}),
    ("symbols: power of two + 1", SYMBOLS, lambda p: p._replace(two_power=p.two_power + 1),
     {"steinberg BC": "error", "steinberg D": "error", "steinberg 2D": "error",
      "stclass_chains": "fail"}),
    ("symbols: a cohook read as a hook", SYMBOLS,
     lambda p: p._replace(minus=p.minus + p.plus[:1], plus=p.plus[1:]),
     {"steinberg BC": "error", "steinberg D": "error", "steinberg 2D": "error",
      "stclass_chains": "fail"}),
    ("symbols: a - 1", SYMBOLS, lambda p: p._replace(a=p.a - 1),
     {"steinberg BC": "error", "steinberg D": "error", "steinberg 2D": "error",
      "stclass_chains": "fail"}),
]


def test_the_unmutated_plans_pass_every_check():
    _clear_plan_caches()
    records = [suites._run_task(task) for task in _tasks()]
    assert all(r["verdict"] == "pass" for r in records), [_key(r) for r in records]


@pytest.mark.parametrize("families, change, expected",
                         [row[1:] for row in MUTATIONS], ids=[row[0] for row in MUTATIONS])
def test_a_mutated_plan_leaves_pass(mutate, families, change, expected):
    mutate(families, change)
    records = {_key(r): r for r in map(suites._run_task, _tasks())}
    # exactly the listed checks leave pass
    assert {key: r["verdict"] for key, r in records.items() if r["verdict"] != "pass"} == expected
    for key, verdict in expected.items():
        witness = records[key]["witness"]
        assert witness, key
        if verdict == "error":
            assert witness["error"].startswith("ArithmeticError: "), witness
