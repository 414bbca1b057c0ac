"""One rule for q, orders.check_q: every function that takes q refuses a q
that is not an int (TypeError) or is below 2 (ValueError), and no cache
keyed by q hands a float's result to an int call or the reverse."""

import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lie_degrees
from lie_degrees import maxdegree, orders, qexact, suites, unipotent
from lie_degrees.cli import main
from lie_degrees.partitions import Partition
from lie_degrees.unipotent import Symbol

PACKAGE = os.path.dirname(lie_degrees.__file__)

# every public function that takes q, called at q
Q_TAKERS = {
    "degree_gl": lambda q: unipotent.degree_gl(Partition((2, 1)), q),
    "degree_gu": lambda q: unipotent.degree_gu(Partition((2, 1)), q),
    "degree_symbol": lambda q: unipotent.degree_symbol(Symbol((1, 2), (0,)), q),
    "verify_steinberg_max": lambda q: unipotent.verify_steinberg_max(3, [q], "BC"),
    "stclass_chain": lambda q: unipotent.stclass_chain(Symbol((0, 2), (1,)), q),
    "stclass_chains": lambda q: next(unipotent.stclass_chains(3, (q,))),
    "order_pprime": lambda q: orders.order_pprime("GU", 3, q),
    "gl_degree_of_type": lambda q: maxdegree.gl_degree_of_type(
        maxdegree.CentralizerTypeGL(((1, 1), (1, 2))), q),
    "b_gl_exact": lambda q: maxdegree.b_gl_exact(3, q),
    "count_irred": lambda q: maxdegree.count_irred(q, 3),
    "count_self_dual": lambda q: maxdegree.count_self_dual(q, 2),
    "enumerate_types": lambda q: maxdegree.enumerate_types(3, q),
    "GroupSpec": lambda q: maxdegree.GroupSpec("A", 3, q),
    "euler_interval": lambda q: qexact.euler_interval(q),
    "euler_tail_interval": lambda q: qexact.euler_tail_interval(q, 2),
    "one_plus_interval": lambda q: qexact.one_plus_interval(q, 2),
    "alternating_product": lambda q: qexact.alternating_product(q, 3),
    "alternating_products": lambda q: list(qexact.alternating_products(q, 3)),
    "bracket_ratio_bounds": lambda q: qexact.bracket_ratio_bounds((2, 3), q),
    "SuiteConfig": lambda q: suites.SuiteConfig(q_list=(q,)).q_list,
}


@pytest.mark.parametrize("name", sorted(Q_TAKERS))
def test_every_function_that_takes_q_keeps_to_check_q(name):
    call = Q_TAKERS[name]
    at_three = call(3)
    for bad in (3.0, 2.5, Fraction(3), True):
        with pytest.raises(TypeError, match="^q must be an int"):
            call(bad)
    with pytest.raises(ValueError, match="^q must be >= 2$"):
        call(1)
    again = call(3)  # the bad calls stored nothing that the int call reads
    assert again == at_three and type(again) is type(at_three)


def test_a_float_q_first_leaves_no_entry_for_the_int_q():
    # the caches live per process, so the float call must come first in a
    # fresh interpreter: it raises, and the int call is exact
    code = """
import json
from lie_degrees import orders, unipotent
from lie_degrees.partitions import Partition
from lie_degrees.unipotent import Symbol
calls = {
    "degree_gu": lambda q: unipotent.degree_gu(Partition((2, 1)), q),
    "degree_symbol": lambda q: unipotent.degree_symbol(Symbol((1, 2), (0,)), q),
    "order_pprime": lambda q: orders.order_pprime("GU", 3, q),
}
out = {}
for name, call in calls.items():
    try:
        call(3.0)
        raised = None
    except TypeError:
        raised = "TypeError"
    value = call(3)
    out[name] = [raised, type(value).__name__, value]
print(json.dumps(out))
"""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        '{"degree_gu": ["TypeError", "int", 6], "degree_symbol": ["TypeError", "int", 15], '
        '"order_pprime": ["TypeError", "int", 896]}')


@pytest.mark.parametrize("argv, error", [
    (["verify", "lemmas", "--q", "1"], "q must be >= 2"),
    (["verify", "steinberg", "--q", "2,1", "--n", "1..2"], "q must be >= 2"),
    (["bounds", "--q", "1"], "q must be >= 2"),
    (["bmax", "gl", "--n", "3", "--q", "6"], "q must be a prime power"),
    (["bmax", "gl", "--n", "3", "--q", "1"], "q must be >= 2"),
])
def test_the_commands_word_a_bad_q_alike(capsys, argv, error):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


# prime_power is a predicate: it answers None below 2 and decides nothing;
# check_q holds the bound as an argument of the package's integer rule
ALLOWED = {("maxdegree", "prime_power")}


def _q_against_bound(x: ast.AST, y: ast.AST) -> bool:
    return any(isinstance(a, ast.Name) and a.id == "q"
               and isinstance(b, ast.Constant) and b.value in (1, 2)
               for a, b in ((x, y), (y, x)))


class _QBounds(ast.NodeVisitor):
    """(module, innermost function) of every order comparison of the name q
    with the constant 1 or 2, as in `q < 2`, `2 > q` or `q <= 1`."""

    def __init__(self, module: str):
        self.module, self.where, self.found = module, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def visit_Compare(self, node):
        sides = [node.left, *node.comparators]
        for op, x, y in zip(node.ops, sides, sides[1:]):
            if isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) and _q_against_bound(x, y):
                self.found.add((self.module, self.where[-1]))
        self.generic_visit(node)


def test_only_check_q_compares_q_with_two():
    found = set()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                visitor = _QBounds(name[:-3])
                visitor.visit(ast.parse(fh.read()))
            found |= visitor.found
    assert found == ALLOWED, found
    assert '_check_int(q, 2, "q")' in inspect.getsource(orders.check_q)


def test_only_the_two_q_rules_word_their_errors():
    texts = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                texts.append(fh.read())
    source = "\n".join(texts)
    # _check_int words both errors of check_q, whose call is the one place
    # that names q with its bound; no other text says what q must be, apart
    # from bracket's rule for a q of either sign
    assert source.count('_check_int(q, 2, "q")') == 1
    assert source.count('"q must be a prime power"') == 1
    assert source.count("q must be") == 1
    assert source.count('"|q| must be >= 2"') == 1
    assert "is not a prime power" not in source


@pytest.mark.parametrize("cached", [orders.order_pprime, unipotent._partition_degree,
                                    qexact.euler_interval, maxdegree._block_budget],
                         ids=lambda f: f.__name__)
def test_the_caches_a_caller_reaches_first_are_typed(cached):
    assert cached.cache_parameters()["typed"] is True
