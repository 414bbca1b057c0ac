"""One rule for a scalar integer argument, the package's _check_int: every
function that takes a size, a degree, a series order or a bound refuses one
that is not an int (TypeError) or is below its least value (ValueError,
"<name> must be >= <least>"), and check_q and check_rank build on it."""

import ast
import os
from collections.abc import Iterator
from fractions import Fraction

import pytest

import lie_degrees
from lie_degrees import maxdegree, orders, partitions, qexact, suites, symmetric
from lie_degrees.partitions import Partition

PACKAGE = os.path.dirname(lie_degrees.__file__)

# every public function whose integer argument keeps to _check_int:
# name -> (the argument's name in the error, its least value, call(value))
INT_TAKERS = {
    "check_q": ("q", 2, orders.check_q),
    "partitions_of": ("n", 0, partitions.partitions_of),
    "partitions_of-max_part": ("max_part", 0, lambda m: partitions.partitions_of(5, m)),
    "partition_count": ("n", 0, partitions.partition_count),
    "partition_count-max_part": ("max_part", 0, lambda m: partitions.partition_count(5, m)),
    "formal_hook_length-row": ("row", 1, lambda i: partitions.formal_hook_length(
        Partition((3, 1)), (i, 1))),
    "formal_hook_length-column": ("column", 1, lambda j: partitions.formal_hook_length(
        Partition((3, 1)), (1, j))),
    "beta_set": ("beta-set size", 2, lambda size: partitions.beta_set(Partition((2, 1)), size)),
    "sym_degrees": ("n", 0, symmetric.sym_degrees),
    "alt_degrees": ("n", 2, symmetric.alt_degrees),
    "count_irred": ("degree", 1, lambda d: maxdegree.count_irred(3, d)),
    "count_self_dual": ("degree", 1, lambda d: maxdegree.count_self_dual(3, d)),
    "euler_interval": ("truncation order m", 2, lambda m: qexact.euler_interval(3, m)),
    "euler_tail_interval": ("k", 1, lambda k: qexact.euler_tail_interval(3, k)),
    "product_bound_suite": ("q_max", 2, qexact.product_bound_suite),
    "ln_interval": ("terms", 1, lambda t: qexact.ln_interval(Fraction(3, 2), t)),
    "exp_interval": ("terms", 0, lambda t: qexact.exp_interval(Fraction(1, 3), t)),
    "log_base_interval": ("base", 2, lambda b: qexact.log_base_interval(7, b)),
    "log_base_interval-terms": ("terms", 1, lambda t: qexact.log_base_interval(7, 2, t)),
    "alternating_product": ("n", 0, lambda n: qexact.alternating_product(2, n)),
    "alternating_products": ("n_max", 0, lambda n: qexact.alternating_products(2, n)),
    "SuiteConfig-n_min": ("n_min", 1, lambda n: suites.SuiteConfig(n_min=n, n_max=3)),
    "SuiteConfig-n_max": ("n_max", 2, lambda n: suites.SuiteConfig(n_min=2, n_max=n)),
    "SuiteConfig-parallelism": ("parallelism", 1,
                                lambda j: suites.SuiteConfig(parallelism=j)),
    "_octuple_sample": ("n_max", 8, lambda n: list(suites._octuple_sample(2, n, 1))),
}


def _read(value):
    """value, with an iterator read out into a list."""
    return list(value) if isinstance(value, Iterator) else value


@pytest.mark.parametrize("name", sorted(INT_TAKERS))
def test_every_integer_argument_keeps_to_check_int(name):
    # partitions_of and alternating_products return iterators: a bad
    # argument must raise at the call, before any item is read
    what, least, call = INT_TAKERS[name]
    valid = _read(call(least + 1))
    for bad in (2.0, True, Fraction(2)):
        with pytest.raises(TypeError, match=f"^{what} must be an int, not {type(bad).__name__}$"):
            call(bad)
    with pytest.raises(ValueError, match=f"^{what} must be >= {least}$"):
        call(least - 1)
    assert _read(call(least + 1)) == valid


def test_bracket_takes_an_int_q_of_either_sign():
    assert orders.bracket((1, 2), 2) == 3 and orders.bracket((1, 2), -2) == -9
    for bad in (2.5, 2.0, True, Fraction(2)):
        with pytest.raises(TypeError, match=f"^q must be an int, not {type(bad).__name__}$"):
            orders.bracket((1, 2), bad)
    for small in (1, 0, -1):
        with pytest.raises(ValueError, match=r"^\|q\| must be >= 2$"):
            orders.bracket((1, 2), small)


def test_a_degree_below_one_is_a_usage_error():
    # ZeroDivisionError (an ArithmeticError: an internal contradiction) at
    # degree 0, and a count of 0 at a negative even degree, before the rule
    for d in (0, -2, -1):
        with pytest.raises(ValueError, match="^degree must be >= 1$"):
            maxdegree.count_self_dual(2, d)
        with pytest.raises(ValueError, match="^degree must be >= 1$"):
            maxdegree.count_irred_nondual(2, d)


def _string_literals(module: str, tree: ast.Module) -> list[tuple[str, str, str]]:
    """(module, innermost function, text) of every string literal in the
    tree, the parts of f-strings included and docstrings left out."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False)}
    home = {}
    for node in ast.walk(tree):  # breadth first: an inner function comes later
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                home[id(sub)] = node.name
    return [(module, home.get(id(node), "<module>"), node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


def test_only_check_int_words_the_integer_rule():
    texts = ("must be an int, not", "must be >= ")
    found = {text: set() for text in texts}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                literals = _string_literals(name[:-3], ast.parse(fh.read()))
            for module, function, value in literals:
                for text in texts:
                    if text in value:
                        found[text].add((module, function))
    assert found == {
        "must be an int, not": {("__init__", "_check_int")},
        # bracket's "|q| must be >= 2": its q may be negative
        "must be >= ": {("__init__", "_check_int"), ("orders", "bracket")},
    }
