"""One rule for a Lie rank, orders.check_rank: every function that takes a
rank refuses one that is not an int (TypeError) or is below the family's
smallest rank (ValueError, one message), and so does every function that
reads the rank off a symbol.  D and 2D start at rank 2 everywhere."""

import inspect
import os
from fractions import Fraction

import pytest

import lie_degrees
from lie_degrees import maxdegree, orders, unipotent
from lie_degrees.cli import main
from lie_degrees.unipotent import Symbol

PACKAGE = os.path.dirname(lie_degrees.__file__)

GROUP_FAMILIES = ("A", "2A", "B", "C", "D", "2D")
SYMBOL_FAMILIES = ("BC", "D", "2D")
LABEL_FAMILIES = ("GL", "GU") + SYMBOL_FAMILIES
ALL_FAMILIES = GROUP_FAMILIES + ("GL", "GU", "BC")

# every public function that takes a rank: (name, families, call(family, n))
RANK_TAKERS = [
    ("order_pprime", ALL_FAMILIES, lambda fam, n: orders.order_pprime(fam, n, 3)),
    ("p_exponent", ALL_FAMILIES, orders.p_exponent),
    ("GroupSpec", GROUP_FAMILIES, lambda fam, n: maxdegree.GroupSpec(fam, n, 3)),
    ("b_gl_exact", ("GL",), lambda fam, n: maxdegree.b_gl_exact(n, 3)),
    ("enumerate_types", ("GL",), lambda fam, n: maxdegree.enumerate_types(n, 3)),
    ("steinberg_symbol", SYMBOL_FAMILIES, lambda fam, n: unipotent.steinberg_symbol(n, fam)),
    ("enumerate_symbols", SYMBOL_FAMILIES, lambda fam, n: unipotent.enumerate_symbols(n, fam)),
    ("verify_steinberg_max", LABEL_FAMILIES,
     lambda fam, n: unipotent.verify_steinberg_max(n, (2, 3), fam)),
]
CASES = [(name, fam, call) for name, fams, call in RANK_TAKERS for fam in fams]


def _below_message(fam: str) -> str:
    return f"^family {fam} needs rank >= {orders.min_rank(fam)}$"


@pytest.mark.parametrize("name, fam, call", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_every_function_that_takes_a_rank_keeps_to_check_rank(name, fam, call):
    at_three = call(fam, 3)
    for bad in (3.0, True, Fraction(3)):
        with pytest.raises(TypeError, match=f"^rank must be an int, not {type(bad).__name__}$"):
            call(fam, bad)
    # GL_0 = GU_0 = 1 is the order table's one exception (the empty partition)
    lowest = 0 if name == "order_pprime" and fam in ("GL", "GU") else orders.min_rank(fam)
    for n in range(lowest - 1, -3, -1):
        with pytest.raises(ValueError, match=_below_message(fam)):
            call(fam, n)
    assert call(fam, 3) == at_three


def test_the_empty_partition_is_an_int_zero_only():
    for fam in ("GL", "GU"):
        assert orders.order_pprime(fam, 0, 3) == 1
        for bad in (0.0, False):
            with pytest.raises(TypeError, match="^rank must be an int"):
                orders.order_pprime(fam, bad, 3)


# symbols of a rank below their family's: (symbol, family)
SMALL_SYMBOLS = [
    (Symbol((1,), (0,)), "D"),    # rank 1: the torus Spin^+_2
    (Symbol((0, 1), ()), "2D"),   # rank 1: the torus Spin^-_2
    (Symbol((0,), ()), "BC"),     # rank 0
    (Symbol((), ()), "D"),        # rank 0
]


@pytest.mark.parametrize("sym, fam", SMALL_SYMBOLS, ids=lambda v: str(v))
def test_a_symbol_below_its_family_rank_has_no_degree_and_no_chain(sym, fam):
    with pytest.raises(ValueError, match=_below_message(fam)):
        unipotent.degree_symbol(sym, 3)
    # a usage error, not the ArithmeticError of a contradiction
    with pytest.raises(ValueError, match=_below_message(fam)):
        unipotent.stclass_chain(sym, 3)


def test_no_float_rank_reaches_a_certificate():
    with pytest.raises(TypeError, match="^rank must be an int, not float$"):
        maxdegree.epsilon_certificate(maxdegree.GroupSpec("A", 15.0, 3))
    assert maxdegree.epsilon_certificate(maxdegree.GroupSpec("A", 15, 3)).value == (
        "certified_gt_one")


@pytest.mark.parametrize("argv, error", [
    (["bmax", "gl", "--n", "0", "--q", "2"], "family GL needs rank >= 1"),
    (["degree", "symbol", "--n", "1", "--q", "3", "--symbol-family", "D"],
     "family D needs rank >= 2"),
    (["degree", "symbol", "--x", "1", "--y", "0", "--q", "3"], "family D needs rank >= 2"),
    (["epsilon", "cert", "--family", "D", "--rank", "1", "--q", "3"],
     "family D needs rank >= 2"),
])
def test_the_commands_word_a_small_rank_alike(capsys, argv, error):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_the_empty_partition_keeps_its_row(capsys):
    assert main(["degree", "gl", "--n", "0", "--q", "3"]) == 0
    assert capsys.readouterr() == ("partition,a_value,degree\n,0,1\n", "")


def test_only_check_rank_words_the_rank_rule():
    texts = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as fh:
                texts.append(fh.read())
    source = "\n".join(texts)
    assert source.count("needs rank >=") == 1
    assert "needs rank >=" in inspect.getsource(orders.check_rank)
    for text in ("rank must be >= 1", "n must be >= 1", "positive rank"):
        assert text not in source, text
