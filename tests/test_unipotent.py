import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lie_degrees import unipotent
from lie_degrees.partitions import Partition, _partition_tuples, beta_set, partitions_of
from lie_degrees.unipotent import (
    Symbol,
    _build_plan,
    _check_row,
    _symbol_labels,
    _symbol_plan,
    a_value_gl,
    canonicalize,
    degree_gl,
    degree_gu,
    degree_symbol,
    enumerate_symbols,
    family_of_defect,
    stclass_chain,
    steinberg_symbol,
    symbol_defect,
    symbol_rank,
    symbol_stats,
    symbol_two_power,
    verify_steinberg_max,
)
from lie_degrees.maxdegree import GroupSpec, order_parts


# independent partition-count oracle for bipartition counts
def _p_table(n_max):
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for total in range(part, n_max + 1):
            p[total] += p[total - part]
    return p


# ---------------------------------------------------------------------------
# type A degrees
# ---------------------------------------------------------------------------

def test_a_value_examples():
    assert a_value_gl(Partition((7,))) == 0
    assert a_value_gl(Partition((1,) * 6)) == 15
    assert a_value_gl(Partition((2, 2))) == 2


def test_degree_gl_paper_counterexample():
    assert degree_gl(Partition((2, 2, 2)), 2) == 5952
    assert degree_gl(Partition((3, 2, 1)), 2) == 6480


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_gl_closed_forms(q):
    for n in range(1, 8):
        assert degree_gl(Partition((1,) * n), q) == q ** (n * (n - 1) // 2)
        assert degree_gl(Partition((n,)), q) == 1
    assert degree_gl(Partition((2, 2)), q) == q * q * (q * q + 1)
    assert degree_gl(Partition((2, 1)), q) == q * (q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_degree_gu_closed_forms(q):
    for n in range(1, 8):
        assert degree_gu(Partition((n,)), q) == 1
        assert degree_gu(Partition((1,) * n), q) == q ** (n * (n - 1) // 2)
    assert degree_gu(Partition((2, 2)), q) == degree_gl(Partition((2, 2)), q)
    assert degree_gu(Partition((2, 1)), q) == q * (q - 1)


def _ref_degree_gu(lam, q):
    """The GU degree as |(-q)^a prod (-q)^i - 1 / prod (-q)^h - 1| in Fractions,
    with the hooks read from the validating Partition."""
    from lie_degrees.partitions import hooks

    mq = -q
    num = 1
    for i in range(1, lam.n + 1):
        num *= mq ** i - 1
    den = 1
    for h in hooks(Partition(lam.parts)).lengths.values():
        den *= mq ** h - 1
    val = Fraction(mq ** a_value_gl(lam) * num, den)
    assert val.denominator == 1
    return abs(int(val))


def test_degree_gu_matches_fraction_formula():
    for n in range(1, 11):
        for lam in partitions_of(n):
            for q in (2, 3, 4, 5, 7):
                assert degree_gu(lam, q) == _ref_degree_gu(lam, q), (lam.parts, q)


def test_gl_degrees_specialize_to_sn_dimensions():
    """Exact interpolation of the GL degree polynomial at q = 1 must give the
    S_n dimension of the same label, independently of the hook machinery."""
    from fractions import Fraction

    from lie_degrees.partitions import sym_degree

    for n in range(1, 8):
        points = list(range(2, n * n + 4))
        for lam in partitions_of(n):
            values = [Fraction(degree_gl(lam, q)) for q in points]
            total = Fraction(0)
            for i, xi in enumerate(points):
                term = values[i]
                for j, xj in enumerate(points):
                    if i != j:
                        term *= Fraction(1 - xj, xi - xj)
                total += term
            assert total == sym_degree(lam), (lam, total)


def test_gl_ge_gu_with_known_equalities():
    equalities = set()
    for n in range(1, 13):
        for lam in partitions_of(n):
            for q in (2, 3):
                gl, gu = degree_gl(lam, q), degree_gu(lam, q)
                assert gl >= gu
                if gl == gu:
                    equalities.add(lam.parts)
    trivial_like = {(n,) for n in range(1, 13)} | {(1,) * n for n in range(1, 13)}
    assert equalities - trivial_like == {(2, 2)}


# ---------------------------------------------------------------------------
# symbols: stats, equivalence
# ---------------------------------------------------------------------------

def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol((2, 1), ())
    with pytest.raises(ValueError):
        Symbol((-1,), ())


def test_symbol_stats_examples():
    st = symbol_stats(Symbol((1, 2, 3), (0, 1, 2, 3)))
    assert (st.rank, st.defect) == (3, 1)
    st = symbol_stats(Symbol((5,), ()))
    assert (st.rank, st.defect) == (5, 1)
    st = symbol_stats(Symbol((1, 2), (0, 1)))
    assert (st.rank, st.defect) == (2, 0)


def test_symbol_hooks_and_cohooks():
    st = symbol_stats(Symbol((0, 2), (1,)))
    assert st.hooks == ((0, 1), (1, 2))
    assert ((0, 0) in st.cohooks) and ((1, 1) in st.cohooks)  # b = c pairs listed
    assert st.a == 1


def test_canonicalize_examples():
    assert canonicalize(Symbol((0, 2), (0, 1))).symbol == Symbol((1,), (0,))
    assert canonicalize(Symbol((3,), ())).symbol == canonicalize(Symbol((), (3,))).symbol
    cls = canonicalize(Symbol((1,), (0,)))
    assert canonicalize(cls.symbol) == cls  # idempotent


symbol_row = st.sets(st.integers(0, 12), max_size=6).map(lambda s: tuple(sorted(s)))


@settings(max_examples=300, deadline=None)
@given(symbol_row, symbol_row)
def test_canonical_rows_are_valid_and_stable(x, y):
    # canonicalize, shifted and swapped skip row validation; their rows must
    # still be what the validating constructor accepts
    sym = Symbol(x, y)
    for variant in (sym, sym.shifted(), sym.swapped(), sym.shifted().swapped()):
        assert _check_row(variant.X) == variant.X and _check_row(variant.Y) == variant.Y
        canon = canonicalize(variant).symbol
        assert _check_row(canon.X) == canon.X and _check_row(canon.Y) == canon.Y
        assert Symbol(canon.X, canon.Y) == canon
        assert canonicalize(canon) == canonicalize(variant)



def test_class_invariants_under_shift_and_swap():
    rng = random.Random(3)
    for _ in range(300):
        x = tuple(sorted(rng.sample(range(12), rng.randint(0, 5))))
        y = tuple(sorted(rng.sample(range(12), rng.randint(0, 5))))
        sym = Symbol(x, y)
        if symbol_rank(sym) < 1:
            continue
        variants = [sym.swapped(), sym.shifted(), sym.shifted().shifted().swapped()]
        base = symbol_stats(sym)
        for v in variants:
            st = symbol_stats(v)
            assert st.rank == base.rank and st.defect == base.defect
            assert st.a == base.a
            assert symbol_two_power(v) == symbol_two_power(sym)
            assert degree_symbol(v, 3) == degree_symbol(sym, 3)
            assert canonicalize(v).symbol == canonicalize(sym).symbol or \
                symbol_defect(sym) == 0  # defect-0 swap may pick either row order
        assert degree_symbol(sym.shifted(), 2) == degree_symbol(sym, 2)


def test_family_of_defect():
    assert family_of_defect(1) == "BC" and family_of_defect(3) == "BC"
    assert family_of_defect(0) == "D" and family_of_defect(4) == "D"
    assert family_of_defect(2) == "2D" and family_of_defect(6) == "2D"


# ---------------------------------------------------------------------------
# symbol degrees: calibration against known groups
# ---------------------------------------------------------------------------

def _class_degrees(n, fam, q):
    out = []
    for cls in enumerate_symbols(n, fam):
        out.extend([degree_symbol(cls.symbol, q)] * cls.multiplicity)
    return sorted(out)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_symbol_degrees_match_small_groups(q):
    # B_1 = A_1
    assert _class_degrees(1, "BC", q) == sorted([1, q])
    # B_2/C_2: six characters with the classical degree list
    assert _class_degrees(2, "BC", q) == sorted([
        1, q * (q + 1) ** 2 // 2, q * (q * q + 1) // 2, q * (q * q + 1) // 2,
        q * (q - 1) ** 2 // 2, q ** 4])
    # D_2 = A_1 x A_1 (one degenerate class of multiplicity two)
    assert _class_degrees(2, "D", q) == sorted([1, q, q, q * q])
    # 2D_2 = A_1 over F_{q^2}
    assert _class_degrees(2, "2D", q) == sorted([1, q * q])
    # D_3 = A_3 and 2D_3 = 2A_3
    assert _class_degrees(3, "D", q) == sorted(degree_gl(l, q) for l in partitions_of(4))
    assert _class_degrees(3, "2D", q) == sorted(degree_gu(l, q) for l in partitions_of(4))


def _degree_at_one(sym, n):
    """Specialize the degree polynomial at q = 1 by exact interpolation."""
    from fractions import Fraction

    points = list(range(2, n * n + 4))
    values = [Fraction(degree_symbol(sym, q)) for q in points]
    total = Fraction(0)
    for i, xi in enumerate(points):
        term = values[i]
        for j, xj in enumerate(points):
            if i != j:
                term *= Fraction(1 - xj, xi - xj)
        total += term
    assert total.denominator == 1
    return int(total)


def test_principal_series_specialize_to_weyl_dimensions():
    """At q = 1 the defect-1 (resp. defect-0) degrees must become the
    dimensions C(n, |a|) f^a f^b of the hyperoctahedral (demihyperoctahedral)
    group irreducibles, with degenerate classes carrying the two half-dimension
    split pieces.  This validates the whole formula, 2-power included, through
    a route independent of any group of Lie type."""
    from math import comb, factorial

    from lie_degrees.partitions import sym_degree

    def f(parts):
        return sym_degree(Partition(parts)) if parts else 1

    for n in (1, 2, 3, 4):
        expected = sorted(comb(n, k) * f(a.parts) * f(b.parts)
                          for k in range(n + 1)
                          for a in partitions_of(k)
                          for b in partitions_of(n - k))
        got = sorted(_degree_at_one(c.symbol, n)
                     for c in enumerate_symbols(n, "BC")
                     if symbol_defect(c.symbol) == 1)
        assert got == expected, (n, got, expected)
        assert sum(d * d for d in got) == 2 ** n * factorial(n)

    for n in (2, 3, 4):
        expected = []
        for k in range(n + 1):
            for a in partitions_of(k):
                for b in partitions_of(n - k):
                    if a.parts < b.parts:
                        continue
                    dim = comb(n, k) * f(a.parts) * f(b.parts)
                    if a.parts == b.parts:
                        expected.extend([dim // 2, dim // 2])
                    else:
                        expected.append(dim)
        got = []
        for c in enumerate_symbols(n, "D"):
            if symbol_defect(c.symbol) == 0:
                got.extend([_degree_at_one(c.symbol, n)] * c.multiplicity)
        assert sorted(got) == sorted(expected), (n, sorted(got), sorted(expected))


def test_rank3_bc_degrees_at_q2_frozen():
    """Regression anchor: the twelve rank-3 B/C degrees at q = 2.  Every value
    is a character degree of the rank-3 symplectic group over F_2, the ten
    defect-1 values specialize at q = 1 to the Weyl-group dimensions, and the
    square sum stays below the group order."""
    assert _class_degrees(3, "BC", 2) == [1, 7, 15, 27, 35, 56, 84, 120,
                                          168, 216, 280, 512]


def test_trivial_character_everywhere():
    for fam in ("BC", "D", "2D"):
        for n in range(2, 8):
            ones = [c for c in enumerate_symbols(n, fam)
                    if degree_symbol(c.symbol, 3) == 1]
            assert len(ones) == 1


def test_degree_symbol_trivial_example():
    assert degree_symbol(Symbol((5,), ()), 7) == 1


def test_steinberg_symbols():
    for n in range(1, 9):
        assert steinberg_symbol(n, "BC") == Symbol(tuple(range(1, n + 1)),
                                                   tuple(range(0, n + 1)))
        for q in (2, 3):
            assert degree_symbol(steinberg_symbol(n, "BC"), q) == q ** (n * n)
    for n in range(2, 9):
        for q in (2, 3):
            assert degree_symbol(steinberg_symbol(n, "D"), q) == q ** (n * (n - 1))
            assert degree_symbol(steinberg_symbol(n, "2D"), q) == q ** (n * (n - 1))
        assert symbol_rank(steinberg_symbol(n, "D")) == n
        assert symbol_rank(steinberg_symbol(n, "2D")) == n
    with pytest.raises(ValueError):
        steinberg_symbol(1, "D")
    with pytest.raises(ValueError):
        steinberg_symbol(3, "GL")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts_small():
    assert len(enumerate_symbols(1, "BC")) == 2
    assert len(enumerate_symbols(2, "BC")) == 6


def test_defect_one_count_is_bipartition_number():
    p = _p_table(12)
    for n in range(1, 13):
        classes = [c for c in enumerate_symbols(n, "BC")
                   if symbol_defect(c.symbol) == 1]
        expected = sum(p[k] * p[n - k] for k in range(n + 1))
        assert len(classes) == expected


def test_enumeration_ranks_and_defects():
    for fam, residues in (("BC", {1, 3}), ("D", {0}), ("2D", {2})):
        for cls in enumerate_symbols(5, fam):
            assert symbol_rank(cls.symbol) == 5
            d = symbol_defect(cls.symbol)
            assert (d % 4 if fam != "BC" else d % 2) in ({0} if fam == "D" else
                                                         {2} if fam == "2D" else {1})


def test_degenerate_only_in_D():
    for fam in ("BC", "2D"):
        for n in range(1, 7):
            assert all(not c.degenerate for c in enumerate_symbols(n, fam))
    degen = [c for c in enumerate_symbols(2, "D") if c.degenerate]
    assert len(degen) == 1 and degen[0].multiplicity == 2


def _ref_enumerate_symbols(n, fam):
    """Every bipartition through the validating Symbol, canonicalize and a
    dict of the classes seen."""
    seen = {}
    for d in unipotent._defects_for(fam, n):
        content = n - d * d // 4
        for a_size in range(content + 1):
            for alpha in partitions_of(a_size):
                for beta in partitions_of(content - a_size):
                    b0 = max(len(beta.parts), len(alpha.parts) - d, 0)
                    sym = Symbol(beta_set(alpha, b0 + d), beta_set(beta, b0))
                    assert symbol_rank(sym) == n and symbol_defect(sym) == d
                    cls = canonicalize(sym)
                    seen[(cls.symbol.X, cls.symbol.Y)] = cls
    return sorted(seen.values(),
                  key=lambda c: (symbol_defect(c.symbol), c.symbol.X, c.symbol.Y))


def _ref_degree_plan(canon):
    """(fam, rank, a, two_power, sorted minus, sorted plus) from symbol_stats."""
    stats = symbol_stats(canon)
    return (family_of_defect(stats.defect), stats.rank, stats.a, symbol_two_power(canon),
            sorted(c - b for b, c in stats.hooks),
            sorted(c - b for b, c in stats.cohooks if c > b))


def _plan_key(plan):
    return (plan.fam, plan.rank, plan.a, plan.two_power, sorted(plan.minus), sorted(plan.plus))


def test_enumeration_and_plans_match_reference():
    for fam in ("BC", "D", "2D"):
        for n in range(1, 11):
            classes = enumerate_symbols(n, fam)
            assert classes == _ref_enumerate_symbols(n, fam), (fam, n)
            labels = _symbol_labels(n, fam)
            assert [(x, y) for x, y, _, _ in labels] == [(c.symbol.X, c.symbol.Y) for c in classes]
            for x, y, alpha, beta in labels:
                plan = _build_plan(x, y, alpha, beta, fam, n)
                assert _plan_key(plan) == _ref_degree_plan(Symbol(x, y)), (x, y)
                assert _plan_key(_symbol_plan(x, y)) == _plan_key(plan)


def test_built_rows_are_valid_and_canonical():
    for fam in ("BC", "D", "2D"):
        for n in range(1, 11):
            for x, y, alpha, beta in _symbol_labels(n, fam):
                sym = Symbol(x, y)  # the validating constructor
                assert (sym.X, sym.Y) == (x, y)
                assert canonicalize(sym).symbol == sym
                assert beta_set(Partition(alpha), len(x)) == x
                assert beta_set(Partition(beta), len(y)) == y


partition_parts = st.integers(0, 7).flatmap(
    lambda k: st.sampled_from(list(_partition_tuples(k, k))))


@settings(max_examples=300, deadline=None)
@given(partition_parts, partition_parts, st.integers(0, 7))
def test_tuple_plan_matches_symbol_stats_plan(alpha, beta, d):
    b0 = max(len(beta), len(alpha) - d, 0)
    x = beta_set(Partition(alpha), b0 + d)
    y = beta_set(Partition(beta), b0)
    sym = Symbol(x, y)
    rank = symbol_rank(sym)
    if rank < 1:
        return
    plan = _build_plan(x, y, alpha, beta, family_of_defect(d), rank)
    assert _plan_key(plan) == _ref_degree_plan(sym)
    assert _plan_key(plan) == _ref_degree_plan(canonicalize(sym).symbol)


_ENUMERATION_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import unipotent
    if __debug__:
        sys.exit("not running under python -O")
    row = unipotent.beta_row
    unipotent.beta_row = lambda parts, size: tuple(v + 1 for v in row(parts, size))
    try:
        unipotent.enumerate_symbols(4, "BC")
    except ArithmeticError:
        sys.exit(0)
    sys.exit("no ArithmeticError for rows of the wrong rank")
""")


def test_enumeration_rank_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(unipotent.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _ENUMERATION_UNDER_O],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ---------------------------------------------------------------------------
# Steinberg maximality and chains
# ---------------------------------------------------------------------------

def test_steinberg_max_small():
    for fam in ("GL", "GU"):
        for n in (1, 2, 6, 10):
            for ok, runner, gap in verify_steinberg_max(n, (2, 3), fam):
                assert ok and (runner is None or gap > 1)
    for fam in ("BC", "D", "2D"):
        for n in (2, 4, 6):
            for ok, runner, gap in verify_steinberg_max(n, (2, 3), fam):
                assert ok and gap > 1


def test_steinberg_max_matches_brute_force_per_q():
    qs = (2, 3, 4, 5, 7)
    for fam in ("BC", "D", "2D"):
        for n in range(1 if fam == "BC" else 2, 9):
            classes = enumerate_symbols(n, fam)
            st_sym = canonicalize(steinberg_symbol(n, fam)).symbol
            results = verify_steinberg_max(n, qs, fam)
            assert len(results) == len(qs)
            for q, (ok, runner, gap) in zip(qs, results):
                st_degree = degree_symbol(st_sym, q)
                others = [c for c in classes if c.symbol != st_sym]
                degs = [degree_symbol(c.symbol, q) for c in others]
                best = max(degs)
                expected = others[degs.index(best)]  # first maximum in enumeration order
                assert ok == (st_degree > best)
                assert runner == expected
                assert gap == Fraction(st_degree, best)
    for fam, deg in (("GL", degree_gl), ("GU", degree_gu)):
        for n in range(2, 9):
            results = verify_steinberg_max(n, qs, fam)
            for q, (ok, runner, gap) in zip(qs, results):
                st_degree = deg(Partition((1,) * n), q)
                others = [lam for lam in partitions_of(n) if lam.parts != (1,) * n]
                best = max(deg(lam, q) for lam in others)
                expected = min(lam.parts for lam in others if deg(lam, q) == best)
                assert ok == (st_degree > best)
                assert runner.parts == expected
                assert gap == Fraction(st_degree, best)


def test_steinberg_max_rejects_small_q_and_unknown_family():
    with pytest.raises(ValueError):
        verify_steinberg_max(3, (2, 1), "BC")
    with pytest.raises(ValueError):
        verify_steinberg_max(3, (2,), "E8")


def test_gl_runner_up_report_q2():
    # over F_2 the runner-up stays within the 8/9-flavoured window (data only)
    for n in (4, 6, 8, 10):
        [(ok, runner, gap)] = verify_steinberg_max(n, (2,), "GL")
        assert ok
        ratio = 1 / gap
        assert 0 < ratio < 1


def test_sum_of_squares_envelope():
    for fam, family_spec in (("BC", "C"), ("D", "D"), ("2D", "2D")):
        for n in range(2, 9):
            for q in (2, 3):
                p_part, pprime = order_parts(GroupSpec(family_spec, n, q))
                total = sum(degree_symbol(c.symbol, q) ** 2 * c.multiplicity
                            for c in enumerate_symbols(n, fam))
                assert total <= p_part * pprime


def test_chain_cuspidal_first_step():
    chain = stclass_chain(Symbol((0, 1, 2, 3), ()), 2)
    assert canonicalize(chain[1]).symbol == canonicalize(Symbol((0, 1, 2), (3,))).symbol


def test_chain_from_trivial_character():
    for q in (2, 3):
        chain = stclass_chain(Symbol((5,), ()), q)
        degs = [degree_symbol(s, q) for s in chain]
        assert all(a < b for a, b in zip(degs, degs[1:]))
        assert degs[0] == 1 and degs[-1] == q ** 25


def test_chain_rejects_steinberg_start():
    with pytest.raises(ValueError):
        stclass_chain(steinberg_symbol(3, "BC"), 2)


def test_chain_preserves_rank_and_parity():
    chain = stclass_chain(Symbol((0, 2), (1,)), 2)
    for s in chain:
        assert symbol_rank(s) == 2 and symbol_defect(s) % 2 == 1
    degs = [degree_symbol(s, 2) for s in chain]
    assert all(a < b for a, b in zip(degs, degs[1:]))


def test_chain_rejects_a_move_that_changes_the_rank(monkeypatch):
    monkeypatch.setattr(unipotent, "_chain_candidates",
                        lambda sym: iter([Symbol((0, 7), (1,))]))
    with pytest.raises(ArithmeticError, match="rank"):
        stclass_chain(Symbol((0, 2), (1,)), 2)
