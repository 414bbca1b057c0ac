import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lie_degrees import _LABEL_FAMILIES, unipotent
from lie_degrees.partitions import (
    Partition,
    _partition_tuples,
    beta_parts,
    beta_set,
    hook_lengths,
    partitions_of,
)
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
from lie_degrees.maxdegree import GroupSpec, order_parts, order_pprime


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


def test_empty_partition_has_degree_one():
    # GL_0(q) = GU_0(q) = 1: the order table's empty bracket, not its rank check
    for q in (2, 3):
        assert degree_gl(Partition(()), q) == 1
        assert degree_gu(Partition(()), q) == 1


def test_every_degree_goes_through_the_one_evaluator(monkeypatch):
    # one plan evaluator for partitions and symbols: each entry point reaches it
    evaluated = []
    real_evaluate = unipotent._DegreePlan.evaluate

    def counting_evaluate(plan, q):
        evaluated.append(plan.fam)
        return real_evaluate(plan, q)

    monkeypatch.setattr(unipotent._DegreePlan, "evaluate", counting_evaluate)
    unipotent._partition_degree.cache_clear()
    degree_gl(Partition((3, 1)), 7)
    degree_gu(Partition((3, 1)), 7)
    degree_symbol(Symbol((1, 2), (0,)), 7)
    assert evaluated == ["GL", "GU", "BC"]
    for fam in _LABEL_FAMILIES:
        evaluated.clear()
        verify_steinberg_max(4, (7,), fam)
        assert fam in evaluated, fam


def test_a_broken_gu_order_raises_and_names_the_label(monkeypatch):
    # |GU_3(3)|_{3'} + 1 is not divisible by the hook product of (2, 1) at -3
    real_order = unipotent.order_pprime
    monkeypatch.setattr(unipotent, "order_pprime",
                        lambda fam, n, q: real_order(fam, n, q) + (fam == "GU"))
    unipotent._partition_degree.cache_clear()
    with pytest.raises(ArithmeticError, match=r"GU degree for Partition\(2, 1\), q=3"):
        degree_gu(Partition((2, 1)), 3)
    assert degree_gl(Partition((2, 1)), 3) == 12


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
    assert canonicalize(Symbol((0, 2), (0, 1))) == Symbol((1,), (0,))
    assert canonicalize(Symbol((3,), ())) == canonicalize(Symbol((), (3,)))
    cls = canonicalize(Symbol((1,), (0,)))
    assert canonicalize(cls) == cls  # idempotent


symbol_row = st.sets(st.integers(0, 12), max_size=6).map(lambda s: tuple(sorted(s)))


@settings(max_examples=300, deadline=None)
@given(symbol_row, symbol_row)
def test_canonical_rows_are_valid_and_stable(x, y):
    # canonicalize, shifted and swapped skip row validation; their rows must
    # still be what the validating constructor accepts
    sym = Symbol(x, y)
    for variant in (sym, sym.shifted(), sym.swapped(), sym.shifted().swapped()):
        assert _check_row(variant.X) == variant.X and _check_row(variant.Y) == variant.Y
        canon = canonicalize(variant)
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
            assert canonicalize(v) == canonicalize(sym) or \
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
    for sym in enumerate_symbols(n, fam):
        out.extend([degree_symbol(sym, q)] * sym.multiplicity)
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
        got = sorted(_degree_at_one(c, n)
                     for c in enumerate_symbols(n, "BC")
                     if symbol_defect(c) == 1)
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
            if symbol_defect(c) == 0:
                got.extend([_degree_at_one(c, n)] * c.multiplicity)
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
                    if degree_symbol(c, 3) == 1]
            assert len(ones) == 1


def test_degree_symbol_trivial_example():
    assert degree_symbol(Symbol((5,), ()), 7) == 1


def test_steinberg_symbols():
    # the rows themselves: test_steinberg_symbol_rows_per_family
    for n in range(1, 9):
        for q in (2, 3):
            assert degree_symbol(steinberg_symbol(n, "BC"), q) == q ** (n * n)
    for n in range(2, 9):
        for q in (2, 3):
            assert degree_symbol(steinberg_symbol(n, "D"), q) == q ** (n * (n - 1))
            assert degree_symbol(steinberg_symbol(n, "2D"), q) == q ** (n * (n - 1))
        assert symbol_rank(steinberg_symbol(n, "D")) == n
        assert symbol_rank(steinberg_symbol(n, "2D")) == n
    with pytest.raises(ValueError):
        steinberg_symbol(3, "GL")


def test_steinberg_symbol_rows_per_family():
    # the rows written out per family: BC ((1..n), (0..n)), D ((1..n), (0..n-1)),
    # 2D ((1..n-1), (0..n))
    for n in range(1, 13):
        assert steinberg_symbol(n, "BC") == Symbol(tuple(range(1, n + 1)), tuple(range(n + 1)))
    for n in range(2, 13):
        assert steinberg_symbol(n, "D") == Symbol(tuple(range(1, n + 1)), tuple(range(n)))
        assert steinberg_symbol(n, "2D") == Symbol(tuple(range(1, n)), tuple(range(n + 1)))
    for n, fam in ((0, "BC"), (-1, "BC"), (1, "D"), (0, "D"), (1, "2D"), (0, "2D")):
        floor = 1 if fam == "BC" else 2
        with pytest.raises(ValueError, match=f"{fam} needs rank >= {floor}"):
            steinberg_symbol(n, fam)


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
                   if symbol_defect(c) == 1]
        expected = sum(p[k] * p[n - k] for k in range(n + 1))
        assert len(classes) == expected


def test_enumeration_ranks_and_defects():
    for fam, residues in (("BC", {1, 3}), ("D", {0}), ("2D", {2})):
        for cls in enumerate_symbols(5, fam):
            assert symbol_rank(cls) == 5
            d = symbol_defect(cls)
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
                    seen[(cls.X, cls.Y)] = cls
    return sorted(seen.values(),
                  key=lambda c: (symbol_defect(c), c.X, c.Y))


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
            assert labels == [(c.X, c.Y) for c in classes]
            for x, y in labels:
                plan = _build_plan((x, y), fam, n)
                assert _plan_key(plan) == _ref_degree_plan(Symbol(x, y)), (x, y)
                assert _plan_key(_symbol_plan(x, y)) == _plan_key(plan)


def test_built_rows_are_valid_and_canonical():
    for fam in ("BC", "D", "2D"):
        for n in range(1, 11):
            for x, y in _symbol_labels(n, fam):
                sym = Symbol(x, y)  # the validating constructor
                assert (sym.X, sym.Y) == (x, y)
                assert canonicalize(sym) == sym
                alpha, beta = beta_parts(x), beta_parts(y)
                assert sum(alpha) + sum(beta) == n - (len(x) - len(y)) ** 2 // 4
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
    plan = _build_plan((x, y), family_of_defect(d), rank)
    assert _plan_key(plan) == _ref_degree_plan(sym)
    assert _plan_key(plan) == _ref_degree_plan(canonicalize(sym))


_ENUMERATION_UNDER_O = textwrap.dedent("""
    import sys
    from lie_degrees import unipotent
    if __debug__:
        sys.exit("not running under python -O")
    row = unipotent.beta_row
    unipotent.beta_row = lambda parts, size: tuple(v + 1 for v in row(parts, size))
    seqs = unipotent._excess_sequences
    unipotent._excess_sequences = lambda *args: [(p, t[:-1] + (t[-1] + 1,)) for p, t in seqs(*args)]
    for search in (unipotent.enumerate_symbols, unipotent._symbol_entries):
        try:
            list(search(4, "BC", -20)) if search is unipotent._symbol_entries else search(4, "BC")
        except ArithmeticError:
            continue
        sys.exit(f"no ArithmeticError from {search.__name__} for rows of the wrong rank")
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
    for fam, n in _symbol_ranks(8):
        classes = enumerate_symbols(n, fam)
        st_sym = canonicalize(steinberg_symbol(n, fam))
        results = verify_steinberg_max(n, qs, fam)
        assert len(results) == len(qs)
        for q, (ok, runner, gap) in zip(qs, results):
            st_degree = degree_symbol(st_sym, q)
            others = [c for c in classes if c != st_sym]
            degs = [degree_symbol(c, q) for c in others]
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
                total = sum(degree_symbol(c, q) ** 2 * c.multiplicity
                            for c in enumerate_symbols(n, fam))
                assert total <= p_part * pprime


def test_chain_cuspidal_first_step():
    chain = stclass_chain(Symbol((0, 1, 2, 3), ()), 2)
    assert canonicalize(chain[1]) == canonicalize(Symbol((0, 1, 2), (3,)))


def test_chain_from_trivial_character():
    for q in (2, 3):
        chain = stclass_chain(Symbol((5,), ()), q)
        degs = [degree_symbol(s, q) for s in chain]
        assert all(a < b for a, b in zip(degs, degs[1:]))
        assert degs[0] == 1 and degs[-1] == q ** 25


def test_chain_rejects_steinberg_start():
    with pytest.raises(ValueError):
        stclass_chain(steinberg_symbol(3, "BC"), 2)


def test_chains_reject_small_q():
    with pytest.raises(ValueError, match="q must be >= 2"):
        stclass_chain(Symbol((0, 2), (1,)), 1)
    with pytest.raises(ValueError, match="q must be >= 2"):
        next(unipotent.stclass_chains(3, (2, 1)))


def test_chain_preserves_rank_and_parity():
    chain = stclass_chain(Symbol((0, 2), (1,)), 2)
    for s in chain:
        assert symbol_rank(s) == 2 and symbol_defect(s) % 2 == 1
    degs = [degree_symbol(s, 2) for s in chain]
    assert all(a < b for a, b in zip(degs, degs[1:]))


def test_chain_rejects_a_move_that_changes_the_rank(monkeypatch):
    monkeypatch.setattr(unipotent, "_chain_candidates",
                        lambda x, y: iter([((0, 7), (1,))]))
    with pytest.raises(ArithmeticError, match="rank"):
        stclass_chain(Symbol((0, 2), (1,)), 2)


# sha256 of the canonical rows of every chain of rank <= 7 in BC, D and 2D at
# q = 2, 3, 5: a change in the order of the moves changes it
CHAIN_DIGEST = "e12905c60bda27fcef16e595a25d17605346b042cb1305fcc71ca28b113cea2f"


def test_chains_are_pinned():
    import hashlib
    walked = []
    for fam, n in _symbol_ranks(7):
        st_sym = canonicalize(steinberg_symbol(n, fam))
        for sym in enumerate_symbols(n, fam):
            if sym == st_sym:
                continue
            for q in (2, 3, 5):
                chain = [canonicalize(s) for s in stclass_chain(sym, q)]
                walked.append((fam, n, q, [(s.X, s.Y) for s in chain]))
    assert len(walked) == 1764
    assert hashlib.sha256(repr(walked).encode()).hexdigest() == CHAIN_DIGEST


def test_forest_chains_match_stclass_chain():
    # every class of rank <= 7 in BC, D and 2D: the chain walked through one
    # shared step memo and degree memo (as check_stclass_chains walks it) is
    # the chain stclass_chain builds with fresh ones
    walked = 0
    for fam, n, rows, q, chain, error in unipotent.stclass_chains(7, (2, 3, 5)):
        assert error is None
        assert [Symbol(*r) for r in chain] == stclass_chain(Symbol(*rows), q)
        walked += 1
    starts = sum(len(enumerate_symbols(n, fam)) - 1 for fam, n in _symbol_ranks(7))
    assert walked == 3 * starts


def test_steinberg_classes_are_cached_frozensets():
    for fam in ("BC", "D", "2D"):
        got = unipotent._steinberg_classes(4, fam)
        assert isinstance(got, frozenset) and got is unipotent._steinberg_classes(4, fam)
    # chains cross between D and 2D, so both end at either Steinberg class
    for fam in ("D", "2D"):
        assert unipotent._steinberg_classes(4, fam) == {
            (s.X, s.Y) for s in (canonicalize(steinberg_symbol(4, f)) for f in ("D", "2D"))}
        assert unipotent._steinberg_classes(1, fam) == frozenset()
    bc = canonicalize(steinberg_symbol(4, "BC"))
    assert unipotent._steinberg_classes(4, "BC") == {(bc.X, bc.Y)}


# ---------------------------------------------------------------------------
# runner-up search: exponent key, degree bound, early stop
# ---------------------------------------------------------------------------

SEARCH_QS = (2, 3, 4, 5, 7)


def _symbol_ranks(n_max):
    return [(fam, n) for fam in ("BC", "D", "2D") for n in range(1 if fam == "BC" else 2, n_max + 1)]


def _partition_ranks(n_max, n_min=1):
    return [(fam, n) for fam in ("GL", "GU") for n in range(n_min, n_max + 1)]


def _entries(n, fam, floor):
    """The search entries of the rank with e >= floor."""
    if fam in ("GL", "GU"):
        return unipotent._partition_entries(n, floor)
    return unipotent._symbol_entries(n, fam, floor)


def _every_entry(n, fam):
    """Every search entry of the rank: no e is below -n(n + 1)."""
    return _entries(n, fam, -n * (n + 1))


def _label_degree(fam):
    """The degree at q of a search label (parts or rows) of the family."""
    if fam in ("GL", "GU"):
        deg = degree_gl if fam == "GL" else degree_gu
        return lambda parts, q: deg(Partition(parts), q)
    return lambda rows, q: degree_symbol(Symbol(*rows), q)


def _bound(order, neg_e, slack, q):
    """|G|_{q'} q^e (q/(q - 1))^k1 (q^2/(q^2 - 1))^k / 2^c, exactly."""
    k1, k, c = slack
    return (order * Fraction(q) ** -neg_e * Fraction(q, q - 1) ** k1
            * Fraction(q * q, q * q - 1) ** k / 2 ** c)


def _hook_slack(hooks, two_power):
    """(k1, k, c) from the hook lengths and the power of two."""
    k1 = hooks.count(1)
    return k1, len(hooks) - k1, two_power


def test_symbol_entries_are_the_enumeration_less_steinberg():
    # down to e = -n(n + 1) the generator yields each label of _symbol_labels
    # but the Steinberg one exactly once, with tie key (defect, x, y) and
    # slack (k1, k, c): the hooks of alpha and beta of length 1 and the
    # longer ones, and the power of two; the trivial character's e,
    # -deg |G|_{q'}, is the least
    for fam, n in _symbol_ranks(10):
        st = canonicalize(steinberg_symbol(n, fam))
        want = [label for label in _symbol_labels(n, fam) if label != (st.X, st.Y)]
        got = list(_every_entry(n, fam))
        assert len(got) == len(want) and {label for *_, label in got} == set(want), (fam, n)
        for _, tie, s, (x, y) in got:
            assert tie == (len(x) - len(y), x, y)
            hooks = hook_lengths(beta_parts(x)) + hook_lengths(beta_parts(y))
            assert len(hooks) == n - (len(x) - len(y)) ** 2 // 4
            assert s == _hook_slack(hooks, symbol_two_power(Symbol(x, y)))
        assert min(-neg_e for neg_e, *_ in got) == (-n * (n + 1) if fam == "BC" else -n * n)


def test_partition_entries_are_every_partition_less_steinberg():
    # down to e = -n(n + 1) the generator yields each partition of n but
    # (1^n) exactly once, the parts being the tie key and the label, with
    # slack (k1, n - k1, 0), k1 the distinct parts; the trivial character's
    # e, -n(n + 1)/2 = -deg |G|_{q'}, is the least
    for n in range(1, 15):
        got = list(unipotent._partition_entries(n, -n * (n + 1)))
        want = {p for p in _partition_tuples(n, n) if p != (1,) * n}
        assert len(got) == len(want) and {label for *_, label in got} == want, n
        for _, tie, slack, parts in got:
            k1 = len(set(parts))
            assert tie == parts and slack == (k1, n - k1, 0) == _hook_slack(hook_lengths(parts), 0)
        assert min((-neg_e for neg_e, *_ in got), default=None) == (-n * (n + 1) // 2 if n > 1 else None)


def test_every_family_shares_the_steinberg_exponent():
    # the Steinberg label's e = a - sum(minus) - sum(plus) is -n in every
    # family (deg |G|_{q'} = N + n and the Steinberg degree is q^N), so the
    # search's first floor, -n - 1, is one below it in each
    for fam in _LABEL_FAMILIES:
        for n in range(1 if fam in ("GL", "GU", "BC") else 2, 21):
            if fam in ("GL", "GU"):
                plan = _build_plan((1,) * n, fam, n)
            else:
                st = canonicalize(steinberg_symbol(n, fam))
                plan = _symbol_plan(st.X, st.Y)
            assert plan.a - sum(plan.minus) - sum(plan.plus) == -n, (fam, n)
            if n <= 10:  # and no other label reaches it
                assert not list(_entries(n, fam, -n)), (fam, n)


def test_exponent_key_is_the_plan_exponent():
    # e = E0(m) - sum t_j (t_j + c_j), t_j = z_j - ceil(j/2) >= 0 with sum
    # n - floor(m/2), is the plan's a - sum(minus) - sum(plus) on every label
    for fam, n in _symbol_ranks(10):
        for neg_e, _, _, (x, y) in _every_entry(n, fam):
            plan = _build_plan((x, y), fam, n)
            z = sorted(x + y)
            m = len(z)
            t = [v - (j + 1) // 2 for j, v in enumerate(z)]
            assert min(t) >= 0 and sum(t) == n - m // 2
            e = unipotent._base_exponent(m) - sum(v * (v + 1 + j % 2) for j, v in enumerate(t))
            assert -neg_e == e == plan.a - sum(plan.minus) - sum(plan.plus), (x, y)
    # and e = -n(lam') - n, n(lam') = sum binom(lam_i, 2), on every partition
    for n in range(1, 21):
        for neg_e, _, _, parts in _every_entry(n, "GL"):
            plan = _build_plan(parts, "GL", n)
            assert -neg_e == plan.a - sum(plan.minus) == -sum(p * (p - 1) // 2 for p in parts) - n


def test_symbol_entries_in_a_band_are_those_of_large_exponent():
    # each floor, from the Steinberg e (-n, above every entry's) to below
    # the least e, prunes the multisets (symbols) or the parts placed under
    # the budget (partitions) to exactly the labels with e >= floor
    for fam, n in _symbol_ranks(9) + _partition_ranks(14):
        every = sorted(_every_entry(n, fam))
        least = -every[-1][0] if every else -n
        for floor in range(-n, least - 2, -1):
            assert (sorted(_entries(n, fam, floor))
                    == [entry for entry in every if -entry[0] >= floor]), (fam, n, floor)


def test_symbol_entries_check_the_rank_of_each_label(monkeypatch):
    real = unipotent._excess_sequences

    def one_unit_more(m, total, budget):
        return [(p, t[:-1] + (t[-1] + 1,)) for p, t in real(m, total, budget)]

    monkeypatch.setattr(unipotent, "_excess_sequences", one_unit_more)
    with pytest.raises(ArithmeticError, match="rank 5"):
        list(_every_entry(5, "BC"))


def test_partition_order_is_the_pprime_part_of_gl_and_gu():
    for n in range(1, 10):
        for q in SEARCH_QS:
            _, sl = order_parts(GroupSpec("A", n, q))
            _, su = order_parts(GroupSpec("2A", n, q))
            assert order_pprime("GL", n, q) == (q - 1) * sl
            assert order_pprime("GU", n, q) == (q + 1) * su


def test_every_degree_is_within_its_search_bound():
    # degree <= |G|_{q'} q^e (q/(q - 1))^k1 (q^2/(q^2 - 1))^k / 2^c for every
    # entry: the inequality the early stop rests on; the rank's slack cap
    # has the most corners any label has (k1 <= K1, attained) and the most
    # hooks (k1 + k <= K1 + K), so its bound is at least every label's
    for fam, n in _symbol_ranks(8):
        # the Steinberg symbol is no search entry; its e and slack from its plan
        st = canonicalize(steinberg_symbol(n, fam))
        plan = _symbol_plan(st.X, st.Y)
        entries = [(sum(plan.minus) + sum(plan.plus) - plan.a, None,
                    _hook_slack(plan.minus, plan.two_power), (st.X, st.Y))]
        entries += _every_entry(n, fam)
        assert len(entries) == len(_symbol_labels(n, fam))
        cap = unipotent._slack_cap(fam, n)
        assert cap[2] == 0 and max(k1 for _, _, (k1, _, _), _ in entries) == cap[0], (fam, n)
        for neg_e, _, (k1, k, c), label in entries:
            assert k1 <= cap[0] and k1 + k <= cap[0] + cap[1]
            sym = Symbol(*label)
            for q in SEARCH_QS:
                order = order_pprime(fam, n, q)
                assert degree_symbol(sym, q) <= _bound(order, neg_e, (k1, k, c), q), (sym, q)
    for fam, deg in (("GL", degree_gl), ("GU", degree_gu)):
        for n in range(1, 15):
            entries = list(_every_entry(n, fam))
            assert len(entries) == sum(1 for _ in partitions_of(n)) - 1
            cap = unipotent._slack_cap(fam, n)
            # a staircase's corners, over every partition of n
            assert cap[2] == 0 and max(len(set(p)) for p in _partition_tuples(n, n)) == cap[0]
            for neg_e, _, slack, parts in entries:
                assert slack == _hook_slack(hook_lengths(parts), 0)
                assert slack[0] <= cap[0] and sum(slack) == sum(cap) == n
                for q in SEARCH_QS:
                    order = order_pprime(fam, n, q)
                    assert deg(Partition(parts), q) <= _bound(order, neg_e, slack, q), (fam, parts, q)


def _unpruned_steinberg_max(n, q_list, fam):
    """The exhaustive sweep the runner-up search replaced: every label at every q."""
    if fam in ("GL", "GU"):
        deg = degree_gl if fam == "GL" else degree_gu
        st_label = Partition((1,) * n)
        others = [lam for lam in partitions_of(n) if lam != st_label]
        out = []
        for q in q_list:
            runner, runner_degree = None, -1
            for lam in others:
                d = deg(lam, q)
                if d > runner_degree or (d == runner_degree and lam.parts < runner.parts):
                    runner, runner_degree = lam, d
            out.append(unipotent._steinberg_outcome(deg(st_label, q), runner, runner_degree))
        return out
    st = canonicalize(steinberg_symbol(n, fam))
    plans = [_build_plan(label, fam, n) for label in _symbol_labels(n, fam) if label != (st.X, st.Y)]
    out = []
    for q in q_list:
        runner, runner_degree = None, -1
        for plan in plans:
            d = plan.evaluate(q)
            if d > runner_degree:
                runner, runner_degree = plan, d
        if runner is not None:
            runner = Symbol(*runner.label)
        out.append(unipotent._steinberg_outcome(degree_symbol(st, q), runner, runner_degree))
    return out


def test_runner_up_search_matches_the_unpruned_sweep():
    for fam, n in _symbol_ranks(10):
        assert verify_steinberg_max(n, SEARCH_QS, fam) == _unpruned_steinberg_max(n, SEARCH_QS, fam)
    for fam in ("GL", "GU"):
        for n in range(1, 19):
            assert (verify_steinberg_max(n, SEARCH_QS, fam)
                    == _unpruned_steinberg_max(n, SEARCH_QS, fam)), (fam, n)
        # ranks where the cut drops most partitions
        for n in range(19, 27):
            assert verify_steinberg_max(n, (2, 3), fam) == _unpruned_steinberg_max(n, (2, 3), fam), (fam, n)


def test_runner_up_search_stops_early(monkeypatch):
    evaluated, built = [], []
    real_evaluate, real_build = unipotent._DegreePlan.evaluate, unipotent._build_plan

    def counting_evaluate(plan, q):
        evaluated.append(plan.label)
        return real_evaluate(plan, q)

    def counting_build(label, *args):
        built.append(label)
        return real_build(label, *args)

    monkeypatch.setattr(unipotent._DegreePlan, "evaluate", counting_evaluate)
    monkeypatch.setattr(unipotent, "_build_plan", counting_build)
    labels = _symbol_labels(10, "BC")
    got = verify_steinberg_max(10, (2, 5), "BC")
    # of 686 labels, 35 evaluations and 30 plans; the 2^s bound (one factor
    # 2 per hook) needs 128 and 93
    assert len(evaluated) < len(labels) / 15    # Steinberg evaluations included
    assert len(built) == len(set(built)) < len(labels) / 15
    monkeypatch.undo()
    assert got == _unpruned_steinberg_max(10, (2, 5), "BC")


def test_symbol_search_keeps_every_label_its_bound_admits():
    # L_q is the best degree at q among the labels of the largest e, and the
    # seed of q is the first of them in tie order; the search keeps each
    # other label whose bound with the slack cap is >= L_q at some q, and
    # every label it drops is below L_q at every q
    for fam, n in _symbol_ranks(9) + _partition_ranks(12, n_min=2):
        degree = _label_degree(fam)
        every = sorted(_every_entry(n, fam))
        cap = unipotent._slack_cap(fam, n)
        orders = [order_pprime(fam, n, q) for q in SEARCH_QS]
        band = [entry for entry in every if entry[0] == every[0][0]]
        best = [max(degree(label, q) for *_, label in band) for q in SEARCH_QS]
        seeds, kept = unipotent._search(n, fam, SEARCH_QS, cap, degree)
        assert seeds == [next((label, b, tie) for _, tie, _, label in band if degree(label, q) == b)
                         for q, b in zip(SEARCH_QS, best)], (fam, n)
        assert kept == sorted(kept) and not set(kept) & set(band)
        # with every degree equal, the seed is the band's first label in tie order
        [(label, _, tie)] = unipotent._search(n, fam, (2,), cap, lambda label, q: 1)[0]
        assert (tie, label) == band[0][1::2], (fam, n)
        for entry in every[len(band):]:
            neg_e, _, _, label = entry
            bounds = [_bound(order, neg_e, cap, q) for q, order in zip(SEARCH_QS, orders)]
            if any(bound >= b for bound, b in zip(bounds, best)):
                assert entry in kept, (fam, n, label)
            elif entry not in kept:
                assert all(degree(label, q) < b for q, b in zip(SEARCH_QS, best)), (fam, n, label)
    # GL_1 and GU_1 have the Steinberg label alone: no seed label, no entry
    for fam in ("GL", "GU"):
        cap = unipotent._slack_cap(fam, 1)
        assert unipotent._search(1, fam, SEARCH_QS, cap, _label_degree(fam)) == (
            [(None, -1, None)] * len(SEARCH_QS), [])


def test_bc_runner_up_at_large_rank():
    # the runner-up of B_n/C_n at q = 2..5 is X = (0..n-2, n), Y = (1..n-1),
    # with a gap below 2(q - 1) (the gap tends to it as n grows)
    for n in range(3, 21):
        runner = Symbol(tuple(range(n - 1)) + (n,), tuple(range(1, n)))
        for q, (ok, got, gap) in zip(range(2, 6), verify_steinberg_max(n, range(2, 6), "BC")):
            assert ok and got == runner and 1 < gap < 2 * (q - 1), (n, q)


def _walk_entries(entries, degrees, order=8, q=2):
    """(label, degree) of the runner-up walk over the entries."""
    # the cap: the most length-1 hooks of any entry, and the most hooks
    k1 = max((s[0] for _, _, s, _ in entries), default=0)
    hooks = max((s[0] + s[1] for _, _, s, _ in entries), default=0)
    return unipotent._runner_up(sorted(entries), q, order, (k1, hooks - k1, 0),
                                lambda label, _q: degrees[label])[:2]


def test_runner_up_search_breaks_ties_on_the_tie_key_across_exponents():
    # A is walked first (larger e); B has the same degree and the smaller tie key
    none = (0, 0, 0)
    assert _walk_entries([(1, 5, none, "A"), (2, 1, none, "B")], {"A": 1, "B": 1}) == ("B", 1)
    assert _walk_entries([(1, 3, none, "C"), (1, 2, none, "D")], {"C": 1, "D": 1}) == ("D", 1)
    assert _walk_entries([], {}) == (None, -1)


def test_runner_up_search_evaluates_a_label_whose_bound_equals_the_best():
    # B's bound 8 * 2^-1 * (2/1)^1 = 8 equals A's degree; B ties and wins on the tie key
    assert _walk_entries([(0, 2, (0, 0, 0), "A"), (1, 1, (1, 0, 0), "B")], {"A": 8, "B": 8}) == ("B", 8)
    # the same with a longer hook, 3 * 2^-2 * (4/3)^1 = 1, and a power of two,
    # 8 * 2^-1 * 2^2 / 2^1 = 8
    assert _walk_entries([(0, 2, (0, 0, 0), "A"), (2, 1, (0, 1, 0), "B")], {"A": 1, "B": 1},
                   order=3) == ("B", 1)
    assert _walk_entries([(0, 2, (0, 0, 0), "A"), (1, 1, (2, 0, 1), "B")], {"A": 8, "B": 8}) == ("B", 8)


def test_runner_up_search_stops_on_the_largest_slack():
    # B's own bound (4) is below 8, but C, walked after it, has slack (3, 0, 0) (bound 32)
    degrees = {"A": 8, "B": 1, "C": 20}
    none = (0, 0, 0)
    assert _walk_entries([(0, 1, none, "A"), (1, 2, none, "B"), (1, 3, (3, 0, 0), "C")],
                   degrees) == ("C", 20)
    # with the largest slack's bound below the best, nothing after A is evaluated
    assert _walk_entries([(0, 1, none, "A"), (4, 2, (1, 0, 0), "B")], {"A": 8}) == ("A", 8)
    # at q = 3 two longer hooks give 9 * 3^-1 * (9/8)^2 < 9, though 9 * 3^-1 * 2^2 >= 9
    assert _walk_entries([(0, 1, none, "A"), (1, 2, (0, 2, 0), "B")], {"A": 9}, order=9, q=3) == ("A", 9)


def test_steinberg_max_rejects_rank_below_one():
    for fam in _LABEL_FAMILIES:
        for n in (0, -1):
            with pytest.raises(ValueError, match="rank must be >= 1"):
                verify_steinberg_max(n, (2,), fam)
