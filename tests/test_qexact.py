import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from lie_degrees import qexact
from lie_degrees.qexact import (
    RationalInterval,
    alternating_product,
    bracket,
    bracket_ratio_bounds,
    euler_interval,
    euler_tail_interval,
    exp_interval,
    ln_interval,
    log_base_interval,
    one_plus_interval,
    pow_interval,
    product_bound_suite,
)


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_bracket_examples():
    assert bracket((1,), 2) == 1
    assert bracket((2, 3), 2) == 3 * 7
    assert bracket((1, 2, 3), 3) == 2 * 8 * 26


def test_bracket_validation():
    with pytest.raises(ValueError):
        bracket((2, 2), 2)
    with pytest.raises(ValueError):
        bracket((1,), 1)


def test_bracket_ratio_examples():
    assert bracket_ratio_bounds((2,), 2) == (True, True)
    assert bracket_ratio_bounds((1, 2), 2, form="plus") == (True, True)
    with pytest.raises(ValueError):
        bracket_ratio_bounds((1, 2), 2, form="minus")


def test_bracket_ratio_grids():
    for q in (2, 3, 4, 5):
        for s in range(1, 13):
            assert bracket_ratio_bounds(tuple(range(2, s + 2)), q) == (True, True)
            assert bracket_ratio_bounds(tuple(range(1, s + 1)), q, form="plus") == (True, True)
    # a scattered non-interval sequence
    assert bracket_ratio_bounds((2, 5, 11), 3) == (True, True)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ratio_monotonicity_iffs(q):
    for a in range(2, 31):
        for b in range(2, 31):
            minus = (q ** a - 1) * (q ** (b - 1) - 1) <= (q ** b - 1) * (q ** (a - 1) - 1)
            assert minus == (a >= b)
            plus = (q ** a + 1) * (q ** (b - 1) + 1) <= (q ** b + 1) * (q ** (a - 1) + 1)
            assert plus == (a <= b)


# ---------------------------------------------------------------------------
# pentagonal enclosures
# ---------------------------------------------------------------------------

def test_euler_anchors():
    assert euler_interval(2, 15).lo > Fraction("0.2887")
    # certified: prod(1 - 4^-i) lies strictly between 0.6876 and 0.6886
    four = euler_interval(4, 7)
    assert four.lo > Fraction("0.6876")
    assert four.hi < Fraction("0.6886")


def test_euler_large_q():
    ival = euler_interval(10 ** 6, 5)
    assert ival.lo > Fraction("0.9999") and ival.hi < 1


def test_euler_nesting():
    for q in (2, 3, 5):
        for m in range(5, 30):
            assert euler_interval(q, m + 1).subset_of(euler_interval(q, m))


def test_partial_products_inside_enclosure():
    for q in (2, 3):
        for m in (8, 12):
            ival = euler_interval(q, m)
            for n in range(m, 3 * m):
                partial = Fraction(1)
                for i in range(1, n + 1):
                    partial *= 1 - Fraction(1, q ** i)
                # partial products overshoot the limit from above but must
                # stay within hi; the limit itself is enclosed
                assert partial >= ival.lo
    full = euler_interval(2, 30)
    approx = 1.0
    for i in range(1, 200):
        approx *= 1 - 0.5 ** i
    assert float(full.lo) <= approx <= float(full.hi)


def test_plus_product_identity_exact():
    # prod (1 + x_i) == prod(1 - x_i^2)/prod(1 - x_i) over any finite window
    for q in (2, 3):
        for k in (1, 2, 5):
            for top in (6, 11):
                lhs = Fraction(1)
                num = Fraction(1)
                den = Fraction(1)
                for i in range(k, top + 1):
                    lhs *= 1 + Fraction(1, q ** i)
                    num *= 1 - Fraction(1, q ** (2 * i))
                    den *= 1 - Fraction(1, q ** i)
                assert lhs == num / den


def test_tail_and_plus_enclosures():
    # prod_{i>=2}(1 - 2^-i) = 2 * prod_{i>=1}(1 - 2^-i), around 0.5776
    tail = euler_tail_interval(2, 2)
    assert tail.lo > Fraction(9, 16) and tail.hi < Fraction("0.578")
    plus = one_plus_interval(2, 1)
    assert plus.lo > Fraction("2.384") and plus.hi < Fraction("2.4")
    assert one_plus_interval(2, 5).hi < Fraction(16, 15)


def test_product_bound_suite_to_16():
    report = product_bound_suite(16)
    assert report["ok"]
    assert set(report["per_q"]) == set(range(2, 17))


def test_alternating_product_bounds():
    for q in (2, 3, 7):
        for n in range(1, 51):
            p = alternating_product(q, n)
            assert 1 < p <= Fraction(3, 2)


# ---------------------------------------------------------------------------
# certified transcendentals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [Fraction(1, 7), Fraction(3, 2), Fraction(10), Fraction(441, 5)])
def test_ln_interval_contains_true_value(x):
    ival = ln_interval(x)
    assert ival.lo <= Fraction(math.log(x)) + Fraction(1, 10 ** 9)
    assert ival.hi >= Fraction(math.log(x)) - Fraction(1, 10 ** 9)
    assert ival.width < Fraction(1, 10 ** 20)


@pytest.mark.parametrize("x", [Fraction(-3), Fraction(0), Fraction(1, 3), Fraction(9, 2)])
def test_exp_interval_contains_true_value(x):
    ival = exp_interval(x)
    assert float(ival.lo) <= math.exp(x) <= float(ival.hi)
    assert ival.width / ival.hi < Fraction(1, 10 ** 20)


def test_log_base_and_pow():
    lg = log_base_interval(8, 2)
    assert lg.contains(3)
    p = pow_interval(RationalInterval.point(Fraction(4)), Fraction(3, 2))
    assert p.contains(8)
    p2 = pow_interval(RationalInterval.point(Fraction(2)), Fraction(254, 100))
    assert float(p2.lo) <= 2 ** 2.54 <= float(p2.hi)


def test_interval_arithmetic():
    a = RationalInterval(Fraction(1), Fraction(2))
    b = RationalInterval(Fraction(-1), Fraction(3))
    assert (a + b).lo == 0 and (a + b).hi == 5
    assert (a * b).lo == -2 and (a * b).hi == 6
    assert (a / RationalInterval(Fraction(2), Fraction(4))).lo == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        a / b
    with pytest.raises(ValueError):
        RationalInterval(Fraction(2), Fraction(1))


# ---------------------------------------------------------------------------
# series kernels: Fraction-loop references and an mpmath oracle
# ---------------------------------------------------------------------------

def _ref_tidy(lo: Fraction, hi: Fraction, bits: int = 192) -> tuple[Fraction, Fraction]:
    scale = 1 << bits
    return (Fraction(math.floor(lo * scale), scale),
            Fraction(-math.floor(-hi * scale), scale))


def _ref_atanh_interval(t: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """The term-by-term Fraction sum that the integer kernel replaced."""
    s = Fraction(0)
    p = t
    t2 = t * t
    for i in range(terms):
        s += p / (2 * i + 1)
        p *= t2
    tail = abs(p) / ((2 * terms + 1) * (1 - t2))
    return _ref_tidy(s - tail, s + tail)


def _ref_exp_interval(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    k = 0
    while abs(x) > Fraction(1, 2):
        x /= 2
        k += 1
    s = Fraction(0)
    p = Fraction(1)
    for i in range(terms + 1):
        s += p
        p = p * x / (i + 1)
    tail = 2 * abs(x) ** (terms + 1) / math.factorial(terms + 1)
    lo, hi = _ref_tidy(s - tail, s + tail)
    assert lo > 0
    for _ in range(k):
        lo, hi = _ref_tidy(lo * lo, hi * hi)
    return lo, hi


@st.composite
def _rationals(draw, limit):
    """a/b with |a| <= limit(b), for a denominator b of 1 to 400 bits."""
    bits = draw(st.integers(1, 400))
    den = draw(st.integers(2 ** (bits - 1), 2 ** bits))
    top = limit(den)
    return Fraction(draw(st.integers(-top, top)), den)


@given(_rationals(lambda b: (b - 1) // 2), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_atanh_kernel_matches_fraction_reference(t, terms):
    ival = qexact._atanh_interval(t, terms)
    assert (ival.lo, ival.hi) == _ref_atanh_interval(t, terms)


@given(_rationals(lambda b: 40 * b), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_exp_kernel_matches_fraction_reference(x, terms):
    ival = exp_interval(x, terms)
    assert (ival.lo, ival.hi) == _ref_exp_interval(x, terms)


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(-1, 2), Fraction(7, 9), Fraction(3)])
def test_atanh_kernel_rejects_arguments_outside_its_range(t):
    with pytest.raises(ValueError):
        qexact._atanh_interval(t, 28)


def test_atanh_kernel_rejects_empty_series():
    with pytest.raises(ValueError):
        qexact._atanh_interval(Fraction(1, 3), 0)


def _mp_fraction(v) -> Fraction:
    man, exp = v.man_exp           # man_exp drops the sign
    return int(mpmath.sign(v)) * Fraction(man) * Fraction(2) ** exp


_ORACLE_ARGS = [Fraction(1, 10 ** 6), Fraction(1, 7), Fraction(2, 3), Fraction(1),
                Fraction(3, 2), Fraction(10), Fraction(441, 5), Fraction(2 ** 100 + 1, 3 ** 50)]


@pytest.mark.parametrize("x", _ORACLE_ARGS)
def test_ln_interval_contains_mpmath_log(x):
    with mpmath.workdps(100):
        ref = _mp_fraction(mpmath.log(mpmath.mpf(x.numerator) / x.denominator))
    for terms in (5, 28):
        assert ln_interval(x, terms).contains(ref)


@pytest.mark.parametrize("x", [-v for v in _ORACLE_ARGS] + _ORACLE_ARGS[:-1] + [Fraction(-40), Fraction(40)])
def test_exp_interval_contains_mpmath_exp(x):
    with mpmath.workdps(100):
        ref = _mp_fraction(mpmath.exp(mpmath.mpf(x.numerator) / x.denominator))
    for terms in (10, 26):
        assert exp_interval(x, terms).contains(ref)
