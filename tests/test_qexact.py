import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from lie_degrees import qexact
from lie_degrees.qexact import (
    RationalInterval,
    alternating_product,
    alternating_products,
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
    assert bracket((1, 2, 3), -2) == (-3) * 3 * (-9)  # |GU_3(2)|_{2'} at -q


def test_bracket_validation():
    with pytest.raises(ValueError):
        bracket((2, 2), 2)
    for q in (1, 0, -1):
        with pytest.raises(ValueError):
            bracket((1,), q)


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


def test_running_alternating_products_equal_the_direct_ones():
    for q in range(2, 8):
        assert list(alternating_products(q, 50)) == [alternating_product(q, n)
                                                     for n in range(1, 51)]
    assert list(alternating_products(2, 0)) == []


def test_product_bound_suite_fails_on_a_product_above_three_halves(monkeypatch):
    monkeypatch.setattr(qexact, "alternating_products",
                        lambda q, n_max: iter([Fraction(5, 4), Fraction(8, 5)]))
    report = product_bound_suite(3)
    assert not report["ok"]
    assert [checks["alternating"] for checks in report["per_q"].values()] == [False, False]


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
    half = Fraction(1, 2)  # a Fraction endpoint is kept, anything else converted
    ival = RationalInterval(half, "3/2")
    assert ival.lo is half and ival == (half, Fraction(3, 2))
    assert type(RationalInterval(1, 2).hi) is Fraction
    # `in` tests membership in the interval, not equality with an endpoint
    assert half in RationalInterval(0, 1) and 1 in RationalInterval(0, 1)
    assert 2 not in RationalInterval(0, 1)


def _reference_product(x, y) -> RationalInterval:
    """[min, max] of the four endpoint products, for every sign pattern."""
    prods = [a * b for a in x for b in y]
    return RationalInterval(min(prods), max(prods))


def _reference_pow(x, k: int) -> RationalInterval:
    """int_pow's square-and-multiply on _reference_product."""
    if k < 0:
        lo, hi = _reference_pow(x, -k)
        if lo <= 0 <= hi:
            raise ZeroDivisionError
        return _reference_product((Fraction(1),), (1 / hi, 1 / lo))
    out, base = RationalInterval.point(1), x
    while k:
        if k & 1:
            out = _reference_product(out, base)
        base = _reference_product(base, base)
        k >>= 1
    return out


_SIGNS = ("nonnegative", "nonpositive", "straddling")
_ENDPOINTS = st.fractions(max_denominator=10 ** 12)


@st.composite
def _intervals(draw):
    """An interval of the drawn sign pattern, zero endpoints included."""
    a, b = abs(draw(_ENDPOINTS)), abs(draw(_ENDPOINTS))
    sign = draw(st.sampled_from(_SIGNS))
    if sign == "nonnegative":
        return RationalInterval(min(a, b), max(a, b))
    if sign == "nonpositive":
        return RationalInterval(-max(a, b), -min(a, b))
    return RationalInterval(-a, b)


@given(_intervals(), _intervals())
@settings(max_examples=300, deadline=None)
def test_interval_products_match_the_four_product_reference(x, y):
    assert x * y == _reference_product(x, y)
    for scalar in y:
        assert x * scalar == scalar * x == _reference_product(x, (scalar,))
    if y.lo <= 0 <= y.hi:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert x / y == _reference_product(x, (1 / y.hi, 1 / y.lo))
    assert all(type(end) is Fraction for end in x * y)


@given(_intervals(), st.integers(-5, 7))
@settings(max_examples=200, deadline=None)
def test_int_pow_matches_the_four_product_reference(x, k):
    try:
        expected = _reference_pow(x, k)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x.int_pow(k)
    else:
        assert x.int_pow(k) == expected


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


# ---------------------------------------------------------------------------
# guarded fixed-point sums: their error bounds, and the exact fallback
# ---------------------------------------------------------------------------

_W = qexact._WORK_BITS


def _atanh_sum_and_tail(t: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    s = sum(t ** (2 * i + 1) / (2 * i + 1) for i in range(terms))
    return s, abs(t) ** (2 * terms + 1) / ((2 * terms + 1) * (1 - t * t))


def _exp_sum_and_tail(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    s = sum(x ** i / math.factorial(i) for i in range(terms + 1))
    return s, 2 * abs(x) ** (terms + 1) / math.factorial(terms + 1)


def _within(fixed: tuple[int, int], exact: tuple[Fraction, Fraction], bound) -> bool:
    """fixed = (sum, tail) at scale 2^W, and both sum -+ tail are within bound
    of (S -+ tau) 2^W, exact = (S, tau)."""
    (acc, tail), (s, tau) = fixed, exact
    return all(abs(acc + sign * tail - (s + sign * tau) * 2 ** _W) < bound
               for sign in (-1, 1))


@given(_rationals(lambda b: (b - 1) // 2), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_atanh_fixed_sum_is_within_its_error_bound(t, terms):
    t = abs(t)
    fixed = qexact._atanh_fixed(t.numerator, t.denominator, terms)
    exact = _atanh_sum_and_tail(t, terms)
    assert _within(fixed, exact, Fraction(7 * terms, 3) + 1)   # the proven bound
    assert _within(fixed, exact, 4 * terms + 8)                 # E, as _settle uses it


@given(_rationals(lambda b: b // 2), st.integers(0, 30))
@settings(max_examples=150, deadline=None)
def test_exp_fixed_sum_is_within_its_error_bound(x, terms):
    fixed = qexact._exp_fixed(x.numerator, x.denominator, terms)
    exact = _exp_sum_and_tail(x, terms)
    assert _within(fixed, exact, 2 * terms + 2)
    assert _within(fixed, exact, 4 * terms + 8)


def _settled(fixed: tuple[int, int], terms: int) -> tuple[Fraction, Fraction] | None:
    out = qexact._settle(*fixed, terms)
    return None if out is None else (Fraction(out[0], 2 ** 192), Fraction(out[1], 2 ** 192))


@given(_rationals(lambda b: (b - 1) // 2), _rationals(lambda b: b // 2), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_guarded_endpoints_are_the_reference_ones(t, x, terms):
    t = abs(t)
    atanh = _settled(qexact._atanh_fixed(t.numerator, t.denominator, terms), terms)
    assert atanh is None or atanh == _ref_atanh_interval(t, terms)
    exp = _settled(qexact._exp_fixed(x.numerator, x.denominator, terms), terms)
    assert exp is None or exp == _ref_exp_interval(x, terms)


@pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                               Fraction(2 ** 300 + 1, 3 ** 200)])
def test_guarded_sums_settle_on_ordinary_arguments(t):
    # the arguments ln 2, ln(3/2), ln(4/3) and a 300-bit one reduce to; the
    # fallback is for t = 0 and values on the grid
    for terms in (5, 28):
        assert _settled(qexact._atanh_fixed(t.numerator, t.denominator, terms), terms) \
            == _ref_atanh_interval(t, terms)
        assert _settled(qexact._exp_fixed(-t.numerator, t.denominator, terms), terms) \
            == _ref_exp_interval(-t, terms)


@given(_rationals(lambda b: (b - 1) // 2), _rationals(lambda b: 40 * b), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_exact_fallback_gives_the_same_endpoints(t, x, terms):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qexact, "_settle", lambda acc, tail, terms: None)
        atanh = qexact._atanh_interval(t, terms)
        exp = exp_interval(x, terms)
    assert (atanh.lo, atanh.hi) == _ref_atanh_interval(t, terms)
    assert (exp.lo, exp.hi) == _ref_exp_interval(x, terms)


def _ref_ln_shift(x: Fraction) -> int:
    """The power of two that the halving and doubling loops divide x by."""
    k = 0
    while x > Fraction(3, 2):
        x /= 2
        k += 1
    while x < Fraction(3, 4):
        x *= 2
        k -= 1
    return k


def _ref_ln_interval(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    k = _ref_ln_shift(x)
    y = x / Fraction(2) ** k
    lo, hi = _ref_atanh_interval((y - 1) / (y + 1), terms)
    half_lo, half_hi = _ref_atanh_interval(Fraction(1, 3), terms)
    ends = (2 * k * half_lo, 2 * k * half_hi)
    return 2 * lo + min(ends), 2 * hi + max(ends)


def test_ln_shift_matches_the_loops_where_two_shifts_fit():
    # x = 3/2 2^j is 3/2 or 3/4 times a power of two: the loops reduce it to
    # 3/2 when x >= 3/2 and to 3/4 when x <= 3/4
    for j in range(-80, 81):
        for x in (Fraction(3, 2) * Fraction(2) ** j, Fraction(3, 4) * Fraction(2) ** j):
            assert qexact._ln_shift(x.numerator, x.denominator) == _ref_ln_shift(x), x
    assert qexact._ln_shift(3, 2) == 0 and qexact._ln_shift(3, 4) == 0
    assert qexact._ln_shift(3, 1) == 1 and qexact._ln_shift(3, 8) == -1


@given(_rationals(lambda b: 2 ** 70 * b), st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_ln_interval_matches_the_loop_reference(x, terms):
    x = abs(x) or Fraction(1)
    assert qexact._ln_shift(x.numerator, x.denominator) == _ref_ln_shift(x)
    ival = ln_interval(x, terms)
    assert (ival.lo, ival.hi) == _ref_ln_interval(x, terms)


@pytest.mark.parametrize("terms", [1, 5, 28])
def test_ln_of_one_and_exp_of_zero_are_exact_points(terms):
    assert ln_interval(1, terms) == RationalInterval.point(0)
    assert exp_interval(0, terms) == RationalInterval.point(1)


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


def test_log_base_interval_takes_ln_of_the_base_once(monkeypatch):
    args = [(x, base) for base in (2, 3, 5) for x in (Fraction(7, 3), 10, 41, Fraction(1, 9))]
    expected = [ln_interval(x) / ln_interval(base) for x, base in args]
    qexact._ln_base.cache_clear()
    ln = qexact.ln_interval
    seen = []
    monkeypatch.setattr(qexact, "ln_interval", lambda x, terms=28: seen.append(x) or ln(x, terms))
    assert [log_base_interval(x, base) for x, base in args] == expected
    assert [seen.count(base) for base in (2, 3, 5)] == [1, 1, 1]
    qexact._ln_base.cache_clear()
