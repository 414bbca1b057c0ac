"""Exact arithmetic in the parameter q: bracket ratios and certified enclosures.

The bracket products [c] = prod (q^{c_i} - 1) themselves are computed in the
leaf module orders, next to the group-order table built on them; qexact.bracket
is that function, imported from there.

All comparisons are decided in exact rational arithmetic.  Infinite products
over i of (1 - q^-i) are enclosed in rational intervals via the pentagonal
number series with an explicit geometric tail bound; logarithms, exponentials
and fractional powers are enclosed with truncated series plus tail bounds, so
every verdict produced here is a certificate.

Each enclosure of the atanh (for ln) and exp series is [S - tau, S + tau],
S the truncated sum and tau the tail bound, rounded outward once to the
2^-192 grid.  The sum is first taken in fixed point with 64 guard bits, at
scale 2^256, where every term is one integer product and floor division; each
kernel proves that the fixed-point S -+ tau is within E = 4T + 8 units of the
true value (T terms).  When both ends of that +-E window round to the same
grid point, that point is the endpoint (Ziv's rounding test); otherwise, as
always at t = 0, exp(0) and other values on the grid, the exact kernel runs:
the sum as one integer over one common denominator, the tail over the same
denominator.  Either way the endpoints are the same rationals.  Arguments are
reduced in integers (ln to [3/4, 3/2] by a power of two found from bit
lengths, exp halved to |x| <= 1/2), ln's 2 atanh + k ln 2 is added on the
integer mantissas, and the squarings that undo exp's halving run on the
mantissas at scale 2^192.

The kernels _ln_mantissas and _exp_mantissas take and return integers, and
pow_interval chains them: ln of each endpoint, the product with the exponent
u/v rounded outward to the grid in integers, then exp.  A Fraction is built
only for the endpoints a public function returns (_dyadic): two each for
ln_interval, exp_interval and pow_interval; log_base_interval divides the
Fraction ends of ln(x) by those of ln(base), each by the end that moves it
outward.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from . import _check_int, _record
from .orders import _check_bracket_seq, bracket, check_q


class RationalInterval(_record("RationalInterval", "lo hi")):
    """A closed interval [lo, hi] with exact rational endpoints.

    A validated namedtuple: it unpacks as (lo, hi) and equals that plain
    tuple.  An endpoint that is already a Fraction is kept as it is; anything
    else (an int, a string) is converted once.
    """

    __slots__ = ()

    def __new__(cls, lo, hi):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    __contains__ = contains  # `x in ival` is membership, not endpoint equality

    def subset_of(self, other: "RationalInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def __add__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> "RationalInterval":
        a, b = self
        c, d = _as_interval(other)
        if a.numerator >= 0 and c.numerator >= 0:  # both nonnegative: no sign flips
            return RationalInterval(a * c, b * d)
        prods = (a * c, a * d, b * c, b * d)
        return RationalInterval(min(prods), max(prods))

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        lo, hi = other
        if lo.numerator <= 0 <= hi.numerator:
            raise ZeroDivisionError(f"division by interval containing 0: {other}")
        return self * RationalInterval(1 / hi, 1 / lo)

    def int_pow(self, k: int) -> "RationalInterval":
        if k < 0:
            return RationalInterval.point(1) / self.int_pow(-k)
        out = RationalInterval.point(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def strictly_above(self, x) -> bool:
        return self.lo > Fraction(x)

    def strictly_below(self, x) -> bool:
        return self.hi < Fraction(x)


def _as_interval(x) -> RationalInterval:
    if isinstance(x, RationalInterval):
        return x
    return RationalInterval.point(x)


# ---------------------------------------------------------------------------
# bracket ratios, on the bracket products [c] = prod (q^{c_i} - 1) of orders
# ---------------------------------------------------------------------------

def bracket_ratio_bounds(c: Iterable[int], q: int, form: str = "minus") -> tuple[bool, bool]:
    """Exact checks of the two-sided ratio bounds for shifted bracket products.

    form="minus" (requires c_1 >= 2): verifies q^s < [c]/[c-1] < q^{s+1}.
    form="plus" (requires c_1 >= 1): verifies q^s/2 < prod (q^{c_i}+1)/(q^{c_i-1}+1) < q^s.
    Returns (lower_ok, upper_ok) with both inequalities decided exactly.
    """
    seq = _check_bracket_seq(c)
    check_q(q)
    s = len(seq)
    if form == "minus":
        if not seq or seq[0] < 2:
            raise ValueError("minus form needs c_1 >= 2")
        num = bracket(seq, q)
        den = bracket(tuple(x - 1 for x in seq), q)
        return (q ** s * den < num, num < q ** (s + 1) * den)
    if form == "plus":
        num = 1
        den = 1
        for ci in seq:
            num *= q ** ci + 1
            den *= q ** (ci - 1) + 1
        return (q ** s * den < 2 * num, num < q ** s * den)
    raise ValueError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# pentagonal enclosures of prod_{i>=1} (1 - q^{-i})
# ---------------------------------------------------------------------------

def _pentagonal_terms(m: int):
    """(sign, exponent) terms of the pentagonal series with exponent <= m."""
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        sign = -1 if k % 2 else 1
        if e1 > m:
            return
        yield sign, e1
        if e2 <= m:
            yield sign, e2
        k += 1


@lru_cache(maxsize=256, typed=True)
def euler_interval(q: int, m: int = 40) -> RationalInterval:
    """Certified enclosure of prod_{i>=1}(1 - q^{-i}).

    Partial sum of the pentagonal series up to exponent m; the omitted terms
    have distinct exponents > m, so their total is at most sum_{i>m} q^{-i}.
    Cached, since the interval is immutable and product_bound_suite asks
    for the same q and q^2 several times each; typed, so that a float q
    raises even after the same int q was cached.
    """
    check_q(q)
    _check_int(m, 2, "truncation order m")
    s = Fraction(1)
    for sign, e in _pentagonal_terms(m):
        s += Fraction(sign, q ** e)
    tail = Fraction(1, q ** m * (q - 1))
    return RationalInterval(s - tail, s + tail)


def euler_tail_interval(q: int, k: int, m: int = 40) -> RationalInterval:
    """Certified enclosure of prod_{i>=k}(1 - q^{-i})."""
    check_q(q)
    _check_int(k, 1, "k")
    head = Fraction(1)
    for i in range(1, k):
        head *= 1 - Fraction(1, q ** i)
    return euler_interval(q, m) / head


def one_plus_interval(q: int, k: int = 1, m: int = 40) -> RationalInterval:
    """Certified enclosure of prod_{i>=k}(1 + q^{-i}).

    Uses prod(1 + x_i) = prod(1 - x_i^2) / prod(1 - x_i) with x_i = q^{-i}.
    """
    den = euler_tail_interval(q, k, m)  # first: it checks q, and True * True is 1
    num = euler_tail_interval(q * q, k, m)
    if den.lo <= 0:
        raise ArithmeticError("truncation too coarse for a positive enclosure")
    return num / den


def alternating_product(q: int, n: int) -> Fraction:
    """prod_{i=1}^{n} (1 - (-1/q)^i), exactly."""
    x = Fraction(-1, check_q(q))
    out = Fraction(1)
    for i in range(1, _check_int(n, 0, "n") + 1):
        out *= 1 - x ** i
    return out


def alternating_products(q: int, n_max: int) -> Iterator[Fraction]:
    """alternating_product(q, n) for n = 1, ..., n_max, as one running
    product.  The arguments are checked at the call."""
    x = Fraction(-1, check_q(q))
    _check_int(n_max, 0, "n_max")

    def running() -> Iterator[Fraction]:
        power = out = Fraction(1)
        for _ in range(n_max):
            power *= x
            out *= 1 - power
            yield out
    return running()


def product_bound_suite(q_max: int, m: int = 40, n_max: int = 50) -> dict:
    """Verify the four families of infinite-product bounds for 2 <= q <= q_max.

    (i)  prod(1-q^{-i}) > 1 - 1/q - 1/q^2 + 1/q^5 >= exp(-a/q), a = 2 ln(32/9);
         the exp comparison is the exact rational inequality poly^q >= 81/1024.
    (ii) prod_{i>=2}(1-q^{-i}) > 9/16.
    (iii) prod_{i>=k}(1+q^{-i}) below 2.4 / 1.6 / 1.28 / 16/15 for k = 1,2,3,5.
    (iv) 1 < prod_{i=1}^{n}(1-(-1/q)^i) <= 3/2 for 1 <= n <= n_max.
    """
    _check_int(q_max, 2, "q_max")
    plus_caps = {1: Fraction("2.4"), 2: Fraction("1.6"),
                 3: Fraction("1.28"), 5: Fraction(16, 15)}
    per_q = {}
    for q in range(2, q_max + 1):
        poly = 1 - Fraction(1, q) - Fraction(1, q ** 2) + Fraction(1, q ** 5)
        checks = {
            "poly_lower": euler_interval(q, m).strictly_above(poly),
            # poly >= exp(-2 ln(32/9)/q) = (9/32)^{2/q}  <=>  poly^q >= 81/1024
            "poly_vs_exp": poly > 0 and poly ** q >= Fraction(81, 1024),
            "from2_gt_9_16": euler_tail_interval(q, 2, m).strictly_above(Fraction(9, 16)),
        }
        for k, cap in plus_caps.items():
            checks[f"plus_k{k}"] = one_plus_interval(q, k, m).strictly_below(cap)
        checks["alternating"] = all(1 < p <= Fraction(3, 2)
                                    for p in alternating_products(q, n_max))
        per_q[q] = checks
    return {"ok": all(all(c.values()) for c in per_q.values()), "per_q": per_q}


# ---------------------------------------------------------------------------
# certified ln / exp / powers on rationals
# ---------------------------------------------------------------------------

_TIDY_BITS = 192
_GUARD_BITS = 64
_WORK_BITS = _TIDY_BITS + _GUARD_BITS


def _round_out(lo_num: int, hi_num: int, den: int) -> tuple[int, int]:
    """Mantissas of [lo_num/den, hi_num/den] rounded outward to 2^-_TIDY_BITS."""
    return (lo_num << _TIDY_BITS) // den, -((-hi_num << _TIDY_BITS) // den)


def _settle(acc: int, tail: int, terms: int) -> tuple[int, int] | None:
    """Ziv's rounding test on a series summed in fixed point at scale 2^W
    (W = _WORK_BITS): the mantissas [floor(L 2^192), ceil(H 2^192)] of the
    enclosure [L, H] = [S - tau, S + tau], or None when the error bound
    leaves either rounding open.

    acc -+ tail approximate (S -+ tau) 2^W to within E = 4 terms + 8 (each
    kernel proves its bound); floor and ceiling are monotone, so when both
    ends of acc - tail +- E floor to one mantissa, so does L 2^W, and likewise
    for H's ceiling.
    """
    err, g = 4 * terms + 8, _GUARD_BITS
    lo_num, hi_num = acc - tail, acc + tail
    lo = (lo_num - err) >> g
    hi = -((err - hi_num) >> g)
    if (lo_num + err) >> g != lo or -((-hi_num - err) >> g) != hi:
        return None
    return lo, hi


def _dyadic(lo: int, hi: int) -> RationalInterval:
    scale = 1 << _TIDY_BITS
    return RationalInterval(Fraction(lo, scale), Fraction(hi, scale))


def _atanh_fixed(a: int, b: int, terms: int) -> tuple[int, int]:
    """(sum, tail) for the truncated atanh series S of t = a/b, 0 <= a < b/2,
    and its tail tau, in fixed point at scale 2^W (W = _WORK_BITS): sum -+
    tail is within 7T/3 + 1 of (S -+ tau) 2^W.

    With P_i = t^{2i+1} 2^W the partial powers are p_0 = floor(a 2^W / b) and
    p_{i+1} = floor(p_i a^2 / b^2), so d_i = P_i - p_i has d_0 in [0, 1) and
    d_{i+1} = t^2 d_i + (a fraction in [0, 1)); as t^2 < 1/4, 0 <= d_i < 4/3.
    The term floor(p_i / (2i+1)) is below P_i / (2i+1) by less than 4/3 + 1,
    so the sum of T terms is below S 2^W by less than 7T/3.  The tail tau
    2^W = P_T c with c = b^2 / ((2T+1)(b^2 - a^2)) < 4/9 is taken as
    floor(p_T c) + 1, which is above P_T c - (4/3) c > P_T c - 1 and at most
    p_T c + 1 <= P_T c + 1.  The two errors add to less than 7T/3 + 1.
    """
    a2, b2 = a * a, b * b
    p = (a << _WORK_BITS) // b
    acc = 0
    for i in range(terms):
        acc += p // (2 * i + 1)
        p = p * a2 // b2
    return acc, p * b2 // ((2 * terms + 1) * (b2 - a2)) + 1


def _atanh_mantissas(a: int, b: int, terms: int) -> tuple[int, int]:
    """Mantissas at 2^-_TIDY_BITS of the enclosure of atanh(a/b) = sum
    t^{2i+1}/(2i+1), t = a/b, b > 0 and |t| < 1/2: the truncated sum S and
    the tail tau = |t|^{2T+1}/((2T+1)(1-t^2)), rounded outward to
    [floor((S - tau) 2^192), ceil((S + tau) 2^192)].

    The guarded fixed-point sum (_atanh_fixed, _settle) decides the rounding
    for |a| (atanh is odd, so -t gives [-hi, -lo]).  When it cannot (always
    at t = 0), the exact kernel runs: the truncated sum as one integer over
    b^{2T-1} lcm(1, 3, ..., 2T-1), the tail over the same denominator, each
    side rounded outward once.
    """
    if 2 * abs(a) >= b:
        raise ValueError(f"atanh series needs |t| < 1/2, got {Fraction(a, b)}")
    _check_int(terms, 1, "terms")
    guarded = _settle(*_atanh_fixed(abs(a), b, terms), terms)
    if guarded is not None:
        lo, hi = guarded
        return (lo, hi) if a >= 0 else (-hi, -lo)
    a2, b2 = a * a, b * b
    lcm = math.lcm(*range(1, 2 * terms, 2))
    # Horner: acc = sum_i (lcm/(2i+1)) a^{2i} b^{2(T-1-i)}, bpow = b^{2(T-1-i)}
    acc = lcm // (2 * terms - 1)
    bpow = 1
    for i in range(terms - 2, -1, -1):
        bpow *= b2
        acc = acc * a2 + (lcm // (2 * i + 1)) * bpow
    den = b * bpow * lcm                          # b^{2T-1} lcm
    # tail = |a|^{2T+1} lcm / (den (2T+1)(b^2 - a^2))
    scale = (2 * terms + 1) * (b2 - a2)
    num = a * acc * scale
    tail = abs(a) ** (2 * terms + 1) * lcm
    return _round_out(num - tail, num + tail, den * scale)


def _atanh_interval(t: Fraction, terms: int) -> RationalInterval:
    """Enclosure of atanh(t) for |t| < 1/2 (see _atanh_mantissas)."""
    t = Fraction(t)
    return _dyadic(*_atanh_mantissas(t.numerator, t.denominator, terms))


@lru_cache(maxsize=64)
def _ln2_mantissas(terms: int) -> tuple[int, int]:
    """Mantissas of ln 2 = 2 atanh(1/3)."""
    lo, hi = _atanh_mantissas(1, 3, terms)
    return 2 * lo, 2 * hi


def _min_shift(small: int, big: int) -> int:
    """The least k >= 0 with small 2^k >= big, for small > 0."""
    k = max(0, big.bit_length() - small.bit_length())
    return k + (small << k < big)


def _ln_shift(p: int, r: int) -> int:
    """The k with x/2^k in [3/4, 3/2] for x = p/r > 0 that halving x while it
    is above 3/2, then doubling it while it is below 3/4, would count: at x =
    3 2^j, reduced to 3/2 for x >= 3/2 and to 3/4 for x <= 3/4.  At most one
    of the two shifts is positive."""
    return _min_shift(3 * r, 2 * p) - _min_shift(4 * p, 3 * r)


def _ln_mantissas(p: int, r: int, terms: int) -> tuple[int, int]:
    """Mantissas at 2^-_TIDY_BITS of the enclosure of ln(p/r), p, r > 0, not
    necessarily coprime (every floor and ceiling taken is of a ratio of them).

    p/r is reduced to y = p/(r 2^k) in [3/4, 3/2], and ln(p/r) = 2 atanh(t)
    + k ln 2 with t = (y - 1)/(y + 1), |t| <= 1/5, formed in integers; the
    sum is taken on the mantissas, so it is already on the grid.
    """
    k = _ln_shift(p, r)
    p, r = (p, r << k) if k >= 0 else (p << -k, r)
    lo, hi = _atanh_mantissas(p - r, p + r, terms)
    lo, hi = 2 * lo, 2 * hi
    if k:
        ln2_lo, ln2_hi = _ln2_mantissas(terms)
        lo += k * (ln2_lo if k > 0 else ln2_hi)
        hi += k * (ln2_hi if k > 0 else ln2_lo)
    return lo, hi


def ln_interval(x, terms: int = 28) -> RationalInterval:
    """Certified enclosure of ln(x) for a positive rational x (see _ln_mantissas)."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln needs a positive argument")
    return _dyadic(*_ln_mantissas(x.numerator, x.denominator, terms))


def _exp_fixed(a: int, b: int, terms: int) -> tuple[int, int]:
    """(sum, tail) for the truncated exp series S of x = a/b, |x| <= 1/2,
    b > 0, and its tail tau, in fixed point at scale 2^W (W = _WORK_BITS):
    sum -+ tail is within 2T + 2 of (S -+ tau) 2^W.

    With P_i = x^i 2^W / i! the terms are p_0 = 2^W and p_i = floor(p_{i-1}
    a / (b i)), so d_i = P_i - p_i has d_0 = 0 and |d_i| < |x|/i |d_{i-1}|
    + 1 <= |d_{i-1}|/2 + 1, hence |d_i| < 2, and the sum of T + 1 terms is
    within 2T of S 2^W.  The tail tau 2^W = |P_T| c with c = 2|a|/(b(T+1))
    is taken as floor(|p_T| c) + 1; as |d_T| c < 1 (d_0 = 0, and c <= 1/2
    for T >= 1), it is within (-1, 2) of |P_T| c.  The two errors add to
    less than 2T + 2.
    """
    p = acc = 1 << _WORK_BITS
    for i in range(1, terms + 1):
        p = p * a // (b * i)
        acc += p
    return acc, 2 * abs(p * a) // (b * (terms + 1)) + 1


def _exp_mantissas(a: int, b: int, terms: int) -> tuple[int, int]:
    """Mantissas at 2^-_TIDY_BITS of the enclosure of exp(a/b), b > 0, a and b
    not necessarily coprime (every floor and ceiling taken is of a ratio of them).

    x = a/b is halved k times to |x| <= 1/2 (b becomes b 2^k); the sum S of
    x^i/i! for i <= T and the tail tau = 2|x|^{T+1}/(T+1)! give the
    mantissas [floor((S - tau) 2^192), ceil((S + tau) 2^192)], and the k
    squarings run on them at scale 2^_TIDY_BITS.

    The guarded fixed-point sum (_exp_fixed, _settle) decides the rounding;
    when it cannot (always at x = 0), the exact kernel runs: the sum as one
    integer over b^T T!, the tail over the same denominator, each side
    rounded outward once.
    """
    _check_int(terms, 0, "terms")
    k = _min_shift(b, 2 * abs(a))
    b <<= k
    guarded = _settle(*_exp_fixed(a, b, terms), terms)
    if guarded is not None:
        lo, hi = guarded
    else:
        # Horner: 1 + x/1 (1 + x/2 (... (1 + x/T))) as num/den, den = b^T T!
        num = den = 1
        for j in range(terms, 0, -1):
            den *= j * b
            num = num * a + den
        # tail = 2|a|^{T+1} / (den b (T+1))
        scale = b * (terms + 1)
        num *= scale
        tail = 2 * abs(a) ** (terms + 1)
        lo, hi = _round_out(num - tail, num + tail, den * scale)
    if lo <= 0:
        raise ArithmeticError("exp enclosure not positive; raise terms")
    for _ in range(k):
        lo = lo * lo >> _TIDY_BITS
        hi = -(-hi * hi >> _TIDY_BITS)
    return lo, hi


def exp_interval(x, terms: int = 26) -> RationalInterval:
    """Certified enclosure of exp(x) for a rational x (see _exp_mantissas)."""
    x = Fraction(x)
    return _dyadic(*_exp_mantissas(x.numerator, x.denominator, terms))


def log_base_interval(x, base: int, terms: int = 28) -> RationalInterval:
    """Certified enclosure of log_base(x) for rational x > 0 and integer base >= 2.

    The quotient of the enclosures of ln(x) and of ln(base), whose low end
    is positive: each endpoint of ln(x) is divided by the end of ln(base)
    that moves it outward.
    """
    _check_int(base, 2, "base")
    (lo, hi), (b_lo, b_hi) = ln_interval(x, terms), _ln_base(base, terms)
    return RationalInterval(lo / (b_hi if lo.numerator >= 0 else b_lo),
                            hi / (b_lo if hi.numerator >= 0 else b_hi))


@lru_cache(maxsize=64)
def _ln_base(base: int, terms: int) -> RationalInterval:
    """ln_interval of an integer base, shared by every log_base_interval call."""
    return ln_interval(base, terms)


def pow_interval(ival: RationalInterval, exponent, terms: int = 28) -> RationalInterval:
    """Certified enclosure of ival^exponent for a positive interval and rational exponent.

    An integer exponent is int_pow.  Otherwise exp(u/v ln x) runs on the
    2^-192 mantissas: the outer ends of ln(ival) times u/v, rounded outward in
    integers, then the outer ends of exp of each; only the two returned
    endpoints are Fractions.
    """
    u, v = Fraction(exponent).as_integer_ratio()
    if v == 1:
        return ival.int_pow(u)
    lo, hi = ival
    if lo.numerator <= 0:
        raise ValueError("fractional powers need a positive interval")
    # u times the outer ends of ln(ival), low end first (swapped when u < 0)
    t_lo, t_hi = sorted((_ln_mantissas(lo.numerator, lo.denominator, terms)[0] * u,
                         _ln_mantissas(hi.numerator, hi.denominator, terms)[1] * u))
    return _dyadic(_exp_mantissas(t_lo // v, 1 << _TIDY_BITS, terms)[0],
                   _exp_mantissas(-(-t_hi // v), 1 << _TIDY_BITS, terms)[1])
