"""Exact arithmetic in the parameter q: bracket products and certified enclosures.

All comparisons are decided in exact rational arithmetic.  Infinite products
over i of (1 - q^-i) are enclosed in rational intervals via the pentagonal
number series with an explicit geometric tail bound; logarithms, exponentials
and fractional powers are enclosed with truncated series plus tail bounds, so
every verdict produced here is a certificate.

The atanh (for ln) and exp series are summed in integer arithmetic as one
numerator over one common denominator; the tail bound is put over the same
denominator and each endpoint is rounded outward once to the 2^-192 grid, so
no gcd is taken per term.  The squarings that undo exp's argument halving run
on the integer mantissas at scale 2^192.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator


@dataclass(frozen=True)
class RationalInterval:
    """A closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo = Fraction(self.lo)
        hi = Fraction(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"empty interval: [{lo}, {hi}]")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def subset_of(self, other: "RationalInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def __add__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        return RationalInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        return RationalInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return RationalInterval(min(prods), max(prods))

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalInterval":
        other = _as_interval(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError(f"division by interval containing 0: {other}")
        inv = RationalInterval(1 / other.hi, 1 / other.lo)
        return self * inv

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
# bracket products [c] = prod (q^{c_i} - 1)
# ---------------------------------------------------------------------------

def _check_bracket_seq(c: Iterable[int]) -> tuple[int, ...]:
    seq = tuple(int(x) for x in c)
    if any(a >= b for a, b in zip(seq, seq[1:])):
        raise ValueError(f"bracket sequence must be strictly increasing: {seq}")
    if seq and seq[0] < 1:
        raise ValueError(f"bracket sequence entries must be positive: {seq}")
    return seq


def bracket(c: Iterable[int], q: int) -> int:
    """[c] = prod(q^{c_i} - 1) over the strictly increasing sequence c.

    q may be negative (|q| >= 2): at -q the bracket is, up to sign, the
    unitary counterpart of the one at q (Ennola duality).
    """
    seq = _check_bracket_seq(c)
    if abs(q) < 2:
        raise ValueError("|q| must be >= 2")
    out = 1
    for ci in seq:
        out *= q ** ci - 1
    return out


def bracket_ratio_bounds(c: Iterable[int], q: int, form: str = "minus") -> tuple[bool, bool]:
    """Exact checks of the two-sided ratio bounds for shifted bracket products.

    form="minus" (requires c_1 >= 2): verifies q^s < [c]/[c-1] < q^{s+1}.
    form="plus" (requires c_1 >= 1): verifies q^s/2 < prod (q^{c_i}+1)/(q^{c_i-1}+1) < q^s.
    Returns (lower_ok, upper_ok) with both inequalities decided exactly.
    """
    seq = _check_bracket_seq(c)
    if q < 2:
        raise ValueError("q must be >= 2")
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


def euler_interval(q: int, m: int = 40) -> RationalInterval:
    """Certified enclosure of prod_{i>=1}(1 - q^{-i}).

    Partial sum of the pentagonal series up to exponent m; the omitted terms
    have distinct exponents > m, so their total is at most sum_{i>m} q^{-i}.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 2:
        raise ValueError("truncation order m must be >= 2")
    s = Fraction(1)
    for sign, e in _pentagonal_terms(m):
        s += Fraction(sign, q ** e)
    tail = Fraction(1, q ** m * (q - 1))
    return RationalInterval(s - tail, s + tail)


def euler_tail_interval(q: int, k: int, m: int = 40) -> RationalInterval:
    """Certified enclosure of prod_{i>=k}(1 - q^{-i})."""
    if k < 1:
        raise ValueError("k must be >= 1")
    head = Fraction(1)
    for i in range(1, k):
        head *= 1 - Fraction(1, q ** i)
    return euler_interval(q, m) / head


def one_plus_interval(q: int, k: int = 1, m: int = 40) -> RationalInterval:
    """Certified enclosure of prod_{i>=k}(1 + q^{-i}).

    Uses prod(1 + x_i) = prod(1 - x_i^2) / prod(1 - x_i) with x_i = q^{-i}.
    """
    num = euler_tail_interval(q * q, k, m)
    den = euler_tail_interval(q, k, m)
    if den.lo <= 0:
        raise ArithmeticError("truncation too coarse for a positive enclosure")
    return num / den


def alternating_product(q: int, n: int) -> Fraction:
    """prod_{i=1}^{n} (1 - (-1/q)^i), exactly."""
    x = Fraction(-1, q)
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= 1 - x ** i
    return out


def alternating_products(q: int, n_max: int) -> Iterator[Fraction]:
    """alternating_product(q, n) for n = 1, ..., n_max, as one running product."""
    x = Fraction(-1, q)
    power = out = Fraction(1)
    for _ in range(n_max):
        power *= x
        out *= 1 - power
        yield out


def product_bound_suite(q_max: int, m: int = 40, n_max: int = 50) -> dict:
    """Verify the four families of infinite-product bounds for 2 <= q <= q_max.

    (i)  prod(1-q^{-i}) > 1 - 1/q - 1/q^2 + 1/q^5 >= exp(-a/q), a = 2 ln(32/9);
         the exp comparison is the exact rational inequality poly^q >= 81/1024.
    (ii) prod_{i>=2}(1-q^{-i}) > 9/16.
    (iii) prod_{i>=k}(1+q^{-i}) below 2.4 / 1.6 / 1.28 / 16/15 for k = 1,2,3,5.
    (iv) 1 < prod_{i=1}^{n}(1-(-1/q)^i) <= 3/2 for 1 <= n <= n_max.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
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


def _tidy(ival: RationalInterval, bits: int = _TIDY_BITS) -> RationalInterval:
    """Outward-round endpoints to denominator 2^bits.

    Keeps the enclosure valid while stopping denominator growth through
    chained series evaluations.
    """
    scale = 1 << bits
    lo = Fraction(math.floor(ival.lo * scale), scale)
    hi = Fraction(-math.floor(-ival.hi * scale), scale)
    return RationalInterval(lo, hi)


def _round_out(lo_num: int, hi_num: int, den: int) -> tuple[int, int]:
    """Mantissas of [lo_num/den, hi_num/den] rounded outward to 2^-_TIDY_BITS."""
    return (lo_num << _TIDY_BITS) // den, -((-hi_num << _TIDY_BITS) // den)


def _dyadic(lo: int, hi: int) -> RationalInterval:
    scale = 1 << _TIDY_BITS
    return RationalInterval(Fraction(lo, scale), Fraction(hi, scale))


def _atanh_interval(t: Fraction, terms: int) -> RationalInterval:
    """Enclosure of atanh(t) = sum t^{2i+1}/(2i+1) for |t| < 1/2.

    With t = a/b the truncated sum is one integer over b^{2T-1} lcm(1, 3, ...,
    2T-1); the tail |t|^{2T+1}/((2T+1)(1-t^2)) is put over the same
    denominator and each side is rounded outward once.
    """
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    if 2 * abs(a) >= b:
        raise ValueError(f"atanh series needs |t| < 1/2, got {t}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
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
    return _dyadic(*_round_out(num - tail, num + tail, den * scale))


_LN2_CACHE: dict[int, RationalInterval] = {}


def ln2_interval(terms: int = 28) -> RationalInterval:
    if terms not in _LN2_CACHE:
        half = _atanh_interval(Fraction(1, 3), terms)
        _LN2_CACHE[terms] = half + half
    return _LN2_CACHE[terms]


def ln_interval(x, terms: int = 28) -> RationalInterval:
    """Certified enclosure of ln(x) for a positive rational x."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("ln needs a positive argument")
    k = 0
    while x > Fraction(3, 2):
        x /= 2
        k += 1
    while x < Fraction(3, 4):
        x *= 2
        k -= 1
    core = _atanh_interval((x - 1) / (x + 1), terms)
    out = core + core
    if k:
        ln2 = ln2_interval(terms)
        ends = (k * ln2.lo, k * ln2.hi)
        out = out + RationalInterval(min(ends), max(ends))
    return _tidy(out)


def exp_interval(x, terms: int = 26) -> RationalInterval:
    """Certified enclosure of exp(x) for a rational x.

    x is halved k times to |x| <= 1/2; with x = a/b the sum of x^i/i! for
    i <= T is one integer over b^T T!, the tail 2|x|^{T+1}/(T+1)! is put over
    the same denominator, each side is rounded outward once, and the k
    squarings run on the integer mantissas at scale 2^_TIDY_BITS.
    """
    x = Fraction(x)
    k = 0
    while abs(x) > Fraction(1, 2):
        x /= 2
        k += 1
    a, b = x.numerator, x.denominator
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
    return _dyadic(lo, hi)


def ln_of_interval(ival: RationalInterval, terms: int = 28) -> RationalInterval:
    return RationalInterval(ln_interval(ival.lo, terms).lo, ln_interval(ival.hi, terms).hi)


def exp_of_interval(ival: RationalInterval, terms: int = 26) -> RationalInterval:
    return RationalInterval(exp_interval(ival.lo, terms).lo, exp_interval(ival.hi, terms).hi)


def log_base_interval(x, base: int, terms: int = 28) -> RationalInterval:
    """Certified enclosure of log_base(x) for rational x > 0 and integer base >= 2."""
    if base < 2:
        raise ValueError("base must be >= 2")
    return ln_interval(x, terms) / _ln_base(base, terms)


@lru_cache(maxsize=64)
def _ln_base(base: int, terms: int) -> RationalInterval:
    """ln_interval of an integer base, shared by every log_base_interval call."""
    return ln_interval(base, terms)


def pow_interval(ival: RationalInterval, exponent, terms: int = 28) -> RationalInterval:
    """Certified enclosure of ival^exponent for a positive interval and rational exponent."""
    e = Fraction(exponent)
    if e.denominator == 1:
        return ival.int_pow(e.numerator)
    if ival.lo <= 0:
        raise ValueError("fractional powers need a positive interval")
    ln_i = ln_of_interval(ival, terms)
    return exp_of_interval(_tidy(ln_i * e), terms)
