"""Largest-degree machinery: group orders, irreducible polynomial counts,
exact b(GL_n(q)), the minimal-torus (Seitz) bound, logarithmic bound brackets,
epsilon certificates and the merge-move ratios over F_2.

Group ranks follow the matrix conventions: family A of rank n is SL_n, 2A is
SU_n, B/C rank n are Spin_{2n+1}/Sp_{2n}, D/2D rank n are Spin^{+-}_{2n}.

Family names are read from the package's family table, which maps each group
family A/2A/B/C/D/2D to its label family GL/GU/BC/D/2D.  Both parts of a
group order come from orders, the q'-part from the one cached table
order_pprime and the p-part from p_exponent, and the degree of a GL
centralizer type is an orders.QProduct.  b(GL_n(q)) is one memoized DP over
block kinds (_best_blocks): one block (k, d) at a time, field degree d
increasing.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import _LABEL_FAMILY, _check_int, _int_tuple, _record
from .orders import QProduct, check_q, check_rank, min_rank, order_pprime, p_exponent
from .qexact import (
    RationalInterval,
    log_base_interval,
    pow_interval,
)


class GroupSpec(_record("GroupSpec", "family n q")):
    """A group of the family (A, 2A, B, C, D, 2D) of rank n, in the matrix
    convention above, over the field of q elements, q a prime power."""

    __slots__ = ()

    def __new__(cls, family: str, n: int, q: int):
        if family not in _LABEL_FAMILY:
            raise ValueError(f"unknown family {family!r}")
        check_rank(family, n)
        check_field_order(q)
        return super().__new__(cls, family, n, q)


def order_parts(spec: GroupSpec) -> tuple[int, int]:
    """(|G|_p, |G|_{p'}) for the simply connected group of the family."""
    return spec.q ** p_exponent(spec.family, spec.n), order_pprime(spec.family, spec.n, spec.q)


def seitz_bound(spec: GroupSpec) -> int:
    """Upper bound |G|_{p'} / |T_0| for b(G), T_0 a minimal-order maximal torus.

    The torus order is lower-bounded per family ((q-1)^{n-1} for A, at least
    (q^2-1)^{n/2}/(q+1) for 2A, (q-1)^n otherwise); the quotient is rounded up
    so the returned integer is always a valid upper bound.
    """
    n, q = spec.n, spec.q
    _, pprime = order_parts(spec)
    if spec.family == "A":
        num, den = pprime, (q - 1) ** (n - 1)
    elif spec.family == "2A":
        num = pprime * (q + 1)
        if n % 2 == 0:
            den = (q * q - 1) ** (n // 2)
        else:
            den = math.isqrt((q * q - 1) ** n)  # floor of the torus lower bound
    else:
        num, den = pprime, (q - 1) ** n
    return -(-num // den)


# ---------------------------------------------------------------------------
# irreducible polynomial counts
# ---------------------------------------------------------------------------

# Miller-Rabin to these bases decides primality below _MR_PROVEN (Sorenson and
# Webster, 2015); above it a strong Lucas test completes the Baillie-PSW test,
# which no composite is known to pass.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_PROVEN or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    a, out = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, n odd and > 41."""
    if math.isqrt(n) ** 2 == n:  # no D below would ever have Jacobi symbol -1
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    U, V, Qk = 1, P, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = P * U + V, D * U + P * V
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _iroot(q: int, e: int) -> int:
    """floor(q^(1/e)) for q, e >= 1, by Newton's method from above."""
    x = 1 << -(-q.bit_length() // e)
    while True:
        y = ((e - 1) * x + q // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e if q is a prime power, else None.

    Tries each exponent e < log2(q) with the integer e-th root, so the cost
    grows with the bit length of q, not with sqrt(q).
    """
    if q < 2:
        return None
    for e in range(1, q.bit_length()):
        r = _iroot(q, e)
        if r ** e == q and _is_prime(r):
            return r, e
    return None


def check_field_order(q: int) -> None:
    """check_q's errors, or a ValueError unless q is a finite field's order."""
    if prime_power(check_q(q)) is None:
        raise ValueError("q must be a prime power")


@lru_cache(maxsize=200_000)
def _mobius(n: int) -> int:
    if n == 1:
        return 1
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if n > 1:
        out = -out
    return out


def count_irred(q: int, d: int) -> int:
    """Number of monic irreducible polynomials of degree d over F_q."""
    check_field_order(q)
    _check_int(d, 1, "degree")
    total = sum(_mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0)
    if total % d != 0:
        raise ArithmeticError(f"non-integral irreducible count for q={q}, d={d}")
    return total // d


def count_self_dual(q: int, d: int) -> int:
    """Monic irreducibles of degree d fixed by f(t) -> t^d f(1/t) (up to scalar),
    excluding t itself.

    Degree 1 contributes t - 1 and t + 1 (coinciding for even q); higher
    degrees are possible only for even d, counted through the elements of the
    norm-one subgroup of order q^{d/2} + 1 lying in no proper subfield.
    """
    check_field_order(q)
    if _check_int(d, 1, "degree") == 1:
        return math.gcd(2, q - 1)
    if d % 2 == 1:
        return 0
    h = q ** (d // 2) + 1
    total = sum(_mobius(d // m) * math.gcd(h, q ** m - 1)
                for m in range(1, d + 1) if d % m == 0)
    if total % d != 0 or total < 0:
        raise ArithmeticError(f"invalid self-dual count {total}/{d} for q={q}")
    return total // d


def count_irred_nondual(q: int, d: int) -> int:
    """Monic irreducibles of degree d with f != f-dual, excluding t."""
    base = count_irred(q, d) - (1 if d == 1 else 0)  # drop t itself
    return base - count_self_dual(q, d)


# ---------------------------------------------------------------------------
# exact b(GL_n(q)) over centralizer types
# ---------------------------------------------------------------------------

class CentralizerTypeGL(_record("CentralizerTypeGL", "blocks")):
    """Multiset of (k, d) blocks GL_k(q^d); canonically sorted by descending
    (k*d, d, k) so the two heaviest blocks come first."""

    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[int, int], ...]):
        blocks = tuple(sorted((_int_tuple((k, d), "block sizes") for k, d in blocks),
                              key=lambda kd: (-kd[0] * kd[1], -kd[1], -kd[0])))
        if any(k < 1 or d < 1 for k, d in blocks):
            raise ValueError(f"blocks need k, d >= 1: {blocks}")
        return super().__new__(cls, blocks)

    @property
    def n(self) -> int:
        return sum(k * d for k, d in self.blocks)

    def degree_multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, d in self.blocks:
            out[d] = out.get(d, 0) + 1
        return out

    def is_admissible(self, q: int) -> bool:
        return all(count <= _block_budget(q, d)
                   for d, count in self.degree_multiplicities().items())


@lru_cache(maxsize=4096, typed=True)
def _block_budget(q: int, d: int) -> int:
    # d = 1 blocks carry nonzero eigenvalues in F_q, so at most q - 1 of them
    # (typed and checked: enumerate_types and is_admissible call it first)
    return check_q(q) - 1 if d == 1 else count_irred(q, d)


@lru_cache(maxsize=200_000)
def _block_weight(q: int, d: int, k: int) -> Fraction:
    """|GL_k(q^d)|_p / |GL_k(q^d)|_{p'}, the factor of one block in a degree."""
    return Fraction(q ** (d * k * (k - 1) // 2), order_pprime("GL", k, q ** d))


@lru_cache(maxsize=None)
def _best_blocks(q: int, d: int, weight: int, kmax: int, left: int):
    """Best (value, sorted blocks) over the admissible types of total weight
    sum k*d equal to `weight` with field degrees >= d, at most `left` blocks
    of degree d and each with k <= kmax; None if there is none.  The value
    is the product of the blocks' _block_weight, ties go to the smaller
    sorted block tuple.  Either no further block has degree d, or one more
    block (k, d) is taken; kmax and left are clamped to what the weight can
    hold, so different call paths share memo states.  The memo is unbounded:
    past n = 330 at q = 2 one call needs more states than a 200,000-entry
    memo holds, and evicting its own entries made b_gl_exact(400, 2) six
    times slower."""
    if weight == 0:
        return (Fraction(1), ())
    if d > weight:
        return None
    up = weight // (d + 1)
    best = _best_blocks(q, d + 1, weight, up, min(_block_budget(q, d + 1), up))
    for k in range(1, kmax + 1) if left else ():
        rest = weight - k * d
        sub = _best_blocks(q, d, rest, min(k, rest // d), min(left - 1, rest // d))
        if sub is None:
            continue
        cand = (_block_weight(q, d, k) * sub[0], tuple(sorted(sub[1] + ((k, d),))))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


def b_gl_exact(n: int, q: int) -> tuple[int, CentralizerTypeGL]:
    """Exact largest irreducible degree of GL_n(q), with an optimal witness.

    Maximizes q^{sum d_j k_j (k_j-1)/2} * prod_i (q^i - 1) / prod_j prod_i
    (q^{i d_j} - 1) over admissible centralizer types; the count of blocks
    with the same field degree d is capped by the number of available monic
    irreducibles (q - 1 for d = 1).  Ties prefer the lexicographically
    smallest sorted block tuple.  The degree is the witness's
    gl_degree_of_type, which must equal the value the search found.
    """
    check_rank("GL", n)
    check_field_order(q)
    best = _best_blocks(q, 1, n, n, min(_block_budget(q, 1), n))
    if best is None:
        raise ArithmeticError(f"no admissible centralizer type for n={n}, q={q}")
    witness = CentralizerTypeGL(best[1])
    if witness.n != n or not witness.is_admissible(q):
        raise ArithmeticError(f"inadmissible witness {witness.blocks} for n={n}, q={q}")
    value, degree = best[0] * order_pprime("GL", n, q), gl_degree_of_type(witness, q)
    if degree != value:
        raise ArithmeticError(f"b(GL_{n}({q})) = {value} is not the degree {degree} "
                              f"of its witness {witness.blocks}")
    return degree, witness


def gl_degree_of_type(t: CentralizerTypeGL, q: int) -> int:
    """Degree of the semisimple-type character attached to a centralizer type:
    |GL_n(q)|_{q'} q^{sum d k(k-1)/2} / prod over the blocks (k, d) of
    prod_{i <= k} (q^{d i} - 1)."""
    minus = tuple(d * i for k, d in t.blocks for i in range(1, k + 1))
    return QProduct(t.blocks, "GL", t.n, a=sum(d * k * (k - 1) // 2 for k, d in t.blocks),
                    two_power=0, minus=minus, plus=(), top=max(minus, default=0)).evaluate(q)


def enumerate_types(n: int, q: int) -> list[CentralizerTypeGL]:
    """All admissible centralizer types of GL_n(q)."""
    check_rank("GL", n)
    from .partitions import _partition_tuples  # here: `bounds` must not load partitions
    out: list[CentralizerTypeGL] = []

    def rec(d: int, remaining: int, acc: tuple[tuple[int, int], ...]):
        if remaining == 0:
            out.append(CentralizerTypeGL(acc))
            return
        if d > remaining:
            return
        budget = _block_budget(q, d)
        for t in range(remaining // d + 1):
            for ks in _partition_tuples(t, t):
                if len(ks) <= budget:
                    rec(d + 1, remaining - t * d, acc + tuple((k, d) for k in ks))

    rec(1, n, ())
    return out


def merge_ratio_sl_n_2(t: CentralizerTypeGL) -> Fraction:
    """Degree ratio after merging the two heaviest blocks into one torus block
    GL_1(2^{k1 d1 + k2 d2}), for types over F_2 with at least two blocks.

    The exact ratio lies strictly between 81/512 and 1; ArithmeticError
    (carrying t and the ratio) is raised if it does not.
    """
    q = 2
    if len(t.blocks) < 2:
        raise ValueError("need at least two blocks to merge")
    if not t.is_admissible(q):
        raise ValueError(f"type {t.blocks} is not admissible over F_2")
    (k1, d1), (k2, d2) = t.blocks[0], t.blocks[1]
    if (d1, d2) == (1, 1):
        raise ValueError("the two heaviest blocks cannot both have d = 1")
    ratio = 1 / (_block_weight(q, d1, k1) * _block_weight(q, d2, k2)
                 * (q ** (k1 * d1 + k2 * d2) - 1))
    if not Fraction(81, 512) < ratio < 1:
        raise ArithmeticError(f"merge ratio {ratio} of type {t.blocks} is not in (81/512, 1)")
    return ratio


# ---------------------------------------------------------------------------
# logarithmic brackets for c(G) = b(G)/|G|_p
# ---------------------------------------------------------------------------

def bound_bracket_intervals(spec: GroupSpec) -> tuple[RationalInterval, RationalInterval]:
    """Certified enclosures (lower, upper) of the c(G) bracket for the family.

    A:   max(1, (1/4) log_q((n-1)(1-1/q) + q^2)^{3/4})
         <= c <= 13 log_q(n(q-1)+q)^{2.54}
    2A:  max(1, (1/4) log_q((n-1)(1-1/q^2) + q^4)^{2/5})
         <= c <= 2 log_q(n(q^2-1)+q^2)^{1.27}
    B/C/D/2D, q odd:  max(1, (1/5) log_q((4n+25)/3)^{3/8})
         <= c <= 38 (1+log_q(2n+1))^{1.27}
    B/C/D/2D, q even: max(1, (1/5) log_q(n+17)^{3/8})
         <= c <= 8 (1+log_q(2n+1))^{1.27}
    """
    kind = spec.family if spec.family in ("A", "2A") else "BCD"
    return _bracket_intervals(kind, spec.n, spec.q)


@lru_cache(maxsize=4096)
def _bracket_intervals(kind: str, n: int, q: int) -> tuple[RationalInterval, RationalInterval]:
    """bound_bracket_intervals for "A", "2A" or "BCD" (one bracket for
    B, C, D and 2D), cached: the intervals are frozen."""
    one = RationalInterval.point(1)
    if kind == "A":
        lo_arg = Fraction(n - 1) * (1 - Fraction(1, q)) + q * q
        lower = pow_interval(log_base_interval(lo_arg, q), Fraction(3, 4)) * Fraction(1, 4)
        upper = pow_interval(log_base_interval(n * (q - 1) + q, q), Fraction(254, 100)) * 13
    elif kind == "2A":
        lo_arg = Fraction(n - 1) * (1 - Fraction(1, q * q)) + q ** 4
        lower = pow_interval(log_base_interval(lo_arg, q), Fraction(2, 5)) * Fraction(1, 4)
        upper = pow_interval(log_base_interval(n * (q * q - 1) + q * q, q), Fraction(127, 100)) * 2
    else:
        if q % 2 == 1:
            lower = pow_interval(log_base_interval(Fraction(4 * n + 25, 3), q), Fraction(3, 8)) * Fraction(1, 5)
            const = 38
        else:
            lower = pow_interval(log_base_interval(n + 17, q), Fraction(3, 8)) * Fraction(1, 5)
            const = 8
        upper = pow_interval(log_base_interval(2 * n + 1, q) + one, Fraction(127, 100)) * const
    lower_clamped = RationalInterval(max(lower.lo, Fraction(1)), max(lower.hi, Fraction(1)))
    return lower_clamped, upper


def bound_bracket(spec: GroupSpec) -> tuple[Fraction, Fraction]:
    """Outer enclosure (lower.lo, upper.hi) of the family's c(G) bracket."""
    lower, upper = bound_bracket_intervals(spec)
    return lower.lo, upper.hi


# ---------------------------------------------------------------------------
# epsilon certificates
# ---------------------------------------------------------------------------

class CertVerdict(Enum):
    CERTIFIED_GT_ONE = "certified_gt_one"
    LISTED_EXCEPTION = "listed_exception"
    INCONCLUSIVE = "inconclusive"


_MIN_RANK = {"A": 2, "2A": 3, "B": 2, "C": 2, "D": 4, "2D": 4}

# (family, q) -> (n_lo, n_hi): the ranks n_lo <= n <= n_hi the paper lists as
# exceptions at q.  At q = 2 that is every rank (SL_n(2), Sp_2n(2) and
# Omega^{+-}_2n(2) are all excluded) except for PSU_n(2), only 7 <= n <= 14.
_LISTED_EXCEPTIONS = {
    **{(fam, 2): (1, math.inf) for fam in _LABEL_FAMILY},
    ("2A", 2): (7, 14), ("A", 3): (5, 14), ("B", 3): (4, 17), ("C", 3): (4, 17),
    ("D", 3): (4, 30), ("2D", 3): (4, 30), ("D", 5): (4, 6), ("2D", 5): (4, 6),
    ("D", 7): (4, 4), ("2D", 7): (4, 4),
}


def _certificate_inequality(spec: GroupSpec) -> bool:
    fam, n, q = spec.family, spec.n, spec.q
    if fam == "A":
        return (q - 1) ** (2 * n - 3) > 2 * (n - 1) * (q ** (n - 1) - 1)
    if fam == "2A":
        return (q * q - 1) ** n > 2 * (n - 1) * (q ** (n - 1) - (-1) ** (n - 1)) * (q + 1) ** 3
    if fam in ("B", "C"):
        kappa = math.gcd(2, q - 1)
        return (q - 1) ** (2 * n) > 4 * kappa * n * (q ** n - 1)
    eps = 1 if spec.family == "D" else -1
    kappa = math.gcd(4, q ** n - eps)
    return (q - 1) ** (2 * n) > 3 * kappa ** 3 * n * (q ** n - eps)


def epsilon_certificate(spec: GroupSpec) -> CertVerdict:
    """Certificate that the simple group has epsilon > 1, by the family's
    sufficient counting inequality; listed exceptions short-circuit (the
    inequality itself certifies 2A at q = 2 only from n >= 15)."""
    fam = spec.family
    if spec.n < _MIN_RANK[fam]:
        raise ValueError(f"family {fam} certificates need rank >= {_MIN_RANK[fam]}")
    n_lo, n_hi = _LISTED_EXCEPTIONS.get((fam, spec.q), (1, 0))
    if n_lo <= spec.n <= n_hi:
        return CertVerdict.LISTED_EXCEPTION
    if _certificate_inequality(spec):
        return CertVerdict.CERTIFIED_GT_ONE
    return CertVerdict.INCONCLUSIVE
