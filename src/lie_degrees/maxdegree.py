"""Largest-degree machinery: group orders, polynomial budgets, exact b(GL_n(q)),
the minimal-torus (Seitz) bound, logarithmic bound brackets, epsilon
certificates and the merge-move ratios over F_2.

Group ranks follow the matrix conventions: family A of rank n is SL_n, 2A is
SU_n, B/C rank n are Spin_{2n+1}/Sp_{2n}, D/2D rank n are Spin^{+-}_{2n}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .qexact import (
    RationalInterval,
    log_base_interval,
    pow_interval,
)

FAMILIES = ("A", "2A", "B", "C", "D", "2D")


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: int
    q: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("rank must be >= 1")
        if self.family in ("D", "2D") and self.n < 2:
            raise ValueError(f"family {self.family} needs rank >= 2")
        if self.q < 2:
            raise ValueError("q must be >= 2")


def order_parts(spec: GroupSpec) -> tuple[int, int]:
    """(|G|_p, |G|_{p'}) for the simply connected group of the family."""
    n, q = spec.n, spec.q
    if spec.family == "A":
        p_part = q ** (n * (n - 1) // 2)
        pprime = 1
        for i in range(2, n + 1):
            pprime *= q ** i - 1
        return p_part, pprime
    if spec.family == "2A":
        p_part = q ** (n * (n - 1) // 2)
        pprime = 1
        for i in range(2, n + 1):
            pprime *= q ** i - (-1) ** i
        return p_part, pprime
    if spec.family in ("B", "C"):
        p_part = q ** (n * n)
        pprime = 1
        for i in range(1, n + 1):
            pprime *= q ** (2 * i) - 1
        return p_part, pprime
    # D / 2D
    eps = 1 if spec.family == "D" else -1
    p_part = q ** (n * (n - 1))
    pprime = q ** n - eps
    for i in range(1, n):
        pprime *= q ** (2 * i) - 1
    return p_part, pprime


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

def prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e if q is a prime power, else None."""
    if q < 2:
        return None
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    return (q, 1)


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
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if d < 1:
        raise ValueError("degree must be >= 1")
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
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    if d == 1:
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


@dataclass(frozen=True)
class PolyBudget:
    """Per-degree counts n_d of monic irreducibles over F_q and n*_d of those
    not fixed by reciprocal duality (t excluded from the latter)."""

    q: int
    counts: tuple[int, ...]
    nondual_counts: tuple[int, ...]

    def n(self, d: int) -> int:
        return self.counts[d - 1]

    def n_star(self, d: int) -> int:
        return self.nondual_counts[d - 1]


def poly_budget(q: int, d_max: int) -> PolyBudget:
    return PolyBudget(q,
                      tuple(count_irred(q, d) for d in range(1, d_max + 1)),
                      tuple(count_irred_nondual(q, d) for d in range(1, d_max + 1)))


# ---------------------------------------------------------------------------
# exact b(GL_n(q)) over centralizer types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralizerTypeGL:
    """Multiset of (k, d) blocks GL_k(q^d); canonically sorted by descending
    (k*d, d, k) so the two heaviest blocks come first."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple(sorted(((int(k), int(d)) for k, d in self.blocks),
                              key=lambda kd: (-kd[0] * kd[1], -kd[1], -kd[0])))
        if any(k < 1 or d < 1 for k, d in blocks):
            raise ValueError(f"blocks need k, d >= 1: {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return sum(k * d for k, d in self.blocks)

    def degree_multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, d in self.blocks:
            out[d] = out.get(d, 0) + 1
        return out

    def is_admissible(self, q: int) -> bool:
        for d, count in self.degree_multiplicities().items():
            budget = q - 1 if d == 1 else count_irred(q, d)
            if count > budget:
                return False
        return True


def _block_budget(q: int, d: int) -> int:
    # d = 1 blocks carry nonzero eigenvalues in F_q, so at most q - 1 of them
    return q - 1 if d == 1 else count_irred(q, d)


@lru_cache(maxsize=200_000)
def _block_weight(q: int, d: int, k: int) -> Fraction:
    den = 1
    for i in range(1, k + 1):
        den *= q ** (i * d) - 1
    return Fraction(q ** (d * k * (k - 1) // 2), den)


@lru_cache(maxsize=200_000)
def _best_blocks_fixed_d(q: int, d: int, t: int, kmax: int, budget: int):
    """Best (value, parts) for blocks of field degree d with k's summing to t,
    at most `budget` blocks, parts weakly decreasing and <= kmax."""
    if t == 0:
        return (Fraction(1), ())
    if budget == 0 or kmax == 0:
        return None
    best = None
    for k in range(min(kmax, t), 0, -1):
        sub = _best_blocks_fixed_d(q, d, t - k, k, budget - 1)
        if sub is None:
            continue
        cand = (_block_weight(q, d, k) * sub[0], (k,) + sub[1])
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


@lru_cache(maxsize=200_000)
def _best_split(q: int, d_min: int, budget_weight: int):
    """Best (value, blocks) over types using field degrees >= d_min with total
    weight sum k*d equal to budget_weight."""
    if budget_weight == 0:
        return (Fraction(1), ())
    if d_min > budget_weight:
        return None
    best = None
    for t in range(budget_weight // d_min + 1):
        here = _best_blocks_fixed_d(q, d_min, t, t, min(t, _block_budget(q, d_min))) \
            if t else (Fraction(1), ())
        if here is None:
            continue
        rest = _best_split(q, d_min + 1, budget_weight - d_min * t)
        if rest is None:
            continue
        blocks = tuple((k, d_min) for k in here[1]) + rest[1]
        cand = (here[0] * rest[0], tuple(sorted(blocks)))
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
    return best


def b_gl_exact(n: int, q: int) -> tuple[int, CentralizerTypeGL]:
    """Exact largest irreducible degree of GL_n(q), with an optimal witness.

    Maximizes q^{sum d_j k_j (k_j-1)/2} * prod_i (q^i - 1) / prod_j prod_i
    (q^{i d_j} - 1) over admissible centralizer types; the count of blocks
    with the same field degree d is capped by the number of available monic
    irreducibles (q - 1 for d = 1).  Ties prefer the lexicographically
    smallest sorted block tuple.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if prime_power(q) is None:
        raise ValueError(f"q = {q} is not a prime power")
    best = _best_split(q, 1, n)
    if best is None:
        raise ArithmeticError(f"no admissible centralizer type for n={n}, q={q}")
    bracket = 1
    for i in range(1, n + 1):
        bracket *= q ** i - 1
    value = best[0] * bracket
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral b(GL_{n}({q})) = {value}")
    witness = CentralizerTypeGL(best[1])
    if witness.n != n or not witness.is_admissible(q):
        raise ArithmeticError(f"inadmissible witness {witness.blocks} for n={n}, q={q}")
    return int(value), witness


def gl_degree_of_type(t: CentralizerTypeGL, q: int) -> int:
    """Degree of the semisimple-type character attached to a centralizer type."""
    num = 1
    for i in range(1, t.n + 1):
        num *= q ** i - 1
    val = Fraction(num)
    for k, d in t.blocks:
        val *= _block_weight(q, d, k)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integral degree {val} for type {t.blocks}, q={q}")
    return int(val)


def enumerate_types(n: int, q: int) -> list[CentralizerTypeGL]:
    """All admissible centralizer types of GL_n(q)."""
    out: list[CentralizerTypeGL] = []

    def rec(d: int, remaining: int, acc: list[tuple[int, int]]):
        if remaining == 0:
            out.append(CentralizerTypeGL(tuple(acc)))
            return
        if d > remaining:
            return
        budget = _block_budget(q, d)

        def parts(t: int, kmax: int, cnt: int, chosen: list[int]):
            if t == 0:
                rec(d + 1, remaining - sum(chosen) * d,
                    acc + [(k, d) for k in chosen])
                return
            if cnt == 0 or kmax == 0:
                return
            for k in range(min(kmax, t), 0, -1):
                parts(t - k, k, cnt - 1, chosen + [k])

        for total in range(remaining // d + 1):
            if total == 0:
                rec(d + 1, remaining, acc)
            else:
                parts(total, total, budget, [])

    rec(1, n, [])
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

def bound_bracket_intervals(spec: GroupSpec, terms: int = 28) -> tuple[RationalInterval, RationalInterval]:
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
    n, q = spec.n, spec.q
    one = RationalInterval.point(1)
    if spec.family == "A":
        lo_arg = Fraction(n - 1) * (1 - Fraction(1, q)) + q * q
        lower = pow_interval(log_base_interval(lo_arg, q, terms), Fraction(3, 4), terms) * Fraction(1, 4)
        upper = pow_interval(log_base_interval(n * (q - 1) + q, q, terms), Fraction(254, 100), terms) * 13
    elif spec.family == "2A":
        lo_arg = Fraction(n - 1) * (1 - Fraction(1, q * q)) + q ** 4
        lower = pow_interval(log_base_interval(lo_arg, q, terms), Fraction(2, 5), terms) * Fraction(1, 4)
        upper = pow_interval(log_base_interval(n * (q * q - 1) + q * q, q, terms), Fraction(127, 100), terms) * 2
    else:
        if q % 2 == 1:
            lower = pow_interval(log_base_interval(Fraction(4 * n + 25, 3), q, terms), Fraction(3, 8), terms) * Fraction(1, 5)
            const = 38
        else:
            lower = pow_interval(log_base_interval(n + 17, q, terms), Fraction(3, 8), terms) * Fraction(1, 5)
            const = 8
        upper = pow_interval(log_base_interval(2 * n + 1, q, terms) + one, Fraction(127, 100), terms) * const
    lower_clamped = RationalInterval(max(lower.lo, Fraction(1)), max(lower.hi, Fraction(1)))
    return lower_clamped, upper


def bound_bracket(spec: GroupSpec, terms: int = 28) -> tuple[Fraction, Fraction]:
    """Outer enclosure (lower.lo, upper.hi) of the family's c(G) bracket."""
    lower, upper = bound_bracket_intervals(spec, terms)
    return lower.lo, upper.hi


# ---------------------------------------------------------------------------
# epsilon certificates
# ---------------------------------------------------------------------------

class CertVerdict(Enum):
    CERTIFIED_GT_ONE = "certified_gt_one"
    LISTED_EXCEPTION = "listed_exception"
    INCONCLUSIVE = "inconclusive"


_MIN_RANK = {"A": 2, "2A": 3, "B": 2, "C": 2, "D": 4, "2D": 4}


def _is_listed_exception(spec: GroupSpec) -> bool:
    fam, n, q = spec.family, spec.n, spec.q
    if q == 2:
        return True  # SL_n(2), Sp_2n(2), Omega^{+-}_2n(2) are all excluded
    if fam == "A":
        return q == 3 and 5 <= n <= 14
    if fam == "2A":
        return False  # the q = 2 rows (7 <= n <= 14) are caught above
    if fam in ("B", "C"):
        return q == 3 and 4 <= n <= 17
    # D / 2D
    return (q == 3 and 4 <= n <= 30) or (q == 5 and 4 <= n <= 6) or (q == 7 and n == 4)


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
    sufficient counting inequality; listed exceptional families short-circuit.

    2A at q = 2 with 7 <= n <= 14 is excluded with the rest of the q = 2
    rows; the inequality itself certifies 2A(q=2) only from n >= 15.
    """
    fam = spec.family
    if spec.n < _MIN_RANK[fam]:
        raise ValueError(f"family {fam} certificates need rank >= {_MIN_RANK[fam]}")
    if fam == "2A" and spec.q == 2:
        # PSU_n(2) is not blanket-excluded: only 7 <= n <= 14 are listed
        if 7 <= spec.n <= 14:
            return CertVerdict.LISTED_EXCEPTION
        return (CertVerdict.CERTIFIED_GT_ONE if _certificate_inequality(spec)
                else CertVerdict.INCONCLUSIVE)
    if _is_listed_exception(spec):
        return CertVerdict.LISTED_EXCEPTION
    if _certificate_inequality(spec):
        return CertVerdict.CERTIFIED_GT_ONE
    return CertVerdict.INCONCLUSIVE
