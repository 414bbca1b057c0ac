"""Unipotent character degrees of the finite classical groups.

Every degree here has one shape, q^a |G|_{q'} / (2^c prod(q^h - 1)
prod(q^k + 1)) (Carter, Finite Groups of Lie Type, 13.8), and one evaluator,
the degree plan (_DegreePlan): the q-independent data of a label, evaluated
at each q against one table of q^k - 1 and q^k + 1 with one checked exact
division.  GL_n(q) and GU_n(q) unipotent characters are labelled by
partitions: h runs over the hook lengths, with no k and c = 0, and a GU
degree is the GL formula at -q in absolute value (Ennola duality), a sign
the plan applies itself.  Types B/C, D and 2D are labelled by symbols: pairs
of strictly increasing sequences up to shift-and-swap equivalence, with
defect parity selecting the type; h runs over the hooks and k over the
cohooks of positive length.  Length-0 cohooks are excluded, which is the
normalization that makes the trivial character evaluate to 1 and the
Steinberg symbol to the full q-part of the group order.  Every group order
|G|_{q'} here is read from the one table maxdegree.order_pprime.

Symbols are enumerated on plain row tuples: each bipartition (alpha, beta)
of the right size gives the rows of one reduced symbol directly, so no
canonicalization or de-duplication is needed.  A symbol's plan is built from
those tuples by the same row-level formulas that symbol_stats uses;
degree_symbol caches the plan per canonical row pair, and degree_gl and
degree_gu cache the degree per (parts, family, q).

The Steinberg sweep (verify_steinberg_max) looks for the exact runner-up at
each q without evaluating most labels.  With e = a - sum(hook lengths) -
sum(positive cohook lengths), the exponent key, and s = (number of hooks) -
(power of 2), the slack, the bounds q^h - 1 >= q^h / 2 and q^k + 1 > q^k
(q >= 2, h, k >= 1) give degree <= |G|_{q'} q^e 2^s.  A symbol's e is a
function of its entry multiset (its Lusztig family), so symbol labels are
generated a family at a time in two bands of e: the labels of the largest
e, whose degrees bound the runner-up from below, and those down to the
least e whose bound can still reach one of them.  At each q the walk starts
from the best label of the first band, skips a label of the second whose
bound, compared in integers, is below the best degree so far, and stops
once the bound with the largest slack is.  A label's plan is built the
first time some q evaluates it, and none is kept after the sweep.

A degree-increasing chain (stclass_chain) walks from a symbol class to a
Steinberg class, and its next step depends only on the current class and q
(_chain_step).  The walker (_walk_chain) reads each step from a memo keyed on
(canonical rows, q), and fills it from _chain_step on a miss, keeping the
successor or the ArithmeticError raised; the steps read the class degrees
from a second memo with the same keys (_class_degree).  stclass_chain passes
fresh memos; a check that walks the chains of every class passes one pair for
all of them, so each class's step is taken, and its degree evaluated, once per
q -- D and 2D share them, since chains cross between them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .maxdegree import min_rank, order_pprime
from .partitions import (
    Partition,
    _partition_tuples,
    beta_hook_cells,
    beta_parts,
    beta_row,
    hook_lengths,
)

FAMILIES = ("GL", "GU", "BC", "D", "2D")
SYMBOL_FAMILIES = ("BC", "D", "2D")


# ---------------------------------------------------------------------------
# type A: partition labels
# ---------------------------------------------------------------------------

def _a_value(parts: tuple[int, ...]) -> int:
    return sum(i * p for i, p in enumerate(parts))


def a_value_gl(lam: Partition) -> int:
    """a(lam) = sum (i-1) * lam_i over the weakly decreasing parts."""
    return _a_value(lam.parts)


@lru_cache(maxsize=200_000)
def _hook_lengths(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Hook lengths of a partition: q-independent, so computed once per label."""
    return hook_lengths(parts)


@lru_cache(maxsize=200_000)
def _partition_degree(parts: tuple[int, ...], fam: str, q: int) -> int:
    """The GL or GU degree at q of the partition with these parts, from its
    plan; kept per (parts, family, q), since the checks ask for it again."""
    return _build_plan(parts, fam, sum(parts)).evaluate(q)


def degree_gl(lam: Partition, q: int) -> int:
    """Degree of the unipotent character of GL_n(q) labelled by lam."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return _partition_degree(lam.parts, "GL", q)


def degree_gu(lam: Partition, q: int) -> int:
    """Degree of the unipotent character of GU_n(q) labelled by lam."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return _partition_degree(lam.parts, "GU", q)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def _check_row(row: Iterable[int]) -> tuple[int, ...]:
    r = tuple(int(x) for x in row)
    if any(x < 0 for x in r):
        raise ValueError(f"symbol entries must be non-negative: {r}")
    if any(a >= b for a, b in zip(r, r[1:])):
        raise ValueError(f"symbol rows must be strictly increasing: {r}")
    return r


@dataclass(frozen=True)
class Symbol:
    """A pair of strictly increasing sequences of non-negative integers."""

    X: tuple[int, ...]
    Y: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "X", _check_row(self.X))
        object.__setattr__(self, "Y", _check_row(self.Y))

    @classmethod
    def _from_valid_rows(cls, x: tuple[int, ...], y: tuple[int, ...]) -> "Symbol":
        """Build from int tuples already known to be valid rows, skipping _check_row."""
        sym = object.__new__(cls)
        object.__setattr__(sym, "X", x)
        object.__setattr__(sym, "Y", y)
        return sym

    def shifted(self) -> "Symbol":
        return Symbol._from_valid_rows((0,) + tuple(x + 1 for x in self.X),
                                       (0,) + tuple(y + 1 for y in self.Y))

    def swapped(self) -> "Symbol":
        return Symbol._from_valid_rows(self.Y, self.X)

    @property
    def degenerate(self) -> bool:
        return self.X == self.Y

    @property
    def multiplicity(self) -> int:
        # degenerate classes carry two unipotent characters (type D only)
        return 2 if self.degenerate else 1

    def __repr__(self) -> str:
        return f"Symbol({self.X}, {self.Y})"


@dataclass(frozen=True)
class SymbolStats:
    rank: int
    defect: int
    a: int
    hooks: tuple[tuple[int, int], ...]
    cohooks: tuple[tuple[int, int], ...]


# Row-level formulas, on plain increasing int tuples; symbol_stats, the
# Symbol accessors and the degree plans all go through these.

def _rows_rank(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return sum(x) + sum(y) - ((len(x) + len(y) - 1) ** 2) // 4  # floor(((r+s-1)/2)^2)


@lru_cache(maxsize=1024)
def _binomial_tail(m: int) -> int:
    """Sum of binom(m - 2i, 2) over i >= 1 (binom(k, 2) = 0 for k < 2)."""
    return sum(k * (k - 1) // 2 for k in range(m - 2, 1, -2))


def _rows_a_value(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Sum of min(e, f) over pairs of entries, minus binom(r+s-2i, 2) for
    i >= 1."""
    entries = sorted(x + y)
    m = len(entries)
    return sum(map(operator.mul, entries, range(m - 1, -1, -1))) - _binomial_tail(m)


def _rows_two_power(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    return max(0, (len(set(x) ^ set(y)) - 1) // 2)


def _cohook_lengths(x: tuple[int, ...], y: tuple[int, ...]) -> list[int]:
    """Lengths c - b of the positive cohooks from row x to row y: c in x and
    b < c not in y."""
    ys = set(y)
    return [c - b for c in x for b in range(c) if b not in ys]


def symbol_stats(sym: Symbol) -> SymbolStats:
    """Rank, defect, a-value, hooks and cohooks of a symbol.

    Cohooks (b, c) have c in one row and b <= c not in the other; the b = c
    ones are listed too, and the degree formula skips them.
    """
    x, y = sym.X, sym.Y
    cohooks = [(c, c) for row, other in ((x, y), (y, x)) for c in row if c not in other]
    cohooks += [(c - k, c) for row, other in ((x, y), (y, x))
                for c in row for k in _cohook_lengths((c,), other)]
    return SymbolStats(
        rank=_rows_rank(x, y),
        defect=abs(len(x) - len(y)),
        a=_rows_a_value(x, y),
        hooks=tuple(sorted(beta_hook_cells(x) + beta_hook_cells(y))),
        cohooks=tuple(sorted(cohooks)),
    )


def symbol_rank(sym: Symbol) -> int:
    return _rows_rank(sym.X, sym.Y)


def symbol_defect(sym: Symbol) -> int:
    return abs(len(sym.X) - len(sym.Y))


def family_of_defect(defect: int) -> str:
    if defect % 2 == 1:
        return "BC"
    return "D" if defect % 4 == 0 else "2D"


def canonicalize(sym: Symbol) -> Symbol:
    """Reduced representative of the shift-and-swap class: strip common
    0-shifts, longer row first.

    Equal-length rows are ordered with the lexicographically larger first,
    so e.g. ((0,2),(0,1)) reduces to ((1),(0)).
    """
    x, y = sym.X, sym.Y
    # stripping a common leading 0 keeps both rows strictly increasing and
    # non-negative, so the result needs no re-validation
    while x and y and x[0] == 0 and y[0] == 0:
        x = tuple(v - 1 for v in x[1:])
        y = tuple(v - 1 for v in y[1:])
    if (len(y), y) > (len(x), x):
        x, y = y, x
    return Symbol._from_valid_rows(x, y)


def symbol_two_power(sym: Symbol) -> int:
    """Power of 2 dividing the hook/cohook denominator normalization.

    Equals max(0, (|X delta Y| - 1) // 2); invariant under shift and swap.
    Calibrated so that the trivial symbol gives 1, the Steinberg symbols give
    the full q-part, and small-rank degree lists match the groups they must
    (B_1 = A_1, B_2 = Sp_4, D_2 = A_1 x A_1, D_3 = A_3, 2D_3 = 2A_3).
    """
    return _rows_two_power(sym.X, sym.Y)


# ---------------------------------------------------------------------------
# degree plans: the one evaluator of every unipotent degree
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _factor_tables(q: int, top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(q^k - 1) and (q^k + 1) for k = 0..top; q is negative for GU."""
    powers = [q ** k for k in range(top + 1)]
    return tuple(p - 1 for p in powers), tuple(p + 1 for p in powers)


class _DegreePlan(NamedTuple):
    """q^a |G|_{q'} / (2^two_power prod(q^h - 1) prod(q^k + 1)) as a function
    of q: the degree of the unipotent character of the family and rank that
    label names.

    label is the parts of a partition (GL, GU) or the canonical rows (x, y)
    of a symbol (BC, D, 2D).  h runs over the hook lengths (minus) and k over
    the positive cohook lengths (plus, empty for a partition), all at most
    top; fam and rank select the q'-order |G|_{q'}.
    """

    label: tuple
    fam: str
    rank: int
    a: int
    two_power: int
    minus: tuple[int, ...]
    plus: tuple[int, ...]
    top: int

    def evaluate(self, q: int) -> int:
        """The degree at q, with |G|_{q'} = order_pprime(fam, rank, q)."""
        x = -q if self.fam == "GU" else q  # Ennola: GU is the GL formula at -q, up to sign
        minus_tab, plus_tab = _factor_tables(x, self.top)
        den = (math.prod(map(minus_tab.__getitem__, self.minus), start=1 << self.two_power)
               * math.prod(map(plus_tab.__getitem__, self.plus)))
        quot, rem = divmod(x ** self.a * order_pprime(self.fam, self.rank, q), den)
        if rem != 0:  # the quotient is a character degree, so this cannot fail
            raise ArithmeticError(f"non-integral {self.fam} degree for {self.labelled()}, q={q}")
        return abs(quot)

    def labelled(self) -> Partition | Symbol:
        """The label as the Partition or the Symbol it is."""
        if self.fam in ("GL", "GU"):
            return Partition._from_valid_parts(self.label)
        return Symbol._from_valid_rows(*self.label)


def _build_plan(label: tuple, fam: str, rank: int) -> _DegreePlan:
    """Degree plan of a label of the family: the parts of a partition (GL,
    GU), or canonical rows (x, y), whose hooks are those of the partitions
    their beta-sets encode (BC, D, 2D)."""
    if fam in ("GL", "GU"):
        minus = _hook_lengths(label)
        return _DegreePlan(label, fam, rank, a=_a_value(label), two_power=0, minus=minus,
                           plus=(), top=max(minus, default=0))
    x, y = label
    return _DegreePlan(
        label, fam, rank,
        a=_rows_a_value(x, y),
        two_power=_rows_two_power(x, y),
        minus=_hook_lengths(beta_parts(x)) + _hook_lengths(beta_parts(y)),
        plus=tuple(_cohook_lengths(x, y) + _cohook_lengths(y, x)),
        top=max(x[-1:] + y[-1:], default=0),
    )


@lru_cache(maxsize=200_000)
def _symbol_plan(x: tuple[int, ...], y: tuple[int, ...]) -> _DegreePlan:
    """Degree plan of a canonical symbol (see canonicalize)."""
    rank = _rows_rank(x, y)
    if rank < 1:
        raise ValueError(f"symbol must have positive rank: {Symbol._from_valid_rows(x, y)}")
    return _build_plan((x, y), family_of_defect(len(x) - len(y)), rank)


def degree_symbol(sym: Symbol, q: int) -> int:
    """Degree of the unipotent character labelled by the symbol.

    The family (and hence the q'-order) is inferred from the defect parity.
    The denominator runs over hooks (q^len - 1) and positive-length cohooks
    (q^len + 1), times 2^c with c = symbol_two_power; for degenerate symbols
    (X = Y) this value is the degree of each of the two characters the class
    carries.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    canon = canonicalize(sym)
    return _symbol_plan(canon.X, canon.Y).evaluate(q)


# smallest defect of a symbol of the family; the others step by 2 (BC) or 4
_MIN_DEFECT = {"BC": 1, "D": 0, "2D": 2}


def _defects_for(fam: str, n: int) -> Iterator[int]:
    d = _MIN_DEFECT[fam]
    while d * d // 4 <= n:
        yield d
        d += 2 if d % 2 else 4


_Rows = tuple[tuple[int, ...], tuple[int, ...]]


def _symbol_labels(n: int, fam: str) -> list[_Rows]:
    """Canonical rows (x, y) of every symbol class of rank n in the family,
    sorted on (defect, x, y).

    For each defect d the bipartitions (alpha, beta) of n - d^2/4 give
    x = beta-set(alpha, b0 + d) and y = beta-set(beta, b0) with
    b0 = max(len beta, len alpha - d, 0), so one of the rows lacks 0: the
    symbol is reduced, and for d > 0 each pair is its own class.  For d = 0
    the swapped pair gives the same class, and only the order with x >= y
    (the canonical one) is kept.
    """
    if fam not in SYMBOL_FAMILIES:
        raise ValueError(f"enumeration is for symbol families, not {fam!r}")
    if n < 1:
        raise ValueError("rank must be >= 1")
    row = lru_cache(maxsize=None)(beta_row)  # one per call: no rows outlive the rank
    labels: list[_Rows] = []
    for d in _defects_for(fam, n):
        block: list[_Rows] = []
        content = n - d * d // 4
        for a_size in range(content + 1):
            betas = list(_partition_tuples(content - a_size, content - a_size))
            for alpha in _partition_tuples(a_size, a_size):
                for beta in betas:
                    b0 = max(len(beta), len(alpha) - d, 0)
                    x = row(alpha, b0 + d)
                    y = row(beta, b0)
                    if d == 0 and y > x:
                        continue
                    if _rows_rank(x, y) != n or len(x) - len(y) != d:
                        raise ArithmeticError(
                            f"rows {x}, {y} from {alpha}, {beta} are not of rank {n}, defect {d}")
                    block.append((x, y))
        block.sort()  # distinct rows encode distinct classes
        labels += block
    return labels


def enumerate_symbols(n: int, fam: str) -> list[Symbol]:
    """The reduced symbol of every class of the given rank whose defect
    matches the family, sorted on (defect, X, Y)."""
    return [Symbol._from_valid_rows(x, y) for x, y in _symbol_labels(n, fam)]


def steinberg_symbol(n: int, fam: str) -> Symbol:
    """Symbol of the Steinberg character of rank n: X = (1..x) and
    Y = (0..x+d-1), with d the family's smallest defect and x = n - d // 2
    (BC: d = 1, D: d = 0, 2D: d = 2).  The degree is q^{n^2} for BC and
    q^{n(n-1)} for D/2D.
    """
    if fam not in _MIN_DEFECT:
        raise ValueError(f"no Steinberg symbol for family {fam!r}")
    if n < min_rank(fam):
        raise ValueError(f"{fam} needs rank >= {min_rank(fam)}")
    d = _MIN_DEFECT[fam]
    x = n - d // 2
    return Symbol(tuple(range(1, x + 1)), tuple(range(0, x + d)))


def _canonical_rows(sym: Symbol) -> _Rows:
    canon = canonicalize(sym)
    return canon.X, canon.Y


@lru_cache(maxsize=256)
def _steinberg_classes(n: int, fam: str) -> frozenset[_Rows]:
    """Canonical rows of the Steinberg classes of rank n that end a chain from
    a class of the family: BC's own, or for D and 2D those of both, since
    chains cross between them."""
    fams = ("BC",) if fam == "BC" else ("D", "2D")
    return frozenset(_canonical_rows(steinberg_symbol(n, f)) for f in fams if n >= min_rank(f))


# ---------------------------------------------------------------------------
# Steinberg maximality sweeps
# ---------------------------------------------------------------------------

def _partition_exponent(parts: tuple[int, ...]) -> int:
    """a - sum of the hook lengths of a partition lam of n: the n hooks have
    total length n(lam) + n(lam') + n, so this is -n(lam') - n."""
    return -sum(p * (p - 1) // 2 for p in parts) - sum(parts)


@lru_cache(maxsize=None)
def _base_exponent(m: int) -> int:
    """E0(m), the exponent key of the sorted entries z_j = ceil(j/2), j < m:
    sum ceil(j/2) (j - 1 - ceil(j/2)) - sum binom(m - 2i, 2) over i >= 1."""
    return sum((j + 1) // 2 * (j - 1 - (j + 1) // 2) for j in range(m)) - _binomial_tail(m)


def _excess_sequences(m: int, total: int, budget: int) -> list[tuple[int, tuple[int, ...]]]:
    """(penalty, t) for each t_0..t_{m-1} >= 0 with sum total, t_j <= t_{j+2},
    t_j <= t_{j+1} + [j even] and penalty sum t_j (t_j + c_j) <= budget
    (c_j = 1 or 2 for even or odd j).  Placed from t_{m-1} down: each t_i
    below j is at most max(t_j, t_{j+1}), and the rest costs at least the
    penalty of spreading it evenly over j places with c = 1."""
    out, t = [], [0] * m

    def place(j: int, rest: int, left: int, cap: int, above: int) -> None:
        if rest == 0:  # t_0 .. t_j are 0
            out.append((budget - left, tuple(t)))
            return
        for v in range(min(cap, rest), -1, -1):
            r, cost = rest - v, v * (v + 1 + (j & 1))
            if r > j * max(v, above):
                break
            k, extra = divmod(r, j or 1)
            if cost + (j - extra) * k * (k + 1) + extra * (k + 1) * (k + 2) <= left:
                t[j] = v
                place(j - 1, r, left - cost, min(above, v + (j & 1)), v)
        t[j] = 0

    place(m - 1, total, budget, total, total)
    return out


# One label of a runner-up search: (-e, tie key, s, label), where the degree
# at q is at most |G|_{q'} q^e 2^s; a list of them is sorted on (-e, tie key).
_Entry = tuple[int, object, int, tuple]


def _partition_entries(n: int) -> list[_Entry]:
    """Search entries of the non-Steinberg partitions of n, sorted: one
    q^h - 1 per box, so s = n; the parts are the tie key and the label."""
    return sorted((-_partition_exponent(p), p, n, p) for p in _partition_tuples(n, n) if p != (1,) * n)


def _symbol_entries(n: int, fam: str, floor: int) -> Iterator[_Entry]:
    """Search entries of the non-Steinberg symbol classes of rank n in the
    family with e >= floor, one entry multiset at a time: z_j = t_j +
    ceil(j/2) for t from _excess_sequences, so e = E0(m) - penalty; x takes
    the doubles and (k + d)/2 of the k singletons for each defect d of the
    family (for d = 0 only x >= y), so s = n - d^2/4 - max(0, (k - 1) // 2).
    The tie key (d, x, y) is the order of _symbol_labels; the label is (x, y).
    No e is below -n(n + 1) (see verify_steinberg_max), so that floor yields
    every label.
    """
    steinberg = _canonical_rows(steinberg_symbol(n, fam))
    for m in range(2 - _MIN_DEFECT[fam] % 2, 2 * n + 2, 2):
        budget = _base_exponent(m) - floor
        if budget < 0:  # every e of m entries is at most E0(m)
            continue
        for penalty, t in _excess_sequences(m, n - m // 2, budget):
            z = [v + (j + 1) // 2 for j, v in enumerate(t)]
            doubles = [u for u, v in zip(z, z[1:]) if u == v]
            singles = [v for v in z if v not in doubles]
            for d in _defects_for(fam, n):
                for chosen in combinations(singles, (len(singles) + d) // 2):
                    x = tuple(sorted(doubles + list(chosen)))
                    y = tuple(sorted(set(z).difference(chosen)))
                    if d == 0 and y > x or (x, y) == steinberg:
                        continue
                    if _rows_rank(x, y) != n or len(x) - len(y) != d:
                        raise ArithmeticError(f"rows {x}, {y} are not of rank {n}, defect {d}")
                    yield (penalty - _base_exponent(m), (d, x, y),
                           n - d * d // 4 - max(0, (len(singles) - 1) // 2), (x, y))


def _symbol_search(n: int, fam: str, q_list: tuple[int, ...], slack: int,
                   evaluate: Callable[[object, int], int]) -> tuple[list[tuple], list[_Entry]]:
    """The seed (label, degree, tie key) of each q, the best label of band 1,
    the labels of the largest e (ties to the smallest tie key), and the sorted
    search entries of band 2, those below it down to the cut (see
    verify_steinberg_max)."""
    floor = _base_exponent(2 * n + _MIN_DEFECT[fam] % 2) - 1  # one below the Steinberg e
    # no label that close (2D_2): take them all
    top = sorted(_symbol_entries(n, fam, floor)) or sorted(_symbol_entries(n, fam, -n * (n + 1)))
    band = [entry for entry in top if entry[0] == top[0][0]]
    cut, seeds = -top[0][0], []
    for q in q_list:
        degrees = [evaluate(label, q) for _, _, _, label in band]
        best = max(degrees)
        _, tie, _, label = band[degrees.index(best)]
        seeds.append((label, best, tie))
        while not _below(order_pprime(fam, n, q), cut - 1, slack, q, best):
            cut -= 1
    return seeds, (top if cut >= floor else sorted(_symbol_entries(n, fam, cut)))[len(band):]


def _below(order: int, e: int, s: int, q: int, best: int) -> bool:
    """order * q^e * 2^s < best, decided in integers."""
    lhs, rhs = (order * q ** e, best) if e >= 0 else (order, best * q ** -e)
    return lhs << s < rhs if s >= 0 else lhs < rhs << -s


def _runner_up(entries: list[_Entry], q: int, order: int, slack: int,
               evaluate: Callable[[object, int], int], seed: tuple = (None, -1, None)) -> tuple:
    """(label, degree) of the largest evaluate(label, q) over the entries and
    the seed, ties to the smallest tie key; (None, -1) if there are none.

    order is |G|_{q'} and slack is at least every entry's s.  A label whose
    bound is below the best degree so far cannot reach it and is not
    evaluated; once the bound with slack is below it, no later label (e no
    larger) can, and the walk stops.
    """
    runner, best, best_tie = seed
    for neg_e, tie, s, label in entries:
        if _below(order, -neg_e, slack, q, best):
            break
        if _below(order, -neg_e, s, q, best):
            continue
        d = evaluate(label, q)
        if d > best or (d == best and tie < best_tie):
            runner, best, best_tie = label, d, tie
    return runner, best


def _steinberg_outcome(st_degree: int, runner, runner_degree: int) -> tuple:
    if runner is None:  # only the Steinberg label exists
        return True, None, Fraction(1)
    return st_degree > runner_degree, runner, Fraction(st_degree, runner_degree)


def verify_steinberg_max(n: int, q_list: Iterable[int], fam: str) -> list[tuple]:
    """Check the Steinberg label has the strictly largest unipotent degree.

    Returns one (ok, runner_up_label, gap) per q in q_list, in order, where
    runner_up is the largest non-Steinberg label and gap = Steinberg degree /
    runner-up degree.  Among labels of equal degree the runner-up is the
    partition with the smallest parts (GL, GU) or the first symbol class in
    enumeration order (BC, D, 2D).

    Each degree is at most |G|_{q'} q^e 2^s (|G|_{q'} taken at -q and in
    absolute value for GU), since q^h - 1 >= q^h / 2 and q^k + 1 > q^k for
    q >= 2 and h, k >= 1; e = a - sum h - sum k, and s counts the factors
    q^h - 1 less the power of two c.  A partition lam has e = -n(lam') - n
    and s = n.  A reduced symbol with sorted entries z_j, j < m, has
    t_j = z_j - ceil(j/2) >= 0 (no entry occurs thrice, nor 0 twice),
    sum t_j = n - floor(m/2), e = E0(m) - sum t_j (t_j + c_j) with c_j = 1
    (j even) or 2 (j odd), and s = n - d^2/4 - c <= s_max = n - d_min^2/4.

    Symbol labels are searched in two bands (_symbol_search): band 1 holds
    those of the largest e, whose best degree L_q at q is at most the
    runner-up's R_q; band 2 goes down to the cut, the least e with
    |G|_{q'} q^e 2^s_max >= L_q at some q.  A label with e below the cut has
    degree <= |G|_{q'} q^e 2^s_max < L_q <= R_q at every q, so it is neither
    the runner-up nor tied with it.  (The degree is a polynomial in q of
    degree deg |G|_{q'} + e >= 0, and deg |G|_{q'} is n(n + 1) for BC and n^2
    for D and 2D, so no e is below -n(n + 1).)  The labels searched are
    sorted on (-e, tie key), the tie key being the parts or (defect, X, Y),
    the enumeration order; at each q the walk starts from the best label of
    band 1 and goes on through band 2.  It evaluates exactly only the labels
    whose bound, compared in integers with the best degree so far, can still
    reach it, and stops once the bound with slack n or s_max cannot.
    """
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    q_list = tuple(q_list)
    if any(q < 2 for q in q_list):
        raise ValueError("q must be >= 2")
    if n < 1:
        raise ValueError("rank must be >= 1")
    plans: dict[tuple, _DegreePlan] = {}  # built for the labels some q evaluates

    def evaluate(label: tuple, q: int) -> int:
        plan = plans.get(label)
        if plan is None:
            plan = plans[label] = _build_plan(label, fam, n)
        return plan.evaluate(q)

    if fam in ("GL", "GU"):
        steinberg, degree = Partition((1,) * n), degree_gl if fam == "GL" else degree_gu
        slack, entries = n, _partition_entries(n)
        seeds = [(None, -1, None)] * len(q_list)
    else:
        steinberg, degree = steinberg_symbol(n, fam), degree_symbol
        slack = n - _MIN_DEFECT[fam] ** 2 // 4
        seeds, entries = _symbol_search(n, fam, q_list, slack, evaluate)
    out = []
    for q, seed in zip(q_list, seeds):
        label, runner_degree = _runner_up(entries, q, order_pprime(fam, n, q), slack, evaluate, seed)
        runner = None if label is None else plans[label].labelled()
        out.append(_steinberg_outcome(degree(steinberg, q), runner, runner_degree))
    return out


# ---------------------------------------------------------------------------
# degree-increasing chains to the Steinberg symbol
# ---------------------------------------------------------------------------

def _is_cuspidal(sym: Symbol) -> bool:
    x, y = sym.X, sym.Y
    return not y and x == tuple(range(len(x)))


def _transfer_candidates(sym: Symbol) -> Iterator[Symbol]:
    set_x, set_y = set(sym.X), set(sym.Y)
    for v in sym.X:
        if v not in set_y:
            yield Symbol._from_valid_rows(tuple(sorted(set_x - {v})), tuple(sorted(set_y | {v})))
    for v in sym.Y:
        if v not in set_x:
            yield Symbol._from_valid_rows(tuple(sorted(set_x | {v})), tuple(sorted(set_y - {v})))


def _exchange_candidates(sym: Symbol) -> Iterator[Symbol]:
    """All moves lowering one entry by 1 and raising another by 1."""
    rows = (set(sym.X), set(sym.Y))
    for r1 in (0, 1):
        for u in sorted(rows[r1]):
            if u < 1 or u - 1 in rows[r1]:
                continue
            mid = (set(rows[0]), set(rows[1]))
            mid[r1].discard(u)
            mid[r1].add(u - 1)
            for r2 in (0, 1):
                for v in sorted(mid[r2]):
                    if v + 1 in mid[r2]:
                        continue
                    rows2 = (set(mid[0]), set(mid[1]))
                    rows2[r2].discard(v)
                    rows2[r2].add(v + 1)
                    yield Symbol._from_valid_rows(tuple(sorted(rows2[0])),
                                                  tuple(sorted(rows2[1])))


def _scripted_main_move(sym: Symbol) -> Iterator[Symbol]:
    """The hole-filling move: shift so 0 is in both rows, turn 0 into 1 in the
    0-but-not-1 row, and pull the topmost length-1 hook b+1 -> b."""
    shifted = canonicalize(sym).shifted()
    for cand in (shifted, shifted.swapped()):
        x, y = cand.X, cand.Y
        if 1 in x:
            continue
        set_x, set_y = set(x), set(y)
        hook_bs = [c - 1 for c in x if c >= 2 and c - 1 not in set_x]
        hook_bs += [c - 1 for c in y if c >= 2 and c - 1 not in set_y]
        if not hook_bs:
            continue
        b = max(hook_bs)
        if b == 1:
            continue
        new_x = set_x - {0} | {1}
        if b + 1 in set_x and b not in set_x:
            yield Symbol._from_valid_rows(tuple(sorted(new_x - {b + 1} | {b})), y)
        if b + 1 in set_y and b not in set_y:
            yield Symbol._from_valid_rows(tuple(sorted(new_x)),
                                          tuple(sorted(set_y - {b + 1} | {b})))


_Step = tuple[Symbol, _Rows]  # a chosen candidate and the canonical rows of its class
_Degrees = dict[tuple[_Rows, int], int]  # (canonical rows, q) -> degree of the class
_MAX_STEPS = 10_000


def _class_degree(sym: Symbol, rows: _Rows, q: int, degrees: _Degrees) -> int:
    """degree_symbol(sym, q) for sym of the class with canonical rows `rows`,
    read from degrees, or evaluated on sym and stored there."""
    out = degrees.get((rows, q))
    if out is None:
        out = degrees[rows, q] = degree_symbol(sym, q)
    return out


def _chain_step(rows: _Rows, q: int, n: int, degrees: _Degrees) -> _Step:
    """One step of stclass_chain from the class of rank n with canonical rows
    `rows`: the first candidate move, in _chain_candidates order and skipping
    repeated classes, whose degree at q exceeds the current one, with the
    canonical rows of its class.  Degrees come from the memo `degrees` (see
    _class_degree)."""
    odd = family_of_defect(len(rows[0]) - len(rows[1])) == "BC"
    cur_cls = Symbol._from_valid_rows(*rows)
    cur_degree = _class_degree(cur_cls, rows, q, degrees)
    seen = {rows}
    for cand in _chain_candidates(cur_cls):
        c_cls = canonicalize(cand)
        key = (c_cls.X, c_cls.Y)
        if key in seen:
            continue
        seen.add(key)
        if (symbol_rank(c_cls) != n
                or (family_of_defect(symbol_defect(c_cls)) == "BC") != odd):
            raise ArithmeticError(
                f"move from {cur_cls} to {c_cls} changes the rank or the defect parity")
        if _class_degree(cand, key, q, degrees) > cur_degree:
            return cand, key
    raise ArithmeticError(
        f"no degree-increasing move from {cur_cls} at q={q}; "
        "this would contradict Steinberg maximality")


def _walk_chain(sym: Symbol, q: int, memo: dict[tuple[_Rows, int], _Step | ArithmeticError],
                degrees: _Degrees, max_steps: int = _MAX_STEPS) -> list[Symbol]:
    """sym followed by the candidates that _chain_step chooses at q, up to a
    Steinberg class of its rank and defect parity (see _steinberg_classes).

    Each step is read from memo, keyed on (canonical rows, q), or taken by
    _chain_step, with its degrees read from and stored in `degrees`, and
    stored in memo with the ArithmeticError it raised, if any.  A stored
    error is shared by every chain through its class, so it is re-raised
    without its traceback, which would otherwise grow on each raise.
    """
    n = symbol_rank(sym)
    targets = _steinberg_classes(n, family_of_defect(symbol_defect(sym)))
    rows = _canonical_rows(sym)
    if rows in targets:
        raise ValueError(f"{sym} already labels the Steinberg character")
    chain = [sym]
    for _ in range(max_steps):
        if rows in targets:
            return chain
        out = memo.get((rows, q))
        if out is None:
            try:
                out = memo[rows, q] = _chain_step(rows, q, n, degrees)
            except ArithmeticError as exc:
                memo[rows, q] = exc
                raise
        elif isinstance(out, ArithmeticError):
            raise out.with_traceback(None)
        cand, rows = out
        chain.append(cand)
    raise ArithmeticError(f"chain from {sym} did not terminate in {max_steps} steps")


def stclass_chain(sym: Symbol, q: int, max_steps: int = _MAX_STEPS) -> list[Symbol]:
    """A chain of symbols from sym to a Steinberg symbol, degree strictly
    increasing at each step, with rank and defect parity preserved.

    Moves are tried in a fixed order: cuspidal split, the scripted
    hole-filling move, row transfers, then all +-1 entry exchanges (on the
    reduced and once-shifted representatives).  Raises if no move increases
    the degree, which would contradict Steinberg maximality.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    return _walk_chain(sym, q, {}, {}, max_steps)


def _chain_candidates(cls_symbol: Symbol) -> Iterator[Symbol]:
    if _is_cuspidal(cls_symbol) and len(cls_symbol.X) >= 1:
        x = cls_symbol.X
        yield Symbol._from_valid_rows(x[:-1], (x[-1],))
    yield from _scripted_main_move(cls_symbol)
    reps = [cls_symbol, cls_symbol.shifted()]
    for rep in reps:
        yield from _transfer_candidates(rep)
    for rep in reps:
        yield from _exchange_candidates(rep)
