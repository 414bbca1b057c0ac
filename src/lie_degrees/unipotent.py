"""Unipotent character degrees of the finite classical groups.

Every degree here has one shape, q^a |G|_{q'} / (2^c prod(q^h - 1)
prod(q^k + 1)) (Carter, Finite Groups of Lie Type, 13.8), and one evaluator:
a label's degree plan is an orders.QProduct, its q-independent data,
evaluated at each q with one checked exact division.  GL_n(q) and GU_n(q)
unipotent characters are labelled by partitions: for GL, h runs over the
hook lengths, with no k and c = 0.  A GU degree is the GL formula at -q in
absolute value (Ennola duality); its plan applies that sign when it is
built, so h runs over the even hooks and k over the odd ones, and every
plan is read at +q.  Types B/C, D and 2D are labelled by symbols: pairs of
strictly increasing sequences up to shift-and-swap equivalence, with defect
parity selecting the type; h runs over the hooks and k over the cohooks of
positive length.  Length-0 cohooks are excluded, which is the normalization
that makes the trivial character evaluate to 1 and the Steinberg symbol to
the full q-part of the group order.  Every group order |G|_{q'} here is
read from the one table orders.order_pprime, and the label families and
their smallest defects from the package's family table.  Every rank keeps
to orders.check_rank: BC labels start at rank 1, D and 2D labels at rank 2
(rank 1 would be the torus Spin^{+-}_2), and a symbol of a smaller rank has
no degree, no enumeration and no chain.

Symbols are enumerated on plain row tuples: each bipartition (alpha, beta)
of the right size gives the rows of one reduced symbol directly, so no
canonicalization or de-duplication is needed.  A symbol's plan is built from
those tuples by the same row-level formulas that symbol_stats uses;
degree_symbol caches the plan per canonical row pair, and degree_gl and
degree_gu cache the degree per (parts, family, q).

The Steinberg sweep (verify_steinberg_max) looks for the exact runner-up at
each q without evaluating most labels.  With e = a - sum(hook lengths) -
sum(positive cohook lengths), the exponent key, and the slack (k1, k, c) -
k1 hooks of length 1 (the corners of the partitions), k longer hooks and the
power of 2 - the bounds q - 1 = q (1 - 1/q), q^h - 1 >= q^h (1 - 1/q^2) for
h >= 2 and q^k + 1 > q^k give degree <= |G|_{q'} q^e (q/(q - 1))^k1
(q^2/(q^2 - 1))^k / 2^c.  A symbol's e is a function of its entry multiset
(its Lusztig family), and a partition lam of n has e = -n(lam') - n with
n(lam') = sum binom(lam_i, 2), so symbols are generated a family at a time
and partitions by a budget on n(lam').  One search (_search) serves all five
families: the Steinberg label's e is -n in each, and from the one floor
-n - 1 the labels come in two bands of e: those of the largest e, whose
degrees bound the runner-up from below, and those down to the least e whose
bound can still reach one of them.  At each q the walk starts from the best
label of the first band, skips a label of the second whose bound, compared
in integers, is below the best degree so far, and stops once the bound with
the rank's largest slack is: no more corners than a staircase of the same
size has.  A label's plan is built the first time some q evaluates it, and
none is kept after the sweep.

A degree-increasing chain (stclass_chain) walks from a symbol class to a
Steinberg class on canonical row pairs: the next class (_chain_step) is that
of the first candidate move whose degree at q exceeds the current one, so it
depends only on the class and q.  Each step and each degree (_class_degree)
is read once per (rows, q) into a memo, and each class's moves are listed
once for every q, as far as some q's step has tried them (_class_moves);
stclass_chain walks one chain with fresh memos, and stclass_chains the
chains of every class through one set, which D and 2D share, since chains
cross between them.  Each step raises the degree, so no chain cycles, and
none needs a cap on its steps.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from typing import Callable, Iterable, Iterator

from . import _LABEL_FAMILIES, _SYMBOL_DEFECT, _int_tuple, _record
from .orders import QProduct, check_q, check_rank, min_rank, order_pprime
from .partitions import (
    Partition,
    _immutable,
    _partition_tuples,
    beta_hook_cells,
    beta_parts,
    beta_row,
    hook_lengths,
)


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


@lru_cache(maxsize=200_000, typed=True)
def _partition_degree(parts: tuple[int, ...], fam: str, q: int) -> int:
    """The GL or GU degree at q of the partition with these parts, from its
    plan; kept per (parts, family, q), since the checks ask for it again, and
    typed, so that no float q reads an int's entry past evaluate's check."""
    return _build_plan(parts, fam, sum(parts)).evaluate(q)


def degree_gl(lam: Partition, q: int) -> int:
    """Degree of the unipotent character of GL_n(q) labelled by lam."""
    return _partition_degree(lam.parts, "GL", q)


def degree_gu(lam: Partition, q: int) -> int:
    """Degree of the unipotent character of GU_n(q) labelled by lam."""
    return _partition_degree(lam.parts, "GU", q)


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def _check_row(row: Iterable[int]) -> tuple[int, ...]:
    r = _int_tuple(row, "symbol entries")
    if any(x < 0 for x in r):
        raise ValueError(f"symbol entries must be non-negative: {r}")
    if any(a >= b for a, b in zip(r, r[1:])):
        raise ValueError(f"symbol rows must be strictly increasing: {r}")
    return r


def _shifted(row: tuple[int, ...]) -> tuple[int, ...]:
    return (0,) + tuple(v + 1 for v in row)


class Symbol:
    """A pair of strictly increasing sequences of non-negative integers.

    Immutable, and equal (hashed alike) only to a Symbol with the same rows,
    never to the (X, Y) tuple that keys the chain memos.  Pickling and
    copying go through the validating constructor.
    """

    __slots__ = ("X", "Y")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, X: Iterable[int], Y: Iterable[int]):
        object.__setattr__(self, "X", _check_row(X))
        object.__setattr__(self, "Y", _check_row(Y))

    @classmethod
    def _from_valid_rows(cls, x: tuple[int, ...], y: tuple[int, ...]) -> "Symbol":
        """Build from int tuples already known to be valid rows, skipping _check_row."""
        sym = object.__new__(cls)
        object.__setattr__(sym, "X", x)
        object.__setattr__(sym, "Y", y)
        return sym

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.X == other.X and self.Y == other.Y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.X, self.Y))

    def __reduce__(self):
        return type(self), (self.X, self.Y)

    def shifted(self) -> "Symbol":
        return Symbol._from_valid_rows(_shifted(self.X), _shifted(self.Y))

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


class SymbolStats(_record("SymbolStats", "rank defect a hooks cohooks")):
    """Rank, defect and a-value of a symbol, and its (b, c) hooks and cohooks."""

    __slots__ = ()


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
    return next(fam for fam, d in _SYMBOL_DEFECT.items()
                if (defect - d) % (2 if d % 2 else 4) == 0)


_Rows = tuple[tuple[int, ...], tuple[int, ...]]


def _canonical(x: tuple[int, ...], y: tuple[int, ...]) -> _Rows:
    """The rows of canonicalize(Symbol(x, y)), without building a Symbol."""
    # stripping a common leading 0 keeps both rows strictly increasing and
    # non-negative, so the result needs no re-validation
    while x and y and x[0] == 0 and y[0] == 0:
        x = tuple(v - 1 for v in x[1:])
        y = tuple(v - 1 for v in y[1:])
    return (y, x) if (len(y), y) > (len(x), x) else (x, y)


def canonicalize(sym: Symbol) -> Symbol:
    """Reduced representative of the shift-and-swap class: strip common
    0-shifts, longer row first.

    Equal-length rows are ordered with the lexicographically larger first,
    so e.g. ((0,2),(0,1)) reduces to ((1),(0)).
    """
    return Symbol._from_valid_rows(*_canonical(sym.X, sym.Y))


def symbol_two_power(sym: Symbol) -> int:
    """Power of 2 dividing the hook/cohook denominator normalization.

    Equals max(0, (|X delta Y| - 1) // 2); invariant under shift and swap.
    Calibrated so that the trivial symbol gives 1, the Steinberg symbols give
    the full q-part, and small-rank degree lists match the groups they must
    (B_1 = A_1, B_2 = Sp_4, D_2 = A_1 x A_1, D_3 = A_3, 2D_3 = 2A_3).
    """
    return _rows_two_power(sym.X, sym.Y)


# ---------------------------------------------------------------------------
# degree plans: every unipotent degree is an orders.QProduct
# ---------------------------------------------------------------------------

def _labelled(plan: QProduct) -> Partition | Symbol:
    """The label of a plan as the Partition or the Symbol it is."""
    if plan.fam in ("GL", "GU"):
        return Partition._from_valid_parts(plan.label)
    return Symbol._from_valid_rows(*plan.label)


def _build_plan(label: tuple, fam: str, rank: int) -> QProduct:
    """Degree plan of a label of the family: the parts of a partition (GL,
    GU), or canonical rows (x, y), whose hooks are those of the partitions
    their beta-sets encode (BC, D, 2D).  A GU plan is the GL formula at -q
    with Ennola's sign applied: (-q)^h - 1 is q^h - 1 for an even hook and
    -(q^h + 1) for an odd one, so its even hooks are minus and its odd hooks
    plus."""
    if fam in ("GL", "GU"):
        hooks = _hook_lengths(label)
        minus, plus = hooks, ()
        if fam == "GU":
            minus = tuple(h for h in hooks if h % 2 == 0)
            plus = tuple(h for h in hooks if h % 2)
        return QProduct(label, fam, rank, a=_a_value(label), two_power=0, minus=minus,
                        plus=plus, top=max(hooks, default=0))
    x, y = label
    return QProduct(
        label, fam, rank,
        a=_rows_a_value(x, y),
        two_power=_rows_two_power(x, y),
        minus=_hook_lengths(beta_parts(x)) + _hook_lengths(beta_parts(y)),
        plus=tuple(_cohook_lengths(x, y) + _cohook_lengths(y, x)),
        top=max(x[-1:] + y[-1:], default=0),
    )


@lru_cache(maxsize=200_000)
def _symbol_plan(x: tuple[int, ...], y: tuple[int, ...]) -> QProduct:
    """Degree plan of a canonical symbol (see canonicalize)."""
    fam = family_of_defect(len(x) - len(y))
    return _build_plan((x, y), fam, check_rank(fam, _rows_rank(x, y)))


def degree_symbol(sym: Symbol, q: int) -> int:
    """Degree of the unipotent character labelled by the symbol.

    The family (and hence the q'-order) is inferred from the defect parity.
    The denominator runs over hooks (q^len - 1) and positive-length cohooks
    (q^len + 1), times 2^c with c = symbol_two_power; for degenerate symbols
    (X = Y) this value is the degree of each of the two characters the class
    carries.
    """
    return _symbol_plan(*_canonical(sym.X, sym.Y)).evaluate(q)


def _defects_for(fam: str, n: int) -> Iterator[int]:
    d = _SYMBOL_DEFECT[fam]
    while d * d // 4 <= n:
        yield d
        d += 2 if d % 2 else 4


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
    if fam not in _SYMBOL_DEFECT:
        raise ValueError(f"enumeration is for symbol families, not {fam!r}")
    check_rank(fam, n)
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
    if fam not in _SYMBOL_DEFECT:
        raise ValueError(f"no Steinberg symbol for family {fam!r}")
    check_rank(fam, n)
    d = _SYMBOL_DEFECT[fam]
    x = n - d // 2
    return Symbol(tuple(range(1, x + 1)), tuple(range(0, x + d)))


@lru_cache(maxsize=256)
def _steinberg_classes(n: int, fam: str) -> frozenset[_Rows]:
    """Canonical rows of the Steinberg classes of rank n that end a chain from
    a class of the family: BC's own, or for D and 2D those of both, since
    chains cross between them."""
    fams = [f for f, d in _SYMBOL_DEFECT.items() if (d - _SYMBOL_DEFECT[fam]) % 2 == 0]
    return frozenset(_canonical(st.X, st.Y) for st in (steinberg_symbol(n, f) for f in fams))


# ---------------------------------------------------------------------------
# Steinberg maximality sweeps
# ---------------------------------------------------------------------------

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


# One label of a runner-up search: (-e, tie key, slack, label), where slack
# is (k1, k, c) and the degree at q is at most |G|_{q'} q^e (q/(q - 1))^k1
# (q^2/(q^2 - 1))^k / 2^c; a list of them is sorted on (-e, tie key).
_Slack = tuple[int, int, int]
_Entry = tuple[int, object, _Slack, tuple]


def _corners(row: tuple[int, ...]) -> int:
    """Hooks of length 1 of the partition the beta-set row encodes, its
    corners: the entries c >= 1 with c - 1 not in the row."""
    return sum(1 for i, c in enumerate(row) if c and (i == 0 or row[i - 1] != c - 1))


def _corner_cap(m: int) -> int:
    """r(m), the most corners a partition of m has: the largest r with
    r(r + 1)/2 <= m, the staircase (r, r - 1, .., 1) being the least partition
    with r distinct parts."""
    return (math.isqrt(8 * m + 1) - 1) // 2


def _slack_cap(fam: str, n: int) -> _Slack:
    """(K1, M - K1, 0), a slack whose bound is at least that of every label of
    rank n in the family: M is the number of hooks (n, or n - d_min^2/4 for
    symbols) and K1 the most corners M boxes have (r(M), or the largest
    r(a) + r(M - a) over a bipartition)."""
    if fam in ("GL", "GU"):
        return _corner_cap(n), n - _corner_cap(n), 0
    m = n - _SYMBOL_DEFECT[fam] ** 2 // 4
    k1 = max(_corner_cap(a) + _corner_cap(m - a) for a in range(m + 1))
    return k1, m - k1, 0


def _partition_entries(n: int, floor: int) -> Iterator[_Entry]:
    """Search entries of the non-Steinberg partitions lam of n with
    e = -n(lam') - n >= floor, where n(lam') = sum binom(lam_i, 2): a DFS
    places the parts >= 2, largest first, under the budget -floor - n, and
    fills the rest with 1s, so e is floor plus the unspent budget.  Of the n
    hooks, k1 are the corners (distinct parts), and c = 0; the parts are the
    tie key and the label.
    """
    def place(parts: tuple[int, ...], rest: int, left: int) -> Iterator[_Entry]:
        if parts:  # (1^n), the Steinberg label, is no entry
            label = parts + (1,) * rest
            k1 = len(set(label))
            yield -floor - left, label, (k1, n - k1, 0), label
        for v in range(min(parts[-1:] + (rest,)), 1, -1):
            if v * (v - 1) // 2 <= left:
                yield from place(parts + (v,), rest - v, left - v * (v - 1) // 2)

    return place((), n, -floor - n)


def _symbol_entries(n: int, fam: str, floor: int) -> Iterator[_Entry]:
    """Search entries of the non-Steinberg symbol classes of rank n in the
    family with e >= floor, one entry multiset at a time: z_j = t_j +
    ceil(j/2) for t from _excess_sequences, so e = E0(m) - penalty; x takes
    the doubles and (k + d)/2 of the k singletons for each defect d of the
    family (for d = 0 only x >= y).  Of the n - d^2/4 hooks, k1 are the
    corners of x and y, and c = max(0, (k - 1) // 2).  The tie key (d, x, y)
    is the order of _symbol_labels; the label is (x, y).
    No e is below -n(n + 1) (see verify_steinberg_max), so that floor yields
    every label.
    """
    st = steinberg_symbol(n, fam)
    steinberg = _canonical(st.X, st.Y)
    for m in range(2 - _SYMBOL_DEFECT[fam] % 2, 2 * n + 2, 2):
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
                    k1 = _corners(x) + _corners(y)
                    yield (penalty - _base_exponent(m), (d, x, y),
                           (k1, n - d * d // 4 - k1, max(0, (len(singles) - 1) // 2)), (x, y))


def _search(n: int, fam: str, q_list: tuple[int, ...], slack: _Slack,
            evaluate: Callable[[object, int], int]) -> tuple[list[tuple], list[_Entry]]:
    """The seed (label, degree, tie key) of each q, the best label of band 1,
    the labels of the largest e (ties to the smallest tie key), and the sorted
    search entries of band 2, those below it down to the cut, the least e
    whose bound with slack reaches a seed's degree (see
    verify_steinberg_max).  Every seed is (None, -1, None) when the Steinberg
    label is the only one (GL_1, GU_1)."""
    def entries(floor: int) -> list[_Entry]:
        return sorted(_partition_entries(n, floor) if fam in ("GL", "GU")
                      else _symbol_entries(n, fam, floor))

    floor = -n - 1  # one below the Steinberg e, -n in every family
    # no label that close (2D_2): take them all
    top = entries(floor) or entries(-n * (n + 1))
    if not top:
        return [(None, -1, None)] * len(q_list), []
    band = [entry for entry in top if entry[0] == top[0][0]]
    cut, seeds = -top[0][0], []
    for q in q_list:
        seeds.append(_runner_up(band, q, order_pprime(fam, n, q), slack, evaluate))
        while not _below(order_pprime(fam, n, q), cut - 1, slack, q, seeds[-1][1]):
            cut -= 1
    return seeds, (top if cut >= floor else entries(cut))[len(band):]


def _below(order: int, e: int, slack: _Slack, q: int, best: int) -> bool:
    """order q^e (q/(q - 1))^k1 (q^2/(q^2 - 1))^k / 2^c < best for the slack
    (k1, k, c), decided in integers as order q^(e + k1 + 2k) < best (q - 1)^k1
    (q^2 - 1)^k 2^c."""
    k1, k, c = slack
    e += k1 + 2 * k
    lhs, rhs = (order * q ** e, best) if e >= 0 else (order, best * q ** -e)
    return lhs < (rhs * (q - 1) ** k1 * (q * q - 1) ** k) << c


def _runner_up(entries: list[_Entry], q: int, order: int, slack: _Slack,
               evaluate: Callable[[object, int], int], seed: tuple = (None, -1, None)) -> tuple:
    """(label, degree, tie key) of the largest evaluate(label, q) over the
    entries and the seed, ties to the smallest tie key; (None, -1, None) if
    there are none.

    order is |G|_{q'} and slack is a slack whose bound is at least every
    entry's at the same e.  A label whose bound is below the best degree so
    far cannot reach it and is not evaluated; once the bound with slack is
    below it, no later label (e no larger) can, and the walk stops.
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
    return runner, best, best_tie


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

    Each degree is at most |G|_{q'} q^e (q/(q - 1))^k1 (q^2/(q^2 - 1))^k / 2^c,
    since for q >= 2 a hook of length 1 has q - 1 = q (1 - 1/q), a longer
    one q^h - 1 >= q^h - q^(h - 2) = q^h (1 - 1/q^2), and a cohook
    q^k + 1 > q^k (a GU plan's odd hook h has q^h + 1 > q^h - 1, so it is
    bounded as a hook).  Here e = a - sum h - sum k over all the plan's
    factors, k1 counts the hooks of length 1, k the other hooks and c is the
    power of two.  A partition lam has e = -n(lam') - n, n(lam') = sum binom(lam_i, 2),
    k1 the number of its corners (distinct parts), k = n - k1 and c = 0.  A
    reduced symbol with sorted entries z_j, j < m, has t_j = z_j - ceil(j/2)
    >= 0 (no entry occurs thrice, nor 0 twice), sum t_j = n - floor(m/2),
    e = E0(m) - sum t_j (t_j + c_j) with c_j = 1 (j even) or 2 (j odd),
    k1 + k = n - d^2/4 hooks, k1 the corners of its bipartition and
    c = max(0, (singletons - 1) // 2).

    The slack cap (K1, M - K1, 0) bounds every label's factor: M = n, or
    n - d_min^2/4 for symbols, is the most hooks a label has, and K1 the most
    corners, r(M) for a partition and the largest r(a) + r(M - a) for a
    bipartition, where r(m) is the largest r with r(r + 1)/2 <= m (a
    partition with r corners has r distinct parts, so at least r(r + 1)/2
    boxes).  Since q/(q - 1) >= q^2/(q^2 - 1) >= 1, k1 <= K1 and k1 + k <= M
    give (q/(q - 1))^k1 (q^2/(q^2 - 1))^k <= (q/(q - 1))^K1
    (q^2/(q^2 - 1))^(M - K1).

    Labels of every family are searched in two bands (_search), generated
    down from one floor, -n - 1: the Steinberg label has e = -n in each
    family, since deg |G|_{q'} = N + n and its degree is q^N.  Partitions
    come by budget (a DFS placing the parts >= 2 while n(lam') <= -floor - n)
    and symbols by entry multiset.  Band 1 holds the labels of the largest e,
    whose best degree L_q at q is at most the runner-up's R_q; band 2 goes
    down to the cut, the least e whose bound with the cap is >= L_q at some
    q.  A label with e below the cut has degree below L_q <= R_q at every q,
    so it is neither the runner-up nor tied with it.  (The degree is a
    polynomial in q of degree deg |G|_{q'} + e >= 0, and deg |G|_{q'} is
    n(n + 1)/2 for GL and GU, n(n + 1) for BC and n^2 for D and 2D, so no e
    is below -n(n + 1).)  The labels searched are sorted on (-e, tie key),
    the tie key being the parts or (defect, X, Y), the enumeration order; at
    each q the walk starts from the best label of band 1 and goes on through
    band 2.  It evaluates exactly only the labels whose bound, compared in
    integers with the best degree so far, can still reach it, and stops once
    the bound with the cap cannot.
    """
    if fam not in _LABEL_FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    q_list = tuple(map(check_q, q_list))
    check_rank(fam, n)
    plans: dict[tuple, QProduct] = {}  # built for the labels some q evaluates

    def evaluate(label: tuple, q: int) -> int:
        plan = plans.get(label)
        if plan is None:
            plan = plans[label] = _build_plan(label, fam, n)
        return plan.evaluate(q)

    steinberg = Partition((1,) * n) if fam in ("GL", "GU") else steinberg_symbol(n, fam)
    degree = {"GL": degree_gl, "GU": degree_gu}.get(fam, degree_symbol)
    slack = _slack_cap(fam, n)
    seeds, entries = _search(n, fam, q_list, slack, evaluate)
    out = []
    for q, seed in zip(q_list, seeds):
        label, runner_degree, _ = _runner_up(entries, q, order_pprime(fam, n, q), slack, evaluate, seed)
        runner = None if label is None else _labelled(plans[label])
        out.append(_steinberg_outcome(degree(steinberg, q), runner, runner_degree))
    return out


# ---------------------------------------------------------------------------
# degree-increasing chains to the Steinberg symbol
# ---------------------------------------------------------------------------

def _transfer_moves(x: tuple[int, ...], y: tuple[int, ...]) -> Iterator[_Rows]:
    """All moves of one entry to the other row."""
    set_x, set_y = set(x), set(y)
    for v in x:
        if v not in set_y:
            yield tuple(sorted(set_x - {v})), tuple(sorted(set_y | {v}))
    for v in y:
        if v not in set_x:
            yield tuple(sorted(set_x | {v})), tuple(sorted(set_y - {v}))


def _bumped(rows: _Rows, r: int, i: int, step: int) -> _Rows:
    """rows with entry i of row r moved by step, to a value not in the row."""
    row = rows[r][:i] + (rows[r][i] + step,) + rows[r][i + 1:]
    return (row, rows[1]) if r == 0 else (rows[0], row)


def _exchange_moves(x: tuple[int, ...], y: tuple[int, ...]) -> Iterator[_Rows]:
    """All moves lowering one entry by 1 and raising another by 1, each to a
    value not in its row (so the rows stay sorted)."""
    rows = (x, y)
    for r1 in (0, 1):
        for i, u in enumerate(rows[r1]):
            if u < 1 or u - 1 in rows[r1]:
                continue
            mid = _bumped(rows, r1, i, -1)
            for r2 in (0, 1):
                for j, v in enumerate(mid[r2]):
                    if v + 1 not in mid[r2]:
                        yield _bumped(mid, r2, j, 1)


def _scripted_main_move(x: tuple[int, ...], y: tuple[int, ...]) -> Iterator[_Rows]:
    """The hole-filling move from canonical rows: shift so 0 is in both rows,
    turn 0 into 1 in the 0-but-not-1 row, and pull the topmost length-1 hook
    b+1 -> b."""
    shifted = (_shifted(x), _shifted(y))
    for cx, cy in (shifted, shifted[::-1]):
        if 1 in cx:
            continue
        set_x, set_y = set(cx), set(cy)
        hook_bs = [c - 1 for c in cx if c >= 2 and c - 1 not in set_x]
        hook_bs += [c - 1 for c in cy if c >= 2 and c - 1 not in set_y]
        if not hook_bs:
            continue
        b = max(hook_bs)
        if b == 1:
            continue
        new_x = set_x - {0} | {1}
        if b + 1 in set_x and b not in set_x:
            yield tuple(sorted(new_x - {b + 1} | {b})), cy
        if b + 1 in set_y and b not in set_y:
            yield tuple(sorted(new_x)), tuple(sorted(set_y - {b + 1} | {b}))


def _chain_candidates(x: tuple[int, ...], y: tuple[int, ...]) -> Iterator[_Rows]:
    """The moves from the class with canonical rows (x, y), in the order a
    chain tries them: the cuspidal split, the scripted move, then the
    transfers and the exchanges on the reduced and once-shifted rows."""
    if x and not y and x == tuple(range(len(x))):  # cuspidal
        yield x[:-1], (x[-1],)
    yield from _scripted_main_move(x, y)
    reps = ((x, y), (_shifted(x), _shifted(y)))
    for rep in reps:
        yield from _transfer_moves(*rep)
    for rep in reps:
        yield from _exchange_moves(*rep)


_Degrees = dict[tuple[_Rows, int], int]  # (canonical rows, q) -> degree of the class
_Steps = dict[tuple[_Rows, int], _Rows]  # (canonical rows, q) -> the next class
_Moves = dict[_Rows, list[_Rows]]  # canonical rows -> the class's _class_moves tried so far


def _class_degree(rows: _Rows, q: int) -> int:
    """The degree at q of the symbol class with canonical rows `rows`."""
    return _symbol_plan(*rows).evaluate(q)


def _class_moves(rows: _Rows, n: int) -> Iterator[_Rows]:
    """The canonical rows of the moves from the class with canonical rows
    `rows`, of rank n, in _chain_candidates order, each class once and never
    rows itself.  A move that changes the rank or the defect parity raises
    ArithmeticError where it comes, so it stops a chain only at a q whose
    step gets that far."""
    odd = (len(rows[0]) - len(rows[1])) % 2
    seen = {rows}
    for move in _chain_candidates(*rows):
        key = _canonical(*move)
        if key in seen:
            continue
        seen.add(key)
        if _rows_rank(*key) != n or (len(key[0]) - len(key[1])) % 2 != odd:
            raise ArithmeticError(
                f"move from {Symbol._from_valid_rows(*rows)} to "
                f"{Symbol._from_valid_rows(*key)} changes the rank or the defect parity")
        yield key


def _chain_step(rows: _Rows, q: int, n: int, degrees: _Degrees, moves: _Moves) -> _Rows:
    """The canonical rows of the class after `rows`, of rank n, on a chain at
    q: those of the first of its _class_moves whose degree at q exceeds the
    current one.  The moves are listed in `moves` as far as some q has tried
    them; a q that goes past them generates the moves again and lists the
    ones after them.  Each degree is read from `degrees` or taken from
    _class_degree and stored there."""
    def degree(key: _Rows) -> int:
        out = degrees.get((key, q))
        if out is None:
            out = degrees[key, q] = _class_degree(key, q)
        return out

    current = degree(rows)
    listed = moves.setdefault(rows, [])
    for key in listed:
        if degree(key) > current:
            return key
    for key in islice(_class_moves(rows, n), len(listed), None):
        listed.append(key)
        if degree(key) > current:
            return key
    raise ArithmeticError(
        f"no degree-increasing move from {Symbol._from_valid_rows(*rows)} at q={q}; "
        "this would contradict Steinberg maximality")


def _walk(rows: _Rows, q: int, n: int, targets: frozenset[_Rows],
          steps: _Steps, degrees: _Degrees, moves: _Moves) -> list[_Rows]:
    """rows, canonical and of rank n, followed by the rows that _chain_step
    chooses at q, each read from `steps` or taken and stored there, up to one
    of targets (see _steinberg_classes).  A class's moves are listed in
    `moves` for every q, only as far as some q's step has tried them: most
    steps stop at the first or second move, and the generator is not kept
    (at rank <= 8 and q = 2..5 no step goes past the moves an earlier q
    listed).  Each step raises the degree within the finite set of classes
    of rank n, so the walk ends."""
    chain = [rows]
    while rows not in targets:
        after = steps.get((rows, q))
        if after is None:
            after = steps[rows, q] = _chain_step(rows, q, n, degrees, moves)
        rows = after
        chain.append(rows)
    return chain


def stclass_chain(sym: Symbol, q: int) -> list[Symbol]:
    """A chain of symbols from sym to a Steinberg symbol, degree strictly
    increasing at each step, with rank and defect parity preserved: sym,
    then the reduced symbol (see canonicalize) of each class after it.

    Moves are tried in a fixed order: cuspidal split, the scripted
    hole-filling move, row transfers, then all +-1 entry exchanges (on the
    reduced and once-shifted representatives).  ValueError below the
    family's rank (orders.check_rank); ArithmeticError if no move increases
    the degree, which would contradict Steinberg maximality.
    """
    rows = _canonical(sym.X, sym.Y)
    plan = _symbol_plan(*rows)  # its rank, by check_rank, and its family
    targets = _steinberg_classes(plan.rank, plan.fam)
    if rows in targets:
        raise ValueError(f"{sym} already labels the Steinberg character")
    chain = _walk(rows, q, plan.rank, targets, {}, {}, {})
    return [sym] + [Symbol._from_valid_rows(*r) for r in chain[1:]]


def stclass_chains(rank_max: int, q_list: Iterable[int]) -> Iterator[tuple]:
    """(family, n, rows, q, chain, error) for each non-Steinberg symbol class
    of rank n <= rank_max, with canonical rows `rows`, and each q: BC, D, then
    2D, each by rank, then in enumeration order, then by q.

    chain is the canonical rows of the class's stclass_chain at q, and error
    None or the text of the ArithmeticError that stopped the chain (chain
    None).  All chains share one step memo, one degree memo and one move memo
    (see _walk), D and 2D too, since chains cross between them: each class's
    step is taken, and its degree evaluated, once per q, and its moves are
    generated and canonicalized once for all the q, unless a q goes past the
    ones an earlier q listed.  A move that changes the rank or the defect
    parity is never listed: the listing raises that error where it reaches
    it, so it stops the chain at every q whose step gets there and at no
    other.  A step goes only to a class whose degree in that memo is larger,
    so every chain increases.
    """
    q_list = tuple(map(check_q, q_list))
    steps: _Steps = {}
    degrees: _Degrees = {}
    moves: _Moves = {}
    for fam in _SYMBOL_DEFECT:
        for n in range(min_rank(fam), rank_max + 1):
            targets = _steinberg_classes(n, fam)
            for rows in _symbol_labels(n, fam):
                if rows in targets:
                    continue
                for q in q_list:
                    try:
                        chain = _walk(rows, q, n, targets, steps, degrees, moves)
                    except ArithmeticError as exc:
                        yield fam, n, rows, q, None, str(exc)
                    else:
                        yield fam, n, rows, q, chain, None
