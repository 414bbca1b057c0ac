"""Unipotent character degrees of the finite classical groups.

GL_n(q) and GU_n(q) degrees come from the quantized hook formula on partitions:
one checked integer division, which at -q gives the GU degree up to sign
(Ennola duality).  Types B/C, D and 2D are parametrized by symbols: pairs of
strictly increasing sequences up to shift-and-swap equivalence, with defect
parity selecting the type.  The degree formula divides q^{a(S)} |G|_{q'} by
(q^len - 1) over hooks and (q^len + 1) over cohooks of positive length;
length-0 cohooks are excluded, which is the normalization that makes the
trivial character evaluate to 1 and the Steinberg symbol to the full q-part
of the group order.

Symbols are enumerated on plain row tuples: each bipartition (alpha, beta)
of the right size gives the rows of one reduced symbol directly, so no
canonicalization or de-duplication is needed.  The q-independent part of the
degree formula (family, rank, a-value, power of 2, hook lengths of alpha and
beta, positive cohook lengths) is a degree plan, built from those tuples by
the same row-level formulas that symbol_stats uses, and evaluated for each q
against one table of q^k - 1 and q^k + 1 with one checked exact division.
degree_symbol caches the plan per canonical row pair; the Steinberg sweep in
verify_steinberg_max builds the plans of one rank, evaluates them for every q
in its list and keeps none of them afterwards.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .partitions import (
    Partition,
    _partition_tuples,
    beta_hook_cells,
    beta_parts,
    beta_row,
    hook_lengths,
    partitions_of,
)

FAMILIES = ("GL", "GU", "BC", "D", "2D")
SYMBOL_FAMILIES = ("BC", "D", "2D")


# ---------------------------------------------------------------------------
# type A: quantized hook formula
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
def _degree_gl(parts: tuple[int, ...], q: int) -> int:
    """q^a prod_{i <= n} (q^i - 1) / prod_h (q^h - 1) over the hook lengths h.

    Also the GU kernel: at -q the value is the GU_n(q) degree up to sign
    (Ennola duality), so q may be negative.
    """
    num = math.prod(q ** i - 1 for i in range(1, sum(parts) + 1))
    quot, rem = divmod(num, math.prod(q ** h - 1 for h in _hook_lengths(parts)))
    if rem:  # the quotient is a character degree, so this cannot fail
        raise ArithmeticError(f"non-integral type A degree for {parts}, q={q}")
    return q ** _a_value(parts) * quot


def degree_gl(lam: Partition, q: int) -> int:
    """Degree of the unipotent character of GL_n(q) labelled by lam."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return _degree_gl(lam.parts, q)


def degree_gu(lam: Partition, q: int) -> int:
    """Degree of the unipotent character of GU_n(q) labelled by lam."""
    if q < 2:
        raise ValueError("q must be >= 2")
    return abs(_degree_gl(lam.parts, -q))


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

    def __repr__(self) -> str:
        return f"Symbol({self.X}, {self.Y})"


@dataclass(frozen=True)
class SymbolClass:
    """Canonical representative of a shift-and-swap equivalence class."""

    symbol: Symbol

    @property
    def degenerate(self) -> bool:
        return self.symbol.degenerate

    @property
    def multiplicity(self) -> int:
        # degenerate classes carry two unipotent characters (type D only)
        return 2 if self.degenerate else 1


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


def _rows_a_value(x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """Sum of min(e, f) over pairs of entries, minus binom(r+s-2i, 2) for
    i >= 1 (binom(m, 2) = 0 for m < 2)."""
    entries = sorted(x + y)
    m = len(entries)
    return (sum(map(operator.mul, entries, range(m - 1, -1, -1)))
            - sum(k * (k - 1) // 2 for k in range(m - 2, 1, -2)))


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


def canonicalize(sym: Symbol) -> SymbolClass:
    """Reduced representative: strip common 0-shifts, longer row first.

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
    return SymbolClass(Symbol._from_valid_rows(x, y))


@lru_cache(maxsize=4096)
def _order_pprime_symbol(fam: str, n: int, q: int) -> int:
    """q'-part of the classical group order for the symbol families."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    if fam == "BC":
        out = 1
        for i in range(1, n + 1):
            out *= q ** (2 * i) - 1
        return out
    if fam in ("D", "2D"):
        out = q ** n - 1 if fam == "D" else q ** n + 1
        for i in range(1, n):
            out *= q ** (2 * i) - 1
        return out
    raise ValueError(f"not a symbol family: {fam}")


def symbol_two_power(sym: Symbol) -> int:
    """Power of 2 dividing the hook/cohook denominator normalization.

    Equals max(0, (|X delta Y| - 1) // 2); invariant under shift and swap.
    Calibrated so that the trivial symbol gives 1, the Steinberg symbols give
    the full q-part, and small-rank degree lists match the groups they must
    (B_1 = A_1, B_2 = Sp_4, D_2 = A_1 x A_1, D_3 = A_3, 2D_3 = 2A_3).
    """
    return _rows_two_power(sym.X, sym.Y)


@lru_cache(maxsize=1024)
def _factor_tables(q: int, top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(q^k - 1) and (q^k + 1) for k = 0..top."""
    powers = [q ** k for k in range(top + 1)]
    return tuple(p - 1 for p in powers), tuple(p + 1 for p in powers)


class _DegreePlan(NamedTuple):
    """q^a |G|_{q'} / (2^two_power prod(q^h - 1) prod(q^k + 1)) as a function of q.

    h runs over the hook lengths (minus) and k over the positive cohook
    lengths (plus); fam and rank select the q'-order |G|_{q'}.  x and y are
    the canonical rows of the symbol.
    """

    x: tuple[int, ...]
    y: tuple[int, ...]
    fam: str
    rank: int
    a: int
    two_power: int
    minus: tuple[int, ...]
    plus: tuple[int, ...]

    @property
    def top(self) -> int:
        """Largest entry of the rows, which bounds every hook and cohook length."""
        return max(self.x[-1:] + self.y[-1:], default=0)

    def evaluate(self, q: int, order_pprime: int,
                 tables: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        """The degree at q, given |G|_{q'} = _order_pprime_symbol(fam, rank, q)
        and tables = _factor_tables(q, top) for some top >= self.top."""
        minus_tab, plus_tab = tables
        den = (math.prod(map(minus_tab.__getitem__, self.minus), start=1 << self.two_power)
               * math.prod(map(plus_tab.__getitem__, self.plus)))
        quot, rem = divmod(q ** self.a * order_pprime, den)
        if rem != 0:
            raise ArithmeticError(
                f"non-integral symbol degree for {Symbol._from_valid_rows(self.x, self.y)}, q={q}")
        return quot


def _build_plan(x: tuple[int, ...], y: tuple[int, ...], alpha: tuple[int, ...],
                beta: tuple[int, ...], fam: str, rank: int) -> _DegreePlan:
    """Degree plan of the symbol (x, y) whose rows are beta-sets of the
    partitions alpha and beta; their hooks are the symbol's hooks."""
    return _DegreePlan(
        x, y, fam, rank,
        a=_rows_a_value(x, y),
        two_power=_rows_two_power(x, y),
        minus=_hook_lengths(alpha) + _hook_lengths(beta),
        plus=tuple(_cohook_lengths(x, y) + _cohook_lengths(y, x)),
    )


@lru_cache(maxsize=200_000)
def _symbol_plan(x: tuple[int, ...], y: tuple[int, ...]) -> _DegreePlan:
    """Degree plan of a canonical symbol (see canonicalize)."""
    rank = _rows_rank(x, y)
    if rank < 1:
        raise ValueError(f"symbol must have positive rank: {Symbol._from_valid_rows(x, y)}")
    return _build_plan(x, y, beta_parts(x), beta_parts(y),
                       family_of_defect(len(x) - len(y)), rank)


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
    canon = canonicalize(sym).symbol
    plan = _symbol_plan(canon.X, canon.Y)
    return plan.evaluate(q, _order_pprime_symbol(plan.fam, plan.rank, q),
                         _factor_tables(q, plan.top))


def _defects_for(fam: str, n: int) -> Iterator[int]:
    start = {"BC": 1, "D": 0, "2D": 2}[fam]
    d = start
    while d * d // 4 <= n:
        yield d
        d += 4 if fam in ("D", "2D") else 2


_Label = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def _symbol_labels(n: int, fam: str) -> list[_Label]:
    """Canonical rows (x, y) of every symbol class of rank n in the family,
    with the partitions (alpha, beta) they encode, sorted on (defect, x, y).

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
    labels: list[_Label] = []
    for d in _defects_for(fam, n):
        block: list[_Label] = []
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
                    block.append((x, y, alpha, beta))
        block.sort()  # on (x, y): distinct rows encode distinct classes
        labels += block
    return labels


def enumerate_symbols(n: int, fam: str) -> list[SymbolClass]:
    """All symbol classes of the given rank whose defect matches the family,
    sorted on (defect, X, Y)."""
    return [SymbolClass(Symbol._from_valid_rows(x, y)) for x, y, _, _ in _symbol_labels(n, fam)]


def steinberg_symbol(n: int, fam: str) -> Symbol:
    """Symbol of the Steinberg character: ((1..x),(0..y)) with rank n.

    BC: y = x = n.  D: y = x - 1, x = n (n >= 2).  2D: y = x + 1, x = n - 1
    (n >= 2).  The degree is q^{n^2} for BC and q^{n(n-1)} for D/2D.
    """
    if fam == "BC":
        if n < 1:
            raise ValueError("BC needs rank >= 1")
        return Symbol(tuple(range(1, n + 1)), tuple(range(0, n + 1)))
    if fam == "D":
        if n < 2:
            raise ValueError("D needs rank >= 2")
        return Symbol(tuple(range(1, n + 1)), tuple(range(0, n)))
    if fam == "2D":
        if n < 2:
            raise ValueError("2D needs rank >= 2")
        return Symbol(tuple(range(1, n)), tuple(range(0, n + 1)))
    raise ValueError(f"no Steinberg symbol for family {fam!r}")


def _steinberg_classes(n: int, parity: str) -> set[tuple]:
    """Canonical Steinberg classes acceptable for a chain endpoint."""
    if parity == "BC":
        cls = canonicalize(steinberg_symbol(n, "BC")).symbol
        return {(cls.X, cls.Y)}
    out = set()
    for fam in ("D", "2D"):
        if n >= 2:
            cls = canonicalize(steinberg_symbol(n, fam)).symbol
            out.add((cls.X, cls.Y))
    return out


# ---------------------------------------------------------------------------
# Steinberg maximality sweeps
# ---------------------------------------------------------------------------

def _steinberg_outcome(st_degree: int, runner, runner_degree: int) -> tuple:
    if runner is None:  # only the Steinberg label exists
        return True, None, Fraction(1)
    return st_degree > runner_degree, runner, Fraction(st_degree, runner_degree)


def _steinberg_max_partitions(n: int, q_list: tuple[int, ...], fam: str) -> list[tuple]:
    deg = degree_gl if fam == "GL" else degree_gu
    st_label = Partition((1,) * n)
    others = [lam for lam in partitions_of(n) if lam != st_label]
    out = []
    for q in q_list:
        st_degree = deg(st_label, q)
        runner = None
        runner_degree = -1
        for lam in others:
            d = deg(lam, q)
            if d > runner_degree or (d == runner_degree and lam.parts < runner.parts):
                runner, runner_degree = lam, d
        out.append(_steinberg_outcome(st_degree, runner, runner_degree))
    return out


def _steinberg_max_symbols(n: int, q_list: tuple[int, ...], fam: str) -> list[tuple]:
    st = canonicalize(steinberg_symbol(n, fam)).symbol
    plans = [_build_plan(x, y, alpha, beta, fam, n)
             for x, y, alpha, beta in _symbol_labels(n, fam) if (x, y) != (st.X, st.Y)]
    top = max((plan.top for plan in plans), default=0)
    out = []
    for q in q_list:
        order = _order_pprime_symbol(fam, n, q)
        tables = _factor_tables(q, top)
        st_degree = degree_symbol(st, q)
        runner = None
        runner_degree = -1
        for plan in plans:
            d = plan.evaluate(q, order, tables)
            if d > runner_degree:
                runner, runner_degree = plan, d
        if runner is not None:
            runner = SymbolClass(Symbol._from_valid_rows(runner.x, runner.y))
        out.append(_steinberg_outcome(st_degree, runner, runner_degree))
    return out


def verify_steinberg_max(n: int, q_list: Iterable[int], fam: str) -> list[tuple]:
    """Check the Steinberg label has the strictly largest unipotent degree.

    Returns one (ok, runner_up_label, gap) per q in q_list, in order, where
    runner_up is the largest non-Steinberg label and gap = Steinberg degree /
    runner-up degree.  Among labels of equal degree the runner-up is the
    partition with the smallest parts (GL, GU) or the first symbol class in
    enumeration order (BC, D, 2D).  Symbol families enumerate rank n once and
    build each label's degree plan once, then evaluate every plan for each q.
    """
    if fam not in FAMILIES:
        raise ValueError(f"unknown family {fam!r}")
    q_list = tuple(q_list)
    if any(q < 2 for q in q_list):
        raise ValueError("q must be >= 2")
    if fam in ("GL", "GU"):
        return _steinberg_max_partitions(n, q_list, fam)
    return _steinberg_max_symbols(n, q_list, fam)


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
    shifted = canonicalize(sym).symbol.shifted()
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


def stclass_chain(sym: Symbol, q: int, max_steps: int = 10_000) -> list[Symbol]:
    """A chain of symbols from sym to a Steinberg symbol, degree strictly
    increasing at each step, with rank and defect parity preserved.

    Moves are tried in a fixed order: cuspidal split, the scripted
    hole-filling move, row transfers, then all +-1 entry exchanges (on the
    reduced and once-shifted representatives).  Raises if no move increases
    the degree, which would contradict Steinberg maximality.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    n = symbol_rank(sym)
    parity = "BC" if symbol_defect(sym) % 2 == 1 else "even"
    targets = _steinberg_classes(n, "BC" if parity == "BC" else "even")
    cur = sym
    cur_cls = canonicalize(cur).symbol
    if (cur_cls.X, cur_cls.Y) in targets:
        raise ValueError(f"{sym} already labels the Steinberg character")
    chain = [sym]
    for _ in range(max_steps):
        cur_cls = canonicalize(cur).symbol
        if (cur_cls.X, cur_cls.Y) in targets:
            return chain
        cur_degree = degree_symbol(cur_cls, q)
        seen: set[tuple] = {(cur_cls.X, cur_cls.Y)}
        chosen = None
        for cand in _chain_candidates(cur_cls):
            c_cls = canonicalize(cand).symbol
            key = (c_cls.X, c_cls.Y)
            if key in seen:
                continue
            seen.add(key)
            if (symbol_rank(c_cls) != n
                    or (symbol_defect(c_cls) % 2 == 1) != (parity == "BC")):
                raise ArithmeticError(
                    f"move from {cur_cls} to {c_cls} changes the rank or the defect parity")
            if degree_symbol(c_cls, q) > cur_degree:
                chosen = cand
                break
        if chosen is None:
            raise ArithmeticError(
                f"no degree-increasing move from {cur_cls} at q={q}; "
                "this would contradict Steinberg maximality")
        chain.append(chosen)
        cur = chosen
    raise ArithmeticError(f"chain from {sym} did not terminate in {max_steps} steps")


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
