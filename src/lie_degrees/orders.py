"""Group orders and the exact degrees built on them: the one table of
|G|_{q'} for every family, on the one bracket kernel [c] = prod (Q^{c_i} - 1),
the exponent of |G|_p beside it, and QProduct, the one shape of every exact
degree, q^a |G|_{q'} / (2^c prod(q^h - 1) prod(q^k + 1)).

Group ranks follow the matrix conventions: family A of rank n is SL_n, 2A is
SU_n, B/C rank n are Spin_{2n+1}/Sp_{2n}, D/2D rank n are Spin^{+-}_{2n}.
Family names are read from the package's family table, so an order can be
asked for a family of either kind (A or GL, B or BC); the unitary groups are
read at Q = -q in absolute value (Ennola duality).  A QProduct is always
evaluated at +q: a GU degree, the GL formula at -q, is built with that sign
already applied, its odd hooks h as factors q^h + 1.

check_q and check_rank are the two named uses of the package's one rule
for an integer argument, _check_int.  check_q asks for an int q >= 2;
QProduct.evaluate applies it before any table.  The caches keyed by q that
a caller reaches before any check (order_pprime, unipotent._partition_degree,
qexact.euler_interval, maxdegree._block_budget) are typed and check q in
their body: untyped, a float 3.0 would hit the entry of 3, or store a float
that 3 then reads.  check_rank asks for a Lie rank, an int of at least
min_rank(family): 2 for D and 2D, 1 for every other family.  Its one
exception is GL_0 = GU_0 = 1 in order_pprime, for an int 0 only, since the
empty partition labels the trivial character.  bracket takes an int q of
either sign, |q| >= 2, since the unitary orders read it at -q.

A leaf module: it imports only the family table, so the unipotent degrees
and the GL type degrees read their group orders and their evaluator here
without loading the certified enclosures of qexact or the largest-degree
machinery of maxdegree, which import the same names from here.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import _LABEL_FAMILIES, _LABEL_FAMILY, _check_int, _int_tuple


def check_q(q: int) -> int:
    """q itself if it is an int >= 2, by _check_int (prime powers:
    check_field_order)."""
    return _check_int(q, 2, "q")


def _check_bracket_seq(c: Iterable[int]) -> tuple[int, ...]:
    seq = _int_tuple(c, "bracket sequence entries")
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
    if abs(_check_int(q, -math.inf, "q")) < 2:  # an int of either sign
        raise ValueError("|q| must be >= 2")
    out = 1
    for ci in seq:
        out *= q ** ci - 1
    return out


def _label_family(family: str) -> str:
    """The label family of a family of either kind: A -> GL, GL -> GL."""
    label = _LABEL_FAMILY.get(family, family)
    if label not in _LABEL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return label


def min_rank(family: str) -> int:
    """Smallest rank of the family's groups: 2 for D and 2D (rank 1 would be
    the torus Spin^{+-}_2), 1 for every other family of either kind."""
    return 2 if _label_family(family) in ("D", "2D") else 1


def check_rank(family: str, n: int) -> int:
    """n if it is an int >= min_rank(family), by _check_int, with the
    family named in the ValueError."""
    least = min_rank(family)
    if _check_int(n, -math.inf, "rank") < least:  # its type test only
        raise ValueError(f"family {family} needs rank >= {least}")
    return n


@lru_cache(maxsize=4096, typed=True)
def order_pprime(family: str, n: int, q: int) -> int:
    """|G|_{p'} of GL_n(q), GU_n(q), SL_n (A), SU_n (2A) or the rank-n group
    of family B, C, BC (Spin_{2n+1} / Sp_{2n}), D or 2D (Spin^{+-}_{2n}).

    GL: [1..n] at q, A: [2..n] at q, GU and 2A: the same at -q in absolute
    value, B/C/BC: [1..n] at q^2, D/2D: (q^n -+ 1) [1..n-1] at q^2, with
    [c] = bracket(c, Q).  GL_0 = GU_0 = 1 (the empty partition); every
    other rank keeps to check_rank.
    """
    check_q(q)
    label = _label_family(family)
    if not (type(n) is int and n == 0 and family in ("GL", "GU")):
        check_rank(family, n)
    if label in ("GL", "GU"):
        start = 1 if family == label else 2  # SL and SU drop [1]
        return abs(bracket(range(start, n + 1), q if label == "GL" else -q))
    if label == "BC":
        return bracket(range(1, n + 1), q * q)
    return (q ** n - (1 if label == "D" else -1)) * bracket(range(1, n), q * q)


def p_exponent(family: str, n: int) -> int:
    """The exponent of q in |G|_p, the group of order_pprime(family, n, q):
    n(n - 1)/2 for GL, GU, A and 2A, n^2 for B, C and BC, n(n - 1) for D
    and 2D."""
    label = _label_family(family)
    check_rank(family, n)
    if label in ("GL", "GU"):
        return n * (n - 1) // 2
    return n * n if label == "BC" else n * (n - 1)


@lru_cache(maxsize=1024)
def _factor_tables(q: int, top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(q^k - 1) and (q^k + 1) for k = 0..top."""
    powers = [q ** k for k in range(top + 1)]
    return tuple(p - 1 for p in powers), tuple(p + 1 for p in powers)


class QProduct(NamedTuple):
    """q^a |G|_{q'} / (2^two_power prod(q^h - 1) prod(q^k + 1)) as a function
    of q, with |G|_{q'} = order_pprime(fam, rank, q): the exact degree of a
    character of the group of that family and rank, named by label.

    h runs over minus and k over plus, all at most top.  Every product is
    read at +q: a GU product holds its even hooks in minus and its odd hooks
    in plus (Ennola's sign applied).
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
        """The degree at q; ArithmeticError, naming the family, the label
        and q, if the quotient is not an integer; check_q's errors first."""
        check_q(q)
        minus_tab, plus_tab = _factor_tables(q, self.top)
        den = (math.prod(map(minus_tab.__getitem__, self.minus), start=1 << self.two_power)
               * math.prod(map(plus_tab.__getitem__, self.plus)))
        quot, rem = divmod(q ** self.a * order_pprime(self.fam, self.rank, q), den)
        if rem != 0:  # the quotient is a character degree, so this cannot fail
            raise ArithmeticError(f"non-integral {self.fam} degree for {self.label}, q={q}")
        return quot
