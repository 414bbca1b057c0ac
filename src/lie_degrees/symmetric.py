"""Down-up induction machinery for S_n degrees, A_n degree lists and epsilon.

The neighbourhood N(Delta) consists of the diagrams reached by removing one
node and adding one back; summing their degrees recovers n * deg(Delta).
Octuple moves combine two coordinate-disjoint down-up moves; the degree ratio
they produce has a closed form in two hook lengths of Delta, which is checked
against the direct hook-product ratio on every call.

What is built, and when:
- `downup_moves` lists the moves as plain ((ri, rj), (ai, aj)) integer
  pairs: for each removable corner, the nodes addable once it is gone,
  derived from the addable nodes of the whole diagram, not recomputed.
  `downup_neighborhood` builds a `DownUpMove` and a `Partition` from each.
- `_octuple_pairs` is the one octuple rule: it walks a move list for the
  pairs whose four nodes lie in four distinct rows and four distinct
  columns.  `_check_octuple` (so `OctupleMove` and `octuple_ratio`), the
  octuple stage of `ratio_witness` and the octuple check's sampler in
  `suites` all decide through it.
- `ratio_witness` builds each neighbour straight from the part tuple, from
  the corner rows and the rows under them, without a move list; it scores
  each with `partitions._sym_degree`, a lookup in the memo of S_n degrees
  (which `alt_degrees` has often filled), tests ratios in integers, and
  sorts the neighbours only when the farthest one from ratio 1 is not a
  witness.  Only the octuple stage, reached when no neighbour is a witness,
  lists the moves through `downup_moves` and pairs them through
  `_octuple_pairs`.  It builds one `Partition`, for the witness it returns.
- `octuple_ratio` reads its two moves as integer node pairs: an
  `OctupleMove` is one already, as are the plain pairs the octuple check
  draws.  It forms its three moved diagrams as part tuples and tests its
  meets and cross cells with `Partition.contains` (a `Node` only in the
  error text).  It returns the closed form's fraction, which equals the
  ratio of the four hook products once the cross-multiplied test has
  passed.
- `alt_degrees` and `sym_degrees` read `partitions._degree_walk`, which
  builds only the diagrams whose first row is at least as long as their
  first column, bottom row up, with one hook product per row shared by
  every diagram on the rows below, and stores each degree in the memo.
  `alt_degrees` builds a conjugate only for diagrams whose first row is as
  long as their first column.

The records `DownUpMove`, `OctupleMove` and `DegreeMultiset` are namedtuples
(the package's `_record`): each equals the plain tuple of its fields.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from . import _check_int, _record
from .partitions import (
    Node,
    Partition,
    _column_heights,
    _degree_walk,
    _sym_degree,
    _with_node,
    _without_node,
    formal_hook_length,
    hook_product,
)


class DownUpMove(_record("DownUpMove", "remove add")):
    """Remove the node remove, then add the node add."""

    __slots__ = ()


class OctupleMove(_record("OctupleMove", "first second")):
    """Two down-up moves whose nodes lie in four distinct rows and four
    distinct columns (ValueError otherwise)."""

    __slots__ = ()

    def __new__(cls, first: DownUpMove, second: DownUpMove):
        _check_octuple(first, second)
        return super().__new__(cls, first, second)


def _octuple_pairs(moves) -> Iterator[tuple]:
    """Each (m1, m2) of the ((ri, rj), (ai, aj)) moves, m1 outer and m2
    inner, whose four nodes lie in four distinct rows and four distinct
    columns: the one octuple rule.  An m1 that shares a row or a column
    between its own two nodes pairs with nothing and is skipped."""
    for m1 in moves:
        (r1i, r1j), (a1i, a1j) = m1
        if r1i == a1i or r1j == a1j:
            continue
        rows, cols = (r1i, a1i), (r1j, a1j)
        for m2 in moves:
            (r2i, r2j), (a2i, a2j) = m2
            if (r2i != a2i and r2j != a2j and r2i not in rows and a2i not in rows
                    and r2j not in cols and a2j not in cols):
                yield m1, m2


def _check_octuple(first: tuple, second: tuple) -> None:
    """ValueError unless the nodes of the two ((ri, rj), (ai, aj)) moves lie
    in four distinct rows and four distinct columns.  The rule is symmetric
    and no move pairs with itself, so the two moves yield a pair exactly
    when (first, second) is an octuple."""
    if not any(_octuple_pairs((first, second))):
        raise ValueError("octuple coordinates must be pairwise distinct in i and in j")


def _downup_parts(parts: tuple[int, ...], move: tuple) -> tuple[int, ...]:
    """parts after the (remove, add) move; ValueError unless it is a down-up
    move of parts."""
    remove, add = move
    return _with_node(_without_node(parts, remove), add)


def apply_downup(lam: Partition, move: DownUpMove) -> Partition:
    return Partition._from_valid_parts(_downup_parts(lam.parts, move))


def downup_moves(parts: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The ((ri, rj), (ai, aj)) node pairs of the down-up moves of the
    diagram: for each removable corner (ri, rj), top row first, the nodes
    addable to the diagram without it, top row first.

    The diagram's addable nodes are (1, p_1 + 1) and (i + 1, p_{i+1} + 1) for
    each corner row i (p_{l+1} = 0).  Removing the corner (i, p) makes (i, p)
    addable in place of row i's node, and keeps row i + 1's node only when
    p_{i+1} < p - 1; the other rows are untouched.
    """
    if not parts:
        return []
    padded = parts + (0,)
    rows = [i for i in range(1, len(parts) + 1) if padded[i] < padded[i - 1]]
    adds = [(1, parts[0] + 1)] + [(i + 1, padded[i] + 1) for i in rows]
    out = []
    for c, i in enumerate(rows):  # adds[c + 1] is row i + 1's node
        p = padded[i - 1]
        corner = (i, p)
        above = adds[:c] if adds[c][0] == i else adds[:c + 1]
        here = [corner, adds[c + 1]] if padded[i] < p - 1 else [corner]
        for add in above + here + adds[c + 2:]:
            out.append((corner, add))
    return out


def downup_neighborhood(lam: Partition) -> list[tuple[DownUpMove, Partition]]:
    """All (move, Gamma) with Gamma obtained by removing then adding a node."""
    if lam.n < 1:
        raise ValueError("need a non-empty partition")
    parts = lam.parts
    return [(DownUpMove(Node(*remove), Node(*add)),
             Partition._from_valid_parts(_downup_parts(parts, (remove, add))))
            for remove, add in downup_moves(parts)]


def _cross_hook(lam: Partition, remove: tuple[int, int], add: tuple[int, int]) -> int:
    """Hook length of lam at the unique diagram cell where the removed node's
    row/column meets the added node's column/row.

    For a removable corner and an addable node in distinct rows and columns,
    exactly one of the two meets lies in the diagram.
    """
    (ri, rj), (ai, aj) = remove, add
    i, j = (ai, rj) if ai < ri else (ri, aj)
    if not lam.contains((i, j)):
        raise ArithmeticError(f"cross cell {Node(i, j)} of {remove} and {add} is outside {lam}")
    return formal_hook_length(lam, (i, j))


def octuple_ratio(lam: Partition, move: OctupleMove | tuple) -> Fraction:
    """P(D)P(D_1234) / (P(D_12)P(D_34)), checked against its closed form.

    move is an OctupleMove, or its two down-up moves as plain
    ((ri, rj), (ai, aj)) node pairs, the form the octuple check draws; an
    OctupleMove is such a pair of pairs already.  The four rows and the four
    columns must be distinct, and each move a down-up move of the diagram it
    applies to (ValueError otherwise).

    Only cells affected by both down-up moves contribute.  The meet of the two
    added nodes gives a(a+2)/(a+1)^2 and the meet of the two removed nodes
    gives b(b-2)/(b-1)^2, with a, b the hook lengths of lam there; each of the
    two remove/add meets contributes h^2/(h^2-1).  Raises ArithmeticError when
    a meet lies outside lam, or the closed form and the direct ratio differ.
    """
    first, second = move
    _check_octuple(first, second)
    (r1i, r1j), (a1i, a1j) = first
    (r2i, r2j), (a2i, a2j) = second
    parts = lam.parts
    d12 = _downup_parts(parts, first)  # validates the first move against lam
    d34 = _downup_parts(parts, second)
    d1234 = _downup_parts(d12, second)
    num = hook_product(parts) * hook_product(d1234)
    den = hook_product(d12) * hook_product(d34)

    a_meet = (min(a1i, a2i), min(a1j, a2j))
    b_meet = (min(r1i, r2i), min(r1j, r2j))
    for i, j in (a_meet, b_meet):
        if not lam.contains((i, j)):
            raise ArithmeticError(f"meet {Node(i, j)} of the octuple {move} is outside {lam}")
    a = formal_hook_length(lam, a_meet)
    b = formal_hook_length(lam, b_meet)
    c = _cross_hook(lam, first[0], second[1])
    d = _cross_hook(lam, second[0], first[1])
    closed_num = a * (a + 2) * b * (b - 2) * c * c * d * d
    closed_den = (a + 1) ** 2 * (b - 1) ** 2 * (c * c - 1) * (d * d - 1)
    if closed_den == 0 or closed_num * den != num * closed_den:
        raise ArithmeticError(f"closed form {closed_num}/{closed_den} != direct ratio "
                              f"{Fraction(num, den)} for {lam}, {move}")
    return Fraction(closed_num, closed_den)  # equal to num/den, in smaller integers


def _rational(x) -> Fraction | int:
    """x as an exact rational: ints and Fractions as they are, anything else
    (a string, a float) through Fraction."""
    return x if type(x) in (int, Fraction) else Fraction(x)


def ratio_witness(lam: Partition, excluded: set[Fraction], delta: Fraction) -> Partition | None:
    """Search for Gamma of the same size with deg(Gamma)/deg(lam) in [delta, oo) \\ excluded.

    Scans the down-up neighbourhood ordered by |ratio - 1| descending (ties by
    parts), then all octuple combinations in enumeration order; returns the
    first hit or None.
    """
    delta = _rational(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    parts = lam.parts
    if not parts:
        raise ValueError("need a non-empty partition")
    base = _sym_degree(parts)
    # d/base >= delta iff d >= low; d/base = s iff d = s * base, an integer
    low = -(-delta.numerator * base // delta.denominator)
    banned = set()
    for s in excluded:
        s = _rational(s)
        d, rest = divmod(s.numerator * base, s.denominator)
        if not rest:
            banned.add(d)

    # |d/base - 1| = |d - base|/base with base > 0 fixed: integer keys.  Every
    # corner's own re-addition gives lam back, which is listed once; the other
    # moves lead to distinct diagrams, so the trailing degree is never compared.
    # Row i ends in a corner when p_i > p_{i+1} (p_{l+1} = 0); nodes are
    # addable in row 1 and under each corner row.  Once row i's corner is
    # gone, the node under it stays addable only when p_{i+1} < p_i - 1.
    padded = parts + (0,)
    corner_rows = [i for i in range(1, len(parts) + 1) if padded[i] < padded[i - 1]]
    add_rows = [1] + [i + 1 for i in corner_rows]
    scored = [(0, parts, base)]
    for i in corner_rows:
        p = parts[i - 1]
        mid = parts[:i - 1] + (p - 1,) + parts[i:] if p > 1 else parts[:-1]
        for a in add_rows:
            if a == i or (a == i + 1 and padded[i] == p - 1):
                continue
            gamma = mid[:a - 1] + (padded[a - 1] + 1,) + mid[a:]
            d = _sym_degree(gamma)
            scored.append((-abs(d - base), gamma, d))
    _, gamma, d = min(scored)
    if d >= low and d not in banned:
        return Partition._from_valid_parts(gamma)
    scored.sort()
    for _, gamma, d in scored:
        if d >= low and d not in banned:
            return Partition._from_valid_parts(gamma)

    # octuples: the second move stays a down-up move after the first
    for first, second in _octuple_pairs(downup_moves(parts)):
        gamma = _downup_parts(_downup_parts(parts, first), second)
        d = _sym_degree(gamma)
        if d >= low and d not in banned:
            return Partition._from_valid_parts(gamma)
    return None


# ---------------------------------------------------------------------------
# degree multisets and epsilon
# ---------------------------------------------------------------------------

class DegreeMultiset(_record("DegreeMultiset", "counts")):
    """Multiset of character degrees, keyed degree -> multiplicity."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "DegreeMultiset":
        if not d:
            raise ValueError("empty degree multiset")
        if any(m < 1 for m in d.values()):
            raise ValueError("multiplicities must be positive")
        counts = tuple(sorted(d.items()))
        if counts[0][0] < 1:  # the smallest degree, read off the sort
            raise ValueError("degrees must be positive")
        return cls(counts)

    @property
    def b(self) -> int:
        return self.counts[-1][0]

    @property
    def total(self) -> int:
        return sum(m * d * d for d, m in self.counts)

    def as_sorted_list(self) -> list[int]:
        out = []
        for d, m in self.counts:
            out.extend([d] * m)
        return out


def sym_degrees(n: int) -> DegreeMultiset:
    """All S_n irreducible degrees with multiplicity.

    A diagram whose first row is longer than its first column has the same
    degree as its conjugate, which the walk does not list, so it counts twice.
    """
    _check_int(n, 0, "n")
    counts: dict[int, int] = {}
    for parts, d in _degree_walk(n):
        counts[d] = counts.get(d, 0) + (2 if parts and parts[0] > len(parts) else 1)
    return DegreeMultiset.from_dict(counts)


def alt_degrees(n: int) -> DegreeMultiset:
    """All A_n irreducible degrees with multiplicity.

    Self-conjugate diagrams split into two characters of half degree; a
    non-self-conjugate transpose pair restricts to a single character, counted
    at its lexicographically larger member.  The walk lists only diagrams whose
    first row is at least as long as their first column, which is the larger
    member when the two lengths differ; the conjugate is built only when they
    are equal.
    """
    _check_int(n, 2, "n")
    counts: dict[int, int] = {}
    for parts, d in _degree_walk(n):
        if parts[0] == len(parts):
            conj = tuple(_column_heights(parts))
            if parts < conj:
                continue
            if parts == conj:
                half, odd = divmod(d, 2)
                if odd:
                    raise ArithmeticError("self-conjugate degree must be even: "
                                          f"{Partition._from_valid_parts(parts)}")
                counts[half] = counts.get(half, 0) + 2
                continue
        counts[d] = counts.get(d, 0) + 1
    return DegreeMultiset.from_dict(counts)


def epsilon_of(degrees: DegreeMultiset) -> Fraction:
    """(sum of mult * d^2 over degrees strictly below the top) / top^2."""
    b = degrees.b
    num = sum(m * d * d for d, m in degrees.counts if d < b)
    return Fraction(num, b * b)
