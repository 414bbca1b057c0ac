"""Down-up induction machinery for S_n degrees, A_n degree lists and epsilon.

The neighbourhood N(Delta) consists of the diagrams reached by removing one
node and adding one back; summing their degrees recovers n * deg(Delta).
Octuple moves combine two coordinate-disjoint down-up moves; the degree ratio
they produce has a closed form in two hook lengths of Delta, which is checked
against the direct hook-product ratio on every call.

What is built, and when:
- The moves come from one generator, `_corners`, on integer (row, column)
  pairs: for each removable corner, the nodes addable once it is gone,
  derived from the addable nodes of the whole diagram, not recomputed.
  `downup_moves` returns them as plain ((ri, rj), (ai, aj)) pairs;
  `downup_neighborhood` builds a `DownUpMove` and a `Partition` per move.
- `ratio_witness` scores each neighbour as a part tuple with the cached
  `partitions._sym_degree`, tests ratios in integers, and sorts the
  neighbours only when the farthest one from ratio 1 is not a witness; it
  builds one `Partition`, for the witness it returns.
- `octuple_ratio` forms its three moved diagrams as part tuples.
- `alt_degrees` walks part tuples and builds a conjugate only for diagrams
  whose first row is as long as their first column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .partitions import (
    Node,
    Partition,
    _column_heights,
    _partition_tuples,
    _sym_degree,
    _with_node,
    _without_node,
    formal_hook_length,
    hook_product,
)


@dataclass(frozen=True)
class DownUpMove:
    remove: Node
    add: Node


@dataclass(frozen=True)
class OctupleMove:
    first: DownUpMove
    second: DownUpMove

    def __post_init__(self):
        i_coords = (self.first.remove.i, self.first.add.i,
                    self.second.remove.i, self.second.add.i)
        j_coords = (self.first.remove.j, self.first.add.j,
                    self.second.remove.j, self.second.add.j)
        if len(set(i_coords)) != 4 or len(set(j_coords)) != 4:
            raise ValueError("octuple coordinates must be pairwise distinct in i and in j")


def _downup_parts(parts: tuple[int, ...], move: DownUpMove) -> tuple[int, ...]:
    """parts after the move; ValueError unless it is a down-up move of parts."""
    return _with_node(_without_node(parts, move.remove), move.add)


def apply_downup(lam: Partition, move: DownUpMove) -> Partition:
    return Partition._from_valid_parts(_downup_parts(lam.parts, move))


def _corners(parts: tuple[int, ...]) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """(i, p, adds) for each removable corner (i, p) of the diagram, top row
    first, with adds the (row, column) nodes addable to the diagram without
    that corner, top row first.

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
        above = adds[:c] if adds[c][0] == i else adds[:c + 1]
        here = [(i, p), adds[c + 1]] if padded[i] < p - 1 else [(i, p)]
        out.append((i, p, above + here + adds[c + 2:]))
    return out


def downup_moves(parts: tuple[int, ...]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The ((ri, rj), (ai, aj)) node pairs of downup_neighborhood's moves, in
    the same order, without building the moves or the diagrams they lead to."""
    return [((i, p), add) for i, p, adds in _corners(parts) for add in adds]


def downup_neighborhood(lam: Partition) -> list[tuple[DownUpMove, Partition]]:
    """All (move, Gamma) with Gamma obtained by removing then adding a node."""
    if lam.n < 1:
        raise ValueError("need a non-empty partition")
    out = []
    for i, p, adds in _corners(lam.parts):
        rem = Node(i, p)
        mid = _without_node(lam.parts, rem)
        for ai, aj in adds:
            out.append((DownUpMove(rem, Node(ai, aj)),
                        Partition._from_valid_parts(mid[:ai - 1] + (aj,) + mid[ai:])))
    return out


def _cross_hook(lam: Partition, remove: Node, add: Node) -> int:
    """Hook length of lam at the unique diagram cell where the removed node's
    row/column meets the added node's column/row.

    For a removable corner and an addable node in distinct rows and columns,
    exactly one of the two meets lies in the diagram.
    """
    node = Node(add.i, remove.j) if add.i < remove.i else Node(remove.i, add.j)
    if not lam.contains(node):
        raise ArithmeticError(f"cross cell {node} of {remove} and {add} is outside {lam}")
    return formal_hook_length(lam, node)


def octuple_ratio(lam: Partition, move: OctupleMove) -> Fraction:
    """P(D)P(D_1234) / (P(D_12)P(D_34)), checked against its closed form.

    Only cells affected by both down-up moves contribute.  The meet of the two
    added nodes gives a(a+2)/(a+1)^2 and the meet of the two removed nodes
    gives b(b-2)/(b-1)^2, with a, b the hook lengths of lam there; each of the
    two remove/add meets contributes h^2/(h^2-1).  Raises ArithmeticError when
    the closed form and the direct ratio differ.
    """
    parts = lam.parts
    d12 = _downup_parts(parts, move.first)  # validates move.first against lam
    d34 = _downup_parts(parts, move.second)
    d1234 = _downup_parts(d12, move.second)
    num = hook_product(parts) * hook_product(d1234)
    den = hook_product(d12) * hook_product(d34)

    a_node = Node(min(move.first.add.i, move.second.add.i),
                  min(move.first.add.j, move.second.add.j))
    b_node = Node(min(move.first.remove.i, move.second.remove.i),
                  min(move.first.remove.j, move.second.remove.j))
    for node in (a_node, b_node):
        if not lam.contains(node):
            raise ArithmeticError(f"meet {node} of the octuple {move} is outside {lam}")
    a = formal_hook_length(lam, a_node)
    b = formal_hook_length(lam, b_node)
    c = _cross_hook(lam, move.first.remove, move.second.add)
    d = _cross_hook(lam, move.second.remove, move.first.add)
    closed_num = a * (a + 2) * b * (b - 2) * c * c * d * d
    closed_den = (a + 1) ** 2 * (b - 1) ** 2 * (c * c - 1) * (d * d - 1)
    if closed_den == 0 or closed_num * den != num * closed_den:
        raise ArithmeticError(f"closed form {closed_num}/{closed_den} != direct ratio "
                              f"{Fraction(num, den)} for {lam}, {move}")
    return Fraction(num, den)


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
    corners = _corners(parts)
    scored = [(0, parts, base)]
    for i, p, adds in corners:
        mid = _without_node(parts, (i, p))
        for ai, aj in adds:
            if ai != i:
                gamma = mid[:ai - 1] + (aj,) + mid[ai:]
                d = _sym_degree(gamma)
                scored.append((-abs(d - base), gamma, d))
    _, gamma, d = min(scored)
    if d >= low and d not in banned:
        return Partition._from_valid_parts(gamma)
    scored.sort()
    for _, gamma, d in scored:
        if d >= low and d not in banned:
            return Partition._from_valid_parts(gamma)

    # octuples: two moves in four distinct rows and four distinct columns.  A
    # move shares a row or a column between its own two nodes only when it
    # puts its corner back, so those are dropped and the two moves compared.
    # The second stays a down-up move after the first: each row moves by one.
    moves = [(i, p, ai, aj) for i, p, adds in corners for ai, aj in adds if ai != i]
    padded = [*parts, 0]
    for ri, rj, ai, aj in moves:
        for si, sj, bi, bj in moves:
            if si == ri or si == ai or bi == ri or bi == ai:
                continue
            if sj == rj or sj == aj or bj == rj or bj == aj:
                continue
            rows = padded.copy()
            rows[ri - 1] -= 1
            rows[ai - 1] += 1
            rows[si - 1] -= 1
            rows[bi - 1] += 1
            while not rows[-1]:
                rows.pop()
            gamma = tuple(rows)
            d = _sym_degree(gamma)
            if d >= low and d not in banned:
                return Partition._from_valid_parts(gamma)
    return None


# ---------------------------------------------------------------------------
# degree multisets and epsilon
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeMultiset:
    """Multiset of character degrees, keyed degree -> multiplicity."""

    counts: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "DegreeMultiset":
        if not d:
            raise ValueError("empty degree multiset")
        if any(m < 1 for m in d.values()):
            raise ValueError("multiplicities must be positive")
        return cls(tuple(sorted(d.items())))

    @cached_property
    def b(self) -> int:
        return self.counts[-1][0]

    @cached_property
    def total(self) -> int:
        return sum(m * d * d for d, m in self.counts)

    def as_sorted_list(self) -> list[int]:
        out = []
        for d, m in self.counts:
            out.extend([d] * m)
        return out


def sym_degrees(n: int) -> DegreeMultiset:
    """All S_n irreducible degrees with multiplicity."""
    if n < 0:
        raise ValueError("n must be non-negative")
    counts: dict[int, int] = {}
    for parts in _partition_tuples(n, n):
        d = _sym_degree(parts)
        counts[d] = counts.get(d, 0) + 1
    return DegreeMultiset.from_dict(counts)


def alt_degrees(n: int) -> DegreeMultiset:
    """All A_n irreducible degrees with multiplicity.

    Self-conjugate diagrams split into two characters of half degree; a
    non-self-conjugate transpose pair restricts to a single character, counted
    at its lexicographically larger member.  The conjugate's first part is the
    number of rows, so the conjugate is built only when the two are equal.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    counts: dict[int, int] = {}
    for parts in _partition_tuples(n, n):
        rows = len(parts)
        if parts[0] < rows:  # the conjugate is the larger member
            continue
        if parts[0] == rows:
            conj = tuple(_column_heights(parts))
            if parts < conj:
                continue
            if parts == conj:
                half, odd = divmod(_sym_degree(parts), 2)
                if odd:
                    raise ArithmeticError("self-conjugate degree must be even: "
                                          f"{Partition._from_valid_parts(parts)}")
                counts[half] = counts.get(half, 0) + 2
                continue
        d = _sym_degree(parts)
        counts[d] = counts.get(d, 0) + 1
    return DegreeMultiset.from_dict(counts)


def epsilon_of(degrees: DegreeMultiset) -> Fraction:
    """(sum of mult * d^2 over degrees strictly below the top) / top^2."""
    b = degrees.b
    num = sum(m * d * d for d, m in degrees.counts if d < b)
    return Fraction(num, b * b)
