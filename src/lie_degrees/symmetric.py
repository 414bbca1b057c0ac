"""Down-up induction machinery for S_n degrees, A_n degree lists and epsilon.

The neighbourhood N(Delta) consists of the diagrams reached by removing one
node and adding one back; summing their degrees recovers n * deg(Delta).
Octuple moves combine two coordinate-disjoint down-up moves; the degree ratio
they produce has a closed form in two hook lengths of Delta, which is checked
against the direct hook-product ratio on every call.

The sweeps (ratio witnesses, degree lists) walk plain part tuples and score
each diagram with the cached `partitions._sym_degree`; a `Partition` or a
`DownUpMove` is built only for what a function returns or validates.
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
    add_node,
    addable_nodes,
    formal_hook_length,
    hook_product,
    remove_node,
    removable_nodes,
    sym_degree,
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


def apply_downup(lam: Partition, move: DownUpMove) -> Partition:
    return add_node(remove_node(lam, move.remove), move.add)


def downup_neighborhood(lam: Partition) -> list[tuple[DownUpMove, Partition]]:
    """All (move, Gamma) with Gamma obtained by removing then adding a node."""
    if lam.n < 1:
        raise ValueError("need a non-empty partition")
    out = []
    for rem in removable_nodes(lam.parts):
        mid = remove_node(lam, rem)
        for add in addable_nodes(mid.parts):
            out.append((DownUpMove(rem, add), add_node(mid, add)))
    return out


def _removed(parts: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """parts with the removable node (i, j) taken away."""
    return parts[:-1] if j == 1 else parts[:i - 1] + (j - 1,) + parts[i:]


def downup_moves(parts: tuple[int, ...]) -> list[tuple[Node, Node]]:
    """The (remove, add) node pairs of downup_neighborhood's moves, in the
    same order, without building the moves or the diagrams they lead to."""
    out = []
    for rem in removable_nodes(parts):
        mid = _removed(parts, *rem)
        out += [(rem, add) for add in addable_nodes(mid)]
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
    d12 = apply_downup(lam, move.first)  # validates move.first against lam
    d34 = apply_downup(lam, move.second)
    d1234 = apply_downup(d12, move.second)
    num = hook_product(lam.parts) * hook_product(d1234.parts)
    den = hook_product(d12.parts) * hook_product(d34.parts)

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


def ratio_witness(lam: Partition, excluded: set[Fraction], delta: Fraction) -> Partition | None:
    """Search for Gamma of the same size with deg(Gamma)/deg(lam) in [delta, oo) \\ excluded.

    Scans the down-up neighbourhood ordered by |ratio - 1| descending, then all
    octuple combinations in enumeration order; returns the first hit or None.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    excluded = {Fraction(s) for s in excluded}
    parts = lam.parts
    if not parts:
        raise ValueError("need a non-empty partition")
    base = _sym_degree(parts)

    def hit(d: int) -> bool:  # d/base >= delta, and d/base not excluded
        return (d * delta.denominator >= delta.numerator * base
                and Fraction(d, base) not in excluded)

    # |d/base - 1| = |d - base|/base with base > 0 fixed: integer keys; no two
    # entries share (remove, add), so the trailing degree is never compared
    scored = []
    for rem in removable_nodes(parts):
        mid = _removed(parts, *rem)
        for add in addable_nodes(mid):
            i, j = add
            gamma = mid[:i - 1] + (j,) + mid[i:]
            d = _sym_degree(gamma)
            scored.append((-abs(d - base), gamma, rem, add, d))
    scored.sort()
    for _, gamma, _, _, d in scored:
        if hit(d):
            return Partition._from_valid_parts(gamma)
    moves = [DownUpMove(*m) for m in downup_moves(parts)]
    for m1 in moves:
        for m2 in moves:
            i_coords = {m1.remove.i, m1.add.i, m2.remove.i, m2.add.i}
            j_coords = {m1.remove.j, m1.add.j, m2.remove.j, m2.add.j}
            if len(i_coords) != 4 or len(j_coords) != 4:
                continue
            gamma = apply_downup(apply_downup(lam, m1), m2)
            if hit(sym_degree(gamma)):
                return gamma
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

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

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
    non-self-conjugate transpose pair restricts to a single character.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    counts: dict[int, int] = {}
    for parts in _partition_tuples(n, n):
        conj = tuple(_column_heights(parts))
        if parts == conj:
            half, odd = divmod(_sym_degree(parts), 2)
            if odd:
                raise ArithmeticError("self-conjugate degree must be even: "
                                      f"{Partition._from_valid_parts(parts)}")
            counts[half] = counts.get(half, 0) + 2
        elif parts > conj:  # count each transpose pair once
            d = _sym_degree(parts)
            counts[d] = counts.get(d, 0) + 1
    return DegreeMultiset.from_dict(counts)


def epsilon_of(degrees: DegreeMultiset) -> Fraction:
    """(sum of mult * d^2 over degrees strictly below the top) / top^2."""
    b = degrees.b
    num = sum(m * d * d for d, m in degrees.counts if d < b)
    return Fraction(num, b * b)
