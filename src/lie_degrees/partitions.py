"""Young-diagram combinatorics: hooks, beta-sets, dominance, S_n character degrees.

Everything here is exact integer arithmetic; no floats. Partitions are stored
with weakly decreasing parts, nodes are 1-based (row, column) pairs, and a
node (i, j) belongs to the diagram iff j <= parts[i-1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple


class Node(NamedTuple):
    i: int  # row index, 1-based
    j: int  # column index, 1-based


@dataclass(frozen=True)
class Partition:
    """A partition with weakly decreasing positive parts; () is the empty one."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        ps = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", ps)
        if any(a < b for a, b in zip(ps, ps[1:])):
            raise ValueError(f"parts must be weakly decreasing: {ps}")
        if ps and ps[-1] < 1:
            raise ValueError(f"parts must be positive: {ps}")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def _from_valid_parts(cls, parts: tuple[int, ...]) -> "Partition":
        """Build from an int tuple already known to be weakly decreasing and
        positive, skipping the validation in __post_init__."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
        return lam

    @cached_property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, k: int) -> int:
        return self.parts[k]

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def contains(self, node: Node) -> bool:
        i, j = node
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]


class Dominance(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class HookTable:
    """Hook length of every node of a diagram, plus the product of all of them."""

    lengths: dict[Node, int]
    product: int


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (column lengths)."""
    parts = lam.parts
    if not parts:
        return Partition(())
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return Partition._from_valid_parts(tuple(cols))  # column lengths of a diagram


def hooks(lam: Partition) -> HookTable:
    """Hook lengths h(i,j) = arm + leg + 1 for every node, and their product."""
    conj = transpose(lam).parts
    lengths: dict[Node, int] = {}
    product = 1
    for i, row_len in enumerate(lam.parts, start=1):
        for j in range(1, row_len + 1):
            h = (row_len - j) + (conj[j - 1] - i) + 1
            lengths[Node(i, j)] = h
            product *= h
    return HookTable(lengths, product)


def hook_multiset(lam: Partition) -> tuple[int, ...]:
    return tuple(sorted(hooks(lam).lengths.values()))


@lru_cache(maxsize=None)
def _sym_degree(parts: tuple[int, ...]) -> int:
    lam = Partition(parts)
    table = hooks(lam)
    num = math.factorial(lam.n)
    if num % table.product != 0:  # impossible for a genuine hook table
        raise ArithmeticError(f"hook product {table.product} does not divide {lam.n}!")
    return num // table.product


def sym_degree(lam: Partition) -> int:
    """Degree of the S_n irreducible labelled by lam, via the hook length formula."""
    return _sym_degree(lam.parts)


def addable_removable(lam: Partition) -> tuple[set[Node], set[Node]]:
    """Nodes addable to / removable from the diagram, as (A, B) with |A| = |B| + 1."""
    parts = lam.parts
    l = len(parts)
    addable: set[Node] = set()
    removable: set[Node] = set()
    for i in range(1, l + 1):
        if i == 1 or parts[i - 1] < parts[i - 2]:
            addable.add(Node(i, parts[i - 1] + 1))
        if i == l or parts[i - 1] > parts[i]:
            removable.add(Node(i, parts[i - 1]))
    addable.add(Node(l + 1, 1))
    return addable, removable


def add_node(lam: Partition, node: Node) -> Partition:
    i, j = node
    parts = list(lam.parts)
    if i == len(parts) + 1:
        if j != 1:
            raise ValueError(f"{node} is not addable to {lam}")
        return Partition(tuple(parts) + (1,))
    if not (1 <= i <= len(parts)) or parts[i - 1] + 1 != j:
        raise ValueError(f"{node} is not addable to {lam}")
    parts[i - 1] += 1
    return Partition(tuple(parts))


def remove_node(lam: Partition, node: Node) -> Partition:
    i, j = node
    parts = list(lam.parts)
    if not (1 <= i <= len(parts)) or parts[i - 1] != j:
        raise ValueError(f"{node} is not removable from {lam}")
    parts[i - 1] -= 1
    if parts[i - 1] == 0:
        parts.pop()
    return Partition(tuple(parts))


def formal_hook_length(lam: Partition, node: Node) -> int:
    """Hook length formula 1 + (row length - j) + (column height - i).

    Defined for any node with positive coordinates; on nodes of the diagram it
    is the usual hook length, on addable nodes it evaluates to -1.
    """
    i, j = node
    conj = transpose(lam).parts
    row = lam.parts[i - 1] if i <= len(lam.parts) else 0
    col = conj[j - 1] if j <= len(conj) else 0
    return 1 + (row - j) + (col - i)


def dominance(mu: Partition, nu: Partition) -> Dominance:
    """Position of mu relative to nu in the dominance order (same size required)."""
    if mu.n != nu.n:
        raise ValueError(f"partitions of different sizes: {mu.n} vs {nu.n}")
    if mu.parts == nu.parts:
        return Dominance.EQUAL
    k = max(len(mu.parts), len(nu.parts))
    mu_le_nu = True
    nu_le_mu = True
    s_mu = s_nu = 0
    for idx in range(k):
        s_mu += mu.parts[idx] if idx < len(mu.parts) else 0
        s_nu += nu.parts[idx] if idx < len(nu.parts) else 0
        if s_mu > s_nu:
            mu_le_nu = False
        elif s_mu < s_nu:
            nu_le_mu = False
    if mu_le_nu:
        return Dominance.LESS
    if nu_le_mu:
        return Dominance.GREATER
    return Dominance.INCOMPARABLE


# ---------------------------------------------------------------------------
# beta-sets
# ---------------------------------------------------------------------------

def beta_set(lam: Partition, size: int | None = None) -> tuple[int, ...]:
    """Strictly increasing beta-set {lam_i + size - i}; size defaults to #parts.

    beta-sets determine the partition only together with their size (adding a
    leading 0 and shifting encodes the same partition), so the size is explicit.
    """
    parts = lam.parts
    if size is None:
        size = len(parts)
    if size < len(parts):
        raise ValueError(f"beta-set size {size} smaller than number of parts")
    padded = list(parts) + [0] * (size - len(parts))
    out = tuple(sorted(padded[i] + size - 1 - i for i in range(size)))
    return out


def partition_from_beta_set(beta: Iterable[int]) -> Partition:
    entries = sorted(beta)
    if any(e < 0 for e in entries):
        raise ValueError(f"beta-set entries must be non-negative: {entries}")
    if len(set(entries)) != len(entries):
        raise ValueError(f"beta-set entries must be distinct: {entries}")
    parts = [e - i for i, e in enumerate(entries)]
    parts = [p for p in reversed(parts) if p > 0]
    return Partition(tuple(parts))


def beta_hook_cells(beta: tuple[int, ...]) -> list[tuple[int, int]]:
    """Hooks of a beta-set: pairs (b, c) with c in the set, b < c outside it.

    The lengths c - b run over the hook lengths of the encoded partition.
    """
    members = set(beta)
    out = []
    for c in beta:
        for b in range(c):
            if b not in members:
                out.append((b, c))
    return out


# ---------------------------------------------------------------------------
# odd hook sequences (2-core descent)
# ---------------------------------------------------------------------------

def _odd_hook_cells(beta: tuple[int, ...]) -> list[tuple[int, int]]:
    members = set(beta)
    movable = [j for j in beta if j >= 2 and j - 2 not in members]
    if not movable:
        # 2-core: every hook is odd; the smallest ceil(n/2) already satisfy
        # the staircase bound l_i <= 2i - 1.
        cells = beta_hook_cells(beta)
        cells.sort(key=lambda bc: (bc[1] - bc[0], bc))
        n0 = len(cells)
        return cells[: (n0 + 1) // 2]
    j = max(movable)  # deterministic tie-break: largest movable entry
    smaller = tuple(sorted(members - {j} | {j - 2}))
    lifted = []
    for (b, c) in _odd_hook_cells(smaller):
        if b == j:
            lifted.append((j - 2, c))
        elif c == j - 2:
            lifted.append((b, j))
        else:
            lifted.append((b, c))
    new = (j - 1, j) if j - 1 not in members else (j - 2, j - 1)
    return [new] + lifted


def odd_hook_cells(lam: Partition) -> list[tuple[int, int]]:
    """ceil(n/2) distinct beta-set hooks of odd length with i-th length <= 2i-1."""
    cells = _odd_hook_cells(beta_set(lam))
    members = set(beta_set(lam))
    for b, c in cells:  # each returned pair must be a genuine hook
        assert c in members and b not in members and 0 <= b < c
    assert len(set(cells)) == len(cells)
    return cells


def odd_hook_sequence(lam: Partition) -> list[int]:
    """Sorted lengths of the odd-hook family produced by the 2-core descent."""
    lengths = sorted(c - b for b, c in odd_hook_cells(lam))
    assert len(lengths) == (lam.n + 1) // 2
    assert all(l % 2 == 1 for l in lengths)
    assert all(l <= 2 * i - 1 for i, l in enumerate(lengths, start=1))
    return lengths


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _partition_tuples(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            yield (first,) + rest


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    for parts in _partition_tuples(n, n if max_part is None else max_part):
        yield Partition._from_valid_parts(parts)


@lru_cache(maxsize=None)
def partition_count(n: int, max_part: int | None = None) -> int:
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(partition_count(n - k, k) for k in range(1, max_part + 1))
