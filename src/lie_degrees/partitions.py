"""Young-diagram combinatorics: hooks, beta-sets, dominance, S_n character degrees.

Everything here is exact integer arithmetic; no floats. Partitions are stored
with weakly decreasing parts, nodes are 1-based (row, column) pairs, and a
node (i, j) belongs to the diagram iff j <= parts[i-1].

`Partition` validates its parts only in the public constructor. The hot paths
(hook lengths, S_n degrees, down-up moves, enumeration) work on the plain part
tuples and build their results with `Partition._from_valid_parts`, because
those results are valid by construction. S_n degrees come from `hook_product`,
which reads the product of all hook lengths off the first-column hooks without
listing the hooks; `hook_lengths` lists them for `hooks()` and the q-analogues.
"""

from __future__ import annotations

import itertools
import math
import operator
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


def _column_heights(parts: tuple[int, ...]) -> list[int]:
    """Column heights (conjugate parts), from the bottom row up in one pass:
    the columns between the next row's end and row r's end have height r."""
    heights: list[int] = []
    prev = 0
    for r in range(len(parts), 0, -1):
        p = parts[r - 1]
        if p > prev:
            heights += [r] * (p - prev)
            prev = p
    return heights


def transpose(lam: Partition) -> Partition:
    """Conjugate partition (column lengths)."""
    return Partition._from_valid_parts(tuple(_column_heights(lam.parts)))


def hook_lengths(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Hook lengths h(i,j) = arm + leg + 1 of the diagram with these (weakly
    decreasing, positive) parts, row by row and left to right within a row."""
    # 0-based h(r, c) = (p_r - r - 1) + (height_c - c)
    shifted = [h - c for c, h in enumerate(_column_heights(parts))]
    out: list[int] = []
    for r, p in enumerate(parts):
        base = p - r - 1
        out.extend([base + s for s in shifted[:p]])
    return tuple(out)


def hooks(lam: Partition) -> HookTable:
    """Hook lengths h(i,j) = arm + leg + 1 for every node, and their product."""
    lengths = hook_lengths(lam.parts)
    nodes = (Node(i, j) for i, p in enumerate(lam.parts, start=1) for j in range(1, p + 1))
    return HookTable(dict(zip(nodes, lengths)), math.prod(lengths))


def hook_product(parts: tuple[int, ...]) -> int:
    """Product of the hook lengths of the diagram with these (weakly
    decreasing, positive) parts, from its first-column hooks
    beta_i = parts_i + l - i:  prod beta_i! / prod_{i<j} (beta_i - beta_j)
    (Macdonald, Symmetric Functions, I.1 Ex. 1).

    The conjugate diagram has the same hooks, so the shape with fewer rows is
    used: the Vandermonde product has l(l - 1)/2 factors."""
    if parts and len(parts) > parts[0]:
        parts = _column_heights(parts)
    betas = list(map(operator.add, parts, range(len(parts) - 1, -1, -1)))
    num = math.prod(map(math.factorial, betas))
    den = math.prod(itertools.starmap(operator.sub, itertools.combinations(betas, 2)))
    product, rest = divmod(num, den)
    if rest:  # impossible for strictly decreasing first-column hooks
        raise ArithmeticError(f"the Vandermonde product {den} of {parts} does not divide {num}")
    return product


@lru_cache(maxsize=200_000)
def _sym_degree(parts: tuple[int, ...]) -> int:
    product = hook_product(parts)
    n = sum(parts)
    degree, rest = divmod(math.factorial(n), product)
    if rest:  # impossible for a genuine hook table
        raise ArithmeticError(f"hook product {product} does not divide {n}!")
    return degree


def sym_degree(lam: Partition) -> int:
    """Degree of the S_n irreducible labelled by lam, via the hook length formula."""
    return _sym_degree(lam.parts)


def addable_nodes(parts: tuple[int, ...]) -> list[Node]:
    """Nodes addable to the diagram with these parts, top row first."""
    out = [Node(i, p + 1) for i, p in enumerate(parts, start=1)
           if i == 1 or p < parts[i - 2]]
    out.append(Node(len(parts) + 1, 1))
    return out


def removable_nodes(parts: tuple[int, ...]) -> list[Node]:
    """Nodes removable from the diagram with these parts, top row first."""
    l = len(parts)
    return [Node(i, p) for i, p in enumerate(parts, start=1) if i == l or p > parts[i]]


def addable_removable(lam: Partition) -> tuple[set[Node], set[Node]]:
    """Nodes addable to / removable from the diagram, as (A, B) with |A| = |B| + 1."""
    return set(addable_nodes(lam.parts)), set(removable_nodes(lam.parts))


def _with_node(parts: tuple[int, ...], node: Node) -> tuple[int, ...]:
    """parts with the node added; it must be addable: j = parts_i + 1, and
    i = 1 or parts_{i-1} >= j (parts_{l+1} = 0 for the row below the last)."""
    i, j = node
    l = len(parts)
    if (not 1 <= i <= l + 1 or j != (parts[i - 1] if i <= l else 0) + 1
            or (i > 1 and parts[i - 2] < j)):
        raise ValueError(f"{node} is not addable to Partition{parts}")
    return parts[:i - 1] + (j,) + parts[i:]


def _without_node(parts: tuple[int, ...], node: Node) -> tuple[int, ...]:
    """parts with the node removed; it must be removable: j = parts_i, and
    i = l or parts_{i+1} < j."""
    i, j = node
    l = len(parts)
    if not 1 <= i <= l or parts[i - 1] != j or (i < l and parts[i] >= j):
        raise ValueError(f"{node} is not removable from Partition{parts}")
    if j == 1:  # only the last row can end in column 1 at a corner
        return parts[:-1]
    return parts[:i - 1] + (j - 1,) + parts[i:]


def add_node(lam: Partition, node: Node) -> Partition:
    """lam with the node added; it must be addable (see _with_node)."""
    return Partition._from_valid_parts(_with_node(lam.parts, node))


def remove_node(lam: Partition, node: Node) -> Partition:
    """lam with the node removed; it must be removable (see _without_node)."""
    return Partition._from_valid_parts(_without_node(lam.parts, node))


def formal_hook_length(lam: Partition, node: Node) -> int:
    """Hook length formula 1 + (row length - j) + (column height - i).

    Defined for any node with positive coordinates; on nodes of the diagram it
    is the usual hook length, on addable nodes it evaluates to -1.
    """
    i, j = node
    parts = lam.parts
    row = parts[i - 1] if i <= len(parts) else 0
    col = 0  # column height: the number of parts >= j
    for p in parts:
        if p < j:
            break
        col += 1
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

def beta_row(parts: tuple[int, ...], size: int) -> tuple[int, ...]:
    """Increasing beta-set {p_i + size - i} of the partition with these (weakly
    decreasing, positive) parts; size >= len(parts) is not checked."""
    pad = size - len(parts)
    return tuple(range(pad)) + tuple(map(operator.add, reversed(parts), range(pad, size)))


def beta_parts(row: tuple[int, ...]) -> tuple[int, ...]:
    """Parts of the partition encoded by an increasing beta-set (beta_row's inverse)."""
    return tuple(reversed([e - j for j, e in enumerate(row) if e > j]))


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
    return beta_row(parts, size)


def partition_from_beta_set(beta: Iterable[int]) -> Partition:
    entries = sorted(beta)
    if any(e < 0 for e in entries):
        raise ValueError(f"beta-set entries must be non-negative: {entries}")
    if len(set(entries)) != len(entries):
        raise ValueError(f"beta-set entries must be distinct: {entries}")
    return Partition(beta_parts(tuple(entries)))


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
    beta = beta_set(lam)
    members = set(beta)
    cells = _odd_hook_cells(beta)
    for b, c in cells:  # each returned pair must be a genuine hook
        if not (c in members and b not in members and 0 <= b < c):
            raise ArithmeticError(f"({b}, {c}) is not a hook of the beta-set of {lam}")
    if len(set(cells)) != len(cells):
        raise ArithmeticError(f"the odd hooks {cells} of {lam} repeat a cell")
    return cells


def odd_hook_sequence(lam: Partition) -> list[int]:
    """Sorted lengths of the odd-hook family produced by the 2-core descent."""
    lengths = sorted(c - b for b, c in odd_hook_cells(lam))
    if len(lengths) != (lam.n + 1) // 2:
        raise ArithmeticError(f"{len(lengths)} odd hooks of {lam}, not ceil(n/2)")
    if any(l % 2 == 0 for l in lengths):
        raise ArithmeticError(f"an odd-hook length of {lam} is even: {lengths}")
    if any(l > 2 * i - 1 for i, l in enumerate(lengths, start=1)):
        raise ArithmeticError(f"the odd-hook lengths {lengths} of {lam} exceed 2i - 1")
    return lengths


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _partition_tuples(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts <= max_part, in reverse-lexicographic order.

    Walks one array in place (Zoghbi-Stojmenovic): x[:m] is the current
    partition, h the index of its last part > 1, and every entry after h is 1.
    The successor lowers x[h] by one to v and refills the tail, that unit plus
    the ones after h, greedily with parts v.
    """
    if n == 0:
        yield ()
        return
    top = min(n, max_part)
    if top < 1:
        return
    q, r = divmod(n, top)
    x = [top] * q + [1] * (n - q)
    if r:
        x[q] = r
    m = q + (r > 0)
    h = m - 1
    while h >= 0 and x[h] == 1:
        h -= 1
    yield tuple(x[:m])
    while h >= 0:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            v = x[h] - 1
            x[h] = v
            t = m - h
            while t >= v:
                h += 1
                x[h] = v
                t -= v
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield tuple(x[:m])


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    for parts in _partition_tuples(n, n if max_part is None else max_part):
        yield Partition._from_valid_parts(parts)


@lru_cache(maxsize=200_000)
def partition_count(n: int, max_part: int | None = None) -> int:
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return 1
    if max_part == 0:
        return 0
    return sum(partition_count(n - k, k) for k in range(1, max_part + 1))
