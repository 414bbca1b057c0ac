import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from lie_degrees.partitions import (
    Dominance,
    Node,
    Partition,
    add_node,
    addable_removable,
    beta_set,
    beta_hook_cells,
    dominance,
    formal_hook_length,
    hook_lengths,
    hook_product,
    hooks,
    odd_hook_cells,
    odd_hook_sequence,
    partition_count,
    partition_from_beta_set,
    partitions_of,
    remove_node,
    sym_degree,
    transpose,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def diagram_cells(lam):
    return {(i, j) for i, p in enumerate(lam.parts, start=1) for j in range(1, p + 1)}


def hook_length_brute(lam, i, j):
    """Count the cell itself, the arm to its right and the leg below it."""
    cells = diagram_cells(lam)
    arm = sum(1 for jj in range(j + 1, lam.parts[i - 1] + 1) if (i, jj) in cells)
    leg = sum(1 for ii in range(i + 1, len(lam.parts) + 1) if (ii, j) in cells)
    return 1 + arm + leg


def count_standard_tableaux(lam):
    """Brute-force count of standard fillings by adding cells one at a time."""
    target = lam.parts

    def rec(shape):
        if shape == target:
            return 1
        total = 0
        for i in range(min(len(shape) + 1, len(target))):
            cur = shape[i] if i < len(shape) else 0
            above = shape[i - 1] if i > 0 else 10 ** 9
            if cur < target[i] and cur < above:
                nxt = list(shape)
                if i < len(shape):
                    nxt[i] += 1
                else:
                    nxt.append(1)
                total += rec(tuple(nxt))
        return total

    return rec(())


def addable_removable_brute(lam):
    adds, rems = set(), set()
    bound = len(lam.parts) + 2
    width = (lam.parts[0] if lam.parts else 0) + 2
    for i in range(1, bound):
        for j in range(1, width):
            node = Node(i, j)
            try:
                add_node(lam, node)
                adds.add(node)
            except ValueError:
                pass
            try:
                remove_node(lam, node)
                rems.add(node)
            except ValueError:
                pass
    return adds, rems


def random_partition(rng, n):
    parts = []
    rem, prev = n, n
    while rem:
        p = rng.randint(1, min(prev, rem))
        parts.append(p)
        rem -= p
        prev = p
    return Partition(tuple(sorted(parts, reverse=True)))


partition_strategy = st.builds(
    lambda seed, n: random_partition(random.Random(seed), n),
    st.integers(0, 10 ** 9), st.integers(1, 40))

partition_strategy_to_60 = st.builds(
    lambda seed, n: random_partition(random.Random(seed), n),
    st.integers(0, 10 ** 9), st.integers(0, 60))

partition_strategy_to_80 = st.builds(
    lambda seed, n: random_partition(random.Random(seed), n),
    st.integers(0, 10 ** 9), st.integers(0, 80))


def recursive_partition_tuples(n, max_part):
    """The recursive reverse-lexicographic generator, kept as a reference."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in recursive_partition_tuples(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# hooks and degrees
# ---------------------------------------------------------------------------

def test_hooks_empty():
    table = hooks(Partition(()))
    assert table.lengths == {} and table.product == 1


def test_hooks_two_two():
    table = hooks(Partition((2, 2)))
    assert table.lengths == {Node(1, 1): 3, Node(1, 2): 2, Node(2, 1): 2, Node(2, 2): 1}
    assert table.product == 12


def test_hooks_staircase():
    table = hooks(Partition((3, 2, 1)))
    assert sorted(table.lengths.values()) == [1, 1, 1, 3, 3, 5]
    assert table.product == 45


@given(partition_strategy)
@settings(max_examples=60, deadline=None)
def test_hooks_match_brute_force(lam):
    table = hooks(lam)
    for (i, j), h in table.lengths.items():
        assert h == hook_length_brute(lam, i, j)
        assert h == formal_hook_length(lam, Node(i, j))


def test_hook_lengths_row_major():
    assert hook_lengths(()) == ()
    assert hook_lengths((2, 2)) == (3, 2, 2, 1)
    assert hook_lengths((3, 1)) == (4, 2, 1, 1)
    assert hook_lengths((3, 2, 1)) == (5, 3, 1, 3, 1, 1)


@given(partition_strategy_to_60)
@settings(max_examples=80, deadline=None)
def test_hook_lengths_kernel_matches_hook_table_and_formal_hooks(lam):
    lengths = hook_lengths(lam.parts)
    table = hooks(lam)
    assert lengths == tuple(table.lengths.values())  # row-major, like the table
    cells = [Node(i, j) for i, p in enumerate(lam.parts, start=1) for j in range(1, p + 1)]
    formal = math.prod(formal_hook_length(lam, node) for node in cells)
    assert math.prod(lengths) == formal == table.product


def test_hook_product_matches_the_hook_lengths_for_every_partition_to_30():
    for n in range(31):
        for lam in partitions_of(n):
            assert hook_product(lam.parts) == math.prod(hook_lengths(lam.parts)), lam


@given(partition_strategy_to_80)
@settings(max_examples=150, deadline=None)
def test_hook_product_matches_the_hook_lengths(lam):
    assert hook_product(lam.parts) == math.prod(hook_lengths(lam.parts)) == hooks(lam).product


def test_hook_product_examples():
    assert hook_product(()) == 1
    assert hook_product((3, 2, 1)) == 45
    assert hook_product((2, 2)) == 12
    assert hook_product((1,) * 6) == math.factorial(6) == hook_product((6,))


def test_sym_degree_examples():
    assert sym_degree(Partition((7,))) == 1
    assert sym_degree(Partition((2, 1))) == 2 == count_standard_tableaux(Partition((2, 1)))


@pytest.mark.parametrize("parts", [(3, 2), (4, 1), (2, 2, 1), (3, 1, 1, 1)])
def test_sym_degree_vs_tableau_count(parts):
    lam = Partition(parts)
    assert sym_degree(lam) == count_standard_tableaux(lam)


def test_sym_degree_square_sum_n8():
    assert sum(sym_degree(lam) ** 2 for lam in partitions_of(8)) == math.factorial(8)


# ---------------------------------------------------------------------------
# addable / removable nodes
# ---------------------------------------------------------------------------

def test_addable_removable_examples():
    a, b = addable_removable(Partition(()))
    assert a == {Node(1, 1)} and b == set()
    a, b = addable_removable(Partition((2, 1)))
    assert a == {Node(1, 3), Node(2, 2), Node(3, 1)}
    assert b == {Node(1, 2), Node(2, 1)}


@given(partition_strategy)
@settings(max_examples=60, deadline=None)
def test_addable_removable_vs_brute(lam):
    a, b = addable_removable(lam)
    ab, bb = addable_removable_brute(lam)
    assert a == ab and b == bb
    assert len(a) == len(b) + 1


def test_interior_nodes_are_neither_addable_nor_removable():
    lam = Partition((2, 2))
    for node in (Node(2, 3), Node(1, 1), Node(2, 1), Node(3, 2), Node(0, 1), Node(1, 0)):
        with pytest.raises(ValueError):
            add_node(lam, node)
    for node in (Node(1, 2), Node(1, 1), Node(2, 1), Node(3, 1), Node(0, 2)):
        with pytest.raises(ValueError):
            remove_node(lam, node)
    assert add_node(lam, Node(1, 3)) == Partition((3, 2))
    assert add_node(lam, Node(3, 1)) == Partition((2, 2, 1))
    assert remove_node(lam, Node(2, 2)) == Partition((2, 1))
    assert remove_node(Partition((2, 1)), Node(2, 1)) == Partition((2,))


def test_size_bounds_random_large():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 10_000)
        lam = random_partition(rng, n)
        a, b = addable_removable(lam)
        assert len(a) < math.sqrt(2 * n) + 1
        assert len(b) < math.sqrt(2 * n)


@given(partition_strategy)
@settings(max_examples=60, deadline=None)
def test_add_then_remove_round_trip(lam):
    a, _ = addable_removable(lam)
    for node in a:
        bigger = add_node(lam, node)
        assert Partition(bigger.parts) == bigger  # built unvalidated
        assert remove_node(bigger, node) == lam
        a2, _ = addable_removable(bigger)
        assert len(a ^ a2) <= 3  # only the node itself and its two successors move


# ---------------------------------------------------------------------------
# transpose and dominance
# ---------------------------------------------------------------------------

def test_transpose_examples():
    assert transpose(Partition((3, 2, 1))) == Partition((3, 2, 1))
    assert transpose(Partition((4, 1))) == Partition((2, 1, 1, 1))
    assert transpose(Partition(())) == Partition(())


@given(partition_strategy)
@settings(max_examples=60, deadline=None)
def test_transpose_involution_and_hooks(lam):
    assert transpose(transpose(lam)) == lam
    assert Partition(transpose(lam).parts) == transpose(lam)  # built unvalidated
    assert sorted(hook_lengths(lam.parts)) == sorted(hook_lengths(transpose(lam).parts))


def test_dominance_examples():
    assert dominance(Partition((2, 2, 2)), Partition((3, 2, 1))) == Dominance.LESS
    assert dominance(Partition((3, 2, 1)), Partition((2, 2, 2))) == Dominance.GREATER
    assert dominance(Partition((2, 1)), Partition((2, 1))) == Dominance.EQUAL
    assert dominance(Partition((3, 1, 1, 1)), Partition((2, 2, 2))) == Dominance.INCOMPARABLE
    with pytest.raises(ValueError):
        dominance(Partition((2,)), Partition((3,)))


def test_dominance_brute():
    for n in (5, 6, 7):
        pl = list(partitions_of(n))
        for mu in pl:
            for nu in pl:
                rel = dominance(mu, nu)
                sums_mu = [sum(mu.parts[:k]) for k in range(1, n + 1)]
                sums_nu = [sum(nu.parts[:k]) for k in range(1, n + 1)]
                le = all(a <= b for a, b in zip(sums_mu, sums_nu))
                ge = all(a >= b for a, b in zip(sums_mu, sums_nu))
                expected = (Dominance.EQUAL if mu == nu else
                            Dominance.LESS if le else
                            Dominance.GREATER if ge else Dominance.INCOMPARABLE)
                assert rel == expected


# ---------------------------------------------------------------------------
# beta-sets
# ---------------------------------------------------------------------------

@given(partition_strategy, st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_beta_set_round_trip(lam, extra):
    b = beta_set(lam, len(lam.parts) + extra)
    assert partition_from_beta_set(b) == lam


@given(partition_strategy)
@settings(max_examples=60, deadline=None)
def test_beta_set_hook_characterization(lam):
    b = beta_set(lam)
    lengths = sorted(c - bb for bb, c in beta_hook_cells(b))
    assert lengths == sorted(hook_lengths(lam.parts))


# ---------------------------------------------------------------------------
# odd hook sequences
# ---------------------------------------------------------------------------

def test_odd_hooks_examples():
    assert odd_hook_sequence(Partition((2, 2))) == [1, 3]
    assert odd_hook_sequence(Partition((1,))) == [1]
    assert odd_hook_sequence(Partition(())) == []


def _check_odd_hooks(lam):
    seq = odd_hook_sequence(lam)
    assert len(seq) == (lam.n + 1) // 2
    assert all(l % 2 == 1 for l in seq)
    assert all(l <= 2 * i - 1 for i, l in enumerate(seq, start=1))
    cells = odd_hook_cells(lam)
    assert len(set(cells)) == len(cells)
    counted = Counter(c - b for b, c in cells)
    available = Counter(hooks(lam).lengths.values())
    for length, mult in counted.items():
        assert mult <= available[length], (lam, length)


def test_odd_hooks_exhaustive_small():
    for n in range(13):
        for lam in partitions_of(n):
            _check_odd_hooks(lam)


def test_odd_hooks_random_to_60():
    rng = random.Random(23)
    for _ in range(120):
        _check_odd_hooks(random_partition(rng, rng.randint(1, 60)))


# ---------------------------------------------------------------------------
# enumeration and validation
# ---------------------------------------------------------------------------

def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_counts():
    for n in range(12):
        labels = list(partitions_of(n))
        assert len(labels) == partition_count(n)
        assert all(Partition(lam.parts) == lam for lam in labels)  # built unvalidated
    assert partition_count(30) == 5604


def test_partitions_of_matches_recursive_generator():
    for n in range(26):
        for max_part in range(n + 2):
            got = [lam.parts for lam in partitions_of(n, max_part)]
            assert got == list(recursive_partition_tuples(n, max_part)), (n, max_part)
        assert [lam.parts for lam in partitions_of(n)] == list(recursive_partition_tuples(n, n))
