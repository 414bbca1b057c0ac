import math
import pickle
import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lie_degrees import partitions, symmetric
from lie_degrees.partitions import (
    Node,
    Partition,
    add_node,
    addable_nodes,
    addable_removable,
    formal_hook_length,
    hook_product,
    partitions_of,
    removable_nodes,
    remove_node,
    sym_degree,
    transpose,
)
from lie_degrees.symmetric import (
    DegreeMultiset,
    DownUpMove,
    OctupleMove,
    alt_degrees,
    apply_downup,
    downup_neighborhood,
    epsilon_of,
    octuple_ratio,
    ratio_witness,
    sym_degrees,
)


def random_partition(rng, n):
    parts = []
    rem, prev = n, n
    while rem:
        p = rng.randint(1, min(prev, rem))
        parts.append(p)
        rem -= p
        prev = p
    return Partition(tuple(sorted(parts, reverse=True)))


def is_octuple(first, second):
    """The set rule: the nodes of the two (remove, add) moves lie in four
    distinct rows and four distinct columns."""
    nodes = (*first, *second)
    return len({i for i, _ in nodes}) == 4 and len({j for _, j in nodes}) == 4


def legal_octuples(lam, moves):
    for m1 in moves:
        for m2 in moves:
            if is_octuple(m1, m2):
                yield OctupleMove(m1, m2)


# ---------------------------------------------------------------------------
# down-up neighbourhood
# ---------------------------------------------------------------------------

def test_downup_single_box():
    nb = downup_neighborhood(Partition((1,)))
    assert len(nb) == 1
    move, gamma = nb[0]
    assert move == DownUpMove(Node(1, 1), Node(1, 1)) and gamma == Partition((1,))


def test_downup_sum_identity_examples():
    lam = Partition((2, 1))
    nb = downup_neighborhood(lam)
    assert sum(sym_degree(g) for _, g in nb) == 3 * sym_degree(lam)


def test_downup_sum_identity_exhaustive():
    for n in range(1, 13):
        for lam in partitions_of(n):
            nb = downup_neighborhood(lam)
            assert sum(sym_degree(g) for _, g in nb) == n * sym_degree(lam)
            assert len(nb) < math.sqrt(2 * n) * (math.sqrt(2 * n) + 1)


def test_downup_sum_identity_random_large():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(50, 200)
        lam = random_partition(rng, n)
        nb = downup_neighborhood(lam)
        assert sum(sym_degree(g) for _, g in nb) == n * sym_degree(lam)
        assert len(nb) < math.sqrt(2 * n) * (math.sqrt(2 * n) + 1)


def test_hook_change_rule_on_addable_nodes():
    rng = random.Random(9)
    for _ in range(50):
        lam = random_partition(rng, rng.randint(2, 40))
        a, _ = addable_removable(lam)
        for x in a:
            bigger = add_node(lam, x)
            for y in a:
                if y == x:
                    continue
                before = formal_hook_length(lam, y)
                after = formal_hook_length(bigger, y)
                if y.i == x.i or y.j == x.j:
                    assert after == before + 1
                else:
                    assert after == before


# ---------------------------------------------------------------------------
# octuple ratios
# ---------------------------------------------------------------------------

def test_octuple_positive_and_consistent():
    lam = Partition((4, 3, 1, 1))
    moves = [m for m, _ in downup_neighborhood(lam)]
    count = 0
    for oct_move in legal_octuples(lam, moves):
        ratio = octuple_ratio(lam, oct_move)  # internal closed-form assert
        assert ratio > 0
        pairs = tuple((tuple(m.remove), tuple(m.add)) for m in (oct_move.first, oct_move.second))
        assert octuple_ratio(lam, pairs) == ratio  # the plain node pairs the suite passes
        count += 1
    assert count > 0


def test_octuple_mismatch_raises_arithmetic_error(monkeypatch):
    lam = Partition((4, 3, 1, 1))
    oct_move = next(legal_octuples(lam, [m for m, _ in downup_neighborhood(lam)]))
    broken = symmetric.formal_hook_length
    monkeypatch.setattr(symmetric, "formal_hook_length", lambda lam, node: broken(lam, node) + 1)
    with pytest.raises(ArithmeticError, match="closed form"):
        octuple_ratio(lam, oct_move)


def test_octuple_closed_form_with_a_zero_denominator_raises(monkeypatch):
    # b = 2 and c = 1 make the closed form 0/0, which cross-multiplication alone accepts
    lam = Partition((4, 3, 1, 1))
    oct_move = next(legal_octuples(lam, [m for m, _ in downup_neighborhood(lam)]))
    hooks = iter([3, 2, 1, 3])   # a, b, then the two cross hooks c, d
    monkeypatch.setattr(symmetric, "formal_hook_length", lambda lam, node: next(hooks))
    with pytest.raises(ArithmeticError, match="closed form 0/0"):
        octuple_ratio(lam, oct_move)


def test_octuple_requires_distinct_coordinates():
    with pytest.raises(ValueError):
        OctupleMove(DownUpMove(Node(1, 2), Node(2, 2)),
                    DownUpMove(Node(3, 1), Node(4, 1)))
    with pytest.raises(ValueError, match="pairwise distinct"):
        octuple_ratio(Partition((4, 3, 1, 1)), (((1, 4), (2, 4)), ((4, 1), (5, 1))))


def test_octuple_random_sweep():
    rng = random.Random(17)
    verified = 0
    while verified < 300:
        lam = random_partition(rng, rng.randint(8, 60))
        moves = [m for m, _ in downup_neighborhood(lam)]
        rng.shuffle(moves)
        for oct_move in legal_octuples(lam, moves[:6]):
            octuple_ratio(lam, oct_move)
            verified += 1
            break
    assert verified >= 300


# ---------------------------------------------------------------------------
# ratio witnesses
# ---------------------------------------------------------------------------

STANDARD_EXCLUDED = {Fraction(2), Fraction(1), Fraction(1, 2)}


def fraction_keyed_ratio_witness(lam, excluded, delta):
    """The ratio witness search with Fraction sort keys, kept as a reference."""
    excluded = {Fraction(s) for s in excluded}
    base = sym_degree(lam)
    neigh = downup_neighborhood(lam)
    scored = []
    for move, gamma in neigh:
        ratio = Fraction(sym_degree(gamma), base)
        scored.append((-abs(ratio - 1), gamma.parts, move, ratio, gamma))
    scored.sort(key=lambda t: (t[0], t[1], t[2].remove, t[2].add))
    for _, _, _, ratio, gamma in scored:
        if ratio >= delta and ratio not in excluded:
            return gamma
    for m1, _ in neigh:
        for m2, _ in neigh:
            i_coords = {m1.remove.i, m1.add.i, m2.remove.i, m2.add.i}
            j_coords = {m1.remove.j, m1.add.j, m2.remove.j, m2.add.j}
            if len(i_coords) != 4 or len(j_coords) != 4:
                continue
            gamma = apply_downup(apply_downup(lam, m1), m2)
            ratio = Fraction(sym_degree(gamma), base)
            if ratio >= delta and ratio not in excluded:
                return gamma
    return None


@pytest.mark.parametrize("excluded, delta", [
    (STANDARD_EXCLUDED, Fraction(1, 100)),
    (set(), Fraction(1)),
    ({Fraction(1)}, Fraction(3, 2)),     # often only an octuple move, or nothing, hits
])
def test_witness_matches_fraction_keyed_reference(excluded, delta):
    octuple_hits = 0
    for n in range(2, 15):
        for lam in partitions_of(n):
            expected = fraction_keyed_ratio_witness(lam, excluded, delta)
            assert ratio_witness(lam, excluded, delta) == expected, lam
            if expected is not None and expected not in dict(downup_neighborhood(lam)).values():
                octuple_hits += 1
    if delta > 1:
        assert octuple_hits > 0  # the octuple scan is exercised too


def sorted_scan_ratio_witness(lam, excluded, delta):
    """The ratio witness search that sorts the whole neighbourhood and keeps
    every (remove, add) pair, including each corner's own re-addition, kept
    as a reference for the min-first scan."""
    excluded = {Fraction(s) for s in excluded}
    base = sym_degree(lam)

    def hit(d):
        return Fraction(d, base) >= delta and Fraction(d, base) not in excluded

    scored = []
    for rem in removable_nodes(lam.parts):
        mid = remove_node(lam, rem)
        for add in addable_nodes(mid.parts):
            gamma = add_node(mid, add)
            d = sym_degree(gamma)
            scored.append((-abs(d - base), gamma.parts, rem, add, d))
    scored.sort()
    for _, parts, _, _, d in scored:
        if hit(d):
            return Partition(parts)
    moves = [m for m, _ in downup_neighborhood(lam)]
    for m1 in moves:
        for m2 in moves:
            i_coords = {m1.remove.i, m1.add.i, m2.remove.i, m2.add.i}
            j_coords = {m1.remove.j, m1.add.j, m2.remove.j, m2.add.j}
            if len(i_coords) == 4 and len(j_coords) == 4:
                gamma = apply_downup(apply_downup(lam, m1), m2)
                if hit(sym_degree(gamma)):
                    return gamma
    return None


def _farthest_ratio(lam):
    """The degree ratio of the neighbour farthest from ratio 1 (ties by parts)."""
    base = sym_degree(lam)
    _, gamma = min((-abs(sym_degree(g) - base), g.parts) for _, g in downup_neighborhood(lam))
    return Fraction(sym_degree(Partition(gamma)), base)


@pytest.mark.parametrize("setting", ["standard", "sort", "octuple", "none"])
def test_witness_matches_the_sorted_scan(setting):
    """Every shape with n <= 14, in four settings: the farthest neighbour is
    the usual witness; excluding its ratio sends the scan down the sorted
    list; a ratio of at least 3 often needs an octuple (36 shapes); and no
    diagram of n <= 14 has a degree a million times another's."""
    neighbour_hits = sorted_hits = octuple_hits = 0
    for n in range(1, 15):
        for lam in partitions_of(n):
            excluded, delta = {
                "standard": (STANDARD_EXCLUDED, Fraction(1, 100)),
                "sort": ({_farthest_ratio(lam)}, Fraction(1, 100)),
                "octuple": (set(), Fraction(3)),
                "none": (set(), Fraction(10 ** 6)),
            }[setting]
            expected = sorted_scan_ratio_witness(lam, excluded, delta)
            assert ratio_witness(lam, excluded, delta) == expected, lam
            if expected is None:
                continue
            ratio = Fraction(sym_degree(expected), sym_degree(lam))
            if expected not in dict(downup_neighborhood(lam)).values():
                octuple_hits += 1
            elif ratio == _farthest_ratio(lam):
                neighbour_hits += 1
            else:
                sorted_hits += 1
    if setting == "standard":
        assert neighbour_hits > 100
    if setting == "sort":
        assert sorted_hits > 100
    if setting == "octuple":
        assert octuple_hits > 20
    if setting == "none":
        assert neighbour_hits == sorted_hits == octuple_hits == 0


def farthest_first_ratio_witness(lam, excluded, delta):
    """The tie rule as the reference states it: the down-up neighbour that
    minimises (-|d - base|, parts), each degree d taken with sym_degree; when
    it is no witness, the sorted scan and the octuples of
    sorted_scan_ratio_witness."""
    excluded = {Fraction(s) for s in excluded}
    base = sym_degree(lam)
    _, parts = min((-abs(sym_degree(gamma) - base), gamma.parts)
                   for _, gamma in downup_neighborhood(lam))
    ratio = Fraction(sym_degree(Partition(parts)), base)
    if ratio >= delta and ratio not in excluded:
        return Partition(parts)
    return sorted_scan_ratio_witness(lam, excluded, delta)


SHAPES_TO_14 = [lam for n in range(1, 15) for lam in partitions_of(n)]


@given(delta=st.builds(Fraction, st.integers(1, 3000), st.integers(1, 100)),
       picks=st.lists(st.integers(0, 40), max_size=4),
       others=st.sets(st.builds(Fraction, st.integers(0, 60), st.integers(1, 12)), max_size=3),
       ban_farthest=st.booleans())
@settings(max_examples=20, deadline=None)
def test_witness_follows_the_farthest_first_reference(delta, picks, others, ban_farthest):
    """Every shape with n <= 14.  The excluded set holds the drawn rationals,
    the neighbour ratios at the drawn indices of their sorted list and, when
    ban_farthest is drawn, the farthest neighbour's ratio, so that the scan
    has to pass over it."""
    for lam in SHAPES_TO_14:
        base = sym_degree(lam)
        ratios = sorted({Fraction(sym_degree(gamma), base)
                         for _, gamma in downup_neighborhood(lam)})
        excluded = set(others) | {ratios[k % len(ratios)] for k in picks}
        if ban_farthest:
            excluded.add(_farthest_ratio(lam))
        expected = farthest_first_ratio_witness(lam, excluded, delta)
        assert ratio_witness(lam, excluded, delta) == expected, (lam, excluded, delta)


def test_witness_column_20():
    lam = Partition((1,) * 20)
    gamma = ratio_witness(lam, STANDARD_EXCLUDED, Fraction(1, 100))
    assert gamma is not None
    ratio = Fraction(sym_degree(gamma), sym_degree(lam))
    assert ratio >= Fraction(1, 100) and ratio not in STANDARD_EXCLUDED


def test_witness_needs_a_non_empty_partition():
    with pytest.raises(ValueError, match="non-empty"):
        ratio_witness(Partition(()), set(), Fraction(1))


def test_witness_trivial_row():
    gamma = ratio_witness(Partition((9,)), set(), Fraction(1))
    assert gamma == Partition((8, 1))


def test_witness_sweep_midrange():
    # every shape of these sizes admits a witness for the standard excluded set
    for n in (15, 18, 21):
        for lam in partitions_of(n):
            gamma = ratio_witness(lam, STANDARD_EXCLUDED, Fraction(1, 100))
            assert gamma is not None, lam
            ratio = Fraction(sym_degree(gamma), sym_degree(lam))
            assert ratio >= Fraction(1, 100) and ratio not in STANDARD_EXCLUDED


# ---------------------------------------------------------------------------
# degree multisets, alternating groups, epsilon
# ---------------------------------------------------------------------------

def test_branching_identity():
    from lie_degrees.partitions import remove_node

    for n in range(1, 16):
        for lam in partitions_of(n):
            _, removable = addable_removable(lam)
            total = sum(sym_degree(remove_node(lam, r)) for r in removable)
            assert total == sym_degree(lam)


def hook_formula_degree(lam):
    """sym_degree without the memo that the degree lists fill."""
    return math.factorial(lam.n) // hook_product(lam.parts)


def reference_sym_degrees(n):
    """The Partition-based S_n degree list, kept as a reference."""
    counts = {}
    for lam in partitions_of(n):
        d = hook_formula_degree(lam)
        counts[d] = counts.get(d, 0) + 1
    return DegreeMultiset.from_dict(counts)


def reference_alt_degrees(n):
    """The Partition-based A_n degree list, kept as a reference."""
    counts = {}
    for lam in partitions_of(n):
        conj = transpose(lam)
        if lam == conj:
            half, odd = divmod(hook_formula_degree(lam), 2)
            assert not odd
            counts[half] = counts.get(half, 0) + 2
        elif lam.parts > conj.parts:
            d = hook_formula_degree(lam)
            counts[d] = counts.get(d, 0) + 1
    return DegreeMultiset.from_dict(counts)


def test_degree_lists_match_the_partition_based_reference():
    for n in range(0, 21):
        assert sym_degrees(n) == reference_sym_degrees(n)
    for n in range(2, 31):
        assert alt_degrees(n) == reference_alt_degrees(n)


def test_the_degree_memo_keeps_to_its_bound(monkeypatch):
    bound, sizes = 7, []

    def setitem(memo, parts, degree):
        dict.__setitem__(memo, parts, degree)
        sizes.append(len(memo))

    monkeypatch.setattr(partitions, "_SYM_DEGREE_BOUND", bound)
    monkeypatch.setattr(partitions._DegreeMemo, "__setitem__", setitem)
    assert alt_degrees(12) == reference_alt_degrees(12)
    assert sym_degrees(9) == reference_sym_degrees(9)
    for n in (9, 12):
        for lam in partitions_of(n):
            assert sym_degree(lam) == hook_formula_degree(lam), lam
    assert len(sizes) > 10 * bound and max(sizes) <= bound


def test_a_diagram_with_more_rows_than_columns_reads_its_conjugates_degree(monkeypatch):
    # the degree lists store only diagrams with at least as many columns as
    # rows; a lookup of a taller diagram then forms no hook product
    partitions._SYM_DEGREES.clear()
    alt_degrees(11)
    monkeypatch.setattr(partitions, "hook_product", None)
    tall = [lam for lam in partitions_of(11) if lam.parts[0] < len(lam.parts)]
    assert tall and all(sym_degree(lam) == sym_degree(transpose(lam)) for lam in tall)


def test_sym_degrees_total():
    for n in (4, 6, 9):
        d = sym_degrees(n)
        assert d.total == math.factorial(n)


def test_sym_degrees_rejects_a_negative_size():
    with pytest.raises(ValueError, match="^n must be >= 0$"):
        sym_degrees(-1)


def test_alt_degrees_frozen_lists():
    assert alt_degrees(5).as_sorted_list() == [1, 3, 3, 4, 5]
    assert alt_degrees(6).as_sorted_list() == [1, 5, 5, 8, 8, 9, 10]
    assert alt_degrees(4).as_sorted_list() == [1, 1, 1, 3]


def test_alt_degrees_rejects_odd_self_conjugate_degree(monkeypatch):
    real = symmetric._degree_walk
    monkeypatch.setattr(symmetric, "_degree_walk", lambda n: [
        (parts, 17 if parts == (3, 2, 1) else d) for parts, d in real(n)])
    with pytest.raises(ArithmeticError, match="even"):
        alt_degrees(6)


def test_alt_degrees_square_sum():
    for n in range(2, 17):
        assert alt_degrees(n).total == math.factorial(n) // 2


def test_epsilon_examples():
    assert epsilon_of(alt_degrees(5)) == Fraction(7, 5)
    assert epsilon_of(alt_degrees(6)) == Fraction(13, 5)
    assert epsilon_of(DegreeMultiset.from_dict({1: 1})) == 0


def test_degree_multisets_refuse_degrees_below_one():
    # epsilon_of divided by zero at {0: 1} and gave 9/4 at {-3: 1, 2: 1}
    for counts in ({0: 1}, {-3: 1, 2: 1}, {0: 2, 1: 1}):
        with pytest.raises(ValueError, match="^degrees must be positive$"):
            DegreeMultiset.from_dict(counts)


def test_epsilon_excludes_all_top_copies():
    d = DegreeMultiset.from_dict({2: 3, 5: 2})
    assert epsilon_of(d) == Fraction(3 * 4, 25)


def test_epsilon_an_at_least_one_report():
    # data check, not a theorem: flag but do not fail if epsilon drops below 1
    below = []
    for n in range(5, 31):
        if epsilon_of(alt_degrees(n)) < 1:
            below.append(n)
    if below:  # pragma: no cover - would indicate surprising new data
        warnings.warn(f"epsilon(A_n) < 1 for n in {below}")


def test_downup_moves_match_the_neighborhood():
    for n in range(1, 15):
        for lam in partitions_of(n):
            assert symmetric.downup_moves(lam.parts) == [(m.remove, m.add)
                                                         for m, _ in downup_neighborhood(lam)]


def test_octuple_pairs_follow_the_move_object_rule():
    # the same pairs in the same order as legal_octuples' set rule
    for n in range(1, 11):
        for lam in partitions_of(n):
            moves = [m for m, _ in downup_neighborhood(lam)]
            pairs = list(symmetric._octuple_pairs(symmetric.downup_moves(lam.parts)))
            assert pairs == list(legal_octuples(lam, moves)), lam


def test_check_octuple_agrees_with_the_set_rule_on_every_pair_of_moves():
    # every move between two cells of a 4 x 4 grid, put-backs and moves
    # within a row or a column included, then the moves of small diagrams
    cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    grid = [(r, a) for r in cells for a in cells]
    diagrams = [symmetric.downup_moves(lam.parts) for n in range(1, 9) for lam in partitions_of(n)]
    legal = 0
    for moves in [grid] + diagrams:
        for first in moves:
            for second in moves:
                if is_octuple(first, second):
                    symmetric._check_octuple(first, second)
                    legal += 1
                else:
                    with pytest.raises(ValueError, match="pairwise distinct"):
                        symmetric._check_octuple(first, second)
    assert legal > 0


def test_move_and_degree_records_are_namedtuples():
    move = DownUpMove(Node(1, 4), Node(3, 1))
    other = DownUpMove(Node(2, 3), Node(4, 2))
    octuple = OctupleMove(move, other)
    degrees = DegreeMultiset.from_dict({3: 1, 1: 2})
    cases = [
        (move, "DownUpMove(remove=Node(i=1, j=4), add=Node(i=3, j=1))", ((1, 4), (3, 1))),
        (octuple, "OctupleMove(first=DownUpMove(remove=Node(i=1, j=4), add=Node(i=3, j=1)), "
                  "second=DownUpMove(remove=Node(i=2, j=3), add=Node(i=4, j=2)))",
         (((1, 4), (3, 1)), ((2, 3), (4, 2)))),
        (degrees, "DegreeMultiset(counts=((1, 2), (3, 1)))", (((1, 2), (3, 1)),)),
    ]
    for record, text, fields in cases:
        assert repr(record) == text
        # a namedtuple: equal to, and hashed as, the plain tuple of its fields
        assert record == fields and hash(record) == hash(fields)
        assert type(record)(*fields) == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], fields[0])
        with pytest.raises(AttributeError):
            record.other = 1
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert (degrees.b, degrees.total) == (3, 11)
    # an OctupleMove is checked however it is made
    error = re.escape("octuple coordinates must be pairwise distinct in i and in j")
    with pytest.raises(ValueError, match=error):
        octuple._replace(second=move)
    forged = tuple.__new__(OctupleMove, (move, move))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match=error):
            pickle.loads(pickle.dumps(forged, protocol))
