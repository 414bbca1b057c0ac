import math
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from lie_degrees import _LABEL_FAMILY, maxdegree, orders
from lie_degrees.maxdegree import (
    CentralizerTypeGL,
    CertVerdict,
    GroupSpec,
    b_gl_exact,
    bound_bracket,
    bound_bracket_intervals,
    count_irred,
    count_irred_nondual,
    count_self_dual,
    enumerate_types,
    epsilon_certificate,
    gl_degree_of_type,
    merge_ratio_sl_n_2,
    min_rank,
    order_parts,
    order_pprime,
    _strong_lucas_probable_prime,
    prime_power,
    seitz_bound,
)
from lie_degrees.qexact import RationalInterval


def orbit_oracle(q, d):
    """Count multiplication-by-q orbits of size d on Z/(q^d - 1): orbits give
    monic irreducibles with nonzero roots; self-dual iff the orbit is
    negation-closed.  The polynomial t itself is added back for d = 1."""
    mod = q ** d - 1
    seen = bytearray(mod)
    n_d = 0
    nd_star = 0
    for i in range(mod):
        if seen[i]:
            continue
        orbit = []
        j = i
        while not seen[j]:
            seen[j] = 1
            orbit.append(j)
            j = (j * q) % mod
        if len(orbit) == d:
            n_d += 1
            if (-i) % mod not in orbit:
                nd_star += 1
    if d == 1:
        n_d += 1
    return n_d, nd_star


# ---------------------------------------------------------------------------
# group orders and the minimal-torus bound
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# the q'-order table against the hand-written formulas it replaced
# ---------------------------------------------------------------------------

def _order_parts_reference(family, n, q):
    """(|G|_p, |G|_{p'}) written out per family, as order_parts had it."""
    if family == "A":
        pprime = 1
        for i in range(2, n + 1):
            pprime *= q ** i - 1
        return q ** (n * (n - 1) // 2), pprime
    if family == "2A":
        pprime = 1
        for i in range(2, n + 1):
            pprime *= q ** i - (-1) ** i
        return q ** (n * (n - 1) // 2), pprime
    if family in ("B", "C"):
        pprime = 1
        for i in range(1, n + 1):
            pprime *= q ** (2 * i) - 1
        return q ** (n * n), pprime
    pprime = q ** n - (1 if family == "D" else -1)
    for i in range(1, n):
        pprime *= q ** (2 * i) - 1
    return q ** (n * (n - 1)), pprime


def _partition_order_reference(family, n, q):
    """|prod_{i <= n} (Q^i - 1)| at Q = q (GL) or Q = -q (GU)."""
    signed = q if family == "GL" else -q
    return abs(math.prod(signed ** i - 1 for i in range(1, n + 1)))


def _block_denominator_reference(q, d, k):
    """prod_{i <= k} (q^{i d} - 1), the denominator of a GL_k(q^d) block's weight."""
    den = 1
    for i in range(1, k + 1):
        den *= q ** (i * d) - 1
    return den


ORDER_QS = (2, 3, 4, 5, 7, 8, 9)


def test_order_table_matches_the_written_out_formulas():
    for q in ORDER_QS:
        for family, label in _LABEL_FAMILY.items():
            for n in range(min_rank(family), 13):
                expected = _order_parts_reference(family, n, q)
                assert order_pprime(family, n, q) == expected[1]
                if label not in ("GL", "GU"):  # a symbol family has the order of its groups
                    assert order_pprime(label, n, q) == expected[1]
                assert order_parts(GroupSpec(family, n, q)) == expected, (family, n, q)
        for n in range(13):
            for family in ("GL", "GU"):
                assert order_pprime(family, n, q) == _partition_order_reference(family, n, q)
        for d in range(1, 5):
            for k in range(1, 13):
                den = _block_denominator_reference(q, d, k)
                assert maxdegree._block_weight(q, d, k) == Fraction(
                    q ** (d * k * (k - 1) // 2), den)


def test_named_group_orders():
    def order(family, n, q):
        p_part, pprime = order_parts(GroupSpec(family, n, q))
        return p_part * pprime

    assert order("A", 3, 2) == 168                   # SL_3(2)
    assert order("2A", 3, 3) == 6048                 # SU_3(3)
    assert 2 ** 3 * order_pprime("GU", 3, 2) == 648  # GU_3(2)
    assert order("C", 2, 2) == 720                   # Sp_4(2)
    assert order("D", 4, 2) == 174_182_400           # Spin+_8(2)


def test_order_table_refuses_rank_below_one():
    for family in ("A", "2A", "B", "C", "BC", "D", "2D"):
        for n in range(min_rank(family) - 1, -1, -1):  # D and 2D: also rank 1, a torus
            with pytest.raises(ValueError, match=f"^family {family} needs rank >= "
                                                 f"{min_rank(family)}$"):
                order_pprime(family, n, 2)
    for family in ("GL", "GU"):  # GL_0 = GU_0 = 1, but no negative sizes
        assert order_pprime(family, 0, 3) == 1
        with pytest.raises(ValueError, match=f"^family {family} needs rank >= 1$"):
            order_pprime(family, -1, 2)
    with pytest.raises(ValueError, match="unknown family"):
        order_pprime("E", 6, 2)


def test_one_order_table_under_every_name():
    import lie_degrees
    from lie_degrees import orders, qexact, unipotent

    assert orders.order_pprime is maxdegree.order_pprime is unipotent.order_pprime
    assert orders.min_rank is maxdegree.min_rank
    assert orders.bracket is qexact.bracket is lie_degrees.bracket
    calls = (
        [lambda f=f: f("E", 3, 2) for f in (orders.order_pprime, maxdegree.order_pprime,
                                             unipotent.order_pprime)]
        + [lambda f=f: f("E") for f in (orders.min_rank, maxdegree.min_rank)]
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown family"):
            call()
    for f in (orders.bracket, qexact.bracket, lie_degrees.bracket):
        assert f((1, 2), 2) == 3
        with pytest.raises(ValueError, match="strictly increasing"):
            f((2, 1), 2)


def test_integer_sequences_are_not_truncated():
    # int() would read (1.5, 2.5) and ("1", "2") as (1, 2), whose bracket at 2 is 3
    for seq in ((1.5, 2.5), ("1", "2")):
        with pytest.raises(ValueError, match="^bracket sequence entries must be integers"):
            orders.bracket(seq, 2)
    # int() made this the type ((1, 3), (1, 2)), whose merge ratio is 21/31
    with pytest.raises(ValueError, match="^block sizes must be integers"):
        merge_ratio_sl_n_2(CentralizerTypeGL(((1.5, 2), (1, 3))))
    with pytest.raises(ValueError, match="^block sizes must be integers"):
        CentralizerTypeGL((("2", 1),))
    assert merge_ratio_sl_n_2(CentralizerTypeGL(((1, 2), (1, 3)))) == Fraction(21, 31)


def test_order_parts_examples():
    assert order_parts(GroupSpec("A", 3, 2)) == (8, 21)      # |SL_3(2)| = 168
    assert order_parts(GroupSpec("C", 2, 3)) == (81, 640)    # |Sp_4(3)|
    assert order_parts(GroupSpec("D", 2, 2)) == (4, 9)       # D_2 = A_1 x A_1
    assert order_parts(GroupSpec("B", 2, 3)) == order_parts(GroupSpec("C", 2, 3))
    p, pp = order_parts(GroupSpec("2A", 3, 2))
    assert (p, pp) == (8, (4 - 1) * (8 + 1))                 # |SU_3(2)|


def test_group_spec_validation():
    for args, error in ((("A", 0, 2), "family A needs rank >= 1"),
                        (("D", 1, 2), "family D needs rank >= 2"),
                        (("A", 2, 1), "q must be >= 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            GroupSpec(*args)
    assert GroupSpec(family="2D", n=4, q=9) == GroupSpec("2D", 4, 9)
    assert CentralizerTypeGL(blocks=[(1, 2), (3, 1)]).blocks == ((3, 1), (1, 2))


# (record, its repr, its fields, fields the record refuses, the refusal) for
# the validated namedtuple records of maxdegree and qexact
RECORDS = [
    (GroupSpec("A", 3, 2), "GroupSpec(family='A', n=3, q=2)", ("A", 3, 2),
     ("A", 3, 6), "q must be a prime power"),
    (CentralizerTypeGL(((1, 1), (2, 1))), "CentralizerTypeGL(blocks=((2, 1), (1, 1)))",
     (((2, 1), (1, 1)),), (((1, 1), (0, 2)),), "blocks need k, d >= 1: ((1, 1), (0, 2))"),
    (RationalInterval(Fraction(1, 2), 1),
     "RationalInterval(lo=Fraction(1, 2), hi=Fraction(1, 1))",
     (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1, 2)), "empty interval: [1, 1/2]"),
]


@pytest.mark.parametrize("record, text, fields, bad, error", RECORDS,
                         ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_behave_as_the_frozen_dataclasses_did(record, text, fields, bad, error):
    import pickle
    cls = type(record)
    assert repr(record) == text
    again = cls(*fields)
    assert again == record and hash(again) == hash(record) and again is not record
    assert record == fields and tuple(record) == fields  # new: the plain tuple
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], fields[0])
    with pytest.raises(AttributeError):
        record.other = 1
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        cls(*bad)
    # no way in skips the checks: _replace, and unpickling at every protocol
    with pytest.raises(ValueError, match=re.escape(error)):
        record._replace(**dict(zip(record._fields, bad)))
    forged = tuple.__new__(cls, bad)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
        with pytest.raises(ValueError, match=re.escape(error)):
            pickle.loads(pickle.dumps(forged, protocol))


def test_seitz_examples():
    assert seitz_bound(GroupSpec("C", 2, 3)) == 160
    assert seitz_bound(GroupSpec("A", 2, 2)) == 3
    assert seitz_bound(GroupSpec("A", 2, 3)) == 4
    assert b_gl_exact(2, 3)[0] <= seitz_bound(GroupSpec("A", 2, 3))
    assert b_gl_exact(2, 2)[0] <= seitz_bound(GroupSpec("A", 2, 2))


def test_seitz_odd_rank_unitary_is_valid_bound():
    # floor-sqrt torus bound: compare against the exact even-rank neighbours
    for q in (2, 3):
        for n in (3, 5, 7):
            bound = seitz_bound(GroupSpec("2A", n, q))
            _, pprime = order_parts(GroupSpec("2A", n, q))
            exact_torus = (q * q - 1) ** n  # torus^2 without the (q+1) factor
            assert bound * math.isqrt(exact_torus) >= pprime * (q + 1)


# ---------------------------------------------------------------------------
# polynomial counts
# ---------------------------------------------------------------------------

def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(6) is None
    assert prime_power(1) is None
    assert prime_power(0) is None and prime_power(-8) is None


def _trial_division_prime_power(q: int):
    if q < 2:
        return None
    for p in range(2, math.isqrt(q) + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q, e = q // p, e + 1
            return (p, e) if q == 1 else None
    return (q, 1)


def test_prime_power_matches_trial_division():
    assert all(prime_power(q) == _trial_division_prime_power(q) for q in range(-2, 20_000))


def test_prime_power_of_large_q():
    m61, m89, m127 = 2 ** 61 - 1, 2 ** 89 - 1, 2 ** 127 - 1  # Mersenne primes
    assert prime_power(m61) == (m61, 1)
    assert prime_power(m61 ** 2) == (m61, 2)
    assert prime_power(m89) == (m89, 1)  # above the proven Miller-Rabin range
    assert prime_power(m127 ** 3) == (m127, 3)
    assert prime_power(2 ** 200) == (2, 200)
    assert prime_power(m61 * m89) is None
    assert prime_power(m61 ** 2 * m89) is None
    # a strong pseudoprime to the bases 2..31, a product of three primes
    assert prime_power(3825123056546413051) is None


def test_strong_lucas_test_on_the_known_pseudoprimes():
    # the odd composites below 60000 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255), and every odd prime there
    composites = [n for n in range(43, 60_000, 2) if _trial_division_prime_power(n) != (n, 1)]
    assert [n for n in composites if _strong_lucas_probable_prime(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]
    assert all(_strong_lucas_probable_prime(n) for n in range(43, 60_000, 2)
               if _trial_division_prime_power(n) == (n, 1))


def test_count_irred_examples():
    assert count_irred(2, 1) == 2
    assert count_irred(2, 3) == 2
    assert count_irred(3, 2) == 3
    with pytest.raises(ValueError):
        count_irred(6, 2)


def test_count_nondual_examples():
    assert count_irred_nondual(2, 1) == 0
    assert count_irred_nondual(3, 1) == 0          # t-1 and t+1 both self-dual
    assert count_irred_nondual(5, 1) == 2
    assert count_irred_nondual(3, 2) == 2          # t^2+1 is the self-dual one
    assert count_self_dual(3, 2) == 1
    n5 = count_irred_nondual(2, 5)
    assert 3 * 32 <= 4 * 5 * n5 and 5 * n5 < 32    # the degree-5 bracket over F_2


def test_poly_budget_brackets():
    for q in (2, 3, 5):
        for d in range(1, 13):
            n_d, n_star = count_irred(q, d), count_irred_nondual(q, d)
            if d >= 3:
                assert 3 * q ** d <= 4 * d * n_d < 4 * q ** d
            if (d >= 3 and q >= 3) or (d >= 5 and q == 2):
                assert 3 * q ** d <= 4 * d * n_star
            assert d * n_star < q ** d


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_counts_match_orbit_oracle_small(q):
    d = 1
    while q ** d <= 4000:
        nd, nds = orbit_oracle(q, d)
        assert count_irred(q, d) == nd
        assert count_irred_nondual(q, d) == nds
        d += 1


# ---------------------------------------------------------------------------
# exact b(GL_n(q))
# ---------------------------------------------------------------------------

def test_b_gl_examples():
    for q in (2, 3, 4, 5):
        b, w = b_gl_exact(1, q)
        assert b == 1 and w.blocks == ((1, 1),)
    assert b_gl_exact(2, 2)[0] == 2
    assert b_gl_exact(2, 3)[0] == 4
    assert b_gl_exact(3, 2)[0] == 8      # GL_3(2): the Steinberg character
    assert b_gl_exact(4, 2)[0] == 70     # GL_4(2) ~= A_8
    assert b_gl_exact(5, 2)[0] == 1240


def test_b_gl_against_type_enumeration():
    # the witness is the maximizing type itself: the largest degree, ties to
    # the smallest sorted block tuple
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 9):
            degrees = [(gl_degree_of_type(t, q), t) for t in enumerate_types(n, q)]
            brute = max(deg for deg, _ in degrees)
            best = min((t for deg, t in degrees if deg == brute), key=lambda t: sorted(t.blocks))
            b, w = b_gl_exact(n, q)
            assert b == brute == gl_degree_of_type(w, q)
            assert w == best, (n, q)
            assert w.n == n and w.is_admissible(q)
    for n in (9, 10, 11):
        brute = max(gl_degree_of_type(t, 2) for t in enumerate_types(n, 2))
        assert b_gl_exact(n, 2)[0] == brute


def test_b_gl_meets_seitz_for_large_q():
    # the split-torus regular character attains the minimal-torus bound once
    # q - 1 admits n distinct eigenvalues
    for n in range(2, 7):
        for q in (8, 9, 11, 13):
            b, _ = b_gl_exact(n, q)
            assert b == seitz_bound(GroupSpec("A", n, q))


def test_b_gl_witness_budget_q2():
    for n in range(2, 41):
        _, w = b_gl_exact(n, 2)
        assert w.degree_multiplicities().get(1, 0) <= 1


def test_b_gl_at_least_steinberg():
    for q in (2, 3, 5, 8):
        for n in range(1, 21):
            assert b_gl_exact(n, q)[0] >= q ** (n * (n - 1) // 2)


def test_b_gl_rejects_bad_input():
    with pytest.raises(ValueError):
        b_gl_exact(3, 6)
    with pytest.raises(ValueError):
        b_gl_exact(0, 2)


def test_b_gl_memo_is_unbounded():
    # a bounded memo evicts the states of one large call (n > 330 at q = 2)
    # while that call still reads them
    assert maxdegree._best_blocks.cache_parameters()["maxsize"] is None


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------

def test_bracket_example_a_10_2():
    lower, upper = bound_bracket(GroupSpec("A", 10, 2))
    assert lower == 1
    expected = 13 * math.log2(10 * 1 + 2) ** 2.54
    assert abs(float(upper) - expected) < 1e-6


def test_bracket_example_c_5_2():
    low_i, up_i = bound_bracket_intervals(GroupSpec("C", 5, 2))
    assert low_i.contains(1)
    expected = 8 * (1 + math.log2(11)) ** 1.27
    assert abs(float(up_i.lo) - expected) < 1e-9


def test_bracket_encloses_exact_c_small_grid():
    for q in (2, 3, 4):
        for n in range(1, 13):
            b, _ = b_gl_exact(n, q)
            c = Fraction(b, q ** (n * (n - 1) // 2))
            low_i, up_i = bound_bracket_intervals(GroupSpec("A", n, q))
            assert low_i.hi <= c <= up_i.lo


def test_bracket_odd_q_families():
    low, up = bound_bracket(GroupSpec("D", 6, 3))
    assert low >= 1 and up > 1
    expected = 38 * (1 + math.log(13, 3)) ** 1.27
    assert abs(float(up) - expected) < 1e-6


# ---------------------------------------------------------------------------
# merge ratios over F_2
# ---------------------------------------------------------------------------

def test_merge_examples():
    assert merge_ratio_sl_n_2(CentralizerTypeGL(((1, 2), (1, 1)))) == Fraction(3, 7)
    assert merge_ratio_sl_n_2(CentralizerTypeGL(((2, 2), (1, 1)))) == Fraction(45, 124)


def test_merge_sweep_n_le_12():
    for n in range(2, 13):
        for t in enumerate_types(n, 2):
            if len(t.blocks) >= 2:
                r = merge_ratio_sl_n_2(t)
                assert Fraction(81, 512) < r < 1


def test_merge_validation():
    with pytest.raises(ValueError):
        merge_ratio_sl_n_2(CentralizerTypeGL(((3, 1),)))
    with pytest.raises(ValueError):
        merge_ratio_sl_n_2(CentralizerTypeGL(((1, 1), (1, 1), (1, 2))))


# ---------------------------------------------------------------------------
# epsilon certificates
# ---------------------------------------------------------------------------

FRONTIER = [
    (("A", 15, 3), CertVerdict.CERTIFIED_GT_ONE),
    (("A", 14, 3), CertVerdict.LISTED_EXCEPTION),
    (("A", 5, 4), CertVerdict.CERTIFIED_GT_ONE),
    (("A", 4, 4), CertVerdict.INCONCLUSIVE),
    (("A", 4, 5), CertVerdict.CERTIFIED_GT_ONE),
    (("A", 3, 3), CertVerdict.INCONCLUSIVE),
    (("A", 9, 2), CertVerdict.LISTED_EXCEPTION),
    (("2A", 15, 2), CertVerdict.CERTIFIED_GT_ONE),
    (("2A", 14, 2), CertVerdict.LISTED_EXCEPTION),
    (("2A", 6, 2), CertVerdict.INCONCLUSIVE),
    (("2A", 6, 3), CertVerdict.CERTIFIED_GT_ONE),
    (("2A", 4, 4), CertVerdict.CERTIFIED_GT_ONE),
    (("B", 18, 3), CertVerdict.CERTIFIED_GT_ONE),
    (("B", 17, 3), CertVerdict.LISTED_EXCEPTION),
    (("C", 4, 4), CertVerdict.CERTIFIED_GT_ONE),
    (("C", 3, 5), CertVerdict.CERTIFIED_GT_ONE),
    (("C", 2, 7), CertVerdict.CERTIFIED_GT_ONE),
    (("C", 9, 2), CertVerdict.LISTED_EXCEPTION),
    (("D", 31, 3), CertVerdict.CERTIFIED_GT_ONE),
    (("2D", 30, 3), CertVerdict.LISTED_EXCEPTION),
    (("D", 7, 5), CertVerdict.CERTIFIED_GT_ONE),
    (("2D", 6, 5), CertVerdict.LISTED_EXCEPTION),
    (("D", 5, 7), CertVerdict.CERTIFIED_GT_ONE),
    (("2D", 4, 7), CertVerdict.LISTED_EXCEPTION),
]


@pytest.mark.parametrize("spec_args,expected", FRONTIER)
def test_epsilon_certificate_frontier(spec_args, expected):
    assert epsilon_certificate(GroupSpec(*spec_args)) == expected


def test_epsilon_certificate_rank_guards():
    with pytest.raises(ValueError):
        epsilon_certificate(GroupSpec("2A", 2, 3))
    with pytest.raises(ValueError):
        epsilon_certificate(GroupSpec("D", 3, 3))


# sha256 of the verdict, or the ValueError text, of every group family at the
# prime powers q = 2..16 and n = 1..40: a change to any listed range or rank
# guard changes it.  The other q in that range name no field (next test).
EPSILON_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
EPSILON_DIGEST = "a3d221b65c3d91bd2075626a6a3d6bb89e9880d47fb0cdb4dc099179e9c27c54"


def test_epsilon_certificates_are_pinned():
    import hashlib
    import itertools
    rows = []
    for fam, q, n in itertools.product(_LABEL_FAMILY, EPSILON_QS, range(1, 41)):
        try:
            verdict = epsilon_certificate(GroupSpec(fam, n, q)).value
        except ValueError as exc:
            verdict = f"ValueError: {exc}"
        rows.append(f"{fam} {n} {q} {verdict}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == EPSILON_DIGEST


def test_group_spec_needs_a_prime_power_q():
    assert [q for q in range(2, 17) if prime_power(q)] == list(EPSILON_QS)
    for q in (6, 10, 12, 14, 15):
        for fam in _LABEL_FAMILY:
            with pytest.raises(ValueError, match="^q must be a prime power$"):
                GroupSpec(fam, 4, q)


# ---------------------------------------------------------------------------
# integrality checks raise, also under python -O
# ---------------------------------------------------------------------------

def test_non_integral_counts_raise(monkeypatch):
    monkeypatch.setattr(maxdegree, "_mobius", lambda n: 1)
    with pytest.raises(ArithmeticError):
        count_irred(2, 3)           # 2^3 + 2 is not divisible by 3
    with pytest.raises(ArithmeticError):
        count_self_dual(2, 4)       # 1 + 1 + 5 is not divisible by 4


def test_non_integral_degrees_raise(monkeypatch):
    # 3^3 (|GL_3(3)|_{3'} + 1) / |GL_3(3)|_{3'} is not an integer
    real_order = orders.order_pprime
    monkeypatch.setattr(orders, "order_pprime", lambda fam, n, q: real_order(fam, n, q) + 1)
    with pytest.raises(ArithmeticError, match=r"GL degree for \(\(3, 1\),\), q=3"):
        gl_degree_of_type(CentralizerTypeGL(((3, 1),)), 3)
    monkeypatch.undo()
    monkeypatch.setattr(maxdegree, "_best_blocks",
                        lambda q, d, weight, kmax, left: (Fraction(1, 5), ((weight, 1),)))
    with pytest.raises(ArithmeticError):
        b_gl_exact(2, 3)            # (3 - 1)(9 - 1)/5 is not the witness's degree, 3


_OPTIMISED_PROBE = textwrap.dedent("""
    import sys
    from lie_degrees import maxdegree, orders
    if __debug__:
        sys.exit("not running under python -O")
    real_order = orders.order_pprime
    orders.order_pprime = lambda fam, n, q: real_order(fam, n, q) + 1
    t = maxdegree.CentralizerTypeGL(((3, 1),))
    try:
        print(maxdegree.gl_degree_of_type(t, 3))
    except ArithmeticError:
        sys.exit(0)
    sys.exit("no ArithmeticError for a non-integral degree")
""")


def test_integrality_check_survives_python_O():
    src = os.path.dirname(os.path.dirname(maxdegree.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMISED_PROBE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_bracket_intervals_are_computed_once_per_bracket(monkeypatch):
    from lie_degrees import qexact, tables

    maxdegree._bracket_intervals.cache_clear()
    qexact._ln_base.cache_clear()
    ln = qexact.ln_interval
    seen = []
    monkeypatch.setattr(qexact, "ln_interval", lambda x, terms=28: seen.append(x) or ln(x, terms))
    for family in ("A", "2A", "B", "C", "D", "2D"):      # the bounds-table command
        for q in (2, 3, 4, 5):
            tables.bounds_table(family, 1, 2, q)
    # 244 before the memo: 40 brackets, of which 24 are distinct
    assert maxdegree._bracket_intervals.cache_info().misses == 24
    assert len(seen) < 244, len(seen)
    for n, q in ((2, 2), (3, 3), (5, 4)):
        shared = bound_bracket_intervals(GroupSpec("B", n, q))
        assert all(bound_bracket_intervals(GroupSpec(f, n, q)) is shared for f in ("C", "D", "2D"))
        assert maxdegree._bracket_intervals.__wrapped__("BCD", n, q) == shared
        spec = GroupSpec("A", n, q)
        assert bound_bracket_intervals(spec) == maxdegree._bracket_intervals.__wrapped__("A", n, q)
    maxdegree._bracket_intervals.cache_clear()
    qexact._ln_base.cache_clear()
