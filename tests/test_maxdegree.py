import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from lie_degrees import maxdegree
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
    order_parts,
    poly_budget,
    prime_power,
    seitz_bound,
)


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

def test_order_parts_examples():
    assert order_parts(GroupSpec("A", 3, 2)) == (8, 21)      # |SL_3(2)| = 168
    assert order_parts(GroupSpec("C", 2, 3)) == (81, 640)    # |Sp_4(3)|
    assert order_parts(GroupSpec("D", 2, 2)) == (4, 9)       # D_2 = A_1 x A_1
    assert order_parts(GroupSpec("B", 2, 3)) == order_parts(GroupSpec("C", 2, 3))
    p, pp = order_parts(GroupSpec("2A", 3, 2))
    assert (p, pp) == (8, (4 - 1) * (8 + 1))                 # |SU_3(2)|


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("E", 3, 2)
    with pytest.raises(ValueError):
        GroupSpec("D", 1, 2)
    with pytest.raises(ValueError):
        GroupSpec("A", 2, 1)


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
        budget = poly_budget(q, 12)
        for d in range(1, 13):
            assert budget.n(d) == count_irred(q, d)
            assert budget.n_star(d) == count_irred_nondual(q, d)
            if d >= 3:
                assert 3 * q ** d <= 4 * d * budget.n(d) < 4 * q ** d
            if (d >= 3 and q >= 3) or (d >= 5 and q == 2):
                assert 3 * q ** d <= 4 * d * budget.n_star(d)
            assert d * budget.n_star(d) < q ** d


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
    for q in (2, 3, 4):
        for n in range(1, 9):
            brute = max(gl_degree_of_type(t, q) for t in enumerate_types(n, q))
            b, w = b_gl_exact(n, q)
            assert b == brute == gl_degree_of_type(w, q)
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
    monkeypatch.setattr(maxdegree, "_block_weight",
                        lambda q, d, k: Fraction(q ** (d * k * (k - 1) // 2), 5))
    with pytest.raises(ArithmeticError):
        gl_degree_of_type(CentralizerTypeGL(((3, 1),)), 3)
    monkeypatch.setattr(maxdegree, "_best_split", lambda q, d, n: (Fraction(1, 5), ((n, 1),)))
    with pytest.raises(ArithmeticError):
        b_gl_exact(2, 3)            # (3 - 1)(9 - 1)/5 is not an integer


_OPTIMISED_PROBE = textwrap.dedent("""
    import sys
    from fractions import Fraction
    from lie_degrees import maxdegree
    if __debug__:
        sys.exit("not running under python -O")
    maxdegree._block_weight = lambda q, d, k: Fraction(q ** (d * k * (k - 1) // 2), 5)
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
