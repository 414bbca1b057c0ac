"""Acceptance suite: one test per criterion, each at its stated grid and
tolerance (all exact).  Every test prints a single pass/fail line.

Where a suite check already runs a criterion's sweep, the test calls that
check at the criterion's grid and asserts its verdict."""

from fractions import Fraction

from lie_degrees import _SYMBOL_DEFECT, maxdegree, qexact, suites, unipotent
from lie_degrees.partitions import Partition


def _run(check, **params):
    """The record the suite runner builds for check at params."""
    return suites._run_task((check, params))


def _report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _report_checks(num: int, description: str, records: list[dict], detail: str = ""):
    """_report for suite check records: the criterion holds iff every verdict
    is "pass", and a failing line names the first failing check's witness."""
    failed = [r for r in records if r["verdict"] != "pass"]
    if failed:
        detail = f"{failed[0]['check']} witness {failed[0]['witness']}"
    _report(num, description, not failed, detail)


def test_criterion_01_paper_counterexample_degrees():
    ok = (unipotent.degree_gl(Partition((2, 2, 2)), 2) == 5952
          and unipotent.degree_gl(Partition((3, 2, 1)), 2) == 6480)
    _report(1, "GL_6(2) degrees for (2,2,2) and (3,2,1) are 5952 and 6480", ok)


def test_criterion_02_steinberg_maximality():
    qs = (2, 3, 4, 5)
    records = [_run(suites.check_steinberg, family=fam, n_min=1, n_max=30, q_list=qs)
               for fam in ("GL", "GU")]
    records += [_run(suites.check_steinberg, family=fam, n_min=1, n_max=10, q_list=qs)
                for fam in _SYMBOL_DEFECT]
    _report_checks(2, "Steinberg is the unique largest unipotent degree "
                      "(GL/GU n<=30, symbols rank<=10, q in {2,3,4,5})",
                   records, f"{sum(r['values']['cases'] for r in records)} cases")


def test_criterion_03_dominance_monotonicity():
    record = _run(suites.check_prop_dominance, n_max=14, q_list=(3, 4, 5))
    _report_checks(3, "dominance forces strictly smaller degree for q in {3,4,5}, n<=14; "
                      "q=2 fails exactly at (2,2,2) vs (3,2,1) for n=6",
                   [record], f"{record['values']['cases']} comparable pairs")


def test_criterion_04_gl_dominates_gu():
    record = _run(suites.check_prop_glgu, n_max=25, q_list=(2, 3, 4, 5))
    _report_checks(4, "degree_gl >= degree_gu for all partitions of n <= 25, q in {2,3,4,5}",
                   [record], f"{record['values']['cases']} cases")


def test_criterion_05_product_constants():
    ok = qexact.euler_interval(2, 15).lo > Fraction("0.2887")
    # The quoted decimal 0.6876 for prod(1 - 4^-i) is a typo: the certified
    # lower bound of the product already exceeds it (true value 0.688538...),
    # so no valid enclosure can sit below it.  The intended constant is 0.6886.
    four = qexact.euler_interval(4, 7)
    ok = ok and four.lo > Fraction("0.6876") and four.hi < Fraction("0.6886")
    report = qexact.product_bound_suite(16)
    ok = ok and report["ok"]
    _report(5, "pentagonal enclosures certify the product constants "
               "(0.2887, 0.6886 [0.6876 is below the product], "
               "2.4/1.6/1.28/16:15, 9/16) for 2 <= q <= 16", ok)


def test_criterion_06_b_gl_brackets_and_seitz():
    # the certified comparison lower.hi <= c <= upper.lo implies the outer
    # enclosure lower.lo <= c <= upper.hi
    _report_checks(6, "lower <= b/q^(n(n-1)/2) <= upper and b <= minimal-torus bound "
                      "for n <= 40, q in {2,3,4,5,7,8,9}",
                   [_run(suites.check_bgl_brackets, n_max=40, q_list=(2, 3, 4, 5, 7, 8, 9))],
                   "280 cases")


def test_criterion_07_oracle_identities():
    records = [_run(suites.check_oracle_sym_squares, n_max=20),
               _run(suites.check_oracle_alt_squares, n_max=20),
               _run(suites.check_oracle_branching, n_max=30)]
    _report_checks(7, "square-sum identities (n <= 20) and branching sums (n <= 30) exact",
                   records)


def test_criterion_08_octuple_closed_form():
    record = _run(suites.check_octuple_closed_form, count=1000, n_max=60, seed=20260810)
    _report_checks(8, "octuple closed form equals the hook-product ratio exactly", [record],
                   f"{record['values']['verified']} random octuples, n <= 60")


def test_criterion_09_polynomial_counts():
    def orbit_oracle(q, d):
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

    grid = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32)
    failures = []
    cases = 0
    for q in grid:
        d = 1
        while q ** d <= 2 ** 20:
            nd, nds = orbit_oracle(q, d)
            cases += 1
            if maxdegree.count_irred(q, d) != nd or maxdegree.count_irred_nondual(q, d) != nds:
                failures.append((q, d, "oracle"))
            if d >= 3 and not (3 * q ** d <= 4 * d * nd and d * nd < q ** d):
                failures.append((q, d, "poly"))
            if not (d * nds < q ** d):
                failures.append((q, d, "poly2-upper"))
            if ((d >= 3 and q >= 3) or (d >= 5 and q == 2)) and not (3 * q ** d <= 4 * d * nds):
                failures.append((q, d, "poly2-lower"))
            d += 1
    _report(9, "polynomial counts match the xq-orbit oracle and their brackets "
               "for q^d <= 2^20", not failures, f"{cases} (q, d) pairs")


def test_criterion_10_epsilon_certificates_and_merges():
    frontier = {
        ("A", 15, 3, "certified_gt_one"), ("A", 14, 3, "listed_exception"),
        ("A", 5, 4, "certified_gt_one"), ("A", 4, 5, "certified_gt_one"),
        ("2A", 15, 2, "certified_gt_one"), ("2A", 14, 2, "listed_exception"),
        ("2A", 6, 3, "certified_gt_one"), ("B", 18, 3, "certified_gt_one"),
        ("B", 17, 3, "listed_exception"), ("C", 2, 7, "certified_gt_one"),
        ("D", 31, 3, "certified_gt_one"), ("2D", 30, 3, "listed_exception"),
    }
    assert frontier <= set(suites.EPSILON_FRONTIER)
    # merge_ratio_sl_n_2 raises unless the ratio is in (81/512, 1)
    merges = _run(suites.check_merge_ratios, n_max=12)
    _report_checks(10, "epsilon certificate frontier rows and SL_n(2) merge ratios in (81/512, 1)",
                   [_run(suites.check_epsilon_certificates, rows=len(suites.EPSILON_FRONTIER)),
                    merges],
                   f"{len(suites.EPSILON_FRONTIER)} frontier rows, "
                   f"{merges['values']['types']} merge types")


def test_replacement_witness_search_15_to_30():
    # stated replacement for the non-reproducible existential constants:
    # every shape of size 15..30 admits a degree-ratio witness avoiding
    # {2, 1, 1/2} with ratio >= 1/100
    record = _run(suites.check_ratio_witness, n_min=15, n_max=30)
    _report_checks(12, "ratio witness exists for every shape, 15 <= n <= 30 "
                       "(excluded set {2, 1, 1/2}, delta 1/100)",
                   [record], f"{record['values']['shapes']} shapes")


def test_criterion_11_chains_reach_steinberg():
    record = _run(suites.check_stclass_chains, rank_max=8, q_list=(2, 3))
    _report_checks(11, "every non-Steinberg symbol class of rank <= 8 reaches a Steinberg "
                       "symbol through strictly increasing degrees (q in {2,3})",
                   [record], f"{record['values']['chains']} chains")
