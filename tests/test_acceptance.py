"""Acceptance suite: one test per criterion, each at its stated grid and
tolerance (all exact).  Every test prints a single pass/fail line."""

import math
import random
from fractions import Fraction

from lie_degrees import maxdegree, partitions, qexact, symmetric, unipotent
from lie_degrees.partitions import Dominance, Partition, partitions_of


def _report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_paper_counterexample_degrees():
    ok = (unipotent.degree_gl(Partition((2, 2, 2)), 2) == 5952
          and unipotent.degree_gl(Partition((3, 2, 1)), 2) == 6480)
    _report(1, "GL_6(2) degrees for (2,2,2) and (3,2,1) are 5952 and 6480", ok)


def test_criterion_02_steinberg_maximality():
    failures = []
    cases = 0
    qs = (2, 3, 4, 5)
    for fam in ("GL", "GU"):
        for n in range(1, 31):
            for q, (ok, _, _) in zip(qs, unipotent.verify_steinberg_max(n, qs, fam)):
                cases += 1
                if not ok:
                    failures.append((fam, n, q))
    for fam in ("BC", "D", "2D"):
        for n in range(1 if fam == "BC" else 2, 11):
            for q, (ok, _, _) in zip(qs, unipotent.verify_steinberg_max(n, qs, fam)):
                cases += 1
                if not ok:
                    failures.append((fam, n, q))
    _report(2, "Steinberg is the unique largest unipotent degree "
               "(GL/GU n<=30, symbols rank<=10, q in {2,3,4,5})",
            not failures, f"{cases} cases" + (f", first failure {failures[0]}" if failures else ""))


def test_criterion_03_dominance_monotonicity():
    failures = []
    cases = 0
    for q in (3, 4, 5):
        for n in range(1, 15):
            pl = list(partitions_of(n))
            degs = {l.parts: unipotent.degree_gl(l, q) for l in pl}
            for mu in pl:
                for nu in pl:
                    if mu is not nu and partitions.dominance(nu, mu) == Dominance.GREATER:
                        cases += 1
                        if degs[nu.parts] >= degs[mu.parts]:
                            failures.append((q, mu.parts, nu.parts))
    q2_violations = []
    for n in range(1, 7):
        pl = list(partitions_of(n))
        degs = {l.parts: unipotent.degree_gl(l, 2) for l in pl}
        for mu in pl:
            for nu in pl:
                if mu is not nu and partitions.dominance(nu, mu) == Dominance.GREATER \
                        and degs[nu.parts] >= degs[mu.parts]:
                    q2_violations.append((mu.parts, nu.parts))
    ok = not failures and q2_violations == [((2, 2, 2), (3, 2, 1))]
    _report(3, "dominance forces strictly smaller degree for q in {3,4,5}, n<=14; "
               "q=2 fails exactly at (2,2,2) vs (3,2,1) for n=6",
            ok, f"{cases} comparable pairs")


def test_criterion_04_gl_dominates_gu():
    failures = []
    cases = 0
    for n in range(1, 26):
        for lam in partitions_of(n):
            for q in (2, 3, 4, 5):
                cases += 1
                if unipotent.degree_gl(lam, q) < unipotent.degree_gu(lam, q):
                    failures.append((lam.parts, q))
    _report(4, "degree_gl >= degree_gu for all partitions of n <= 25, q in {2,3,4,5}",
            not failures, f"{cases} cases")


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
    failures = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 41):
            b, witness = maxdegree.b_gl_exact(n, q)
            st = q ** (n * (n - 1) // 2)
            spec = maxdegree.GroupSpec("A", n, q)
            c = Fraction(b, st)
            low_i, up_i = maxdegree.bound_bracket_intervals(spec)
            lower, upper = maxdegree.bound_bracket(spec)
            inner_ok = low_i.hi <= c <= up_i.lo          # certified comparison
            outer_ok = lower <= c <= upper               # outer enclosure view
            if not (inner_ok and outer_ok and b <= maxdegree.seitz_bound(spec)):
                failures.append((n, q))
    _report(6, "lower <= b/q^(n(n-1)/2) <= upper and b <= minimal-torus bound "
               "for n <= 40, q in {2,3,4,5,7,8,9}", not failures,
            "280 cases" + (f", first failure {failures[0]}" if failures else ""))


def test_criterion_07_oracle_identities():
    ok_sym = all(sum(partitions.sym_degree(l) ** 2 for l in partitions_of(n))
                 == math.factorial(n) for n in range(1, 21))
    ok_alt = all(symmetric.alt_degrees(n).total == math.factorial(n) // 2
                 for n in range(2, 21))
    ok_branch = True
    for n in range(1, 31):
        for lam in partitions_of(n):
            _, removable = partitions.addable_removable(lam)
            total = sum(partitions.sym_degree(partitions.remove_node(lam, r))
                        for r in removable)
            if total != partitions.sym_degree(lam):
                ok_branch = False
    _report(7, "square-sum identities (n <= 20) and branching sums (n <= 30) exact",
            ok_sym and ok_alt and ok_branch)


def test_criterion_08_octuple_closed_form():
    rng = random.Random(20260810)
    verified = 0
    attempts = 0
    while verified < 1000 and attempts < 100_000:
        attempts += 1
        n = rng.randint(8, 60)
        parts = []
        rem, prev = n, n
        while rem:
            p = rng.randint(1, min(prev, rem))
            parts.append(p)
            rem -= p
            prev = p
        lam = Partition(tuple(sorted(parts, reverse=True)))
        moves = [m for m, _ in symmetric.downup_neighborhood(lam)]
        rng.shuffle(moves)
        picked = None
        for m1 in moves[:8]:
            for m2 in moves[:8]:
                iset = {m1.remove.i, m1.add.i, m2.remove.i, m2.add.i}
                jset = {m1.remove.j, m1.add.j, m2.remove.j, m2.add.j}
                if len(iset) == 4 and len(jset) == 4:
                    picked = symmetric.OctupleMove(m1, m2)
                    break
            if picked:
                break
        if picked is None:
            continue
        symmetric.octuple_ratio(lam, picked)  # asserts closed form == direct
        verified += 1
    _report(8, "octuple closed form equals the hook-product ratio exactly",
            verified >= 1000, f"{verified} random octuples, n <= 60")


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
    frontier = [
        (("A", 15, 3), "certified_gt_one"), (("A", 14, 3), "listed_exception"),
        (("A", 5, 4), "certified_gt_one"), (("A", 4, 5), "certified_gt_one"),
        (("2A", 15, 2), "certified_gt_one"), (("2A", 14, 2), "listed_exception"),
        (("2A", 6, 3), "certified_gt_one"), (("B", 18, 3), "certified_gt_one"),
        (("B", 17, 3), "listed_exception"), (("C", 2, 7), "certified_gt_one"),
        (("D", 31, 3), "certified_gt_one"), (("2D", 30, 3), "listed_exception"),
    ]
    cert_ok = all(maxdegree.epsilon_certificate(maxdegree.GroupSpec(*args)).value == want
                  for args, want in frontier)
    merge_ok = True
    count = 0
    for n in range(2, 13):
        for t in maxdegree.enumerate_types(n, 2):
            if len(t.blocks) >= 2:
                count += 1
                r = maxdegree.merge_ratio_sl_n_2(t)
                if not (Fraction(81, 512) < r < 1):
                    merge_ok = False
    _report(10, "epsilon certificate frontier rows and SL_n(2) merge ratios in (81/512, 1)",
            cert_ok and merge_ok, f"{len(frontier)} frontier rows, {count} merge types")


def test_replacement_witness_search_15_to_30():
    # stated replacement for the non-reproducible existential constants:
    # every shape of size 15..30 admits a degree-ratio witness avoiding
    # {2, 1, 1/2} with ratio >= 1/100
    excluded = {Fraction(2), Fraction(1), Fraction(1, 2)}
    count = 0
    for n in range(15, 31):
        for lam in partitions_of(n):
            gamma = symmetric.ratio_witness(lam, excluded, Fraction(1, 100))
            if gamma is None:
                _report(12, "ratio witness exists for every shape, 15 <= n <= 30",
                        False, f"no witness for {lam.parts}")
            count += 1
    _report(12, "ratio witness exists for every shape, 15 <= n <= 30 "
                "(excluded set {2, 1, 1/2}, delta 1/100)", True, f"{count} shapes")


def test_criterion_11_chains_reach_steinberg():
    failures = []
    chains = 0
    for fam in ("BC", "D", "2D"):
        for n in range(1 if fam == "BC" else 2, 9):
            targets = unipotent._steinberg_classes(n, "BC" if fam == "BC" else "even")
            for sym in unipotent.enumerate_symbols(n, fam):
                if (sym.X, sym.Y) in targets:
                    continue
                for q in (2, 3):
                    try:
                        chain = unipotent.stclass_chain(sym, q)
                    except ArithmeticError as exc:
                        failures.append((fam, n, q, sym, str(exc)))
                        continue
                    degs = [unipotent.degree_symbol(s, q) for s in chain]
                    if not all(a < b for a, b in zip(degs, degs[1:])):
                        failures.append((fam, n, q, sym, "not increasing"))
                    chains += 1
    _report(11, "every non-Steinberg symbol class of rank <= 8 reaches a Steinberg "
                "symbol through strictly increasing degrees (q in {2,3})",
            not failures, f"{chains} chains")
