"""Named verification checks and the suite runner.

Each check returns a plain dict record {check, params, verdict, witness,
values}; verdict is "pass"/"fail" for asserted checks and "report" for
data-only ones.  Reports are deterministic: records are keyed by their task
order, rationals are rendered exactly, and no timing data is included unless
explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import _LABEL_FAMILIES, _int_digits, maxdegree, partitions, qexact, symmetric, unipotent
from .tables import SCHEMA, fmt_rational, json_safe_ints, render_table


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _record(check: str, params: dict, failures: list, values: dict | None = None) -> dict:
    """The record of a pass/fail check: it fails iff there are failures, and
    the first one is the witness."""
    return {
        "check": check,
        "params": params,
        "verdict": "fail" if failures else "pass",
        "witness": failures[0] if failures else None,
        "values": {} if values is None else values,
    }


def check_steinberg(family: str, n_min: int, n_max: int, q_list: tuple[int, ...]) -> dict:
    failures = []
    cases = 0
    for n in range(max(n_min, maxdegree.min_rank(family)), n_max + 1):
        results = unipotent.verify_steinberg_max(n, q_list, family)
        for q, (ok, runner, gap) in zip(q_list, results):
            cases += 1
            if not ok:
                failures.append({"n": n, "q": q, "runner_up": repr(runner),
                                 "gap": fmt_rational(gap)})
    return _record("steinberg",
                   {"family": family, "n_min": n_min, "n_max": n_max, "q_list": list(q_list)},
                   failures, {"cases": cases})


def check_anchor_degrees() -> dict:
    d1 = unipotent.degree_gl(partitions.Partition((2, 2, 2)), 2)
    d2 = unipotent.degree_gl(partitions.Partition((3, 2, 1)), 2)
    failures = [] if (d1, d2) == (5952, 6480) else [{"got": [d1, d2], "expected": [5952, 6480]}]
    return _record("anchor_degrees", {}, failures, {"deg_222": d1, "deg_321": d2})


def check_prop_compgl(n_max: int, q_list: tuple[int, ...]) -> dict:
    """Adding a node at (i, j), j >= 2 versus a new bottom row: the degrees
    satisfy q^{-j-1} deg_mu < deg_nu < q^{2-j} deg_mu <= deg_mu."""
    failures = []
    cases = 0
    for m in range(1, n_max):
        for lam in partitions.partitions_of(m):
            addable, _ = partitions.addable_removable(lam)
            mu = partitions.Partition(lam.parts + (1,))
            for node in sorted(addable):
                i, j = node
                if j < 2 or i > len(lam.parts):
                    continue
                nu = partitions.add_node(lam, node)
                for q in q_list:
                    dmu = unipotent.degree_gl(mu, q)
                    dnu = unipotent.degree_gl(nu, q)
                    cases += 1
                    lower = Fraction(dmu, q ** (j + 1))
                    upper = Fraction(q ** 2 * dmu, q ** j)
                    if not (lower < dnu < upper <= dmu):
                        failures.append({"lam": lam.parts, "node": [i, j], "q": q})
    return _record("prop_compgl", {"n_max": n_max, "q_list": list(q_list)}, failures,
                   {"cases": cases})


def _dominance_violations(n: int, q: int) -> tuple[int, list[tuple]]:
    """(pairs, violations) over the partitions of n: pairs counts the (mu, nu)
    with nu strictly dominating mu, and violations lists the parts of those
    with degree_gl(nu, q) >= degree_gl(mu, q)."""
    parts_list = list(partitions.partitions_of(n))
    degs = {lam.parts: unipotent.degree_gl(lam, q) for lam in parts_list}
    pairs = 0
    violations = []
    for mu in parts_list:
        for nu in parts_list:
            if mu is not nu and partitions.dominance(nu, mu) == partitions.Dominance.GREATER:
                pairs += 1
                if degs[nu.parts] >= degs[mu.parts]:
                    violations.append((mu.parts, nu.parts))
    return pairs, violations


def check_prop_dominance(n_max: int, q_list: tuple[int, ...]) -> dict:
    """Strict dominance forces strictly smaller GL degree for q >= 3; for
    q = 2 the violations up to n = 6 are exactly the known smallest pair."""
    failures = []
    cases = 0
    for q in q_list:
        if q < 3:
            raise ValueError("monotonicity sweep is for q >= 3")
        for n in range(1, n_max + 1):
            pairs, violations = _dominance_violations(n, q)
            cases += pairs
            failures += [{"mu": mu, "nu": nu, "q": q, "n": n} for mu, nu in violations]
    q2_violations = [[list(mu), list(nu)] for n in range(1, 7)
                     for mu, nu in _dominance_violations(n, 2)[1]]
    if q2_violations != [[[2, 2, 2], [3, 2, 1]]]:
        failures.append({"q2_violations": q2_violations})
    return _record("prop_dominance", {"n_max": n_max, "q_list": list(q_list)}, failures,
                   {"cases": cases, "q2_smallest_counterexample": q2_violations})


def check_prop_glgu(n_max: int, q_list: tuple[int, ...]) -> dict:
    """degree_gl >= degree_gu everywhere; equality cases recorded."""
    failures = []
    equalities = set()
    cases = 0
    for n in range(1, n_max + 1):
        for lam in partitions.partitions_of(n):
            for q in q_list:
                gl = unipotent.degree_gl(lam, q)
                gu = unipotent.degree_gu(lam, q)
                cases += 1
                if gl < gu:
                    failures.append({"lam": lam.parts, "q": q, "gl": gl, "gu": gu})
                elif gl == gu:
                    equalities.add(lam.parts)
    trivial_like = {(n,) for n in range(1, n_max + 1)}
    trivial_like |= {(1,) * n for n in range(1, n_max + 1)}
    extra = sorted(equalities - trivial_like - {(2, 2)})
    return _record("prop_glgu", {"n_max": n_max, "q_list": list(q_list)}, failures,
                   {"cases": cases,
                    "equality_beyond_trivial_steinberg_22": [list(p) for p in extra]})


def check_lemma_bracket_ratios(s_max: int, q_list: tuple[int, ...],
                               grid_max: int = 30) -> dict:
    failures = []
    for q in q_list:
        for s in range(1, s_max + 1):
            c = tuple(range(2, s + 2))
            if qexact.bracket_ratio_bounds(c, q, form="minus") != (True, True):
                failures.append({"form": "minus", "c": c, "q": q})
            if qexact.bracket_ratio_bounds(tuple(range(1, s + 1)), q, form="plus") != (True, True):
                failures.append({"form": "plus", "s": s, "q": q})
        for a in range(2, grid_max + 1):
            for b in range(2, grid_max + 1):
                minus_le = (q ** a - 1) * (q ** (b - 1) - 1) <= (q ** b - 1) * (q ** (a - 1) - 1)
                if minus_le != (a >= b):
                    failures.append({"iff": "minus", "a": a, "b": b, "q": q})
                plus_le = (q ** a + 1) * (q ** (b - 1) + 1) <= (q ** b + 1) * (q ** (a - 1) + 1)
                if plus_le != (a <= b):
                    failures.append({"iff": "plus", "a": a, "b": b, "q": q})
    return _record("lemma_bracket_ratios",
                   {"s_max": s_max, "q_list": list(q_list), "grid_max": grid_max}, failures)


def check_lemma_products(q_max: int, m: int) -> dict:
    report = qexact.product_bound_suite(q_max, m=m)
    bad = {q: {k: v for k, v in checks.items() if not v}
           for q, checks in report["per_q"].items()
           if not all(checks.values())}
    return _record("lemma_products", {"q_max": q_max, "m": m}, [bad] if bad else [],
                   {"q_checked": list(report["per_q"])})


def check_oracle_sym_squares(n_max: int) -> dict:
    import math
    failures = []
    for n in range(1, n_max + 1):
        total = sum(partitions.sym_degree(lam) ** 2 for lam in partitions.partitions_of(n))
        if total != math.factorial(n):
            failures.append({"n": n, "total": total})
    return _record("oracle_sym_squares", {"n_max": n_max}, failures)


def check_oracle_alt_squares(n_max: int) -> dict:
    import math
    failures = []
    for n in range(2, n_max + 1):
        if symmetric.alt_degrees(n).total != math.factorial(n) // 2:
            failures.append({"n": n})
    return _record("oracle_alt_squares", {"n_max": n_max}, failures)


def check_oracle_branching(n_max: int) -> dict:
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions.partitions_of(n):
            _, removable = partitions.addable_removable(lam)
            total = sum(partitions.sym_degree(partitions.remove_node(lam, r))
                        for r in removable)
            if total != partitions.sym_degree(lam):
                failures.append({"lam": lam.parts})
    return _record("oracle_branching", {"n_max": n_max}, failures)


def check_octuple_closed_form(count: int, n_max: int, seed: int) -> dict:
    """octuple_ratio's closed form on count random octuples: a random shape
    with 8 <= n <= n_max, its down-up moves shuffled, and the first pair among
    the first eight in four distinct rows and four distinct columns."""
    import random
    rng = random.Random(seed)
    done = 0
    attempts = 0
    failures = []
    while done < count and attempts < 100 * count:
        attempts += 1
        # randrange(a, b + 1) is what randint(a, b) calls: the same draws
        rem = rng.randrange(8, n_max + 1)
        parts = []
        prev = rem
        while rem:  # each part is at most the one before: no sort needed
            p = rng.randrange(1, min(prev, rem) + 1)
            parts.append(p)
            rem -= p
            prev = p
        parts = tuple(parts)
        moves = symmetric.downup_moves(parts)
        rng.shuffle(moves)
        picked = _octuple_pair(moves[:8])
        if not picked:
            continue
        lam = partitions.Partition._from_valid_parts(parts)
        (r1, a1), (r2, a2) = picked
        picked = (symmetric.DownUpMove(partitions.Node(*r1), partitions.Node(*a1)),
                  symmetric.DownUpMove(partitions.Node(*r2), partitions.Node(*a2)))
        try:
            symmetric.octuple_ratio(lam, symmetric.OctupleMove(*picked))
        except ArithmeticError:
            failures.append({"lam": lam.parts, "move": repr(picked)})
        done += 1
    if done < count:
        failures.append({"done": done})
    return _record("octuple_closed_form", {"count": count, "n_max": n_max, "seed": seed},
                   failures, {"verified": done})


def _octuple_pair(moves: list) -> tuple | None:
    """The first (m1, m2) of ((ri, rj), (ai, aj)) moves, m1 outer and m2
    inner, whose four nodes lie in four distinct rows and columns."""
    for m1 in moves:
        (r1i, r1j), (a1i, a1j) = m1
        if r1i == a1i or r1j == a1j:
            continue
        for m2 in moves:
            (r2i, r2j), (a2i, a2j) = m2
            if (r2i != a2i and r2i != r1i and r2i != a1i and a2i != r1i and a2i != a1i
                    and r2j != a2j and r2j != r1j and r2j != a1j
                    and a2j != r1j and a2j != a1j):
                return m1, m2
    return None


def check_bgl_brackets(n_max: int, q_list: tuple[int, ...]) -> dict:
    failures = []
    for q in q_list:
        for n in range(1, n_max + 1):
            b, _ = maxdegree.b_gl_exact(n, q)
            spec = maxdegree.GroupSpec("A", n, q)
            c = Fraction(b, maxdegree.order_parts(spec)[0])
            low_i, up_i = maxdegree.bound_bracket_intervals(spec)
            if not (b <= maxdegree.seitz_bound(spec)
                    and low_i.hi <= c <= up_i.lo):
                failures.append({"n": n, "q": q, "b": b})
    return _record("bgl_brackets", {"n_max": n_max, "q_list": list(q_list)}, failures)


def check_poly_brackets(q_list: tuple[int, ...], bound: int) -> dict:
    """(poly): 3q^d/4d <= n_d < q^d/d for d >= 3; (poly2): n*_d < q^d/d always
    and >= 3q^d/4d for d >= 3, q >= 3 or d >= 5, q = 2."""
    failures = []
    for q in q_list:
        d = 1
        while q ** d <= bound:
            nd = maxdegree.count_irred(q, d)
            nds = maxdegree.count_irred_nondual(q, d)
            if d >= 3 and not (3 * q ** d <= 4 * d * nd and d * nd < q ** d):
                failures.append({"q": q, "d": d, "which": "poly"})
            if not (d * nds < q ** d):
                failures.append({"q": q, "d": d, "which": "poly2-upper"})
            if ((d >= 3 and q >= 3) or (d >= 5 and q == 2)) \
                    and not (3 * q ** d <= 4 * d * nds):
                failures.append({"q": q, "d": d, "which": "poly2-lower"})
            d += 1
    return _record("poly_brackets", {"q_list": list(q_list), "bound": bound}, failures)


EPSILON_FRONTIER = (
    ("A", 15, 3, "certified_gt_one"), ("A", 14, 3, "listed_exception"),
    ("A", 5, 4, "certified_gt_one"), ("A", 4, 5, "certified_gt_one"),
    ("A", 4, 2, "listed_exception"),
    ("2A", 15, 2, "certified_gt_one"), ("2A", 14, 2, "listed_exception"),
    ("2A", 6, 3, "certified_gt_one"), ("2A", 4, 4, "certified_gt_one"),
    ("B", 18, 3, "certified_gt_one"), ("B", 17, 3, "listed_exception"),
    ("C", 4, 4, "certified_gt_one"), ("C", 3, 5, "certified_gt_one"),
    ("C", 2, 7, "certified_gt_one"), ("C", 9, 2, "listed_exception"),
    ("D", 31, 3, "certified_gt_one"), ("2D", 30, 3, "listed_exception"),
    ("D", 7, 5, "certified_gt_one"), ("2D", 6, 5, "listed_exception"),
    ("D", 5, 7, "certified_gt_one"), ("2D", 4, 7, "listed_exception"),
)


def check_epsilon_certificates() -> dict:
    failures = []
    for fam, n, q, expected in EPSILON_FRONTIER:
        got = maxdegree.epsilon_certificate(maxdegree.GroupSpec(fam, n, q)).value
        if got != expected:
            failures.append({"family": fam, "n": n, "q": q,
                             "expected": expected, "got": got})
    return _record("epsilon_certificates", {"rows": len(EPSILON_FRONTIER)}, failures)


def check_merge_ratios(n_max: int) -> dict:
    failures = []
    count = 0
    for n in range(2, n_max + 1):
        for t in maxdegree.enumerate_types(n, 2):
            if len(t.blocks) < 2:
                continue
            count += 1
            try:
                maxdegree.merge_ratio_sl_n_2(t)
            except ArithmeticError:
                failures.append({"type": t.blocks})
    return _record("merge_ratios", {"n_max": n_max}, failures, {"types": count})


def check_stclass_chains(rank_max: int, q_list: tuple[int, ...]) -> dict:
    """Every non-Steinberg symbol class of rank <= rank_max has a chain of
    strictly increasing degree to a Steinberg symbol at each q (see
    unipotent.stclass_chains)."""
    failures = []
    chains = 0
    for fam, n, rows, q, _, error in unipotent.stclass_chains(rank_max, q_list):
        if error is None:
            chains += 1
        else:
            failures.append({"family": fam, "n": n, "q": q, "symbol": list(rows),
                             "error": error})
    return _record("stclass_chains", {"rank_max": rank_max, "q_list": list(q_list)}, failures,
                   {"chains": chains})


def check_ratio_witness(n_min: int, n_max: int) -> dict:
    """Every shape in the size range has a degree-ratio witness avoiding
    {2, 1, 1/2} with ratio at least 1/100."""
    excluded = {Fraction(2), Fraction(1), Fraction(1, 2)}
    failures = []
    count = 0
    for n in range(n_min, n_max + 1):
        for lam in partitions.partitions_of(n):
            count += 1
            if symmetric.ratio_witness(lam, excluded, Fraction(1, 100)) is None:
                failures.append({"lam": lam.parts})
    return _record("ratio_witness", {"n_min": n_min, "n_max": n_max}, failures,
                   {"shapes": count})


def check_epsilon_an(n_min: int, n_max: int) -> dict:
    """Data-only: epsilon(A_n); flags (never fails on) values below 1."""
    rows = []
    below_one = []
    for n in range(max(n_min, 5), n_max + 1):
        eps = symmetric.epsilon_of(symmetric.alt_degrees(n))
        rows.append({"n": n, "epsilon": fmt_rational(eps)})
        if eps < 1:
            below_one.append(n)
    return {
        "check": "epsilon_an",
        "params": {"n_min": n_min, "n_max": n_max},
        "verdict": "report",
        "witness": {"below_one": below_one} if below_one else None,
        "values": {"rows": rows},
    }


# ---------------------------------------------------------------------------
# suite configuration and runner
# ---------------------------------------------------------------------------

@dataclass
class SuiteConfig:
    families: tuple[str, ...] = _LABEL_FAMILIES
    n_min: int = 1
    n_max: int = 10
    q_list: tuple[int, ...] = (2, 3)
    truncation_m: int = 40
    parallelism: int = 1

    def __post_init__(self):
        for fam in self.families:
            if fam not in _LABEL_FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("invalid rank range")
        if any(q < 2 for q in self.q_list) or not self.q_list:
            raise ValueError("q values must be >= 2")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def _suite_tasks(cfg: SuiteConfig, selection: str) -> list[tuple]:
    """(check function, arguments) of each check the selection runs, in
    report order; the functions are module-level, so a pool pickles them."""
    tasks: list[tuple] = []
    if selection in ("steinberg", "all"):
        for fam in cfg.families:
            tasks.append((check_steinberg, (fam, cfg.n_min, cfg.n_max, cfg.q_list)))
    if selection in ("props", "all"):
        tasks.append((check_anchor_degrees, ()))
        tasks.append((check_prop_compgl, (min(cfg.n_max, 20), cfg.q_list)))
        tasks.append((check_prop_dominance, (min(cfg.n_max, 14),
                                             tuple(q for q in cfg.q_list if q >= 3) or (3, 4, 5))))
        tasks.append((check_prop_glgu, (min(cfg.n_max, 25), cfg.q_list)))
    if selection in ("lemmas", "all"):
        tasks.append((check_lemma_bracket_ratios, (12, cfg.q_list)))
        tasks.append((check_lemma_products, (max(cfg.q_list), cfg.truncation_m)))
    if selection == "all":
        tasks.append((check_oracle_sym_squares, (min(cfg.n_max, 20),)))
        tasks.append((check_oracle_alt_squares, (min(cfg.n_max, 20),)))
        tasks.append((check_oracle_branching, (min(cfg.n_max, 30),)))
        tasks.append((check_octuple_closed_form, (1000, 60, 20260810)))
        prime_powers = tuple(q for q in cfg.q_list if maxdegree.prime_power(q))
        tasks.append((check_bgl_brackets, (min(cfg.n_max, 40), prime_powers)))
        tasks.append((check_poly_brackets, (prime_powers, 2 ** 16)))
        tasks.append((check_epsilon_certificates, ()))
        tasks.append((check_merge_ratios, (min(cfg.n_max, 12),)))
        tasks.append((check_stclass_chains, (min(cfg.n_max, 8), cfg.q_list)))
        tasks.append((check_ratio_witness, (15, 18)))
        tasks.append((check_epsilon_an, (5, min(cfg.n_max + 10, 20))))
    if not tasks:
        raise ValueError(f"unknown suite selection {selection!r}")
    return tasks


def _run_task(task: tuple) -> dict:
    check, args = task
    started = time.monotonic()
    record = check(*args)
    record["_elapsed"] = time.monotonic() - started
    return record


@dataclass
class SuiteReport:
    config: dict
    checks: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c["verdict"] != "fail" for c in self.checks)

    def to_json(self, timing: bool = False) -> str:
        checks = []
        for c in self.checks:
            c = dict(c)
            elapsed = c.pop("_elapsed", None)
            if timing:
                c["wall_ms"] = round(1000 * elapsed, 3) if elapsed is not None else None
            checks.append(c)
        summary = {
            "pass": sum(c["verdict"] == "pass" for c in self.checks),
            "fail": sum(c["verdict"] == "fail" for c in self.checks),
            "report": sum(c["verdict"] == "report" for c in self.checks),
        }
        doc = {"schema": SCHEMA, "config": self.config,
               "checks": checks, "summary": summary}
        with _int_digits(0):
            return json.dumps(json_safe_ints(doc), indent=2, sort_keys=True, default=str) + "\n"

    def to_csv(self, timing: bool = False) -> str:
        header = ["check", "params", "verdict", "witness"]
        if timing:
            header.append("wall_ms")
        rows = []
        with _int_digits(0):
            for c in self.checks:
                row = [c["check"], json.dumps(c["params"], sort_keys=True, default=str),
                       c["verdict"],
                       json.dumps(c["witness"], sort_keys=True, default=str)]
                if timing:
                    row.append(round(1000 * c.get("_elapsed", 0), 3))
                rows.append(row)
        return render_table(header, rows, "csv", "report")


def run_suite(cfg: SuiteConfig, selection: str = "all") -> SuiteReport:
    """Run the selected checks; deterministic output for any parallelism."""
    tasks = _suite_tasks(cfg, selection)
    if cfg.parallelism > 1 and len(tasks) > 1:
        import multiprocessing
        # one task at a time: the default chunks deal fixed runs of tasks, so
        # one worker can be left with several long checks while the other idles
        with multiprocessing.Pool(min(cfg.parallelism, len(tasks))) as pool:
            records = pool.map(_run_task, tasks, chunksize=1)
    else:
        records = [_run_task(t) for t in tasks]
    config = {
        "selection": selection,
        "families": list(cfg.families),
        "n_min": cfg.n_min, "n_max": cfg.n_max,
        "q_list": list(cfg.q_list),
        "truncation_m": cfg.truncation_m,
    }
    return SuiteReport(config=config, checks=records)
