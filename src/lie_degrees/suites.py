"""Named verification checks, suite runner and table emitters.

Each check returns a plain dict record {check, params, verdict, witness,
values}; verdict is "pass"/"fail" for asserted checks and "report" for
data-only ones.  Reports are deterministic: records are keyed by their task
order, rationals are rendered exactly, and no timing data is included unless
explicitly requested.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

from . import maxdegree, partitions, qexact, symmetric, unipotent

SCHEMA = "lie-degrees-report/1"


def fmt_rational(x: Fraction) -> dict:
    """Exact p/q string plus a 15-significant-digit decimal annotation."""
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 15
        dec = Decimal(x.numerator) / Decimal(x.denominator)
    return {"ratio": f"{x.numerator}/{x.denominator}", "decimal": str(dec)}


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_steinberg(family: str, n_min: int, n_max: int, q_list: tuple[int, ...]) -> dict:
    failures = []
    cases = 0
    lo = max(n_min, 2) if family in ("D", "2D") else n_min
    for n in range(lo, n_max + 1):
        results = unipotent.verify_steinberg_max(n, q_list, family)
        for q, (ok, runner, gap) in zip(q_list, results):
            cases += 1
            if not ok:
                label = runner.symbol if hasattr(runner, "symbol") else runner
                failures.append({"n": n, "q": q, "runner_up": repr(label),
                                 "gap": fmt_rational(gap)})
    return {
        "check": "steinberg",
        "params": {"family": family, "n_min": n_min, "n_max": n_max, "q_list": list(q_list)},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {"cases": cases},
    }


def check_anchor_degrees() -> dict:
    d1 = unipotent.degree_gl(partitions.Partition((2, 2, 2)), 2)
    d2 = unipotent.degree_gl(partitions.Partition((3, 2, 1)), 2)
    ok = (d1, d2) == (5952, 6480)
    return {
        "check": "anchor_degrees",
        "params": {},
        "verdict": "pass" if ok else "fail",
        "witness": None if ok else {"got": [d1, d2], "expected": [5952, 6480]},
        "values": {"deg_222": d1, "deg_321": d2},
    }


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
    return {
        "check": "prop_compgl",
        "params": {"n_max": n_max, "q_list": list(q_list)},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {"cases": cases},
    }


def check_prop_dominance(n_max: int, q_list: tuple[int, ...]) -> dict:
    """Strict dominance forces strictly smaller GL degree for q >= 3; for
    q = 2 the violations up to n = 6 are exactly the known smallest pair."""
    failures = []
    cases = 0
    for q in q_list:
        if q < 3:
            raise ValueError("monotonicity sweep is for q >= 3")
        for n in range(1, n_max + 1):
            parts_list = list(partitions.partitions_of(n))
            degs = {lam.parts: unipotent.degree_gl(lam, q) for lam in parts_list}
            for mu in parts_list:
                for nu in parts_list:
                    if mu is nu:
                        continue
                    if partitions.dominance(nu, mu) == partitions.Dominance.GREATER:
                        cases += 1
                        if degs[nu.parts] >= degs[mu.parts]:
                            failures.append({"mu": mu.parts, "nu": nu.parts, "q": q, "n": n})
    q2_violations = []
    for n in range(1, 7):
        parts_list = list(partitions.partitions_of(n))
        degs = {lam.parts: unipotent.degree_gl(lam, 2) for lam in parts_list}
        for mu in parts_list:
            for nu in parts_list:
                if mu is not nu and partitions.dominance(nu, mu) == partitions.Dominance.GREATER \
                        and degs[nu.parts] >= degs[mu.parts]:
                    q2_violations.append([list(mu.parts), list(nu.parts)])
    q2_ok = q2_violations == [[[2, 2, 2], [3, 2, 1]]]
    return {
        "check": "prop_dominance",
        "params": {"n_max": n_max, "q_list": list(q_list)},
        "verdict": "pass" if not failures and q2_ok else "fail",
        "witness": (failures[0] if failures else
                    None if q2_ok else {"q2_violations": q2_violations}),
        "values": {"cases": cases, "q2_smallest_counterexample": q2_violations},
    }


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
    return {
        "check": "prop_glgu",
        "params": {"n_max": n_max, "q_list": list(q_list)},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {"cases": cases,
                   "equality_beyond_trivial_steinberg_22": [list(p) for p in extra]},
    }


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
    return {
        "check": "lemma_bracket_ratios",
        "params": {"s_max": s_max, "q_list": list(q_list), "grid_max": grid_max},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


def check_lemma_products(q_max: int, m: int) -> dict:
    report = qexact.product_bound_suite(q_max, m=m)
    bad = {q: {k: v for k, v in checks.items() if not v}
           for q, checks in report["per_q"].items()
           if not all(checks.values())}
    return {
        "check": "lemma_products",
        "params": {"q_max": q_max, "m": m},
        "verdict": "pass" if report["ok"] else "fail",
        "witness": bad or None,
        "values": {"q_checked": list(report["per_q"])},
    }


def check_oracle_sym_squares(n_max: int) -> dict:
    import math
    failures = []
    for n in range(1, n_max + 1):
        total = sum(partitions.sym_degree(lam) ** 2 for lam in partitions.partitions_of(n))
        if total != math.factorial(n):
            failures.append({"n": n, "total": total})
    return {
        "check": "oracle_sym_squares",
        "params": {"n_max": n_max},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


def check_oracle_alt_squares(n_max: int) -> dict:
    import math
    failures = []
    for n in range(2, n_max + 1):
        if symmetric.alt_degrees(n).total != math.factorial(n) // 2:
            failures.append({"n": n})
    return {
        "check": "oracle_alt_squares",
        "params": {"n_max": n_max},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


def check_oracle_branching(n_max: int) -> dict:
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions.partitions_of(n):
            _, removable = partitions.addable_removable(lam)
            total = sum(partitions.sym_degree(partitions.remove_node(lam, r))
                        for r in removable)
            if total != partitions.sym_degree(lam):
                failures.append({"lam": lam.parts})
    return {
        "check": "oracle_branching",
        "params": {"n_max": n_max},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


def check_octuple_closed_form(count: int, n_max: int, seed: int) -> dict:
    import random
    rng = random.Random(seed)
    done = 0
    attempts = 0
    failures = []
    while done < count and attempts < 100 * count:
        attempts += 1
        n = rng.randint(8, n_max)
        parts = []
        rem, prev = n, n
        while rem:
            p = rng.randint(1, min(prev, rem))
            parts.append(p)
            rem -= p
            prev = p
        lam = partitions.Partition(tuple(sorted(parts, reverse=True)))
        nb = symmetric.downup_neighborhood(lam)
        moves = [m for m, _ in nb]
        rng.shuffle(moves)
        picked = None
        for m1 in moves[:8]:
            for m2 in moves[:8]:
                iset = {m1.remove.i, m1.add.i, m2.remove.i, m2.add.i}
                jset = {m1.remove.j, m1.add.j, m2.remove.j, m2.add.j}
                if len(iset) == 4 and len(jset) == 4:
                    picked = (m1, m2)
                    break
            if picked:
                break
        if not picked:
            continue
        try:
            symmetric.octuple_ratio(lam, symmetric.OctupleMove(*picked))
        except (ArithmeticError, AssertionError):
            failures.append({"lam": lam.parts, "move": repr(picked)})
        done += 1
    return {
        "check": "octuple_closed_form",
        "params": {"count": count, "n_max": n_max, "seed": seed},
        "verdict": "pass" if done >= count and not failures else "fail",
        "witness": failures[0] if failures else (None if done >= count else {"done": done}),
        "values": {"verified": done},
    }


def check_bgl_brackets(n_max: int, q_list: tuple[int, ...]) -> dict:
    failures = []
    for q in q_list:
        for n in range(1, n_max + 1):
            b, _ = maxdegree.b_gl_exact(n, q)
            st = q ** (n * (n - 1) // 2)
            spec = maxdegree.GroupSpec("A", n, q)
            c = Fraction(b, st)
            low_i, up_i = maxdegree.bound_bracket_intervals(spec)
            if not (b <= maxdegree.seitz_bound(spec)
                    and low_i.hi <= c <= up_i.lo):
                failures.append({"n": n, "q": q, "b": b})
    return {
        "check": "bgl_brackets",
        "params": {"n_max": n_max, "q_list": list(q_list)},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


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
    return {
        "check": "poly_brackets",
        "params": {"q_list": list(q_list), "bound": bound},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


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
    return {
        "check": "epsilon_certificates",
        "params": {"rows": len(EPSILON_FRONTIER)},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {},
    }


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
    return {
        "check": "merge_ratios",
        "params": {"n_max": n_max},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {"types": count},
    }


def check_stclass_chains(rank_max: int, q_list: tuple[int, ...]) -> dict:
    failures = []
    chains = 0
    for fam in ("BC", "D", "2D"):
        for n in range(2 if fam != "BC" else 1, rank_max + 1):
            targets = unipotent._steinberg_classes(n, "BC" if fam == "BC" else "even")
            for cls in unipotent.enumerate_symbols(n, fam):
                if (cls.symbol.X, cls.symbol.Y) in targets:
                    continue
                for q in q_list:
                    try:
                        chain = unipotent.stclass_chain(cls.symbol, q)
                        degs = [unipotent.degree_symbol(s, q) for s in chain]
                    except ArithmeticError as exc:
                        error = str(exc)
                    else:
                        if all(a < b for a, b in zip(degs, degs[1:])):
                            chains += 1
                            continue
                        error = f"degrees {degs} along the chain do not increase"
                    failures.append({"family": fam, "n": n, "q": q,
                                     "symbol": [cls.symbol.X, cls.symbol.Y],
                                     "error": error})
    return {
        "check": "stclass_chains",
        "params": {"rank_max": rank_max, "q_list": list(q_list)},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {"chains": chains},
    }


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
    return {
        "check": "ratio_witness",
        "params": {"n_min": n_min, "n_max": n_max},
        "verdict": "pass" if not failures else "fail",
        "witness": failures[0] if failures else None,
        "values": {"shapes": count},
    }


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
    families: tuple[str, ...] = ("GL", "GU", "BC", "D", "2D")
    n_min: int = 1
    n_max: int = 10
    q_list: tuple[int, ...] = (2, 3)
    truncation_m: int = 40
    parallelism: int = 1
    out: str | None = None
    fmt: str = "json"
    timing: bool = False

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("invalid rank range")
        if any(q < 2 for q in self.q_list) or not self.q_list:
            raise ValueError("q values must be >= 2")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")


def _suite_tasks(cfg: SuiteConfig, selection: str) -> list[tuple]:
    tasks: list[tuple] = []
    if selection in ("steinberg", "all"):
        for fam in cfg.families:
            tasks.append(("steinberg", (fam, cfg.n_min, cfg.n_max, cfg.q_list)))
    if selection in ("props", "all"):
        tasks.append(("anchor_degrees", ()))
        tasks.append(("prop_compgl", (min(cfg.n_max, 20), cfg.q_list)))
        tasks.append(("prop_dominance", (min(cfg.n_max, 14),
                                         tuple(q for q in cfg.q_list if q >= 3) or (3, 4, 5))))
        tasks.append(("prop_glgu", (min(cfg.n_max, 25), cfg.q_list)))
    if selection in ("lemmas", "all"):
        tasks.append(("lemma_bracket_ratios", (12, cfg.q_list)))
        tasks.append(("lemma_products", (max(cfg.q_list), cfg.truncation_m)))
    if selection == "all":
        tasks.append(("oracle_sym_squares", (min(cfg.n_max, 20),)))
        tasks.append(("oracle_alt_squares", (min(cfg.n_max, 20),)))
        tasks.append(("oracle_branching", (min(cfg.n_max, 30),)))
        tasks.append(("octuple_closed_form", (1000, 60, 20260810)))
        tasks.append(("bgl_brackets", (min(cfg.n_max, 40),
                                       tuple(q for q in cfg.q_list
                                             if maxdegree.prime_power(q)))))
        tasks.append(("poly_brackets", (tuple(q for q in cfg.q_list
                                              if maxdegree.prime_power(q)), 2 ** 16)))
        tasks.append(("epsilon_certificates", ()))
        tasks.append(("merge_ratios", (min(cfg.n_max, 12),)))
        tasks.append(("stclass_chains", (min(cfg.n_max, 8), cfg.q_list)))
        tasks.append(("ratio_witness", (15, 18)))
        tasks.append(("epsilon_an", (5, min(cfg.n_max + 10, 20))))
    if not tasks:
        raise ValueError(f"unknown suite selection {selection!r}")
    return tasks


_CHECKS = {
    "steinberg": check_steinberg,
    "anchor_degrees": check_anchor_degrees,
    "prop_compgl": check_prop_compgl,
    "prop_dominance": check_prop_dominance,
    "prop_glgu": check_prop_glgu,
    "lemma_bracket_ratios": check_lemma_bracket_ratios,
    "lemma_products": check_lemma_products,
    "oracle_sym_squares": check_oracle_sym_squares,
    "oracle_alt_squares": check_oracle_alt_squares,
    "oracle_branching": check_oracle_branching,
    "octuple_closed_form": check_octuple_closed_form,
    "bgl_brackets": check_bgl_brackets,
    "poly_brackets": check_poly_brackets,
    "epsilon_certificates": check_epsilon_certificates,
    "merge_ratios": check_merge_ratios,
    "stclass_chains": check_stclass_chains,
    "ratio_witness": check_ratio_witness,
    "epsilon_an": check_epsilon_an,
}


def _run_task(task: tuple) -> dict:
    name, args = task
    started = time.monotonic()
    record = _CHECKS[name](*args)
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
        return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"

    def to_csv(self, timing: bool = False) -> str:
        import csv
        import io
        buf = io.StringIO()
        fields = ["check", "params", "verdict", "witness"]
        if timing:
            fields.append("wall_ms")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for c in self.checks:
            row = [c["check"], json.dumps(c["params"], sort_keys=True, default=str),
                   c["verdict"],
                   json.dumps(c["witness"], sort_keys=True, default=str)]
            if timing:
                row.append(round(1000 * c.get("_elapsed", 0), 3))
            writer.writerow(row)
        return buf.getvalue()


def run_suite(cfg: SuiteConfig, selection: str = "all") -> SuiteReport:
    """Run the selected checks; deterministic output for any parallelism."""
    tasks = _suite_tasks(cfg, selection)
    jobs = int(os.environ.get("LIE_DEGREES_THREADS", cfg.parallelism) or 1)
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            records = pool.map(_run_task, tasks)
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


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a unique temporary file in the same directory.

    The data is flushed to disk before the rename, and the temporary file is
    removed if anything fails, so path holds either its old or its new content.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # mkstemp makes 0600, open() would not
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


# ---------------------------------------------------------------------------
# machine-readable tables
# ---------------------------------------------------------------------------

def degrees_table(family: str, n: int, q: int | None) -> tuple[list[str], list[list]]:
    if family == "sym":
        header = ["partition", "degree"]
        rows = [[",".join(map(str, lam.parts)), partitions.sym_degree(lam)]
                for lam in partitions.partitions_of(n)]
        return header, rows
    if family in ("gl", "gu"):
        if q is None:
            raise ValueError("gl/gu tables need q")
        deg = unipotent.degree_gl if family == "gl" else unipotent.degree_gu
        header = ["partition", "a_value", "degree"]
        rows = [[",".join(map(str, lam.parts)), unipotent.a_value_gl(lam),
                 deg(lam, q)] for lam in partitions.partitions_of(n)]
        return header, rows
    if family in ("BC", "D", "2D"):
        if q is None:
            raise ValueError("symbol tables need q")
        header = ["X", "Y", "defect", "multiplicity", "degree"]
        rows = []
        for cls in unipotent.enumerate_symbols(n, family):
            sym = cls.symbol
            rows.append([",".join(map(str, sym.X)), ",".join(map(str, sym.Y)),
                         unipotent.symbol_defect(sym), cls.multiplicity,
                         unipotent.degree_symbol(sym, q)])
        return header, rows
    raise ValueError(f"unknown degrees table family {family!r}")


def bounds_table(family: str, n_min: int, n_max: int, q: int) -> tuple[list[str], list[list]]:
    header = ["family", "n", "q", "lower", "c", "upper",
              "lower_decimal", "c_decimal", "upper_decimal", "seitz", "st"]
    rows = []
    lo_rank = max(n_min, 2) if family in ("D", "2D") else n_min
    for n in range(lo_rank, n_max + 1):
        spec = maxdegree.GroupSpec(family, n, q)
        lower, upper = maxdegree.bound_bracket(spec)
        st, _ = maxdegree.order_parts(spec)
        lo_f, up_f = fmt_rational(lower), fmt_rational(upper)
        if family == "A" and maxdegree.prime_power(q):
            b, _w = maxdegree.b_gl_exact(n, q)
            c_f = fmt_rational(Fraction(b, st))
        else:
            c_f = {"ratio": "", "decimal": ""}
        rows.append([family, n, q, lo_f["ratio"], c_f["ratio"], up_f["ratio"],
                     lo_f["decimal"], c_f["decimal"], up_f["decimal"],
                     maxdegree.seitz_bound(spec), st])
    return header, rows


def epsilon_table(n_min: int, n_max: int) -> tuple[list[str], list[list]]:
    header = ["n", "b", "epsilon", "epsilon_decimal"]
    rows = []
    for n in range(max(n_min, 2), n_max + 1):
        degs = symmetric.alt_degrees(n)
        eps = symmetric.epsilon_of(degs)
        f = fmt_rational(eps)
        rows.append([n, degs.b, f["ratio"], f["decimal"]])
    return header, rows


def render_table(header: list[str], rows: list[list], fmt: str, kind: str) -> str:
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    doc = {"schema": SCHEMA, "kind": kind, "columns": header,
           "rows": [[str(v) if isinstance(v, int) and abs(v) >= 2 ** 53 else v
                     for v in row] for row in rows]}
    return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
