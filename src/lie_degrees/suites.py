"""Named verification checks and the suite runner.

A check returns (failures, values): the list of its failures, empty if it
holds, and a dict of the values it found.  The runner (_run_task) builds
each check's record {check, params, verdict, witness, values} from that and
the params it called the check with; verdict is "pass"/"fail" for asserted
checks, "report" for data-only ones and "error" for a check that raised.
Reports are deterministic: records are keyed by their task order, rationals
are rendered exactly, and no timing data is included unless explicitly
requested.

The module loads only what the runner and the report need.  Each check
imports the modules it calls when it runs, as each CLI command does, so a
selection loads the modules of its own checks alone: `verify steinberg` and
`verify props` load orders, partitions and unipotent, `verify lemmas` orders
and qexact.  A parallel run imports every check module, then forks its
workers with os.fork, so they inherit the modules instead of each loading
its own copy; the workers take one task at a time, and a worker that dies
holding a task is an error.  Where os.fork is missing the checks run
serially.  SuiteConfig checks each q by orders.check_q; lemma_products runs
at the one series truncation order TRUNCATION_M, which the report records.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from typing import Iterator

from . import _LABEL_FAMILIES, _check_int, _int_digits, _record
from .tables import SCHEMA, fmt_rational, json_safe_ints, render_table


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_steinberg(family: str, n_min: int, n_max: int,
                    q_list: tuple[int, ...]) -> tuple[list, dict]:
    from . import orders, unipotent
    failures = []
    cases = 0
    for n in range(max(n_min, orders.min_rank(family)), n_max + 1):
        results = unipotent.verify_steinberg_max(n, q_list, family)
        for q, (ok, runner, gap) in zip(q_list, results):
            cases += 1
            if not ok:
                failures.append({"n": n, "q": q, "runner_up": repr(runner),
                                 "gap": fmt_rational(gap)})
    return failures, {"cases": cases}


def check_anchor_degrees() -> tuple[list, dict]:
    from . import partitions, unipotent
    d1 = unipotent.degree_gl(partitions.Partition((2, 2, 2)), 2)
    d2 = unipotent.degree_gl(partitions.Partition((3, 2, 1)), 2)
    failures = [] if (d1, d2) == (5952, 6480) else [{"got": [d1, d2], "expected": [5952, 6480]}]
    return failures, {"deg_222": d1, "deg_321": d2}


def check_prop_compgl(n_max: int, q_list: tuple[int, ...]) -> tuple[list, dict]:
    """Adding a node at (i, j), j >= 2 versus a new bottom row: the degrees
    satisfy q^{-j-1} deg_mu < deg_nu < q^{2-j} deg_mu (<= deg_mu, as j >= 2),
    decided in integers."""
    from . import partitions, unipotent
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
                    if not (dmu < dnu * q ** (j + 1) and dnu * q ** j < q ** 2 * dmu):
                        failures.append({"lam": lam.parts, "node": [i, j], "q": q})
    return failures, {"cases": cases}


def _dominance_violations(n: int, q: int) -> tuple[int, list[tuple]]:
    """(pairs, violations) over the partitions of n: pairs counts the (mu, nu)
    with nu strictly dominating mu, and violations lists the parts of those
    with degree_gl(nu, q) >= degree_gl(mu, q)."""
    from . import partitions, unipotent
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


def check_prop_dominance(n_max: int, q_list: tuple[int, ...]) -> tuple[list, dict]:
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
    return failures, {"cases": cases, "q2_smallest_counterexample": q2_violations}


def check_prop_glgu(n_max: int, q_list: tuple[int, ...]) -> tuple[list, dict]:
    """degree_gl >= degree_gu everywhere; equality cases recorded."""
    from . import partitions, unipotent
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
    extra = [list(p) for p in sorted(equalities - trivial_like - {(2, 2)})]
    if extra:
        failures.append({"equality_beyond_trivial_steinberg_22": extra})
    return failures, {"cases": cases, "equality_beyond_trivial_steinberg_22": extra}


def check_lemma_bracket_ratios(s_max: int, q_list: tuple[int, ...],
                               grid_max: int) -> tuple[list, dict]:
    from . import qexact
    failures = []
    for q in q_list:
        for s in range(1, s_max + 1):
            c = tuple(range(2, s + 2))
            if qexact.bracket_ratio_bounds(c, q, form="minus") != (True, True):
                failures.append({"form": "minus", "c": c, "q": q})
            if qexact.bracket_ratio_bounds(tuple(range(1, s + 1)), q, form="plus") != (True, True):
                failures.append({"form": "plus", "s": s, "q": q})
        pw = [q ** k for k in range(grid_max + 1)]
        for a in range(2, grid_max + 1):
            for b in range(2, grid_max + 1):
                minus_le = (pw[a] - 1) * (pw[b - 1] - 1) <= (pw[b] - 1) * (pw[a - 1] - 1)
                if minus_le != (a >= b):
                    failures.append({"iff": "minus", "a": a, "b": b, "q": q})
                plus_le = (pw[a] + 1) * (pw[b - 1] + 1) <= (pw[b] + 1) * (pw[a - 1] + 1)
                if plus_le != (a <= b):
                    failures.append({"iff": "plus", "a": a, "b": b, "q": q})
    return failures, {}


def check_lemma_products(q_max: int, m: int) -> tuple[list, dict]:
    from . import qexact
    report = qexact.product_bound_suite(q_max, m=m)
    bad = {q: {k: v for k, v in checks.items() if not v}
           for q, checks in report["per_q"].items()
           if not all(checks.values())}
    return [bad] if bad else [], {"q_checked": list(report["per_q"])}


def check_oracle_sym_squares(n_max: int) -> tuple[list, dict]:
    import math

    from . import partitions
    failures = []
    for n in range(1, n_max + 1):
        total = sum(partitions.sym_degree(lam) ** 2 for lam in partitions.partitions_of(n))
        if total != math.factorial(n):
            failures.append({"n": n, "total": total})
    return failures, {}


def check_oracle_alt_squares(n_max: int) -> tuple[list, dict]:
    import math

    from . import symmetric
    failures = []
    for n in range(2, n_max + 1):
        if symmetric.alt_degrees(n).total != math.factorial(n) // 2:
            failures.append({"n": n})
    return failures, {}


def check_oracle_branching(n_max: int) -> tuple[list, dict]:
    from . import partitions
    failures = []
    for n in range(1, n_max + 1):
        for lam in partitions.partitions_of(n):
            _, removable = partitions.addable_removable(lam)
            total = sum(partitions.sym_degree(partitions.remove_node(lam, r))
                        for r in removable)
            if total != partitions.sym_degree(lam):
                failures.append({"lam": lam.parts})
    return failures, {}


def check_octuple_closed_form(count: int, n_max: int, seed: int) -> tuple[list, dict]:
    """octuple_ratio's closed form on the count random octuples that
    _octuple_sample draws, each checked on its plain node pairs."""
    from . import partitions, symmetric
    done = 0
    failures = []
    for parts, m1, m2 in _octuple_sample(count, n_max, seed):
        try:
            symmetric.octuple_ratio(partitions.Partition._from_valid_parts(parts), (m1, m2))
        except ArithmeticError:
            moves = tuple(symmetric.DownUpMove(partitions.Node(*r), partitions.Node(*a))
                          for r, a in (m1, m2))
            failures.append({"lam": parts, "move": repr(moves)})
        done += 1
    if done < count:
        failures.append({"done": done})
    return failures, {"verified": done}


def _octuple_sample(count: int, n_max: int, seed: int) -> Iterator[tuple]:
    """(parts, m1, m2) of up to count random octuples, in 100 * count draws
    at most: a random shape with 8 <= n <= n_max, its down-up moves shuffled,
    and the first octuple (m1, m2) that symmetric._octuple_pairs finds among
    the first eight ((ri, rj), (ai, aj)) moves.

    The draws come from random.Random(seed).getrandbits through _randbelow
    and _shuffle, which draw what its randrange and shuffle would: the same
    values, leaving the generator in the same state.  The parts are drawn
    with _randbelow's loop written out in place, as _shuffle draws its
    indices."""
    import random

    from . import symmetric
    _check_int(n_max, 8, "n_max")  # below 8, _randbelow would never end
    getrandbits = random.Random(seed).getrandbits
    done = 0
    attempts = 0
    while done < count and attempts < 100 * count:
        attempts += 1
        rem = 8 + _randbelow(getrandbits, n_max - 7)
        parts = []
        prev = rem
        while rem:  # each part is at most the one before: no sort needed
            width = min(prev, rem)  # the part is 1 + _randbelow(getrandbits, width)
            k = width.bit_length()
            p = getrandbits(k)
            while p >= width:
                p = getrandbits(k)
            p += 1
            parts.append(p)
            rem -= p
            prev = p
        parts = tuple(parts)
        moves = symmetric.downup_moves(parts)
        _shuffle(getrandbits, moves)
        picked = next(symmetric._octuple_pairs(moves[:8]), None)
        if picked:
            done += 1
            yield (parts, *picked)


def _randbelow(getrandbits, width: int) -> int:
    """The draw in [0, width), width >= 1, that randrange(width) makes on the
    generator whose getrandbits this is, as CPython's Random does it:
    width.bit_length() bits, drawn again while they read width or more (so
    width 1 draws too)."""
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return r


def _shuffle(getrandbits, x: list) -> None:
    """Shuffle x in place as Random.shuffle does on the generator whose
    getrandbits this is: Fisher-Yates from the last item down, each index
    drawn as _randbelow draws it, with its loop written out here, where the
    sample makes most of its draws."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def check_bgl_brackets(n_max: int, q_list: tuple[int, ...]) -> tuple[list, dict]:
    from . import maxdegree
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
    return failures, {}


def check_poly_brackets(q_list: tuple[int, ...], bound: int) -> tuple[list, dict]:
    """(poly): 3q^d/4d <= n_d < q^d/d for d >= 3; (poly2): n*_d < q^d/d always
    and >= 3q^d/4d for d >= 3, q >= 3 or d >= 5, q = 2."""
    from . import maxdegree
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
    return failures, {}


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


def check_epsilon_certificates(rows: int) -> tuple[list, dict]:
    """The epsilon certificate of each of the first rows rows of
    EPSILON_FRONTIER is the one listed there."""
    from . import maxdegree
    failures = []
    for fam, n, q, expected in EPSILON_FRONTIER[:rows]:
        got = maxdegree.epsilon_certificate(maxdegree.GroupSpec(fam, n, q)).value
        if got != expected:
            failures.append({"family": fam, "n": n, "q": q,
                             "expected": expected, "got": got})
    return failures, {}


def check_merge_ratios(n_max: int) -> tuple[list, dict]:
    from . import maxdegree
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
    return failures, {"types": count}


def check_stclass_chains(rank_max: int, q_list: tuple[int, ...]) -> tuple[list, dict]:
    """Every non-Steinberg symbol class of rank <= rank_max has a chain of
    strictly increasing degree to a Steinberg symbol at each q (see
    unipotent.stclass_chains)."""
    from . import unipotent
    failures = []
    chains = 0
    for fam, n, rows, q, _, error in unipotent.stclass_chains(rank_max, q_list):
        if error is None:
            chains += 1
        else:
            failures.append({"family": fam, "n": n, "q": q, "symbol": list(rows),
                             "error": error})
    return failures, {"chains": chains}


def check_ratio_witness(n_min: int, n_max: int) -> tuple[list, dict]:
    """Every shape in the size range has a degree-ratio witness avoiding
    {2, 1, 1/2} with ratio at least 1/100."""
    from . import partitions, symmetric
    excluded = {Fraction(2), Fraction(1), Fraction(1, 2)}
    delta = Fraction(1, 100)
    failures = []
    count = 0
    for n in range(n_min, n_max + 1):
        for lam in partitions.partitions_of(n):
            count += 1
            if symmetric.ratio_witness(lam, excluded, delta) is None:
                failures.append({"lam": lam.parts})
    return failures, {"shapes": count}


def check_epsilon_an(n_min: int, n_max: int) -> tuple[list, dict]:
    """Data-only: epsilon(A_n); the n with a value below 1 are its witness,
    which never fails the check (see _DATA_ONLY)."""
    from . import symmetric
    rows = []
    below_one = []
    for n in range(max(n_min, 5), n_max + 1):
        eps = symmetric.epsilon_of(symmetric.alt_degrees(n))
        rows.append({"n": n, "epsilon": fmt_rational(eps)})
        if eps < 1:
            below_one.append(n)
    return [{"below_one": below_one}] if below_one else [], {"rows": rows}


# ---------------------------------------------------------------------------
# suite configuration and runner
# ---------------------------------------------------------------------------

# lemma_products' series truncation order, which the report records: at q = 2
# the tightest bound's margin is 2.9e-3 and no enclosure is wider than 1.5e-11;
# as q grows the margin shrinks like q^-7 and the width like q^-40.
TRUNCATION_M = 40


class SuiteConfig(_record("SuiteConfig", "families n_min n_max q_list parallelism")):
    """The label families and q values (two non-empty tuples, each q by
    orders.check_q) a suite covers, the rank range n_min..n_max (ints,
    1 <= n_min <= n_max) and the number of worker processes (an int >= 1).
    Immutable: _replace checks the new fields again."""

    __slots__ = ()

    def __new__(cls, families: tuple[str, ...] = _LABEL_FAMILIES, n_min: int = 1,
                n_max: int = 10, q_list: tuple[int, ...] = (2, 3), parallelism: int = 1):
        from .orders import check_q  # here: importing suites loads no check module
        families = tuple(families)
        if not families:
            raise ValueError("no families given")
        for fam in families:
            if fam not in _LABEL_FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
        _check_int(n_min, 1, "n_min")
        _check_int(n_max, n_min, "n_max")
        q_list = tuple(map(check_q, q_list))
        if not q_list:
            raise ValueError("no q values given")
        _check_int(parallelism, 1, "parallelism")
        return super().__new__(cls, families, n_min, n_max, q_list, parallelism)


def _suite_tasks(cfg: SuiteConfig, selection: str) -> list[tuple]:
    """(check function, params) of each check the selection runs, in report
    order; the check is called with the params as keyword arguments."""
    tasks: list[tuple] = []
    if selection in ("steinberg", "all"):
        for fam in cfg.families:
            tasks.append((check_steinberg, {"family": fam, "n_min": cfg.n_min,
                                            "n_max": cfg.n_max, "q_list": cfg.q_list}))
    if selection in ("props", "all"):
        tasks.append((check_anchor_degrees, {}))
        tasks.append((check_prop_compgl, {"n_max": min(cfg.n_max, 20), "q_list": cfg.q_list}))
        tasks.append((check_prop_dominance, {
            "n_max": min(cfg.n_max, 14),
            "q_list": tuple(q for q in cfg.q_list if q >= 3) or (3, 4, 5)}))
        tasks.append((check_prop_glgu, {"n_max": min(cfg.n_max, 25), "q_list": cfg.q_list}))
    if selection in ("lemmas", "all"):
        tasks.append((check_lemma_bracket_ratios,
                      {"s_max": 12, "q_list": cfg.q_list, "grid_max": 30}))
        tasks.append((check_lemma_products, {"q_max": max(cfg.q_list), "m": TRUNCATION_M}))
    if selection == "all":
        tasks.append((check_oracle_sym_squares, {"n_max": min(cfg.n_max, 20)}))
        tasks.append((check_oracle_alt_squares, {"n_max": min(cfg.n_max, 20)}))
        tasks.append((check_oracle_branching, {"n_max": min(cfg.n_max, 30)}))
        tasks.append((check_octuple_closed_form, {"count": 1000, "n_max": 60, "seed": 20260810}))
        from . import maxdegree
        prime_powers = tuple(q for q in cfg.q_list if maxdegree.prime_power(q))
        tasks.append((check_bgl_brackets, {"n_max": min(cfg.n_max, 40), "q_list": prime_powers}))
        tasks.append((check_poly_brackets, {"q_list": prime_powers, "bound": 2 ** 16}))
        tasks.append((check_epsilon_certificates, {"rows": len(EPSILON_FRONTIER)}))
        tasks.append((check_merge_ratios, {"n_max": min(cfg.n_max, 12)}))
        tasks.append((check_stclass_chains, {"rank_max": min(cfg.n_max, 8), "q_list": cfg.q_list}))
        tasks.append((check_ratio_witness, {"n_min": 15, "n_max": 18}))
        tasks.append((check_epsilon_an, {"n_min": 5, "n_max": min(cfg.n_max + 10, 20)}))
    if not tasks:
        raise ValueError(f"unknown suite selection {selection!r}")
    return tasks


_DATA_ONLY = frozenset({"epsilon_an"})  # checks whose verdict is "report", never "fail"


def _run_task(task: tuple) -> dict:
    """The record of one (check, params) task, the only place a record is
    built: check is the function's name without its check_ prefix; verdict
    is "error" if the check raised an Exception (its type and message are
    the witness), else "report" for a data-only check, else "fail" iff it
    returned failures, the first of which is the witness."""
    check, params = task
    name = check.__name__.removeprefix("check_")
    started = time.monotonic()
    try:
        failures, values = check(**params)
    except Exception as exc:
        verdict, witness, values = "error", {"error": f"{type(exc).__name__}: {exc}"}, {}
    else:
        verdict = "report" if name in _DATA_ONLY else "fail" if failures else "pass"
        witness = failures[0] if failures else None
    return {"check": name, "params": params, "verdict": verdict, "witness": witness,
            "values": values, "_elapsed": time.monotonic() - started}


class SuiteReport:
    """The config and the check records of one suite run, in task order."""

    def __init__(self, config: dict, checks: list[dict] | None = None):
        self.config = config
        self.checks = [] if checks is None else checks

    @property
    def all_pass(self) -> bool:
        return all(c["verdict"] in ("pass", "report") for c in self.checks)

    def to_json(self, timing: bool = False) -> str:
        checks = []
        for c in self.checks:
            c = dict(c)
            elapsed = c.pop("_elapsed", None)
            if timing:
                c["wall_ms"] = round(1000 * elapsed, 3) if elapsed is not None else None
            checks.append(c)
        verdicts = [c["verdict"] for c in self.checks]
        summary = {v: verdicts.count(v) for v in ("pass", "fail", "report")}
        if "error" in verdicts:  # absent otherwise: a passing report keeps its bytes
            summary["error"] = verdicts.count("error")
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


def _work(tasks: list[tuple], deal: int, out: int, inherited: tuple[int, ...]) -> None:
    """The body of a worker forked by _run_forked; it never returns.

    It takes the next four-byte task index from the pipe deal until the pipe
    is empty.  To the pipe out it writes each index as it takes it, then the
    length and the pickle of the task's record.  It closes the read ends of
    the result pipes it inherited, so a worker whose parent is gone fails its
    next write.  It leaves through os._exit: no exit handlers, no flush of the
    stdio buffers it shares with the parent, and status 1 if anything raised.
    """
    import pickle

    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(out, "wb") as pipe:
            while index := os.read(deal, 4):
                pipe.write(index)
                pipe.flush()
                data = pickle.dumps(_run_task(tasks[int.from_bytes(index, "little")]))
                pipe.write(len(data).to_bytes(4, "little") + data)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


class WorkerDied(RuntimeError):
    """A worker process of a parallel run ended before it returned the
    records of its tasks: the run failed, not a check."""


def _run_forked(tasks: list[tuple], workers: int) -> list[dict]:
    """_run_task over tasks in `workers` forked processes; the records in task
    order.

    Every task index is written to one pipe before the first fork, and each
    worker takes the next whenever it is free (see _work).  A worker that
    exits holding a task, or with a nonzero status, raises WorkerDied.
    Every worker is killed and reaped before the call ends, however it ends.
    """
    import pickle
    import select

    deal, deal_w = os.pipe()
    indices = b"".join(i.to_bytes(4, "little") for i in range(len(tasks)))
    os.set_blocking(deal_w, False)  # more indices than the pipe holds: an error, not a hang
    try:
        dealt = os.write(deal_w, indices)
    finally:
        os.close(deal_w)
    running: dict[int, tuple] = {}  # result pipe -> (worker pid, bytes read)
    records: list = [None] * len(tasks)
    try:
        if dealt < len(indices):
            raise ValueError(f"{len(tasks)} task indices do not fit in one pipe")
        poller = select.poll()
        for _ in range(workers):
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(tasks, deal, out, (fd, *running))
            os.close(out)
            running[fd] = (pid, bytearray())
            poller.register(fd, select.POLLIN)
        while running:
            for fd, _ in poller.poll():
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    running[fd][1].extend(chunk)
                    continue
                poller.unregister(fd)
                pid, data = running.pop(fd)
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pos = 0
                while pos < len(data):
                    i = int.from_bytes(data[pos:pos + 4], "little")
                    end = pos + 8 + int.from_bytes(data[pos + 4:pos + 8], "little")
                    if end > len(data):
                        break  # the worker ended while it ran task i
                    records[i] = pickle.loads(data[pos + 8:end])
                    pos = end
                if pos < len(data) or code:
                    how = f"exit status {code}" if code >= 0 else f"signal {-code}"
                    held = (f" while running check {tasks[i][0].__name__.removeprefix('check_')!r}"
                            if pos < len(data) else "")
                    raise WorkerDied(f"worker process {pid} ended with {how}{held}")
    finally:
        os.close(deal)
        for fd, (pid, _) in running.items():
            os.close(fd)
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return records


def run_suite(cfg: SuiteConfig, selection: str = "all") -> SuiteReport:
    """Run the selected checks; deterministic output for any parallelism."""
    tasks = _suite_tasks(cfg, selection)
    if cfg.parallelism > 1 and len(tasks) > 1 and hasattr(os, "fork"):
        # the workers are forked from this process: load every check module
        # here, once, or each worker loads (and compiles) its own copies
        from . import maxdegree, orders, partitions, qexact, symmetric, unipotent

        records = _run_forked(tasks, min(cfg.parallelism, len(tasks)))
    else:
        records = [_run_task(t) for t in tasks]
    config = {
        "selection": selection,
        "families": list(cfg.families),
        "n_min": cfg.n_min, "n_max": cfg.n_max,
        "q_list": list(cfg.q_list),
        "truncation_m": TRUNCATION_M,
    }
    return SuiteReport(config=config, checks=records)
