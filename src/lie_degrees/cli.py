"""Command-line surface: exact degrees, verification sweeps, tables.

Exit codes: 0 all asserted checks pass, 1 a check failed or raised (its
witness, or the error, in the report), 2 usage or configuration error,
including an empty q list and an --out path that cannot be written (a
directory, or in a missing directory), 3 internal error (an arithmetic
self-check of the program failed outside a `verify` check, or a worker
process of `verify --jobs N` died while it ran a check; a bug or the host,
not a bad input).

Start-up is most of the cost of a short command, so this module imports
nothing from the package at load time: each command imports the modules it
runs, and calls them as module.function.  Family choices and defaults are
read from the family table in the package's __init__.

Both entry points, the `lie-degrees` console script and `python -m
lie_degrees.cli`, go through run(), which calls main() and then freezes the
heap (gc.freeze) before the process exits.  At interpreter shutdown the
garbage collector walks every tracked object of a heap that the operating
system frees anyway, which cost a short command 5-8 ms on a 2-core x86-64
host; frozen objects sit in the collector's permanent generation, which
shutdown's collections skip.  Output is still flushed, atexit handlers still run and
the exit status is main's.  main() itself never freezes, so a caller can
run it in-process as often as it likes.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import _LABEL_FAMILIES, _LABEL_FAMILY, _SYMBOL_DEFECT, _int_digits  # already loaded

# Python's limit on the digits of an int read from or written as a string
# (sys.set_int_max_str_digits) guards parsing against quadratic conversions of
# hostile input; an integer the program computed, such as the q-part 49^3600
# of a bounds row, is written in full, so commands run with the limit lifted
# and each parser below restores it.  The renderers in tables and suites lift
# it the same way, for a library caller.
_INPUT_DIGITS = sys.get_int_max_str_digits()


@_int_digits(_INPUT_DIGITS)
def parse_partition(text: str) -> partitions.Partition:
    """Parse '3,2,1' or power notation '2^3,1' into a partition; a negative
    power count is a ValueError."""
    from . import partitions
    parts: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "^" in chunk:
            base, _, count = chunk.partition("^")
            if int(count) < 0:
                raise ValueError(f"negative power count in {chunk!r}")
            parts.extend([int(base)] * int(count))
        else:
            parts.append(int(chunk))
    return partitions.Partition(tuple(sorted(parts, reverse=True)))


@_int_digits(_INPUT_DIGITS)
def parse_range(text: str) -> tuple[int, int]:
    """'lo..hi' or a single 'n' as (lo, hi); a reversed range is a ValueError."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text.strip()!r}")
        return lo, hi
    v = int(text)
    return v, v


@_int_digits(_INPUT_DIGITS)
def parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def parse_q_list(text: str) -> tuple[int, ...]:
    """The comma list of a --q option; an empty one is a ValueError."""
    q_list = parse_int_list(text)
    if not q_list:
        raise ValueError("no q values given")
    return q_list


@_int_digits(_INPUT_DIGITS)
def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator a ValueError like any other
    malformed number (Fraction raises ZeroDivisionError for it).

    Fraction builds 10**e for an exponent e, which the digit limit does not
    see, so an exponent larger in magnitude than the limit is a ValueError.
    """
    import re
    from fractions import Fraction  # here: building the parser loads no fractions
    exponent = re.search(r"e([-+]?[\d_]+)\s*$", text, re.IGNORECASE)
    limit = sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent[1])) > limit:
        raise ValueError(f"exponent of {text.strip()!r} exceeds {limit} in magnitude")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def parse_fraction_set(text: str) -> set[Fraction]:
    return {parse_fraction(x) for x in text.split(",") if x.strip()}


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        from . import tables
        try:
            tables.write_atomic(args.out, text)
        except OSError as exc:  # a bad --out is a usage error, not a failed check
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def cmd_degree(args) -> int:
    if args.n is not None:  # table mode: all labels of the given rank
        from . import tables
        fam = (args.symbol_family or "BC") if args.kind == "symbol" else args.kind
        header, rows = tables.degrees_table(fam, args.n, args.q)
        _emit(args, tables.render_table(header, rows, args.format, "degrees"))
        return 0
    if args.kind != "symbol" and args.partition is None:
        raise ValueError(f"degree {args.kind} needs --partition or --n")
    if args.kind == "sym":
        from . import partitions
        print(partitions.sym_degree(parse_partition(args.partition)))
        return 0
    from . import unipotent
    if args.kind in ("gl", "gu"):
        lam = parse_partition(args.partition)
        deg = unipotent.degree_gl if args.kind == "gl" else unipotent.degree_gu
        print(deg(lam, args.q))
    else:  # symbol
        sym = unipotent.Symbol(parse_int_list(args.x) if args.x else (),
                               parse_int_list(args.y) if args.y else ())
        print(unipotent.degree_symbol(sym, args.q))
    return 0


def cmd_verify(args) -> int:
    from . import suites
    n_min, n_max = parse_range(args.n)
    cfg = suites.SuiteConfig(
        families=tuple(args.family.split(",")) if args.family else _LABEL_FAMILIES,
        n_min=n_min, n_max=n_max,
        q_list=parse_q_list(args.q),
        parallelism=args.jobs,
    )
    try:
        report = suites.run_suite(cfg, args.what)
    except suites.WorkerDied as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = report.to_csv(args.timing) if args.format == "csv" else report.to_json(args.timing)
    _emit(args, text)
    if args.out:
        for c in report.checks:
            print(f"{c['check']}: {c['verdict']}")
    return 0 if report.all_pass else 1


def cmd_bmax(args) -> int:
    from . import maxdegree
    b, witness = maxdegree.b_gl_exact(args.n, args.q)
    print(b)
    print("witness:", " x ".join(f"GL_{k}(q^{d})" for k, d in witness.blocks))
    return 0


def cmd_bounds(args) -> int:
    from . import tables
    n_min, n_max = parse_range(args.n)
    q_list = parse_q_list(args.q)
    rows_all: list[list] = []
    header: list[str] = []
    for fam in args.family.split(","):
        for q in q_list:
            header, rows = tables.bounds_table(fam, n_min, n_max, q)
            rows_all.extend(rows)
    _emit(args, tables.render_table(header, rows_all, args.format, "bounds"))
    return 0


def cmd_epsilon(args) -> int:
    if args.kind == "an":
        n_min, n_max = parse_range(args.n)
        if n_min == n_max and not args.out and args.format == "json":
            from . import symmetric
            eps = symmetric.epsilon_of(symmetric.alt_degrees(n_min))
            print(f"{eps.numerator}/{eps.denominator}")
            return 0
        from . import tables
        header, rows = tables.epsilon_table(n_min, n_max)
        _emit(args, tables.render_table(header, rows, args.format, "epsilon"))
        return 0
    # cert
    from . import maxdegree
    spec = maxdegree.GroupSpec(args.family, args.rank, args.q)
    print(maxdegree.epsilon_certificate(spec).value)
    return 0


def cmd_ratio_search(args) -> int:
    from fractions import Fraction

    from . import partitions, symmetric
    lam = parse_partition(args.partition)
    witness = symmetric.ratio_witness(lam, parse_fraction_set(args.exclude),
                                      parse_fraction(args.delta))
    if witness is None:
        print("no witness found")
        return 1
    ratio = Fraction(partitions.sym_degree(witness), partitions.sym_degree(lam))
    print(",".join(map(str, witness.parts)))
    print(f"ratio: {ratio.numerator}/{ratio.denominator}")
    return 0


def _degree_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=["sym", "gl", "gu", "symbol"])
    p.add_argument("--partition", help="e.g. 3,2,1 or 2^3,1")
    p.add_argument("--x", help="symbol row X, e.g. 1,2")
    p.add_argument("--y", help="symbol row Y, e.g. 0,1")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--n", type=int, help="emit the degree table for this rank instead")
    p.add_argument("--symbol-family", choices=list(_SYMBOL_DEFECT),
                   help="family for symbol tables (with --n)")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_degree)


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("what", choices=["steinberg", "props", "lemmas", "all"])
    p.add_argument("--family", help=f"comma list of {','.join(_LABEL_FAMILIES)} (steinberg)")
    p.add_argument("--n", default="1..10", help="rank range, e.g. 1..20")
    p.add_argument("--q", default="2,3", help="comma list of q values")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (the report bytes are the same for any value)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the report to this path (atomic)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock fields (report no longer byte-stable)")
    p.set_defaults(func=cmd_verify)


def _bmax_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=["gl"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_bmax)


def _bounds_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="A", help=f"comma list of {','.join(_LABEL_FAMILY)}")
    p.add_argument("--n", default="1..40")
    p.add_argument("--q", default="2")
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)


def _epsilon_arguments(p: argparse.ArgumentParser) -> None:
    ksub = p.add_subparsers(dest="kind", required=True)
    pa = ksub.add_parser("an", help="epsilon(A_n) from the exact degree list")
    pa.add_argument("--n", default="5..20", help="single n prints the exact rational")
    pa.add_argument("--format", choices=["json", "csv"], default="json")
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_epsilon, kind="an")
    pc = ksub.add_parser("cert", help="epsilon > 1 certificate for a classical family")
    pc.add_argument("--family", required=True, choices=list(_LABEL_FAMILY))
    pc.add_argument("--rank", type=int, required=True)
    pc.add_argument("--q", type=int, required=True)
    pc.set_defaults(func=cmd_epsilon, kind="cert")


def _ratio_search_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--partition", required=True)
    p.add_argument("--exclude", default="", help="comma list of rationals, e.g. 2,1,1/2")
    p.add_argument("--delta", default="1/100", help="lower bound for the ratio")
    p.set_defaults(func=cmd_ratio_search)


PROG = "lie-degrees"
# command -> (help line, function adding its arguments to its parser)
COMMANDS = {
    "degree": ("compute one degree, or a full table with --n", _degree_arguments),
    "verify": ("run a verification suite", _verify_arguments),
    "bmax": ("exact largest irreducible degree", _bmax_arguments),
    "bounds": ("bracket table for c(G) = b(G)/|G|_p", _bounds_arguments),
    "epsilon": ("epsilon values and certificates", _epsilon_arguments),
    "ratio-search": ("find a same-size diagram with degree ratio outside a finite set",
                     _ratio_search_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog=PROG,
        description="Exact character degrees and certified bound verification "
                    "for symmetric groups and finite classical groups.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return ap


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command, as build_parser makes it, without the others."""
    p = argparse.ArgumentParser(prog=f"{PROG} {name}")
    COMMANDS[name][1](p)
    return p


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMANDS:
        # argparse parsers are slow to build (its message lookups search the
        # locale on every call), so a named command is parsed by its own alone
        args = command_parser(argv[0]).parse_args(argv[1:])
    else:  # help, or a usage error that lists the commands
        args = build_parser().parse_args(argv)
    try:
        with _int_digits(0):
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a self-check failed: no input is at fault
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def run(argv: list[str] | None = None) -> NoReturn:
    """The program's exit path: main(argv), then exit with its code.  The
    heap is frozen however main ends (argparse's usage errors raise
    SystemExit(2)), so shutdown's garbage collection skips what main built."""
    try:
        code = main(argv)
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
