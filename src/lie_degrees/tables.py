"""Machine-readable tables and the helpers every output shares.

The degree, bounds and epsilon tables the CLI prints, the exact rational and
big-integer formats of reports and tables, and the atomic file write behind
--out.  No module of the package is imported at load time: each table imports
the modules it uses, so `bounds` never loads the Young-diagram or symbol
modules, and `epsilon an` never loads maxdegree.
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction

from . import _SYMBOL_DEFECT, _check_int, _int_digits

SCHEMA = "lie-degrees-report/1"


def fmt_rational(x: Fraction) -> dict:
    """Exact p/q string plus a 15-significant-digit decimal annotation."""
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = 15
        dec = Decimal(x.numerator) / Decimal(x.denominator)
    return {"ratio": f"{x.numerator}/{x.denominator}", "decimal": str(dec)}


def json_safe_ints(obj):
    """obj with every int of absolute value >= 2^53 turned into its decimal
    string, through dicts, lists and tuples, so JSON readers that parse
    numbers as doubles lose no digits (bools are ints below 2^53)."""
    if isinstance(obj, dict):
        return {k: json_safe_ints(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe_ints(v) for v in obj]
    if isinstance(obj, int) and abs(obj) >= 2 ** 53:
        return str(obj)
    return obj


def render_table(header: list[str], rows: list[list], fmt: str, kind: str) -> str:
    with _int_digits(0):  # computed ints are written in full
        if fmt == "csv":
            import csv
            import io
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            return buf.getvalue()
        doc = {"schema": SCHEMA, "kind": kind, "columns": header,
               "rows": json_safe_ints(rows)}
        return json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a unique temporary file in the same directory.

    The data is flushed to disk before the rename, and the temporary file is
    removed if anything fails, so path holds either its old or its new content.
    A path that exists and is neither a regular file nor a directory (a FIFO,
    a device such as /dev/null) is written in place: a rename would replace it
    with a regular file.  A symbolic link to a regular file, or to a missing
    file in an existing directory, is followed: the file it names is replaced,
    through a temporary file next to that file, and the link stays.  A
    directory, or a missing parent directory, raises OSError.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        with open(path, "w") as fh:
            fh.write(text)
        return
    if os.path.islink(path):  # a rename would replace the link, not its file
        path = os.path.realpath(path)
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


def degrees_table(family: str, n: int, q: int | None) -> tuple[list[str], list[list]]:
    from . import partitions, unipotent

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
    if family in _SYMBOL_DEFECT:
        if q is None:
            raise ValueError("symbol tables need q")
        header = ["X", "Y", "defect", "multiplicity", "degree"]
        rows = [[",".join(map(str, sym.X)), ",".join(map(str, sym.Y)),
                 unipotent.symbol_defect(sym), sym.multiplicity,
                 unipotent.degree_symbol(sym, q)]
                for sym in unipotent.enumerate_symbols(n, family)]
        return header, rows
    raise ValueError(f"unknown degrees table family {family!r}")


def bounds_table(family: str, n_min: int, n_max: int, q: int) -> tuple[list[str], list[list]]:
    from . import maxdegree

    header = ["family", "n", "q", "lower", "c", "upper",
              "lower_decimal", "c_decimal", "upper_decimal", "seitz", "st"]
    maxdegree.check_field_order(q)  # also when min_rank empties the rank range
    rows = []
    for n in range(max(n_min, maxdegree.min_rank(family)), n_max + 1):
        spec = maxdegree.GroupSpec(family, n, q)
        lower, upper = maxdegree.bound_bracket(spec)
        st, _ = maxdegree.order_parts(spec)
        lo_f, up_f = fmt_rational(lower), fmt_rational(upper)
        if family == "A":
            b, _w = maxdegree.b_gl_exact(n, q)
            c_f = fmt_rational(Fraction(b, st))
        else:
            c_f = {"ratio": "", "decimal": ""}
        rows.append([family, n, q, lo_f["ratio"], c_f["ratio"], up_f["ratio"],
                     lo_f["decimal"], c_f["decimal"], up_f["decimal"],
                     maxdegree.seitz_bound(spec), st])
    return header, rows


def epsilon_table(n_min: int, n_max: int) -> tuple[list[str], list[list]]:
    from . import symmetric

    header = ["n", "b", "epsilon", "epsilon_decimal"]
    rows = []
    for n in range(_check_int(n_min, 2, "n"), n_max + 1):
        degs = symmetric.alt_degrees(n)
        eps = symmetric.epsilon_of(degs)
        f = fmt_rational(eps)
        rows.append([n, degs.b, f["ratio"], f["decimal"]])
    return header, rows
