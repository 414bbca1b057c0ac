"""The shape-sweep workload: library calls on Young diagrams, no q-arithmetic.

Usage: python3 perfbench/shape_sweep.py INPUT_JSON

INPUT_JSON holds {"eps_n": [lo, hi], "shapes": [[parts...], ...]}.  Prints one
JSON line per record: the exact epsilon(A_n) for each n in [lo, hi] (every
shape of size n is evaluated once), then the ratio witness avoiding
{2, 1, 1/2} with ratio >= 1/100 for each input shape (neighbouring shapes are
evaluated again and again).  The witness is null when none is found.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from lie_degrees import partitions, symmetric

EXCLUDED = {Fraction(2), Fraction(1), Fraction(1, 2)}
DELTA = Fraction(1, 100)


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        spec = json.load(fh)
    lo, hi = spec["eps_n"]
    out = []
    for n in range(lo, hi + 1):
        eps = symmetric.epsilon_of(symmetric.alt_degrees(n))
        out.append(json.dumps({"eps": n, "value": f"{eps.numerator}/{eps.denominator}"}))
    for parts in spec["shapes"]:
        lam = partitions.Partition(tuple(parts))
        witness = symmetric.ratio_witness(lam, EXCLUDED, DELTA)
        out.append(json.dumps({"shape": parts,
                               "witness": None if witness is None else list(witness.parts)}))
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
