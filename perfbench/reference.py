"""A fixed pure-Python program that times the machine, not lie_degrees.

Usage: python3 perfbench/reference.py

It does the kinds of work lie_degrees does (Fraction and big-integer
arithmetic, tuple-keyed dicts, recursive generators) without importing it, so
its run time changes only with the speed of the machine and the interpreter.
perfbench/run.py runs it between the workload runs and scales the timings
by it; no change to src/ can move it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def main() -> int:
    total = Fraction(0)
    for k in range(1, 500):
        total += Fraction(1, k * k)
    memo: dict[tuple[int, int], int] = {}
    for i in range(100_000):
        memo[(i * 7919) % 10007, i & 7] = i
    shapes = sum(1 for _ in partitions(30, 30))
    power = math.prod(range(1, 2000)) % (2**61 - 1)
    return 0 if total > 1 and memo and shapes == 5604 and power else 1


if __name__ == "__main__":
    raise SystemExit(main())
