"""Span tracer for one workload run of the lie-degrees benchmark.

Usage: python3 perfbench/tracer.py OUT_DIR RUN_ID MODULE [ARGS...]

Wraps the layer functions listed in TRACED in every lie_degrees module
namespace that binds them, then calls MODULE.main(ARGS) inside a root span.
Each span records its name, start, end and parent span; every span of one
process segment shares the RUN_ID written in the segment header.  Spans stay
in memory and are written to OUT_DIR when the run ends.  Forked pool workers
write one segment per finished task, so their spans reach OUT_DIR even though
the pool terminates them without running exit handlers.

Besides spans, each wrapper counts calls, distinct argument keys (for the
repeat share), generator items and the largest numerator or denominator bit
length of the returned values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from fractions import Fraction

# layer (module) -> traced functions; "Class.method" names a method.
TRACED = {
    "cli": ("main",),
    "suites": ("run_suite", "_run_task", "render_table",
               "SuiteReport.to_json", "SuiteReport.to_csv"),
    "unipotent": ("enumerate_symbols", "degree_symbol", "degree_gl", "degree_gu",
                  "verify_steinberg_max", "stclass_chain"),
    "partitions": ("hooks", "sym_degree", "partitions_of"),
    "symmetric": ("ratio_witness", "downup_neighborhood", "alt_degrees",
                  "octuple_ratio"),
    "qexact": ("ln_interval", "pow_interval", "exp_interval", "euler_interval"),
    "maxdegree": ("b_gl_exact", "bound_bracket_intervals"),
}
KEYED = frozenset({
    "unipotent.enumerate_symbols", "unipotent.degree_symbol",
    "unipotent.degree_gl", "unipotent.degree_gu",
    "partitions.hooks", "partitions.sym_degree",
    "qexact.ln_interval", "qexact.pow_interval",
})
BITS = frozenset({"unipotent.degree_symbol", "qexact.ln_interval", "qexact.pow_interval"})
GENERATORS = frozenset({"partitions.partitions_of"})     # also count items yielded
ROOT = "bench.root"
WORKER_TASK = "suites._run_task"


def value_bits(v) -> int:
    """Bit length of the largest numerator or denominator of an int, a
    Fraction or a RationalInterval."""
    if isinstance(v, int):
        return abs(v).bit_length()
    if isinstance(v, Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return max(value_bits(v.lo), value_bits(v.hi))


class Tracer:
    """In-memory span store of one process; forked children start a new segment."""

    def __init__(self, out_dir: str, run_id: str):
        self.out_dir = out_dir
        self.run_id = run_id
        self.names: list[str] = []
        self.keys: list[set] = []
        self.max_bits: list[int] = []
        self.main_pid = os.getpid()
        self._fork_parent: list | None = None
        self._segment = 0
        self._new_segment()

    def _new_segment(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("i")
        self.stack = [-1]
        self.calls = [0] * len(self.names)
        self.items = [0] * len(self.names)
        self.keys_at_segment_start = [len(k) for k in self.keys]

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.keys.append(set())
        self.max_bits.append(0)
        self.calls.append(0)
        self.items.append(0)
        self.keys_at_segment_start.append(0)
        return len(self.names) - 1

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def after_fork_in_child(self) -> None:
        self._fork_parent = [os.getppid(), self.stack[-1]]
        self._segment = 0
        self._new_segment()

    def flush(self) -> None:
        """Write the spans and counters of this segment, then start a new one."""
        pid = os.getpid()
        stem = os.path.join(self.out_dir, f"spans-{pid}-{self._segment}")
        header = {
            "run_id": self.run_id,
            "pid": pid,
            "main": pid == self.main_pid,
            "fork_parent": self._fork_parent,
            "names": self.names,
            "spans": len(self.start),
            "calls": self.calls,
            "items": self.items,
            "distinct": [len(k) - s for k, s in zip(self.keys, self.keys_at_segment_start)],
            "max_bits": self.max_bits,
        }
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump(header, fh)
        self._segment += 1
        self._new_segment()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        keyed = name in KEYED
        bits = name in BITS

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                self.calls[nid] += 1
                if keyed:
                    self.keys[nid].add((args, tuple(sorted(kwargs.items()))))
                gen = fn(*args, **kwargs)
                while True:
                    i = self.enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit(i)
                    self.items[nid] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            if keyed:
                self.keys[nid].add((args, tuple(sorted(kwargs.items()))))
            i = self.enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.exit(i)
            if bits:
                b = value_bits(out)
                if b > self.max_bits[nid]:
                    self.max_bits[nid] = b
            return out
        return traced

    def flush_after_worker_task(self, fn):
        """Wrap the pool task function so a worker writes its spans per task."""
        @functools.wraps(fn)
        def task(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                if os.getpid() != self.main_pid:
                    self.flush()
        return task


def install(tracer: Tracer) -> None:
    """Replace each traced function in every lie_degrees namespace binding it."""
    package = importlib.import_module("lie_degrees")
    modules = {layer: importlib.import_module(f"lie_degrees.{layer}") for layer in TRACED}
    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    for layer, functions in TRACED.items():
        for qualname in functions:
            owner = modules[layer]
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = tracer.wrap(f"{layer}.{qualname}", original)
            if f"{layer}.{qualname}" == WORKER_TASK:
                wrapped = tracer.flush_after_worker_task(wrapped)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapped


def main(argv: list[str]) -> int:
    out_dir, run_id, module_name, *args = argv
    tracer = Tracer(out_dir, run_id)
    root = tracer.enter(tracer.name_id(ROOT))
    install(tracer)
    os.register_at_fork(after_in_child=tracer.after_fork_in_child)
    target = importlib.import_module(module_name)
    try:
        code = target.main(args)
    finally:
        tracer.exit(root)
        tracer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
