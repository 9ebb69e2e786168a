"""Outside-in span recorder for the traced benchmark run.

The library stays untouched. install() wraps every public function of each
zmx module, plus Matrix.__init__ and Matrix.__mul__, and rebinds the
wrapper under every name that held the original in any loaded zmx module.
Modules import functions by name (``from zmx.matrix import det``), so
wrapping the defining module alone would miss most calls.

A span is (name, start, end, parent span, operation id). Spans are held in
memory, at most SPAN_CAP of them, and written out by write(). Per-name call
counts and self times (span time minus the time of its child spans) are
kept for every span, stored or not.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict
from math import comb

SPAN_CAP = 200_000

# The zmx modules whose public functions get spans, in dependency order.
MODULES = ("matrix", "digraph", "zclass", "construct", "cyclic", "sampling", "verify", "cli")

# Rejection samplers and the draws they retry: accept_ratio is sampler
# calls divided by these draws made directly inside them.
REJECTION = {
    "sampling.random_nonsingular": {"sampling.random_matrix"},
    "sampling.random_bdsw": {"construct.bdsw_matrix"},
    "verify._draw_cyclic_signed": {"sampling.random_inverse_cyclic"},
    "verify._draw_cyclic_mixed": {"sampling.random_cyclic_params"},
    "verify._draw_z_matrix": {"sampling.random_shifted_z", "sampling.random_z",
                              "construct.bdsw_matrix", "construct.type_d"},
}


class Recorder:
    def __init__(self):
        self.active = False
        self.op = -1
        self.base = 0.0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.stack: list[list] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.child_of = defaultdict(float)  # (name, parent name) -> inclusive time
        self.child_calls = defaultdict(int)  # (name, parent name) -> calls
        self.hook_s = 0.0
        self.dropped = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # counters computed from arguments and results
        self.minors_bound = 0
        self.inverse_bits_max = 0
        self.paths_found = 0

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid, fn, args, kwargs, on_result):
        stack = self.stack
        parent = stack[-1] if stack else None
        if len(self.span_name) < SPAN_CAP:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent[2] if parent else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        frame = [nid, 0.0, idx]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            self.inclusive_s[nid] += dur
            if parent is not None:
                parent[1] += dur
                self.child_of[nid, parent[0]] += dur
                self.child_calls[nid, parent[0]] += 1
            if idx >= 0:
                self.span_start[idx] = t0 - self.base
                self.span_end[idx] = t1 - self.base
        if on_result is not None:
            h0 = time.perf_counter()
            on_result(self, args, result)
            h = time.perf_counter() - h0
            self.hook_s += h
            if parent is not None:
                parent[1] += h
        return result

    def wrap(self, name, fn, on_result=None):
        nid = self.intern(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(nid, fn, args, kwargs, on_result)

        return traced

    # -------------------------------------------------------------- results

    def by_name(self, table, name):
        nid = self._ids.get(name)
        return 0 if nid is None else table[nid]

    def pair(self, table, child, parent):
        c, p = self._ids.get(child), self._ids.get(parent)
        return 0 if c is None or p is None else table[c, p]

    def write(self, path):
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n")


def _inverse_bits(rec, args, result):
    bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for row in result.rows for x in row)
    if bits > rec.inverse_bits_max:
        rec.inverse_bits_max = bits


def _paths(rec, args, result):
    rec.paths_found += len(result)


ON_RESULT = {"matrix.inverse": _inverse_bits, "digraph.enumerate_paths": _paths}


def _rebind(original, wrapper):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "zmx" or modname.startswith("zmx.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> list[str]:
    """Wrap the library's functions for rec; returns the span names."""
    import zmx.cli  # noqa: F401  every module must be loaded before rebinding
    import zmx.matrix
    import zmx.zclass

    spanned = []
    for short in MODULES:
        mod = sys.modules[f"zmx.{short}"]
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and f"{short}.{attr}" not in REJECTION:
                continue
            name = f"{short}.{attr}"
            _rebind(fn, rec.wrap(name, fn, ON_RESULT.get(name)))
            spanned.append(name)

    Matrix = zmx.matrix.Matrix
    Matrix.__init__ = rec.wrap("matrix.Matrix", Matrix.__init__)
    Matrix.__mul__ = rec.wrap("matrix.mul", Matrix.__mul__)
    spanned += ["matrix.Matrix", "matrix.mul"]

    # The principal-minor sweep is a generator, so it gets a counter, not a
    # span: its work happens in the caller's frame. The count is an upper
    # bound, since callers stop early.
    sweep = zmx.zclass._minor_signs

    def counted(a, max_order=None):
        if rec.active:
            n = a.n
            top = n if max_order is None else min(max_order, n)
            rec.minors_bound += sum(comb(n, k) for k in range(1, top + 1))
        return sweep(a, max_order)

    _rebind(sweep, counted)
    return spanned
