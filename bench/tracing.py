"""Span recorder for traced runs.

Spans are recorded from outside the program: every public function of
the nine fmlattice modules is wrapped at every module attribute that
binds it (fmlattice.averaging.kernel_basis as well as
fmlattice.lattice.kernel_basis), and so are Matrix.__init__,
Matrix.__matmul__ and the validation of LatticeIsometry and
GActionLattice.  A span is (name, parent, start, end); spans stay in
memory and are folded into per-name totals between operations.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import refarith as R
from harness import MODULES, ROOT

METHODS = {
    ("lattice", "Matrix", "__init__"): "lattice.matrix_new",
    ("lattice", "Matrix", "__matmul__"): "lattice.matmul",
    ("transport", "LatticeIsometry", "__post_init__"): "transport.isometry_check",
    ("transport", "GActionLattice", "__post_init__"): "transport.action_check",
}

# Largest bit length of any entry in the value a span returned.
MEASURED = {
    "lattice.rref": lambda result: R.bits(result[0].entries),
    "lattice.smith_normal_form": lambda result: R.bits([m.entries for m in result]),
}

# The per-layer metrics of a traced run, (name, unit), as BENCHMARK.json
# lists them.  Each name is <function>.<kind> or <module>.self_us_per_op;
# per_layer_metrics reads what to compute from the name.
PER_LAYER = [(m["name"], m["unit"])
             for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]


class Tracer:
    def __init__(self):
        self.spans = []   # (name, parent index, start ns, end ns, bits); name None = tracer's own work
        self.stack = []
        self.totals = {}  # name -> [calls, self ns, total ns, max bits]
        self._patches = self._plan()  # (owner, attribute, original, wrapper)

    # -------------------------------------------------------- wrapping

    def _plan(self):
        """Wrap every traced function once; install and uninstall only
        swap them in and out, so that they are cheap enough to do around
        every operation."""
        package = sys.modules["fmlattice"]
        modules = [sys.modules[f"fmlattice.{m}"] for m in MODULES]
        wrappers = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{short}.{attr}")
        patches = [(module, attr, obj, wrappers[id(obj)])
                   for module in [package] + modules
                   for attr, obj in vars(module).items() if id(obj) in wrappers]
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"fmlattice.{short}"], cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self._wrap(original, name)))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        measure = MEASURED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, start, end, 0)
            if measure is not None:
                spans[index] = (name, parent, start, end, measure(result))
                # charge the measurement to no layer: a child span without a name
                spans.append((None, parent, end, clock(), 0))
            return result
        return wrapper

    # -------------------------------------------------------- aggregation

    def fold(self):
        """Add the recorded spans to the per-name totals and forget them."""
        spans = self.spans
        child = [0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, _, start, end, bits) in enumerate(spans):
            if name is None:
                continue
            t = self.totals.setdefault(name, [0, 0, 0, 0])
            t[0] += 1
            t[1] += end - start - child[i]
            t[2] += end - start
            t[3] = max(t[3], bits)
        spans.clear()

    def take(self):
        """Fold, return the totals and start afresh."""
        self.fold()
        totals, self.totals = self.totals, {}
        return totals


def span_table(totals, n_ops):
    """Every traced function, heaviest self time first, as text (raw times)."""
    lines = [f"{'span':40} {'calls/op':>10} {'raw self us/op':>15} {'raw total us/op':>16} {'max bits':>9}"]
    for name, (calls, self_ns, total_ns, bits) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:40} {calls / n_ops:10.2f} {self_ns / 1e3 / n_ops:15.1f} "
                     f"{total_ns / 1e3 / n_ops:16.1f} {bits:9}")
    return "\n".join(lines)


def per_layer_metrics(totals, setup_totals, n_ops, run_max_bits, overhead_pct, speed):
    """Every PER_LAYER metric, as name -> (value, unit), from the loop's and
    the set-up's span totals.  Times are scaled by speed to the reference
    speed of the machine, as the end-to-end times are.  A function the
    workload never calls reads 0."""
    values = {}
    for name, unit in PER_LAYER:
        owner, _, kind = name.rpartition(".")
        if name == "output.run_max_bits":
            values[name] = run_max_bits
        elif name == "trace.overhead_pct":
            values[name] = overhead_pct
        elif name == "trace.machine_speed":
            values[name] = speed
        elif kind in ("self_us", "total_us"):
            t = setup_totals.get(owner, [0, 0, 0, 0])
            values[name] = t[1 if kind == "self_us" else 2] / 1e3 * speed
        elif owner in MODULES:
            values[name] = sum(t[1] for fn, t in totals.items() if fn.startswith(owner + ".")) / 1e3 / n_ops * speed
        else:
            t = totals.get(owner, [0, 0, 0, 0])
            values[name] = {"calls_per_op": t[0] / n_ops, "self_us_per_op": t[1] / 1e3 / n_ops * speed,
                            "max_entry_bits": t[3]}[kind]
        values[name] = (values[name], unit)
    return values
