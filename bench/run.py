"""fmlattice benchmark: one workload per process, closed loop, one thread.

    python3 bench/run.py --workload averaging --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: fmlattice is imported from
./src and nowhere else.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md next to this file).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import harness
import refarith as R
import tracing
import wl_averaging
import wl_cli
import wl_integer
import wl_transport

WORKLOADS = {
    "cli_session": wl_cli,
    "averaging": wl_averaging,
    "transport": wl_transport,
    "integer_solve": wl_integer,
}
COLD_STARTS = 30

# Times are reported at a fixed reference speed of the machine.  The shared
# machine this benchmark was written on drifts by tens of percent within
# minutes, far beyond any bound worth setting, and a fixed piece of
# pure-Python exact arithmetic that does not touch fmlattice slows down
# with it.  That kernel is timed about every CALIBRATION_PERIOD_S seconds
# between operations; every time is scaled by REFERENCE_CALIBRATION_NS over
# the loop's median kernel time.  Cold starts are spread over the same loop,
# so that the samples that scale them cover the same stretch of time.
CALIBRATION_MATRIX = [
    [3, 4, -8, -1, 7, 6, 3, 0], [6, 2, 9, -3, 7, -5, 0, -5], [-6, -1, 8, -5, 0, -6, -7, 1],
    [6, 8, -6, 2, 4, 1, -3, 8], [6, 5, 7, -1, -8, 8, -9, -7], [3, -9, 6, 1, -2, 1, -7, -3],
    [9, -2, -2, -5, 8, 5, -7, -7], [1, 7, 6, -6, 0, 8, 0, -6],
]
REFERENCE_CALIBRATION_NS = 5_000_000
CALIBRATION_PERIOD_S = 0.25
COLD_START = """
import sys, time
import fmlattice.cli
from fmlattice.catalog import builtin_catalog
from fmlattice.defsio import load_definitions
catalog = builtin_catalog()
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        catalog = catalog.extend(load_definitions(f.read(), registry=catalog.registry()))
print(time.monotonic_ns())
"""


class Calibration:
    """Timings of the fixed kernel taken during one run."""

    def __init__(self):
        self.samples_ns = []
        self._next = 0.0

    def sample(self):
        if time.monotonic() >= self._next:
            start = time.perf_counter_ns()
            R.inverse(CALIBRATION_MATRIX)
            R.det(CALIBRATION_MATRIX)
            self.samples_ns.append(time.perf_counter_ns() - start)
            self._next = time.monotonic() + CALIBRATION_PERIOD_S

    def speed(self):
        """How much faster than the reference the machine ran (below 1: slower)."""
        return REFERENCE_CALIBRATION_NS / statistics.median(self.samples_ns)


class Loop:
    """Closed loop over whole rounds of the same operations."""

    def __init__(self):
        self.calibration = Calibration()
        self.latencies_ns = []
        self.bits = []
        self.attempted = 0
        self.failed = 0
        self.failures = []  # operations that raised
        self.wrong = []     # answers the checks refute

    def run(self, ops, seconds, after_op):
        deadline = time.monotonic() + seconds
        while True:
            for op in ops:
                self.step(op)
                after_op()
            if time.monotonic() >= deadline:
                return self

    def step(self, op, tracer=None):
        """Time one operation, with tracer installed around the call alone,
        and check its result."""
        self.calibration.sample()
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        start = time.perf_counter_ns()
        try:
            result = op.call()
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            _note(self.failures, f"{op.kind} raised:\n{traceback.format_exc()}")
            return
        finally:
            end = time.perf_counter_ns()
            if tracer is not None:
                tracer.uninstall()
                tracer.fold()
        self.latencies_ns.append(end - start)
        try:
            self.bits.append(op.check(result))
        except Exception as exc:  # a wrong answer, or a check that cannot read it
            _note(self.wrong, f"{op.kind}: {type(exc).__name__}: {exc}")

    def mean_ns(self):
        return statistics.fmean(self.latencies_ns)


class ColdStarts:
    """COLD_STARTS cold starts, one every seconds / COLD_STARTS of the loop
    they are sampled from.  Taken together before the loop, they were
    scaled by kernel samples of a later stretch of time, and their median
    spread by up to 0.24 between seeds."""

    def __init__(self, defs, seconds):
        self.defs = defs
        self.period = seconds / COLD_STARTS
        self.seconds = []
        self._next = time.monotonic()

    def sample(self):
        if len(self.seconds) < COLD_STARTS and time.monotonic() >= self._next:
            self.seconds.append(cold_start_seconds(self.defs))
            self._next += self.period

    def median(self):
        while len(self.seconds) < COLD_STARTS:
            self.seconds.append(cold_start_seconds(self.defs))
        return statistics.median(self.seconds)


def _note(messages, message):
    if len(messages) < 5:
        messages.append(message)


def cold_start_seconds(defs):
    """Fresh interpreter to ready: import fmlattice.cli, load the built-in
    catalog, parse the workload's definitions.  Bytecode caching is on, as
    for an installed package, so only the first cold start in a checkout
    compiles the sources."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(harness.SRC), env.get("PYTHONPATH")]))
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", COLD_START, *map(str, defs)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return (int(proc.stdout.split()[-1]) - start) / 1e9


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def end_to_end_metrics(loop, setup_s, speed):
    """Times at the reference speed: each raw time multiplied by speed.
    ops_per_s counts only the time inside operations, so the checks and
    the kernel samples between them do not dilute it."""
    lat = sorted(loop.latencies_ns)
    return {
        "setup_s": (setup_s * speed, "s"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e9) / speed, "ops/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6 * speed, "ms"),
        "op_p90_ms": (percentile(lat, 0.9) / 1e6 * speed, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "output_max_bits": (statistics.fmean(loop.bits), "bits"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        fm = harness.load_program()
    except (harness.ProgramMissing, ImportError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    problems = R.self_check()
    if problems:
        print("bench: the reference arithmetic fails its own checks: " + "; ".join(problems),
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    catalog = harness.load_catalog(fm, workload.DEFS)
    setup_totals = {}
    if tracer:
        setup_totals = tracer.take()
        tracer.uninstall()
    mismatches = harness.cross_check(catalog)
    ops, final_check = workload.build(fm, catalog, random.Random(f"{args.workload}:{args.seed}"))

    if not tracer:
        cold = ColdStarts(workload.DEFS, args.seconds)
        loop = Loop().run(ops, args.seconds, after_op=cold.sample)
        setup_s = cold.median()
        speed = loop.calibration.speed()
        metrics = end_to_end_metrics(loop, setup_s, speed)
        raw = end_to_end_metrics(loop, setup_s, 1.0)
        print(f"bench: machine speed {speed:.3f} of the reference; raw figures "
              + ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items()), file=sys.stderr)
        loops = [loop]
    else:
        # Each operation runs once untraced and once traced, one right after
        # the other, so that the machine's drift falls on both alike.  Which
        # goes first alternates, so that a cache the first call warms
        # favours neither.
        plain, traced = Loop(), Loop()
        pair = ((plain, None), (traced, tracer))
        deadline = time.monotonic() + args.seconds
        while True:
            for i, op in enumerate(ops):
                for loop, op_tracer in pair if i % 2 else pair[::-1]:
                    loop.step(op, op_tracer)
            if time.monotonic() >= deadline:
                break
        overhead = 100 * (traced.mean_ns() / plain.mean_ns() - 1)
        totals = tracer.take()
        speed = traced.calibration.speed()
        metrics = tracing.per_layer_metrics(totals, setup_totals, len(traced.latencies_ns),
                                            max(traced.bits, default=0), overhead, speed)
        print(tracing.span_table(totals, len(traced.latencies_ns)), file=sys.stderr)
        loops = [plain, traced]
        print(f"bench: tracing overhead {overhead:.1f}% on the mean operation time "
              f"({plain.mean_ns() / 1e3:.1f} us untraced, {traced.mean_ns() / 1e3:.1f} us traced)",
              file=sys.stderr)

    wrong = [message for loop in loops for message in loop.wrong]
    if final_check is not None:
        try:
            final_check()
        except Exception as exc:  # a wrong answer, or the replay itself failing
            wrong.append(f"{type(exc).__name__}: {exc}")
    for message in mismatches + wrong + [m for loop in loops for m in loop.failures]:
        print(f"bench: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not mismatches and not wrong,
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
