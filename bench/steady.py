"""Steadiness check: repeat workloads over seeds 1..runs, each run as long
as BENCHMARK.json sets, and report the run-to-run spread of every
end-to-end metric.

    python3 bench/steady.py --runs 10                 # every workload
    python3 bench/steady.py --runs 5 --workload averaging

The spread of a metric is the distance between the first and third
quartiles of its values (statistics.quantiles, n=4) as a share of their
median.  A metric is flagged when its spread exceeds a third of the bound
set in BENCHMARK.json.  Runs go one after another, each in its own
process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workload or names:
        values, shares = {name: [] for name in bounds}, set()
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stderr}")
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = summary[workload] = {}
        for name, bound in bounds.items():
            s = spread(values[name])
            flagged = s > bound / 3
            rows[name] = {"median": statistics.median(values[name]), "spread": s, "bound": bound,
                          "flagged": flagged, "values": values[name]}
            print(f"{workload:14} {name:16} median {rows[name]['median']:12.5g}  "
                  f"spread {s:7.4f}  bound {bound:5.2f}{'  FLAGGED' if flagged else ''}")
        print(f"{workload:14} failed share {sorted(shares)}", flush=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
