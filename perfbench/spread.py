#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark command of BENCHMARK.json --runs times on one workload,
each with another seed, and prints per end-to-end metric the median and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, beside the metric's bound. The host-speed probe's
median per run is shown as well, so a slow run can be traced to the host.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=run.ROOT)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        probe = next((l.split()[2] for l in lines
                      if l.startswith("probe median")), "?")
        shown = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} probe={probe} {shown}",
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:14} median {med:<14.6g} spread {(q3 - q1) / med:.4f}"
              f" bound {m['bound']}")


if __name__ == "__main__":
    main()
