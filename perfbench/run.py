#!/usr/bin/env python3
"""Odin benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --threads 2 --workload NAME --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (the Odin libraries plus the benchmark binary) in
.bench_build/perfbench on first use, runs one workload with ODIN_THREADS
fixed and every other ODIN_* variable removed, passes the binary's
`metric`/`check`/`probe` lines through, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones; a per-layer metric of a layer the workload does not
exercise reads 0. The traced run also writes its spans as Chrome trace
events to .bench_build/perfbench/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "odin_perfbench"
WORKLOADS = ("paper_sweep", "fleet_serve", "campaign_failover", "analog_mvm")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(targets=("odin_perfbench",)):
    """Configure (once) and build; the build log goes to BUILD/build.log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                      *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def bench_env(threads):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ODIN_")}
    env["ODIN_THREADS"] = str(threads)
    return env


def run_binary(workload, seed, seconds, trace, threads, extra=()):
    """Run the binary once; returns (stdout lines, parsed dict)."""
    work = BUILD / "work"
    traces = BUILD / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work),
           "--trace-out", str(traces / f"{workload}-seed{seed}.json"),
           *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=bench_env(threads), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} exited with {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines(), parse(proc.stdout.splitlines())


def parse(lines):
    out = {"metrics": {}, "checks": [], "result": None}
    for line in lines:
        f = line.split()
        if f[:1] == ["metric"] and len(f) == 5:
            out["metrics"][f[2]] = (f[1], float(f[3]), f[4])
        elif f[:1] == ["check"]:
            out["checks"].append((f[1] == "ok", " ".join(f[2:])))
        elif f[:1] == ["result"] and len(f) == 4:
            out["result"] = (f[1] == "1", int(f[2]), int(f[3]))
    if out["result"] is None:
        fail("the benchmark binary printed no result line")
    return out


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def assemble(parsed, trace):
    """The result object for one run, holding exactly the declared metrics
    of the run's level."""
    e2e, layer = declared()
    metrics = {}
    for name, (level, value, unit) in parsed["metrics"].items():
        want = e2e if level == "e2e" else layer
        if name not in want:
            fail(f"metric {name} ({level}) is not declared in BENCHMARK.json")
        if want[name] != unit:
            fail(f"metric {name} has unit {unit}, declared {want[name]}")
        if (level == "e2e") == (trace == 0):
            metrics[name] = {"value": value, "unit": unit}
    if trace == 0:
        missing = sorted(set(e2e) - set(metrics))
        if missing:
            fail(f"end-to-end metrics not measured: {missing}")
    else:
        for name, unit in layer.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    correct, attempted, failed = parsed["result"]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        fail("--seed must be >= 0, --seconds > 0 and --threads >= 1")
    build()
    lines, parsed = run_binary(args.workload, args.seed, args.seconds,
                               args.trace, args.threads)
    for line in lines:
        if not line.startswith("result "):
            print(line)
    print(json.dumps(assemble(parsed, args.trace)))


if __name__ == "__main__":
    main()
