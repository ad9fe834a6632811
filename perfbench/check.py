#!/usr/bin/env python3
"""Correctness gate for the Odin benchmark.

Run from the repository root:

    python3 perfbench/check.py [--seed N]

Prints every metric of every workload by name with its unit and exits
nonzero when any of these fails:

  * paper_sweep's EDP ratios differ, at full precision, from the library
    path fig8_edp_all_dnns runs (and from perfbench/cpp/fig8_golden.inc),
    or from the figures the fig8_edp_all_dnns binary prints;
  * campaign_failover's same-seed replay or crash + resume is not
    byte-identical;
  * analog_mvm's batched predictions differ from per-image predictions;
  * any simulated metric differs between two runs of the same seed, one at
    ODIN_THREADS=1 (untraced) and one at ODIN_THREADS=2 (traced);
  * any other check a run makes fails.

Every workload except paper_sweep runs at smoke size; paper_sweep has no
smaller form, because its ratios are only checkable on the paper's zoo.
"""

import argparse
import re
import subprocess
import sys

import run

GOLDEN = run.HERE / "cpp" / "fig8_golden.inc"
errors = []


def expect(ok, what):
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        errors.append(what)


def golden():
    rows = {}
    for m in re.finditer(r'\{"([^"]+)", "([^"]+)", ([^}]+)\}',
                         GOLDEN.read_text()):
        rows.setdefault(m.group(1), {})[m.group(2)] = float.fromhex(m.group(3))
    return rows


def check_fig8(seed):
    ratios = golden()
    lines, parsed = run.run_binary("paper_sweep", seed, 1, 0, 2,
                                   extra=("--reference",))
    expect(all(ok for ok, _ in parsed["checks"]),
           "paper_sweep: instrumented walk equals fig8's library path")
    printed = [l[len("golden "):] for l in lines if l.startswith("golden ")]
    committed = [l for l in GOLDEN.read_text().splitlines()
                 if l.startswith("{")]
    expect(printed == committed,
           "paper_sweep: library path equals fig8_golden.inc bitwise")

    fig8 = subprocess.run([str(run.BUILD / "fig8_edp_all_dnns")],
                          capture_output=True, text=True,
                          env=run.bench_env(2), timeout=run.RUN_TIMEOUT_S)
    expect(fig8.returncode == 0, "fig8_edp_all_dnns runs")
    seen = 0
    for line in fig8.stdout.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 9 and cells[0] in ratios:
            r = ratios[cells[0]]
            seen += cells[7] == "%.3g" % r["16x16"] and \
                cells[8] == "%.3g" % min(r.values())
    expect(seen == len(ratios),
           "fig8_edp_all_dnns prints the golden Odin-vs-baseline ratios")
    best = max(max(r.values()) for r in ratios.values())
    expect("max EDP reduction: %.2fx" % best in fig8.stdout,
           "fig8_edp_all_dnns headline equals the golden maximum")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run.build(("odin_perfbench", "fig8_edp_all_dnns"))
    check_fig8(args.seed)

    e2e, layer = run.declared()
    units = {**e2e, **layer}
    for workload in run.WORKLOADS:
        smoke = () if workload == "paper_sweep" else ("--smoke",)
        _, one = run.run_binary(workload, args.seed, 1, 0, 1, extra=smoke)
        _, two = run.run_binary(workload, args.seed, 1, 1, 2, extra=smoke)
        print(f"\n== {workload} (seed {args.seed})")
        for parsed in (one, two):
            for ok, what in parsed["checks"]:
                expect(ok, f"{workload}: {what}")
            run.assemble(parsed, 0 if parsed is one else 1)
        sims = lambda p: {n: v for n, (lvl, v, _) in p["metrics"].items()
                          if lvl == "sim"}
        expect(sims(one) == sims(two) and sims(one),
               f"{workload}: simulated metrics equal at ODIN_THREADS=1 and 2")
        merged = {**two["metrics"], **one["metrics"]}
        for name in sorted(merged, key=lambda n: (merged[n][0], n)):
            level, value, unit = merged[name]
            print(f"  {level:5} {name:32} {value:<24.17g} {units[name]}")

    print(f"\n{len(errors)} check(s) failed" if errors else "\nall checks passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
