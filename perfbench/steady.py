#!/usr/bin/env python3
"""Steadiness check for the benchmark described by BENCHMARK.json.

Runs two sets of runs of every workload (each run with its own seed),
prints each end-to-end metric's median and quartiles per set, and says
whether the two sets agree within the bounds BENCHMARK.json fixes:

* each metric's spread -- the distance between the first and third
  quartile as a share of the median -- stays within its bound in both
  sets (setup_s excepted);
* no metric's second-set median differs from the first set's, in
  either direction, by more than its bound;
* the share of failed operations is exactly the same in every run.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]

Every run lasts BENCHMARK.json's run_seconds.

Exits 0 when the sets agree, 1 when they do not, 2 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"run failed: {workload} seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"outputs incorrect: {workload} seed {seed}")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0
    return statistics.median(values), q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--workloads", help="comma-separated subset of the workloads")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    sets = []
    for s in range(2):
        per_workload = {}
        for w in workloads:
            results = []
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i
                r = run_once(spec, w, seed)
                results.append(r)
                print(f"set {s + 1} {w} seed {seed}: failed {r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                      flush=True)
            per_workload[w] = results
        sets.append(per_workload)

    ok = True
    for w in workloads:
        print(f"\n{w}")
        shares = {Fraction(r["failed"], r["attempted"]) for st in sets for r in st[w]}
        if len(shares) != 1:
            ok = False
            print(f"  FAIL failed share differs between runs: {sorted(map(float, shares))}")
        else:
            print(f"  failed share {float(shares.pop()):.6f} in every run")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            row = []
            medians = []
            for s, st in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in st[w]]
                med, q1, q3, spread = summary(vals)
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    ok = False
                    flag = " FAIL"
                row.append(f"set{s + 1} median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] "
                           f"spread {spread:.3f}{flag}")
            change = (medians[1] - medians[0]) / medians[0]
            verdict = f" | set2 vs set1 {change:+.3f}"
            if abs(change) > bound:
                ok = False
                verdict += " FAIL"
            print(f"  {name:<24} bound {bound:<5} " + " | ".join(row) + verdict)
    print("\nagree within bounds" if ok else "\nDO NOT agree within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
