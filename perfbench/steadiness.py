#!/usr/bin/env python3
"""Measure how steady the benchmark is: run workloads on several seeds,
in one or more sets, and report per end-to-end metric the median and the
interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
BENCHMARK.json. With two or more sets it also reports how far each later
set's median moved from the first set's, in the metric's worse direction.

    python3 perfbench/steadiness.py --workloads A,B,... [--seeds 1,2,...]
                                    [--sets N] [--seconds S] [--json OUT]

Run from the repository root. Each run is a separate invocation of the
benchmark command from BENCHMARK.json, exactly as the benchmark is run
for real. Runs are interleaved so that a slow period of the host shows
up as a time effect rather than a seed effect: within a set every seed
runs each workload before the next seed starts, and every other set
takes the seeds in reverse order with the workloads reversed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def host():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    mem_gib = None
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
            mem_gib = round(kb / 2**20, 1)
    except (OSError, StopIteration):
        pass
    return {"cpus": os.cpu_count(), "cpu": cpu, "mem_gib": mem_gib,
            "system": platform.system(), "release": platform.release()}


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        sys.exit(f"{workload} seed {seed}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed: {last}\n{out.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else 0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]

    began = time.time()
    sets = []
    for k in range(args.sets):
        order = [(seed, wl)
                 for seed in (seeds if k % 2 == 0 else seeds[::-1])
                 for wl in (workloads if k % 2 == 0 else workloads[::-1])]
        runs = []
        for seed, wl in order:
            at = round(time.time() - began, 1)
            values = run_once(bench["command"], wl, seed, seconds)
            runs.append({"workload": wl, "seed": seed, "started_s": at, "metrics": values})
            print(f"set {k + 1}: {wl} seed {seed} ok at {at:.0f} s", file=sys.stderr)
        summary = {}
        for wl in workloads:
            mine = sorted((r for r in runs if r["workload"] == wl), key=lambda r: r["seed"])
            summary[wl] = {}
            for name in sorted(metrics):
                vs = [r["metrics"][name] for r in mine]
                med, share = spread(vs)
                summary[wl][name] = {"median": med, "iqr_share": round(share, 4),
                                     "bound": metrics[name]["bound"],
                                     "values_by_seed": vs}
        sets.append({"seed_order": [s for s, _ in order[::len(workloads)]],
                     "runs": runs, "workloads": summary})

    # Each later set's median against the first's, signed so that
    # positive is worse (with more than two sets, the last one is kept).
    drift = {}
    for k in range(1, len(sets)):
        for wl in workloads:
            for name, m in metrics.items():
                a = sets[0]["workloads"][wl][name]["median"]
                b = sets[k]["workloads"][wl][name]["median"]
                change = (b - a) / a if a else 0.0
                if m["better"] == "higher":
                    change = -change
                drift.setdefault(wl, {})[name] = round(change, 4)

    for wl in workloads:
        print(wl)
        for name in sorted(metrics):
            bound = metrics[name]["bound"]
            cols = []
            for s in sets:
                e = s["workloads"][wl][name]
                flag = "*" if name != "setup_s" and e["iqr_share"] > bound / 3 else " "
                cols.append(f"median {e['median']:>14.6g}  iqr/median {e['iqr_share']:6.4f}{flag}")
            worse = f"  last vs 1st {drift[wl][name]:+.4f}" if drift else ""
            print(f"  {name:<18} bound {bound:<5} " + " | ".join(cols) + worse)
    print("(* spread above a third of the bound)")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"host": host(), "command": bench["command"], "seconds": seconds,
                       "workloads": workloads, "seeds": seeds,
                       "method": __doc__.strip().split("\n\n")[-1].replace("\n", " "),
                       "sets": sets, "later_set_worse_by": drift}, f, indent=1)


if __name__ == "__main__":
    main()
