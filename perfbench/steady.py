#!/usr/bin/env python3
"""Steadiness check: two sets of runs of unchanged code, spread against bounds.

Runs the benchmark command from BENCHMARK.json once per (set, workload,
seed) with --trace 0, then prints for every end-to-end metric of every
workload:

* each set's median and the spread of its runs: the distance between the
  first and third quartile (statistics.quantiles(values, n=4)) as a share
  of the median;
* how far the second set's median moved from the first, in the metric's
  worse direction, as a share of the first median.

Every metric, setup_s included, must keep both its spreads and its move
within its bound, and the share of failed verdicts must be identical in
the two sets. Exits 1 if any check fails.

Usage, from the repository root:

    python3 perfbench/steady.py [--seeds 10] [--workloads a,b] [--seconds S]

Set 1 uses seeds 1..N and set 2 seeds N+1..2N. Before set 1, one run per
workload with seed 0 is made and discarded: on a machine that was idle,
the first minutes of load ran up to a third faster than the rest, which
would otherwise show as spread in set 1. Raw results go to
perfbench/out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    if args.seeds < 2:
        sys.exit("--seeds must be at least 2: a spread needs two runs")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]

    for w in workloads:
        r = run_once(command, w, 0, seconds)
        print(f"warm-up {w} seed 0: {r['wall_s']:.1f} s wall (discarded)", flush=True)
    runs = {}  # (set, workload) -> [result]
    for s in range(SETS):
        for w in workloads:
            for seed in range(s * args.seeds + 1, (s + 1) * args.seeds + 1):
                r = run_once(command, w, seed, seconds)
                runs.setdefault((s, w), []).append(r)
                print(f"set {s + 1} {w} seed {seed}: {r['attempted']} attempted, "
                      f"{r['failed']} failed, {r['wall_s']:.1f} s wall", flush=True)

    os.makedirs("perfbench/out", exist_ok=True)
    with open("perfbench/out/steady.json", "w") as f:
        json.dump({f"{s}/{w}": rs for (s, w), rs in runs.items()}, f, indent=1)

    ok = True
    print()
    print(f"{'workload':<20} {'metric':<16} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}"
                     for s in range(SETS))
          + f" {'moved':>7}")
    for w in workloads:
        shares = [sum(r["failed"] for r in runs[(s, w)])
                  / sum(r["attempted"] for r in runs[(s, w)]) for s in range(SETS)]
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share differs between sets: {shares}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, medians = [], []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in runs[(s, w)]]
                med, spr = spread(values)
                medians.append(med)
                flag = "" if spr <= bound else "!"
                ok &= flag == ""
                cells.append(f"{med:>12.4f} {spr:>7.3f}{flag or ' '}")
            sign = 1 if m["better"] == "lower" else -1
            moved = sign * (medians[1] - medians[0]) / medians[0]
            flag = "" if moved <= bound else "!"
            ok &= flag == ""
            print(f"{w:<20} {name:<16} {bound:>6.3f} " + " ".join(cells)
                  + f" {moved:>6.3f}{flag}")
    print()
    print("steady" if ok else "NOT steady (marked !)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
