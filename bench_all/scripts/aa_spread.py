#!/usr/bin/env python3
"""A/A check of bench_all, the way the benchmark is accepted.

Runs BENCHMARK.json's command ten times per workload, each time with another
--seed, and prints for every end-to-end metric the distance between the first
and third quartile of the ten values (statistics.quantiles, n=4) as a share of
their median, beside the metric's bound. With --sets 2 it does so twice and
also checks that the second median is not worse than the first by more than
the bound.

    python3 bench_all/scripts/aa_spread.py [--sets N] [--workload NAME]...
                                           [--seeds A-B] [--bin PATH]

Run it from the repository root. --bin runs an already built bench_all binary
instead of going through cargo (same program, no rebuild check per run).
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--bin")
    ap.add_argument("--out", help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else spec["command"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {}
    bad = False
    for workload in workloads:
        medians = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            started = time.time()
            for seed in seeds:
                # Another seed per run, and per set, as the driver may do.
                out = subprocess.run(
                    command
                    + ["--workload", workload, "--seed", str(seed + 1000 * s),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    capture_output=True, text=True)
                if out.returncode != 0:
                    sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                line = json.loads(out.stdout.strip().splitlines()[-1])
                assert line["correct"] and line["failed"] == 0, line
                for name, metric in line["metrics"].items():
                    values[name].append(metric["value"])
            runs[f"{workload}/{s}"] = values
            per_run = (time.time() - started) / len(seeds)
            print(f"== {workload} set {s + 1}: {len(seeds)} runs, {per_run:.1f} s each")
            row = {}
            for m in spec["end_to_end"]:
                v = values[m["name"]]
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                row[m["name"]] = med
                limit = m["bound"]
                flag = "" if spread <= limit / 3 else ("  > bound/3" if spread <= limit else "  > BOUND")
                if m["name"] != "setup_s" and spread > limit:
                    bad = True
                print(f"   {m['name']:<18} median {med:>14.4f} {m['unit']:<5} "
                      f"spread {100 * spread:6.2f}%  bound {100 * limit:3.0f}%{flag}")
            medians.append(row)
        if len(medians) > 1:
            for m in spec["end_to_end"]:
                a, b = medians[0][m["name"]], medians[-1][m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "" if worse <= m["bound"] else "  WORSE THAN BOUND"
                bad |= worse > m["bound"]
                print(f"   {m['name']:<18} second median vs first: {100 * worse:+6.2f}% worse{flag}")
    if args.out:
        json.dump(runs, open(args.out, "w"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
