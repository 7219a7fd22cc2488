#!/usr/bin/env python3
"""Measures the benchmark's noise floor and records the baseline.

Runs every workload of BENCHMARK.json `--runs` times through its `command`,
each time with another seed, and for each end-to-end metric takes the
distance between the first and third quartile of the values
(`statistics.quantiles(values, n=4)`) as a share of their median — the
spread the driver gates on. With `--sets 2` it does that twice and also
reports how far the second median is from the first, in the metric's worse
direction. One traced run per workload records the per-layer baseline.

    python3 benchmark/noise_floor.py [--runs 10] [--sets 2] [--out benchmark/BASELINE.json]

Run it from the repo root on an otherwise idle machine. It changes nothing
but the output file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds, trace):
    """One benchmark run; returns (metrics, provenance line, wall seconds)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(argv)} failed its checks:\n{done.stdout}")
    provenance = next((l for l in lines if l.startswith("provenance:")), "")
    return {k: v["value"] for k, v in result["metrics"].items()}, provenance, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload and set")
    parser.add_argument("--sets", type=int, default=2, help="how many times the runs are repeated")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="benchmark/BASELINE.json")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    baseline = {"runs_per_set": args.runs, "sets": args.sets, "run_seconds": seconds,
                "provenance": None, "workloads": {}}
    worst = 0.0
    for w in (w["name"] for w in bench["workloads"]):
        sets, walls = [], []
        for s in range(args.sets):
            values = {name: [] for name in metrics}
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                got, provenance, wall = run(command, w, seed, seconds, 0)
                walls.append(wall)
                baseline["provenance"] = baseline["provenance"] or provenance
                for name in metrics:
                    values[name].append(got[name])
            sets.append(values)
        traced, _, traced_wall = run(command, w, args.first_seed, seconds, 1)
        entry = {"timed_run_wall_s": statistics.median(walls), "traced_run_wall_s": traced_wall,
                 "end_to_end": {}, "per_layer": traced}
        for name, m in metrics.items():
            medians = [statistics.median(v[name]) for v in sets]
            spreads = [spread(v[name]) for v in sets] if args.runs >= 2 else []
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = max((sign * (later - medians[0]) / medians[0] for later in medians[1:]), default=0.0)
            entry["end_to_end"][name] = {"unit": m["unit"], "bound": m["bound"], "medians": medians,
                                         "spreads": spreads, "worsening_of_later_sets": drift,
                                         "values": [v[name] for v in sets]}
            if name != "setup_s":
                worst = max([worst] + [s / m["bound"] for s in spreads])
            worst = max(worst, drift / m["bound"])
            print(f"{w:<24} {name:<14} median {medians[0]:>12.4f} {m['unit']:<6} "
                  f"spreads {[round(s, 4) for s in spreads]} drift {drift:+.4f} bound {m['bound']}")
        baseline["workloads"][w] = entry

    with open(args.out, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}; worst spread or drift is {worst:.2f} of its bound "
          f"(aim for under a third)")


if __name__ == "__main__":
    main()
