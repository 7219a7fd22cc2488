#!/usr/bin/env bash
# Paired A/B timing of the end-to-end benchmark: another checkout ("other")
# against the checkout this script lives in ("this").
#
#   scripts/ab.sh <other-checkout> [--pairs K] [--seconds S] [workload…]
#
# Each tree's own benchmark (benchmark/run.sh) is built once into its own
# target directory under this checkout's .bench_build/ab/, outside both
# benchmark/ directories, so neither tree's benchmark/target is touched.
# Then K pairs of timed runs (`--trace 0`) per workload, in ABBA order
# across pairs (other-this, this-other, …); both runs of a pair use one
# seed and every pair gets a new one. A run whose result line says
# `correct: false` or `failed > 0`, or that prints no result line, is
# rejected, with its pair.
#
# It prints one markdown table per end-to-end metric BENCHMARK.json
# declares, in its order, with one row per workload: each side's median and
# quartiles; the median of the paired ratios this / other with a bootstrap
# 95 % interval; the pairs this checkout won, by the metric's declared
# `better` direction, and the one-sided sign-test p of that count. A last
# table gives each side's median user+sys CPU seconds of the run's child
# processes, a steadier second reading on a host whose wall clock drifts.
#
# Defaults: K = 10, S = BENCHMARK.json's run_seconds, every workload
# BENCHMARK.json declares. Exits non-zero if any run was rejected or any
# declared metric has no table (no valid pair's result lines carry it).
# Python 3 standard library only. Run it on an otherwise idle machine: both sides
# share whatever else the host is doing, but only in expectation.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
exec python3 - "$here" "$@" <<'PY'
import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys

FIRST_SEED = 101
BOOTSTRAP = 2000

this_tree = sys.argv[1]
with open(os.path.join(this_tree, "BENCHMARK.json")) as f:
    declared = json.load(f)
parser = argparse.ArgumentParser(prog="scripts/ab.sh")
parser.add_argument("other", help="the checkout to compare this one against")
parser.add_argument("--pairs", type=int, default=10, help="paired runs per workload")
parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                    help="measuring time of each run")
parser.add_argument("workloads", nargs="*", help="default: every declared workload")
args = parser.parse_intermixed_args(sys.argv[2:])
workloads = args.workloads or [w["name"] for w in declared["workloads"]]
metrics = declared["end_to_end"]
if args.pairs < 1:
    sys.exit("--pairs must be at least 1")
trees = {"other": os.path.abspath(args.other), "this": this_tree}
targets = {side: os.path.join(this_tree, ".bench_build", "ab", side) for side in trees}


def commit(tree):
    done = subprocess.run(["git", "-C", tree, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build(side):
    # The build benchmark/run.sh itself runs, so its own build is a no-op.
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(trees[side], "benchmark", "Cargo.toml"),
                    "--target-dir", targets[side]], check=True)


def run(side, workload, seed):
    """One timed run: ({metric: value}, child CPU seconds), or (None, why).
    A declared metric the result line lacks is left out of the dict."""
    argv = ["bash", os.path.join(trees[side], "benchmark", "run.sh"), "--workload", workload,
            "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=targets[side])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(argv, capture_output=True, text=True, env=env,
                          stdin=subprocess.DEVNULL, check=False)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {done.returncode}, no result line: {done.stderr.strip()[-300:]}"
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        return None, f"correct: {result.get('correct')}, failed: {result.get('failed')}"
    values = {m["name"]: result["metrics"][m["name"]]["value"]
              for m in metrics if m["name"] in result["metrics"]}
    return (values, cpu), None


def median_quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return statistics.median(xs), q1, q3


def bootstrap_interval(ratios):
    rng = random.Random(0)
    meds = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                  for _ in range(BOOTSTRAP))
    return meds[int(0.025 * BOOTSTRAP)], meds[int(0.975 * BOOTSTRAP) - 1]


def fmt(v):
    return f"{v:.0f}" if abs(v) >= 1e4 else f"{v:.4g}"


def sign_test(wins, losses):
    """One-sided p of at least `wins` successes in wins + losses fair tosses."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n if n else 1.0


for side in trees:
    print(f"{side}: {trees[side]} (commit {commit(trees[side])})", file=sys.stderr)
    build(side)

pairs = {w: [] for w in workloads}
rejected = 0
for i in range(args.pairs):
    seed = FIRST_SEED + i
    order = ("other", "this") if i % 2 == 0 else ("this", "other")
    for w in workloads:
        got = {}
        for side in order:
            got[side], why = run(side, w, seed)
            shown = (" ".join(f"{k} {v:g}" for k, v in got[side][0].items())
                     if got[side] else f"REJECTED ({why})")
            print(f"pair {i + 1}/{args.pairs} seed {seed} {w} {side}: {shown}",
                  file=sys.stderr, flush=True)
            rejected += got[side] is None
        if got["other"] and got["this"]:
            pairs[w].append((got["other"], got["this"]))

print(f"\nother = {trees['other']} ({commit(trees['other'])}), "
      f"this = {trees['this']} ({commit(trees['this'])}); "
      f"{args.pairs} ABBA pairs x {args.seconds:g} s")
untabled = []
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    rows = []
    for w, ps in pairs.items():
        vals = [(o[0][name], t[0][name]) for o, t in ps if name in o[0] and name in t[0]]
        if not vals:
            continue
        cols = []
        for k in (0, 1):
            med, q1, q3 = median_quartiles([v[k] for v in vals])
            cols.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}]")
        ratios = [t / o for o, t in vals]
        lo, hi = bootstrap_interval(ratios)
        wins = sum(t < o if lower else t > o for o, t in vals)
        losses = sum(t > o if lower else t < o for o, t in vals)
        rows.append(f"| `{w}` | {cols[0]} | {cols[1]} | {statistics.median(ratios):.3f} "
                    f"[{lo:.3f}, {hi:.3f}] | {wins}/{len(vals)} | {sign_test(wins, losses):.4f} |")
    if not rows:
        untabled.append(name)
        continue
    print(f"\n`{name}` in {m['unit']}, {m['better']} is better\n")
    print("| workload | other median [Q1, Q3] | this median [Q1, Q3] | this / other [95 % CI] "
          "| this won | sign p |")
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))

print("\nchild CPU seconds per run, median\n")
print("| workload | other | this |")
print("|---|---|---|")
for w, ps in pairs.items():
    if ps:
        cpu = [statistics.median(p[k][1] for p in ps) for k in (0, 1)]
        print(f"| `{w}` | {cpu[0]:.1f} | {cpu[1]:.1f} |")
failures = []
if rejected:
    failures.append(f"{rejected} run(s) rejected; their pairs are left out above")
if untabled:
    failures.append(f"no table for declared metric(s): {', '.join(untabled)}")
if failures:
    sys.exit("; ".join(failures))
PY
