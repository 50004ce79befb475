"""Run two sets of benchmark runs of the same code and report whether they agree.

    python3 perfbench/compare.py --runs 5
    python3 perfbench/compare.py --runs 10 --workloads desk-sweep

Set A runs seeds 1..N and set B seeds N+1..2N, alternating A and B so that a
drift in machine load falls on both.  For every workload and end-to-end
metric of BENCHMARK.json it prints the median, the quartiles and the spread
(quartile distance over median) of each set and of both pooled, and whether
the sets agree: each set's spread within the metric's bound (setup_s
excepted), set B's median no worse than set A's by more than the bound, and
the same share of failed operations.  Exits 1 if anything disagrees.  The
raw results go to .perfbench-out/compare.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative when better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results, ok = {}, True
    for workload in names:
        sets = {"A": [], "B": []}
        for k in range(args.runs):
            pair = [("A", 1 + k), ("B", 1 + args.runs + k)]
            for label, seed in (pair if k % 2 == 0 else pair[::-1]):
                out = run_once(spec, workload, seed)
                sets[label].append(out)
                print(f"{workload} set {label} seed {seed}: correct {out['correct']}, "
                      f"{out['failed']}/{out['attempted']} failed", file=sys.stderr, flush=True)
        results[workload] = sets
        shares = {label: [r["failed"] / r["attempted"] for r in runs]
                  for label, runs in sets.items()}
        same_failed = len(set(shares["A"] + shares["B"])) == 1
        all_correct = all(r["correct"] for runs in sets.values() for r in runs)
        ok &= same_failed and all_correct
        print(f"\n{workload}: all correct {all_correct}, failed share "
              f"{'equal' if same_failed else 'DIFFERS'} ({shares['A'][0]:.4g})")
        print(f"  {'metric':28} {'bound':>6} {'A median':>12} {'A spread':>9} "
              f"{'B median':>12} {'B spread':>9} {'pooled':>7} {'B worse':>8}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = {label: summary([r["metrics"][name]["value"] for r in runs])
                     for label, runs in sets.items()}
            pooled = summary([r["metrics"][name]["value"]
                              for runs in sets.values() for r in runs])
            worse = worse_by(metric, stats["A"]["median"], stats["B"]["median"])
            steady = name == "setup_s" or all(s["spread"] <= bound for s in stats.values())
            agree = steady and worse <= bound
            ok &= agree
            print(f"  {name:28} {bound:6.3f} {stats['A']['median']:12.6g} "
                  f"{stats['A']['spread']:9.4f} {stats['B']['median']:12.6g} "
                  f"{stats['B']['spread']:9.4f} {pooled['spread']:7.4f} {worse:8.4f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    os.makedirs(os.path.join(ROOT, ".perfbench-out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench-out", "compare.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"\n{'all sets agree' if ok else 'sets DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
