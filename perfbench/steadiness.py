#!/usr/bin/env python3
"""Runs every workload repeatedly and prints how much each end-to-end
metric moves between runs. Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--seed 1] \
        [--workloads paper_suite,serve_rw] [--seconds S]

Run i uses seed --seed + i, so the spread includes the change of inputs a
new seed brings. Each round runs the workloads in order, the next round in
reverse order, so drift in the machine does not land on one workload only.
For each (workload, metric) it prints the median, the quartiles (as
statistics.quantiles(n=4) gives them), the quartile spread (q3 - q1) as a
share of the median, the (max - min) spread likewise, and the metric's bound
from BENCHMARK.json. A quartile spread above a third of the bound is marked
'!': the benchmark is not steady enough to detect a regression of that size.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    failures = 0
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            res = run_once(w, args.seed + i, args.seconds)
            failures += res["failed"]
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i + 1}/{args.runs} {w} seed={args.seed + i} "
                  f"correct={res['correct']} " + " ".join(
                      f"{k}={m['value']:.4g}"
                      for k, m in res["metrics"].items()),
                  file=sys.stderr, flush=True)

    print(f"{'workload':<18} {'metric':<20} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
    for w in workloads:
        for name, xs in values[w].items():
            med, q1, q3, iqr = stats.spread(xs)
            rng = stats.ratio(max(xs) - min(xs), abs(med))
            bound = bounds.get(name, 0)
            flag = " !" if iqr > bound / 3 else ""
            print(f"{w:<18} {name:<20} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{iqr:>8.4f} {rng:>8.4f} {bound:>6}{flag}")
    if failures:
        print(f"{failures} queries failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
