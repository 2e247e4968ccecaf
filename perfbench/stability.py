#!/usr/bin/env python3
"""Run each workload N times, interleaved, and report the spread of every
end-to-end metric: median, quartiles, inter-quartile range and largest
deviation, each as a share of the median, against the bounds in
BENCHMARK.json.

    python3 perfbench/stability.py [--runs 10] [--sets 1|2]

Round i (from 0) runs every workload of BENCHMARK.json for its run_seconds
with seed i + 1; the workload order rotates from one round to the next.
With --sets 2 every round runs each workload twice (the two sets alternate
which goes first), and the report adds each set's median and how far the
second is worse than the first. Exits 1 when a spread or a set-to-set
difference exceeds its bound, or when the failed share differs between sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, med, med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    worst = max(abs(v - med) for v in values)
    return med, q1, q3, (q3 - q1) / med, worst / med


def worse_share(first, second, better):
    """How far `second` is worse than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    delta = (second - first) / first
    return delta if better == "lower" else -delta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {(w, s): [] for w in workloads for s in range(args.sets)}
    for i in range(args.runs):
        seed = i + 1
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        sets = list(range(args.sets)) if i % 2 == 0 else list(reversed(range(args.sets)))
        for w in order:
            for s in sets:
                r = run_once(w, seed, seconds)
                results[(w, s)].append(r)
                print(f"run {i + 1}/{args.runs} set {s + 1} {w} seed {seed}: "
                      f"{r['attempted']} attempted, {r['failed']} failed, correct {r['correct']}",
                      file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"\n{w} ({args.runs} runs, {seconds} s each)")
        print(f"  {'metric':<26}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'maxdev':>9}{'bound':>7}")
        medians = []
        for s in range(args.sets):
            rs = results[(w, s)]
            if not all(r["correct"] for r in rs):
                ok = False
                print(f"  set {s + 1}: a run reported wrong outputs")
            medians.append({})
            for name in rs[0]["metrics"]:
                vals = [r["metrics"][name]["value"] for r in rs]
                med, q1, q3, iqr, dev = spread(vals)
                medians[s][name] = med
                bound = metrics[name]["bound"]
                flag = ""
                if iqr > bound:
                    ok, flag = False, "  SPREAD > BOUND"
                print(f"  {name:<26}{s + 1:>4}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{iqr:>9.4f}{dev:>9.4f}{bound:>7.2f}{flag}")
        failed = [(sum(r["failed"] for r in results[(w, s)]),
                   sum(r["attempted"] for r in results[(w, s)])) for s in range(args.sets)]
        print("  failed / attempted per set: " + ", ".join(f"{f} / {a}" for f, a in failed))
        if len({f / a for f, a in failed}) > 1:
            ok = False
        if args.sets == 2:
            for name, first in medians[0].items():
                m = metrics[name]
                worse = worse_share(first, medians[1][name], m["better"])
                flag = "  WORSE > BOUND" if worse > m["bound"] else ""
                if flag:
                    ok = False
                print(f"  {name:<26} set 2 worse than set 1 by {worse:+.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
