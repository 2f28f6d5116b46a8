"""Steadiness check: two interleaved sets of runs of the same code.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workload bulk-flat ...]

Runs ``run.py`` ``--runs`` times per set and workload, alternating the
two sets, each run with its own seed (set A seeds 1.., set B 1001..).
Prints, per workload and end-to-end metric, each set's median and
quartiles, the spread (quartile distance over median) and whether the
sets agree: every spread within the metric's bound, set B's median no
worse than set A's by more than the bound, and the same share of failed
operations.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = {"A": 1, "B": 1001}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: BENCHMARK.json's")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    results = {(w, s): [] for w in workloads for s in "AB"}
    for i in range(args.runs):
        for w in workloads:
            for s in "AB":
                results[w, s].append(run_once(w, SEED_BASE[s] + i,
                                              args.seconds))
    specs = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for w in workloads:
        shares = {s: (sum(r["failed"] for r in results[w, s]),
                      sum(r["attempted"] for r in results[w, s]))
                  for s in "AB"}
        same_share = (shares["A"][0] * shares["B"][1]
                      == shares["B"][0] * shares["A"][1])
        ok &= same_share
        print(f"{w}: failed {shares['A'][0]}/{shares['A'][1]} vs "
              f"{shares['B'][0]}/{shares['B'][1]}"
              f"{'' if same_share else '  DIFFERENT SHARE'}")
        for name in results[w, "A"][0]["metrics"]:
            m = specs[name]
            bound = m["bound"]
            sets = {s: spread([r["metrics"][name]["value"]
                               for r in results[w, s]]) for s in "AB"}
            worse = (sets["B"][0] - sets["A"][0]) / sets["A"][0]
            if m["better"] == "higher":
                worse = -worse
            steady = all(sets[s][3] <= bound for s in "AB")
            agree = steady and worse <= bound
            ok &= agree
            cols = "  ".join(
                f"{s}: {sets[s][0]:.4g} [{sets[s][1]:.4g}, {sets[s][2]:.4g}]"
                f" spread {sets[s][3]:.3f}" for s in "AB")
            print(f"  {name:16} {cols}  B worse by {worse:+.3f}"
                  f" (bound {bound}) {'ok' if agree else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
