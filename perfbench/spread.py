#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it.  Per workload, two sets of runs with seeds 1 to N, interleaved
(set A seed 1, set B seed 1, set A seed 2, ...).  For each metric and set it
prints the distance between the first and third quartile of the values, as
a share of their median, and how much worse set B's median is than set A's,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--workload NAME ...]

Run from the root of the checkout.  A spread above a third of the bound, or
a median drift above the bound, is flagged, and the exit code is then 1.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(spec, name, seed):
    cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode == 0 and result["correct"] and not result["failed"]
    return ok, {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    steady = True
    for name in args.workload or names:
        sets = ({m["name"]: [] for m in spec["end_to_end"]},
                {m["name"]: [] for m in spec["end_to_end"]})
        for seed in range(1, args.seeds + 1):
            for values in sets:
                ok, metrics = run(spec, name, seed)
                if not ok:
                    print("%s seed %d: run failed" % (name, seed))
                    steady = False
                for k in values:
                    values[k].append(metrics[k])
        print(name)
        for m in spec["end_to_end"]:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            flags = []
            if max(spread(a), spread(b)) > m["bound"] / 3:
                flags.append("spread above bound/3")
            if worse > m["bound"]:
                flags.append("median drift above bound")
            steady = steady and not flags
            print("  %-22s median %-14.6g spread %.4f / %.4f  drift %+.4f"
                  "  bound %.2f%s"
                  % (m["name"], med_a, spread(a), spread(b), worse, m["bound"],
                     "  <-- " + ", ".join(flags) if flags else ""))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
