#!/usr/bin/env python3
"""Build and run the host-cost benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/main.exe with dune (a no-op when it is up
to date) and runs one workload; the last line of standard output is the
JSON result.  The second runs the benchmark's own tests: fidelity against
the library's Smallfile driver, replay fidelity, and a cross-process
determinism check.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

WORKLOADS = [
    "smallfile-ungrouped",
    "smallfile-grouped-journal",
    "stat-namei",
    "mclient-striped4",
]


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from the root of a full source checkout" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if proc.returncode != 0:
        die("build failed")


def run_exe(args, capture=False):
    try:
        return subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)


# Metrics that must repeat bit for bit at one seed: everything but host
# times, the heap peak and the traced/untraced host ratio.
HOST_UNITS = {"s", "ms", "us", "ops/s", "MB"}
HOST_NAMES = {"obs.trace_overhead_ratio"}


def deterministic(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] not in HOST_UNITS and k not in HOST_NAMES}


def selftest():
    ok = run_exe(["--selftest"]).returncode == 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            seen = []
            for _ in range(2):
                proc = run_exe(["--workload", name, "--seed", "3", "--seconds",
                                "0", "--trace", trace], capture=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if proc.returncode != 0 or not result["correct"]:
                    print("FAIL %s trace %s: run not correct" % (name, trace))
                    ok = False
                seen.append(deterministic(result["metrics"]))
            drift = sorted(k for k in seen[0] if seen[0][k] != seen[1].get(k))
            if drift:
                print("FAIL %s trace %s: drift in %s" % (name, trace, ", ".join(drift)))
                ok = False
            else:
                print("%s trace %s: %d deterministic metrics repeat exactly"
                      % (name, trace, len(seen[0])))
    print("perfbench selftest: %s" % ("ok" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    build()
    if args.selftest:
        selftest()
    if args.workload is None:
        die("--workload is required")
    proc = run_exe(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
