#!/usr/bin/env python3
"""Builds and runs one workload of the bagalg end-to-end benchmark.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload point|analytic|bulk --seed N \
        --seconds S --trace 0|1

Builds bagalgd and the bagbench program (RelWithDebInfo, the tier-1 build
type) into .bench_build/perfbench, runs bagbench, and with --trace 1
checks the Chrome trace and every /metrics scrape it left behind with
tools/validate_obs.py. The last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Exit status 0 only when every statement returned the oracle's result and
every artifact validated. See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
VALIDATOR = os.path.join(ROOT, "tools", "validate_obs.py")


def run(cmd, timeout):
    """Runs cmd quietly; returns (exit code, combined output)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return 1, f"timed out after {timeout} s: {exc.cmd}"
    return proc.returncode, proc.stdout


def build():
    """Configures (once) and builds the two binaries; False on failure."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: the repository's sources are not here",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "bagbench",
                  "bagalgd"])
    for step in steps:
        code, out = run(step, timeout=840)
        if code != 0:
            print(out[-4000:], file=sys.stderr)
            return False
    return True


def validate(out_dir):
    """Runs validate_obs.py on the trace and every scrape; list of errors."""
    errors = []
    checks = [["--trace", os.path.join(out_dir, "trace.json")]]
    scrapes = sorted(glob.glob(os.path.join(out_dir, "prom_*.txt")))
    if not scrapes:
        errors.append("no /metrics scrapes were written")
    checks += [["--prom", path] for path in scrapes]
    for args in checks:
        code, out = run([sys.executable, VALIDATOR] + args, timeout=120)
        if code != 0:
            errors.append(out.strip()[-2000:])
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["point", "analytic", "bulk"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    out_dir = os.path.join(ROOT, ".bench_build", "runs",
                           f"{args.workload}-{args.seed}-{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    for stale in glob.glob(os.path.join(out_dir, "*")):
        os.remove(stale)

    cmd = [os.path.join(BUILD, "bagbench"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           "--bagalgd=" + os.path.join(BUILD, "bagalg", "examples", "bagalgd"),
           f"--out={out_dir}"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(150, 4 * args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: bagbench did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stdout[-2000:], file=sys.stderr)
        print(f"perfbench: bagbench exited {proc.returncode} without a "
              "result", file=sys.stderr)
        return 1

    errors = validate(out_dir) if args.trace else []
    for error in errors:
        print(f"perfbench: artifact check failed: {error}", file=sys.stderr)
    if errors:
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
