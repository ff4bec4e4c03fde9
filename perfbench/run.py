#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

    python3 perfbench/run.py --workload suite|figures|trace|sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The driver and the simulator
library are built with CMake under $CARGO_TARGET_DIR (default
.bench_build) on the first run and reused afterwards; build output goes
to stderr. The last line of stdout is the driver's JSON result. The exit
code is non-zero when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite", "figures", "trace", "sweep")


def usable_cpus():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build(build_dir):
    """Configure (once) and build the driver; returns its path or None."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "--parallel", str(usable_cpus())]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="input seed: salts every kernel's input "
                         "generator (default 1)")
    ap.add_argument("--seconds", type=float, default=25,
                    help="measured time per run (default 25)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: record layer spans, print per-layer metrics")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = os.path.join(os.getcwd(),
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir, "work")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
