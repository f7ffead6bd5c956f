#!/usr/bin/env python3
"""Builds the DVM host-clock benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload cold_fetch --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the repository's libraries plus the dvm_perfbench
binary) into $CARGO_TARGET_DIR, default .bench_build; later calls only rebuild
what changed. Build output goes to stderr, so the last line of stdout is
dvm_perfbench's JSON result. `--workload all` runs the four workloads in one
process and prints every end-to-end metric under its workload's own name.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["cold_fetch", "parallel_fetch", "warm_launch", "replica_catchup", "all"]
# dvm_perfbench stops measuring after --seconds; this caps set-up, warm-up
# and gates on top of that.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds dvm_perfbench; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "dvm_perfbench"],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "dvm_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no DVM sources under src/ to build", file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build_dir, f"trace_{args.workload}_seed{args.seed}.json")]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
