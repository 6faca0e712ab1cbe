#!/usr/bin/env python3
"""Build the campaign benchmark from this checkout and run one workload.

    python3 campaignbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
campaignbench/ (and the simulator sources it compiles) in Release mode
under $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Any flag the wrapper does not know is
passed to the campaign_bench binary unchanged (see main.cpp). The exit code
is the binary's, or nonzero when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary stops measuring after --seconds and reports; this bounds a
# wedged run so the wrapper still exits on its own.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "campaignbench")


def build(directory):
    """Configures once, then brings campaign_bench up to date."""
    os.makedirs(directory, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", directory,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", directory, "-j", jobs,
                    "--target", "campaign_bench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(directory, "campaign_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = parser.parse_known_args()

    if not os.path.exists(os.path.join(ROOT, "src", "gfw", "runner.h")):
        print("run.py: simulator sources not found next to campaignbench/",
              file=sys.stderr)
        return 2
    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    scratch = os.path.join(directory, "run")
    os.makedirs(scratch, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--journal-dir", scratch] + passthrough
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: campaign_bench did not finish in time", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
