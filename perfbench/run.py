#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1> [--scale <f>] [--pins <file>]

Configures and builds perfbench/ (Release) into .bench_build/perfbench, then
runs e2e_bench there. When the pins file holds a digest for this workload,
seed and scale, the run must reproduce it. The last line of stdout is the
benchmark's JSON result; the exit status is nonzero when the build or any
correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "e2e_bench")
DEFAULT_PINS = os.path.join(HERE, "pins.json")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds e2e_bench; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"qcsched sources not found under {ROOT}/src")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def pinned_digest(pins_path, workload, seed, scale):
    """The pinned run digest for (workload, seed, scale), or None."""
    with open(pins_path) as f:
        pins = json.load(f)
    if seed != pins["default_seed"] or scale != pins["scale"]:
        return None
    return pins["digests"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of each trace window (self-test)")
    parser.add_argument("--pins", default=DEFAULT_PINS)
    args = parser.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale)]
    digest = pinned_digest(args.pins, args.workload, args.seed, args.scale)
    if digest is not None:
        cmd += ["--expect-digest", digest]
    if args.trace == 1:
        cmd += ["--spans-out", os.path.join(
            BUILD, f"spans-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"e2e_bench did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
