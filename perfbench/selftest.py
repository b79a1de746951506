#!/usr/bin/env python3
"""Tiny-scale self-test of the end-to-end benchmark.

Run from the repository root:  python3 perfbench/selftest.py

Drives perfbench/run.py on short traces and checks that
  1. every metric named in BENCHMARK.json is printed, with its unit, in the
     matching mode (end_to_end with --trace 0, per_layer with --trace 1);
  2. a corrupted pinned digest makes the command exit nonzero, while the
     correct pin passes;
  3. traced and untraced digests agree at 1 CPU (paper-1cpu) and at 4 CPUs
     (market-open-4cpu): each run checks its traced replays against the
     untraced ones, and --trace 0 and --trace 1 runs report one run digest;
  4. the admission layer is absent on paper-1cpu (no admit calls, zero
     admission time) and present on the 4-CPU workloads.
Exits nonzero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SEED = 5
SCALE = {"paper-1cpu": 0.02, "market-open-4cpu": 0.1,
         "update-storm-4cpu": 0.1}


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def run(workload, trace, pins=None):
    """Runs the benchmark; returns (exit code, stdout lines, result or None)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.2", "--trace", str(trace),
           "--scale", str(SCALE[workload])]
    if pins is not None:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def run_digest(lines):
    for line in lines:
        match = re.match(r"workload \S+ .* digest ([0-9a-f]{16})$", line)
        if match:
            return match.group(1)
    fail("no run digest line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]]

    digests = {}
    for workload in workloads:
        for trace in (0, 1):
            code, lines, result = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                fail(f"{tag} exited {code}")
            # 1. every named metric, with its unit, and nothing else.
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{tag} metrics/units differ from BENCHMARK.json: "
                     f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{tag} attempted/failed {result['attempted']}/"
                     f"{result['failed']}")
            # 3. traced replays were checked against untraced ones.
            checked = [l for l in lines if l.startswith("digests:")]
            if not checked or not re.search(r"and [1-9]\d* traced", checked[0]):
                fail(f"{tag} checked no traced replay")
            digests.setdefault(workload, set()).add(run_digest(lines))
            # 4. admission absent at 1 CPU, present at 4 CPUs.
            if trace == 1:
                m = result["metrics"]
                admission = {k: m[k]["value"] for k in m
                             if k.startswith("admission.")}
                if workload == "paper-1cpu" and any(admission.values()):
                    fail(f"admission layer active on paper-1cpu: {admission}")
                if workload != "paper-1cpu" and (
                        admission["admission.admit.calls"] <= 0):
                    fail(f"admission layer idle on {workload}")
            print(f"ok  {tag}")
        if len(digests[workload]) != 1:
            fail(f"{workload} run digests differ between --trace 0 and 1: "
                 f"{digests[workload]}")

    # 2. pinned digests: the right pin passes, a corrupted one fails.
    workload = "paper-1cpu"
    good = digests[workload].pop()
    bad = f"{int(good, 16) ^ 1:016x}"
    os.makedirs(WORK_DIR, exist_ok=True)
    pins = os.path.join(WORK_DIR, "selftest-pins.json")
    for digest, want_ok in ((good, True), (bad, False)):
        with open(pins, "w") as f:
            json.dump({"default_seed": SEED, "scale": SCALE[workload],
                       "digests": {workload: digest}}, f)
        code, _, result = run(workload, 0, pins)
        if want_ok and code != 0:
            fail(f"correct pin {digest} rejected (exit {code})")
        if not want_ok and (code == 0 or (result and result["correct"])):
            fail(f"corrupted pin {digest} accepted")
    os.remove(pins)
    print("ok  pinned digest: correct pin passes, corrupted pin exits nonzero")
    print("selftest passed")


if __name__ == "__main__":
    main()
