#!/usr/bin/env python3
"""Gate for bench_overload's report (BENCH_overload.json).

Fails when a fresh report shows:

  * dbf admission not strictly out-earning both admit-all and queue-cap on
    the flash-crowd headline point, or a headline rerun that was not
    bit-identical;
  * shared execution (fusion-on over fusion-off) buying less than
    --min-fusion-gain profit per CPU-busy-second (default 1.2x), no fused
    queries, or a rerun that was not bit-identical;
  * the fused-result cache below --min-fusion-cache-gain over fusion-off
    (default: the fusion floor), no cache hits, or a rerun that was not
    bit-identical.

These are machine-independent numbers computed by the bench itself: the
simulation is deterministic, so they do not drift with the host. A report
without the "fusion" or "fusion_cache" section is itself a failure: it
means the bench predates shared execution or the result cache.

With --committed-overload the checked-in trajectory must also agree with
the fresh report in full; every differing field is printed by its path.

The overload_smoke ctest runs `bench_overload --smoke` into the build tree
and calls this checker against the committed BENCH_overload.json.

Usage:
  python3 tools/check_overload.py --overload <fresh BENCH_overload.json> \
      [--committed-overload BENCH_overload.json] \
      [--min-fusion-gain 1.2] [--min-fusion-cache-gain 1.2]
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def json_diffs(committed, fresh, path="", rel_tol=1e-3):
    """Paths at which two JSON documents differ, with both values.

    The overload bench is a deterministic simulation end to end, but its
    profit figures are doubles formatted from libm-dependent arithmetic;
    the golden CSV suite compares those with 1e-3 relative slack and this
    check follows suit. Hashes, counters, names and booleans must match
    exactly.
    """
    where = path or "<root>"
    if isinstance(committed, float) or isinstance(fresh, float):
        numbers = all(isinstance(x, (int, float)) for x in (committed, fresh))
        if numbers and abs(committed - fresh) <= max(
                1e-6, rel_tol * max(abs(committed), abs(fresh))):
            return []
    elif isinstance(committed, dict) and isinstance(fresh, dict):
        diffs = []
        for key in sorted(set(committed) | set(fresh)):
            diffs += json_diffs(committed.get(key), fresh.get(key),
                                f"{path}.{key}" if path else key, rel_tol)
        return diffs
    elif isinstance(committed, list) and isinstance(fresh, list):
        if len(committed) != len(fresh):
            return [f"{where}: committed has {len(committed)} entries, "
                    f"fresh run has {len(fresh)}"]
        diffs = []
        for i, (c, f) in enumerate(zip(committed, fresh)):
            diffs += json_diffs(c, f, f"{path}[{i}]", rel_tol)
        return diffs
    elif committed == fresh:
        return []
    return [f"{where}: committed {committed!r}, fresh run {fresh!r}"]


def check_committed_overload(fresh, committed_path, failures):
    if not os.path.exists(committed_path):
        failures.append(
            f"committed overload trajectory {committed_path} is missing; "
            f"commit the fresh BENCH_overload.json")
        return
    diffs = json_diffs(load(committed_path), fresh)
    if diffs:
        for diff in diffs:
            print(f"  differs: {diff}", file=sys.stderr)
        failures.append(
            f"committed overload trajectory {committed_path} is stale "
            f"(differing fields listed above: {len(diffs)}); commit the "
            f"fresh BENCH_overload.json")
        return
    print(f"committed overload trajectory {committed_path}: identical")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--overload", required=True,
                        help="freshly produced BENCH_overload.json")
    parser.add_argument("--min-fusion-gain", type=float, default=1.2,
                        help="required profit/CPU-s gain for fusion-on vs "
                             "fusion-off on the flash-crowd headline")
    parser.add_argument("--min-fusion-cache-gain", type=float, default=None,
                        help="required profit/CPU-s gain for fusion + result "
                             "cache vs fusion-off (default: --min-fusion-gain "
                             "— the cache must never cost the headline)")
    parser.add_argument("--committed-overload", default=None,
                        help="checked-in BENCH_overload.json trajectory; "
                             "fails when missing or not identical to the "
                             "fresh report")
    args = parser.parse_args()

    failures = []
    overload = load(args.overload)
    headline = overload["headline"]
    print(f"overload headline ({headline['scenario']} x{headline['scale']:g} "
          f"@ {headline['cpus']} CPUs): "
          f"dbf {headline['dbf_profit']:,.2f}, "
          f"admit-all {headline['admit_all_profit']:,.2f}, "
          f"queue-cap {headline['queue_cap_profit']:,.2f}")
    if not headline.get("dbf_beats_admit_all", False):
        failures.append(
            "dbf admission no longer out-earns admit-all on the "
            "flash-crowd headline")
    if not headline.get("dbf_beats_queue_cap", False):
        failures.append(
            "dbf admission no longer out-earns queue-cap on the "
            "flash-crowd headline")
    if not overload.get("rerun_identical", False):
        failures.append(
            "overload headline rerun was not bit-identical")
    fusion = overload.get("fusion")
    if fusion is None:
        failures.append(
            "overload report has no 'fusion' section — bench_overload "
            "predates shared execution; rebuild and rerun it")
    else:
        gain = float(fusion["gain"])
        print(f"fusion headline ({fusion['scenario']} "
              f"x{fusion['scale']:g} @ {fusion['cpus']} CPUs): "
              f"profit/cpu-s {fusion['profit_per_cpu_s_off']:,.1f} -> "
              f"{fusion['profit_per_cpu_s_on']:,.1f}, gain {gain:.3f}x "
              f"(required >= {args.min_fusion_gain:.2f}x, "
              f"{fusion['queries_fused']} fused in "
              f"{fusion['fusion_groups']} groups)")
        if gain < args.min_fusion_gain:
            failures.append(
                f"fusion profit/CPU-s gain fell below "
                f"{args.min_fusion_gain:.2f}x: {gain:.3f}x")
        if int(fusion.get("queries_fused", 0)) <= 0:
            failures.append(
                "fusion headline fused no queries — the flash crowd "
                "no longer produces shareable scans")
        if not fusion.get("rerun_identical", False):
            failures.append(
                "fusion headline rerun was not bit-identical")
    cache = overload.get("fusion_cache")
    min_cache_gain = (args.min_fusion_cache_gain
                      if args.min_fusion_cache_gain is not None
                      else args.min_fusion_gain)
    if cache is None:
        failures.append(
            "overload report has no 'fusion_cache' section — "
            "bench_overload predates the fused-result cache; rebuild "
            "and rerun it")
    else:
        cache_gain = float(cache["gain"])
        print(f"fusion-cache headline ({cache['scenario']} "
              f"x{cache['scale']:g} @ {cache['cpus']} CPUs): "
              f"profit/cpu-s {cache['profit_per_cpu_s']:,.1f}, "
              f"gain {cache_gain:.3f}x "
              f"(required >= {min_cache_gain:.2f}x, "
              f"{cache['cache_hits']} hits / "
              f"{cache['cache_fills']} fills)")
        if cache_gain < min_cache_gain:
            failures.append(
                f"fusion-cache profit/CPU-s gain fell below "
                f"{min_cache_gain:.2f}x: {cache_gain:.3f}x")
        if int(cache.get("cache_hits", 0)) <= 0:
            failures.append(
                "fusion-cache headline served no hits — the flash "
                "crowd no longer repeats cached look-alikes")
        if not cache.get("rerun_identical", False):
            failures.append(
                "fusion-cache headline rerun was not bit-identical")
    if args.committed_overload:
        check_committed_overload(overload, args.committed_overload, failures)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK: overload headlines within bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
