#!/usr/bin/env python3
"""Contract linter for the qcsched tree: hot-path and API-shape rules.

Companion to lint_determinism.py (which guards reproducibility); this pack
guards the performance and locking contracts that the simulator's design
notes promise but the compiler cannot see:

  std-function-hot-path   std::function on the simulator/scheduler hot path
                          (src/sim/, src/core/). Closure dispatch there must
                          use EventCallback (src/sim/event_callback.h): a
                          move-only erased callable with a guaranteed inline
                          buffer, so scheduling an event never heap-allocates.
                          std::function is fine in cold configuration code
                          (factories, trace loading) outside these dirs.
  options-by-value        a function parameter taking a *Options struct by
                          value. Options structs are plumbed through many
                          layers; by-value copies at each hop are both a perf
                          tax and a mutation hazard. Pass `const Options&`.
                          Sanctioned sinks: `explicit` constructors and
                          constructor definitions (Type::Type(Options ...)),
                          which deliberately take by value and move/copy once
                          into the member.
  lock-on-sim-path        mutex primitives (std::mutex & friends,
                          util::Mutex/MutexLock, .lock()/.Lock() calls) in
                          src/sim/, src/core/, src/sched/ or src/server/.
                          Event callbacks and scheduler decision points run
                          on the single-threaded simulation path; a lock
                          acquired there is at best dead weight and at worst
                          a deadlock with the sweep worker pool. Cross-thread
                          state belongs in src/exp//src/obs/ behind
                          util::Mutex + WEBDB_GUARDED_BY.
  fused-result-mutation   a mutable handle to a FusionResult: a
                          FusionResult* or FusionResult& without const, a
                          shared_ptr<FusionResult>, or a const_cast that
                          names the type. A fused scan's answer is produced
                          once, into a slot of the shared-execution pool
                          (SharedExecution::Snapshot, the one sanctioned
                          writer), and fanned out to every waiter
                          in the group and every cache hit as a
                          `const FusionResult*` (DESIGN.md §13); a waiter
                          that mutates through it corrupts every other
                          reader's answer. The const is the contract — this
                          rule catches code that drops or launders it.

Escape hatch is shared with the determinism linter - same line or the
immediately preceding line:

    void Install(SimOptions options);  // lint:allow(options-by-value) sink

Exit status: 0 clean, 1 findings, 2 usage error. Wired into ctest as the
`lint_contracts` test, so tier-1 runs it.
"""

import argparse
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_determinism as det  # noqa: E402  (shared strip/allow helpers)

# Directories (relative, forward-slash) each rule is scoped to. `None` means
# every scanned file.
HOT_PATH_DIRS = ("src/sim/", "src/core/")
LOCK_FREE_DIRS = ("src/sim/", "src/core/", "src/sched/", "src/server/")

STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\b")

# A *Options type passed by value as a parameter: preceded by '(' or ',' (or
# line start, for wrapped signatures), followed by a parameter name and then
# ',' or ')'. References/pointers ('Options&', 'Options*') and local
# declarations ('Options o = ...;', 'Options o;') do not match.
OPTIONS_PARAM_RE = re.compile(
    r"(?:[(,]|^)\s*((?:\w+\s*::\s*)*\w*Options)\s+\w+\s*[,)]"
)
EXPLICIT_RE = re.compile(r"\bexplicit\b")
CTOR_DEF_RE = re.compile(r"\b(\w+)\s*::\s*\1\s*\(")

LOCK_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex|lock_guard|unique_lock|shared_lock"
    r"|scoped_lock|condition_variable|condition_variable_any)\b"
    r"|\butil\s*::\s*(?:Mutex|MutexLock)\b"
    r"|\.\s*(?:lock|try_lock|try_lock_for|Lock|TryLock)\s*\("
)

# A mutable handle to the shared fan-out answer: shared_ptr<FusionResult>
# without const in the element type, or a const_cast naming the type.
# `shared_ptr<const FusionResult>` does not match.
FUSED_RESULT_MUTATION_RE = re.compile(
    r"\bshared_ptr\s*<\s*FusionResult\b"
    r"|\bconst_cast\s*<[^<>]*\bFusionResult\b[^<>]*>"
)
# A pointer or reference to FusionResult; group 1 holds a leading const.
# `const FusionResult*` (the sanctioned handle) and east-const
# `FusionResult const&` are read-only; any other match is mutable.
FUSED_RESULT_HANDLE_RE = re.compile(
    r"(\bconst\s+)?(?:\w+\s*::\s*)*\bFusionResult\s*[*&]"
)


def mutable_fused_result(line):
    if FUSED_RESULT_MUTATION_RE.search(line):
        return True
    return any(
        m.group(1) is None for m in FUSED_RESULT_HANDLE_RE.finditer(line)
    )


RULE_NAMES = (
    "std-function-hot-path",
    "options-by-value",
    "lock-on-sim-path",
    "fused-result-mutation",
)


def _in_dirs(rel, dirs):
    rel = rel.replace(os.sep, "/")
    return any(rel.startswith(d) for d in dirs)


def lint_file(path, rel):
    findings = []
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as err:
        return [(rel, 0, "io", str(err))]

    raw_lines = raw.split("\n")
    no_blocks = re.sub(
        r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"), raw, flags=re.DOTALL
    )
    stripped = [det.strip_code(line) for line in no_blocks.split("\n")]

    on_hot_path = _in_dirs(rel, HOT_PATH_DIRS)
    on_lock_free_path = _in_dirs(rel, LOCK_FREE_DIRS)
    # The annotated lock primitives themselves live in util/.
    is_lock_impl = rel.replace(os.sep, "/") == "src/util/mutex.h"

    for i, line in enumerate(stripped):
        here = det.allowed_rules(raw_lines, i)

        def report(rule):
            findings.append((rel, i + 1, rule, raw_lines[i].strip()[:100]))

        if (
            on_hot_path
            and "std-function-hot-path" not in here
            and STD_FUNCTION_RE.search(line)
        ):
            report("std-function-hot-path")

        if "options-by-value" not in here and OPTIONS_PARAM_RE.search(line):
            if not EXPLICIT_RE.search(line) and not CTOR_DEF_RE.search(line):
                report("options-by-value")

        if (
            on_lock_free_path
            and not is_lock_impl
            and "lock-on-sim-path" not in here
            and LOCK_RE.search(line)
        ):
            report("lock-on-sim-path")

        if "fused-result-mutation" not in here and mutable_fused_result(line):
            report("fused-result-mutation")

    return findings


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule names and exit"
    )
    parser.add_argument("paths", nargs="*", help="extra files to scan")
    args = parser.parse_args()

    if args.list_rules:
        for rule in sorted(RULE_NAMES):
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    files = []
    for scan_dir in det.SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            print(f"lint_contracts: missing directory {base}", file=sys.stderr)
            return 2
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(det.EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    files.extend(os.path.abspath(p) for p in args.paths)

    findings = []
    for path in sorted(files):
        rel = os.path.relpath(path, root)
        findings.extend(lint_file(path, rel))

    for rel, line, rule, snippet in findings:
        print(f"{rel}:{line}: [{rule}] {snippet}")
    if findings:
        print(
            f"lint_contracts: {len(findings)} finding(s). Fix them or "
            "annotate with // lint:allow(<rule>) and a reason.",
            file=sys.stderr,
        )
        return 1
    print(f"lint_contracts: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
