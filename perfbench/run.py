#!/usr/bin/env python3
"""Build and run the vizcache benchmark.

    python3 perfbench/run.py --workload explore|crowd|wire|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs only rebuild what changed.
Build output goes to stderr. The benchmark's own output goes to stdout, and
its last line is the run's JSON result. A traced run (--trace 1) writes its
spans to <build dir>/traces/<workload>-seed<N>.json.

With --workload all the three workloads run one after another and the exit
code is non-zero if any of them failed; the last line is then a JSON object
mapping each workload to its result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["explore", "crowd", "wire"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configure once, then build vizbench; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no vizcache sources (src/) next to perfbench/",
              file=sys.stderr)
        return None
    tree = os.path.join(out_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", tree, "-j", jobs, "--target", "vizbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(tree, "vizbench")


def run_one(binary, out_dir, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s did not finish in %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3, None, None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny world and counts (tests only)")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    if args.workload != "all":
        outcome = run_one(binary, out_dir, args, args.workload)
        if outcome[1] is None:
            return outcome[0] or 3
        code, lines, result = outcome
        print("\n".join(lines))
        return code if result is not None else (code or 3)

    combined = {}
    worst = 0
    for workload in WORKLOADS:
        outcome = run_one(binary, out_dir, args, workload)
        code = outcome[0]
        if outcome[1] is not None:
            print("\n".join(outcome[1][:-1]))
            combined[workload] = outcome[2]
        if code != 0 or outcome[1] is None or outcome[2] is None:
            worst = code or 3
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
