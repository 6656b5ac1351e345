#!/usr/bin/env python3
"""Smoke test of the vizcache benchmark program (vizbench).

    python3 perfbench/tests/smoke_test.py --binary PATH/vizbench \
        --benchmark-json BENCHMARK.json

Runs every workload in the tiny --smoke world, untraced and traced, and
checks the result line against BENCHMARK.json: exactly the declared metrics
with their units, a passing correctness gate, and a box descriptor. Then the
determinism self-check: the explore metrics marked [exact] repeat bit for bit
for one seed and change under another.
"""

import argparse
import json
import subprocess
import sys
import tempfile
import os

WORKLOADS = ["explore", "crowd", "wire"]


def run(binary, workload, seed, trace, trace_out=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--smoke"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def exact_names(lines):
    return {line.split()[1] for line in lines
            if line.startswith("metric ") and "[exact]" in line}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True)
    args = parser.parse_args()
    spec = json.load(open(args.benchmark_json))
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                out = os.path.join(tmp, workload + ".json")
                code, lines, result = run(args.binary, workload, 1, trace,
                                          out if trace else None)
                tag = "%s trace=%d" % (workload, trace)
                check(code == 0, tag + ": exit code %d" % code)
                check(sorted(result) == ["attempted", "correct", "failed",
                                         "metrics"], tag + ": result keys")
                check(result["correct"] is True, tag + ": correctness gate")
                check(result["failed"] == 0 and result["attempted"] >= 1,
                      tag + ": attempted/failed")
                check(any(l.startswith("box: nproc=") for l in lines),
                      tag + ": box descriptor")
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                check(got == want, tag + ": metrics %s != %s" % (
                    sorted(set(got) ^ set(want)), "declared"))
                for name, value in result["metrics"].items():
                    check(isinstance(value["value"], (int, float)),
                          tag + ": %s is not a number" % name)
                if trace:
                    spans = json.load(open(out))
                    check(len(spans) > 0 and all(
                        {"name", "id", "parent", "request", "start_us",
                         "end_us"} <= set(s) for s in spans),
                          tag + ": span file")

        for trace in (0, 1):
            _, lines_a, a = run(args.binary, "explore", 1, trace)
            _, _, b = run(args.binary, "explore", 1, trace)
            _, _, c = run(args.binary, "explore", 2, trace)
            names = exact_names(lines_a)
            check(len(names) >= 2, "explore trace=%d: exact metrics marked"
                  % trace)
            for name in names:
                va = a["metrics"][name]["value"]
                check(va == b["metrics"][name]["value"],
                      "%s does not repeat for one seed" % name)
                check(va != c["metrics"][name]["value"],
                      "%s does not change with the seed" % name)

    for f in failures:
        print("FAIL: " + f)
    print("smoke: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
