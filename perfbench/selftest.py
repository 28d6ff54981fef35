#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny size (a few seconds per run).

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that
  * an untraced run emits exactly the end-to-end metric names declared in
    BENCHMARK.json, and a traced run exactly the per-layer names;
  * both pass the correctness gate on the default seed and on a held-out
    seed;
  * the gate fires (correct=false, non-zero exit) when one expectation is
    deliberately falsified.
Exit status 0 when every check holds.
"""

import json
import subprocess
import sys

WORKLOADS = ("corpus_cold", "gen_cold", "gen_warm", "serve_mixed")
SEEDS = (1, 2027)  # the default seed and a held-out one


def run(workload, seed, trace, falsify=False):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    if falsify:
        command.append("--falsify")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        declared = json.load(f)
    names = {0: sorted(m["name"] for m in declared["end_to_end"]),
             1: sorted(m["name"] for m in declared["per_layer"])}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            for seed in SEEDS:
                code, result = run(workload, seed, trace)
                label = "%s seed=%d trace=%d" % (workload, seed, trace)
                if sorted(result["metrics"]) != names[trace]:
                    problems.append(label + ": metric names differ from "
                                    "BENCHMARK.json")
                if code != 0 or not result["correct"] or result["failed"]:
                    problems.append(label + ": correctness gate failed")
        code, result = run(workload, SEEDS[0], 0, falsify=True)
        if code == 0 or result["correct"] or result["failed"] == 0:
            problems.append(workload + ": gate did not fire on a falsified "
                            "expectation")
        print("%-12s checked" % workload, flush=True)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
