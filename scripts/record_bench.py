#!/usr/bin/env python3
"""Records BENCH_engine.json and BENCH_serve.json from perfbench.

    python3 scripts/record_bench.py

Takes no options. For each perfbench workload it runs, from the repository
root,

    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 0
    python3 perfbench/run.py --workload W --seed 1 --seconds S --trace 1

where S is BENCHMARK.json's run_seconds. The --trace 0 run gives the
end-to-end metrics and the --trace 1 run the per-layer metrics. Each run's
meta line (cores, cpu_model, commit, build_type, source digest, reps) and
result line are copied verbatim. corpus_cold, gen_cold and gen_warm go to
BENCH_engine.json, serve_mixed to BENCH_serve.json.

If any run prints no result line, is not correct, or has failed > 0, the
script exits 1 and writes neither file.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
OUTPUTS = (
    ("BENCH_engine.json", "engine", ("corpus_cold", "gen_cold", "gen_warm")),
    ("BENCH_serve.json", "serve", ("serve_mixed",)),
)
LEVELS = (("end_to_end", 0), ("per_layer", 1))


def log(message):
    print("record_bench: " + message, file=sys.stderr, flush=True)


def perfbench(workload, seconds, trace):
    """One perfbench run: {"meta": ..., <result keys>}, or None when the run
    printed no result line or did not pass its correctness gate."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds),
               "--trace", str(trace)]
    log(" ".join(command[1:]))
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log("%s --trace %d printed no result line" % (workload, trace))
        return None
    if done.returncode != 0 or not result.get("correct") or \
            result.get("failed") != 0:
        log("%s --trace %d failed: correct=%s failed=%s" %
            (workload, trace, result.get("correct"), result.get("failed")))
        return None
    return dict({"meta": meta}, **result)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    texts = {}
    for path, bench, workloads in OUTPUTS:
        record = {"bench": bench, "recorder": "scripts/record_bench.py",
                  "workloads": {}}
        for workload in workloads:
            runs = {}
            for level, trace in LEVELS:
                run = perfbench(workload, seconds, trace)
                if run is None:
                    log("nothing written")
                    return 1
                runs[level] = run
            record["workloads"][workload] = runs
        texts[path] = json.dumps(record, indent=1) + "\n"
    for path, text in texts.items():
        with open(os.path.join(ROOT, path), "w") as f:
            f.write(text)
        log("wrote " + path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
