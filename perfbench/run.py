#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the termilog library from
src/ plus the termibench binary) into .bench_build/perfbench, then repeats
one-process reps of the workload for about S seconds and prints, as the last
line of stdout, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics (medians over the faster
half of the reps; latency percentiles over their requests); --trace 1 runs a
few untraced reps and then one traced rep, and reports the per-layer metrics.
The line before it is a metadata object (host, build, seed, sample counts).

Exit status: 0 when every output passed the correctness gate, 1 when any
did not (the result line is still printed) or when the build fails (no
result line). See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "termibench")
WORKLOADS = ("corpus_cold", "gen_cold", "gen_warm", "serve_mixed")
# Reps per invocation, at least. A corpus_cold rep lasts about 7 s, and the
# host's slow spells last a minute or more, so it runs six: a spell must then
# cover three reps to move the quiet half. serve_mixed's two quiet reps
# already pool 1000 light latencies.
MIN_REPS = {"corpus_cold": 6, "serve_mixed": 3}
DEADLINE_S = 170  # hard cap on one invocation's measuring

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("requests_per_s", "req/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("light_requests_per_s", "req/s"),
    ("light_p50_ms", "ms"),
    ("light_p99_ms", "ms"),
    ("heavy_p50_ms", "ms"),
]

PER_LAYER = [
    ("program.parse_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("transform.pipeline.self_ms", "ms"),
    ("constraints.run_scc_ms", "ms"),
    ("constraints.nodes", "count"),
    ("constraints.sweeps", "count"),
    ("core.analyze_scc_ms", "ms"),
    ("core.scc_tasks", "count"),
    ("fm.lp_prune.self_ms", "ms"),
    ("fm.project.self_ms", "ms"),
    ("fm.eliminate.self_ms", "ms"),
    ("fm.rows_generated", "count"),
    ("fm.rows_pruned", "count"),
    ("fm.prune_yield", "ratio"),
    ("simplex.solves", "count"),
    ("simplex.pivots", "count"),
    ("simplex.pivots_per_solve_p50", "count"),
    ("simplex.pivots_per_solve_max", "count"),
    ("simplex.solve.self_ms", "ms"),
    ("rational.limb_high_water", "limbs"),
    ("engine.run_ms", "ms"),
    ("engine.queue_wait_ms", "ms"),
    ("engine.scc_hit_ratio", "ratio"),
    ("engine.scc_lookups", "count"),
    ("engine.inference_hit_ratio", "ratio"),
    ("engine.inference_lookups", "count"),
    ("engine.single_flight_waits", "count"),
    ("engine.key_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.attach_ms", "ms"),
    ("persist.records_loaded", "count"),
    ("persist.flush_ms", "ms"),
    ("persist.appends", "count"),
    ("persist.store_mb", "MiB"),
    ("net.served", "count"),
    ("net.shed", "count"),
    ("net.errors", "count"),
    ("net.bytes_out_per_request", "B"),
    ("condinf.sweep_ms", "ms"),
    ("condinf.evaluated", "count"),
    ("condinf.implied", "count"),
    ("obs.self_ms_total", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
]


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.path.exists(BINARY)


def run_binary(args, timeout):
    """Runs termibench; returns (returncode, stdout)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=max(1, timeout),
                              text=True)
    except subprocess.TimeoutExpired:
        log("termibench timed out: " + " ".join(args))
        return -1, ""
    return done.returncode, done.stdout


def one_rep(opts, trace, deadline):
    args = ["rep", "--workload", opts.workload, "--seed", str(opts.seed),
            "--dir", RUN_DIR]
    if trace:
        args.append("--trace")
    if opts.tiny:
        args.append("--tiny")
    if opts.falsify:
        args.append("--falsify")
    code, out = run_binary(args, deadline - time.monotonic())
    try:
        rep = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
    except (ValueError, IndexError):
        rep = None
    if rep is None:
        log("rep failed (exit %d)" % code)
        return {"attempted": 1, "failed": 1, "failures": ["rep crashed"]}
    for failure in rep["failures"]:
        log("gate: " + failure)
    return rep


def run_reps(opts, budget_s, deadline):
    """Untraced reps, at least MIN_REPS (default four), until the next
    would end past `budget_s`."""
    reps = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        reps.append(one_rep(opts, False, deadline))
        last = time.monotonic() - rep_start
        if "wall_s" not in reps[-1]:
            break
        enough = len(reps) >= MIN_REPS.get(opts.workload, 4)
        if enough and time.monotonic() - start + last > budget_s:
            break
    return reps


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def request_latencies(measured, key, pooled):
    """Latency samples of one request class. serve_mixed latencies depend on
    when a request is sent, not on which request it is: pool every given
    rep's. Batch reps run one request list: each request's sample is its
    median over the given reps, so no single rep sets a percentile."""
    if pooled:
        return [us for r in measured for us in r[key]]
    return [statistics.median(column)
            for column in zip(*(r[key] for r in measured))]


def fastest_half(values):
    """The faster half (rounded up) of `values`, ascending."""
    ordered = sorted(values)
    return ordered[:max(1, math.ceil(len(ordered) / 2))]


def quiet_reps(reps):
    """The reps least disturbed by the host: the faster half by wall_s.

    The host's CPUs are shared through a hypervisor, and withheld CPU time
    (steal) and contention for shared cores come in spells of seconds to
    minutes that lengthen a rep without changing its work. A rep cannot run
    faster than its work allows, so the faster reps measured the program."""
    measured = sorted((r for r in reps if "wall_s" in r),
                      key=lambda r: r["wall_s"])
    return measured[:math.ceil(len(measured) / 2)]


def end_to_end(reps, pooled):
    measured = quiet_reps(reps)
    light = request_latencies(measured, "light_us", pooled)
    heavy = request_latencies(measured, "heavy_us", pooled)
    median = lambda xs: statistics.median(xs) if xs else 0.0
    setup = [s for r in reps if "setup_s" in r for s in r["setup_s"]]
    values = {
        "setup_s": median(fastest_half(setup)) if setup else 0.0,
        "wall_s": median([r["wall_s"] for r in measured]),
        "requests_per_s": median(
            [r["requests"] / r["wall_s"] for r in measured if r["wall_s"]]),
        "cpu_s": median([r["cpu_s"] for r in measured]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in measured]),
        "light_requests_per_s": median(
            [r["light_count"] / r["light_seconds"] for r in measured
             if r["light_seconds"]]),
        "light_p50_ms": percentile(light, 50) / 1e3 if light else 0.0,
        "light_p99_ms": percentile(light, 99) / 1e3 if light else 0.0,
        "heavy_p50_ms": percentile(heavy, 50) / 1e3 if heavy else 0.0,
    }
    samples = {"reps": sum(1 for r in reps if "wall_s" in r),
               "quiet_reps": len(measured),
               "rep_wall_s": [r["wall_s"] for r in reps if "wall_s" in r],
               "light_latency_samples": len(light),
               "heavy_latency_samples": len(heavy),
               "setup_samples": len(setup)}
    return values, samples


def source_digest():
    digest = hashlib.sha256()
    for pattern in ("src/**/*", "perfbench/*"):
        for path in sorted(glob.glob(pattern, recursive=True)):
            if os.path.isfile(path):
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def host_meta(opts, reps, samples):
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    build_type = next((r["build_type"] for r in reps if "build_type" in r),
                      None)
    meta = {"workload": opts.workload, "seed": opts.seed,
            "seconds": opts.seconds, "trace": opts.trace,
            "cores": os.cpu_count(), "cpu_model": model,
            "build_type": build_type, "commit": commit,
            "source_sha256": source_digest()}
    meta.update(samples)
    return meta


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few requests per workload (self-test)")
    parser.add_argument("--falsify", action="store_true",
                        help="falsify one expectation; the gate must fire")
    opts = parser.parse_args()

    if not build():
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    reps = []
    pooled = opts.workload == "serve_mixed"
    if opts.workload == "gen_warm":
        fill = ["fill", "--seed", str(opts.seed), "--dir", RUN_DIR]
        code, _ = run_binary(fill + (["--tiny"] if opts.tiny else []),
                             deadline - time.monotonic())
        if code != 0:
            reps.append({"attempted": 1, "failed": 1, "failures": ["fill"]})

    if opts.trace == 0:
        reps += run_reps(opts, opts.seconds, deadline)
        values, samples = end_to_end(reps, pooled)
        table = END_TO_END
    else:
        reps += run_reps(opts, opts.seconds / 2, deadline)
        untraced_wall, samples = end_to_end(reps, pooled)
        traced = one_rep(opts, True, deadline)
        reps.append(traced)
        values = dict(traced.get("layers", {}))
        wall = untraced_wall["wall_s"]
        values["obs.trace_overhead_ratio"] = (
            traced["wall_s"] / wall if wall and "wall_s" in traced else 0.0)
        table = PER_LAYER

    for path in glob.glob(os.path.join(RUN_DIR,
                                       "gen_warm-%d[.-]*" % opts.seed)):
        os.remove(path)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = failed == 0 and all(name in values for name, _ in table)
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in table}
    meta = host_meta(opts, reps, samples)
    meta["failed_ratio"] = failed / attempted if attempted else 0.0
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
