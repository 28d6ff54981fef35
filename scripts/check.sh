#!/usr/bin/env bash
# Repo check driver (docs/robustness.md):
#   1. tier-1 verify: configure + build + full ctest in build/ (includes
#      the stress-labelled smoke at its default 200-request size), plus
#      CLI checks that out-of-range flag values are rejected (exit 1)
#      rather than narrowed or saturated: an int flag above INT_MAX and an
#      int64 flag past the int64 range; and a cross-form check that
#      --batch DIR, a text manifest and --conditions --batch print the
#      same bytes as --batch over their JSONL twins, and that a text-mode
#      --conditions error line (unknown corpus entry, missing file) ends
#      in a newline; and single runs of four corpus entries at three work
#      budgets, whose text and --json runs must exit alike and whose
#      repeated text runs must print the same bytes, plus a repeated
#      single run on one --store that must be served cache hits; a store
#      that gains no duplicate (a repeated --batch appends nothing, and
#      --compact after a --conditions sweep on it reclaims no byte), a
#      second --compact that rewrites the compacted store byte for byte,
#      --compact of a missing path exiting 1 and creating nothing, and
#      {"store":...} and {"compact":...} stats lines that stay JSON for a
#      path holding '"' and '\'; span counts in --trace output showing
#      that --explain runs no second analysis and that --reorder's
#      attempts hit the run's caches; corpus_report rejecting a
#      malformed JOBS (exit 1); and --corpus nnf metrics showing that the
#      FM history filter fires and keeps the prune LPs at or below 450
#   2. UBSan pass of the unit and engine suites in build-ubsan/ (the
#      arithmetic kernel lives in the unit suite; docs/arithmetic.md)
#   3. ASan+UBSan pass of the unit, engine, obs and condinf suites in
#      build-asan/ (the unit suite holds the arithmetic kernel, whose
#      Rational owns heap memory; the engine suite includes the
#      seeded-failpoint chaos regression)
#   4. TSan pass of the engine, obs and condinf suites in build-tsan/
# The sanitizer trees are configured with TERMILOG_OBS=ON explicitly so the
# tracing/metrics subsystem is exercised under both sanitizers (the obs
# suite spawns threads; the engine suite runs the worker pool; condinf
# sweeps submit each round from a worker's completion callback).
#
# --stress additionally runs the full-size generated-workload harness
# (docs/generator.md):
#   a. the stress-labelled suite at 2000 requests per test
#   b. the 10k-request CLI round trip: termilog --gen writes a manifest,
#      --batch replays it at jobs=1 and jobs=8 with --check-expect, and
#      the two output streams must be byte-identical
#   c. bench_engine --chaos 7: seeded failpoint replay (ladder
#      degradation, cache self-check, clean-round recovery, store-fault
#      rounds); BENCH_engine_chaos.json is this run's output
#
# --conditions runs the termination-condition sweep harness
# (docs/conditions.md):
#   a. the condinf-labelled suite (lattice pruning soundness, warm-store
#      reuse, generator expectation checks)
#   b. a corpus-wide --conditions sweep at jobs=1 and jobs=8 whose JSONL
#      streams must be byte-identical
#   c. a generated modes=K workload replayed with --check-expect under
#      --conditions --batch and plain --batch: every declared minimal-mode
#      set must be reproduced exactly, and a copy with one declaration
#      tampered must exit 4 under both
#   d. an ASan+UBSan pass over the condinf suite
#
# --serve runs the transport harness (docs/serve.md):
#   a. the net-labelled suite (multi-client ordering, deterministic shed,
#      idle timeout, torn frames, graceful drain, the stdio peer's
#      ServeTest cases) in the tier-1 tree
#   b. a 2000-request socket round trip: termilog_cli --listen serves a
#      generated manifest to --connect with 4 concurrent clients; the
#      response stream, compared per request (sorted, since only
#      cross-client interleaving may differ), must be byte-identical to
#      --batch on the same manifest, and SIGTERM must drain to exit 0
#   c. the socket-mode kill -9 drill: a --listen server with --store is
#      SIGKILLed mid-load, a restarted server replays the manifest from
#      the survivor store (nonzero persisted hits), byte-identical again
#   d. stdio round trips: --serve - (the stdio peer of the same NetServer),
#      with --queue-limit above the request count, must be byte-identical
#      to --batch over the same manifest, and over a modes=2 manifest of
#      "kind":"conditions" sweep lines plus one line with neither a query
#      nor a mode directive (--batch plans both with serve's planner)
#   e. a FIFO drill: --serve FIFO --store is sent SIGTERM while its writer
#      is still open; it must drain to exit 0, print the stats line, emit
#      a prefix of the --batch stream, and leave a store that reopens with
#      0 quarantined records
#   f. ASan and TSan passes over the net suite (the event loop, the
#      processing thread and the engine callbacks are the concurrency
#      surface)
#
# --inference runs the inference-cache harness (docs/engine.md): the
# inference regressions and the ContentCache contract suite (both
# instantiations) in the tier-1 tree, a warm-store replay whose second run
# must serve nonzero persisted hits of both record kinds (SCC and
# inference, appended through the one store path) with byte-identical
# output, a jobs=1 vs jobs=8 cold byte comparison (the DAG-scheduled
# parallel inference must be output-invisible), a --metrics run whose
# LP-caller counters must sum to simplex.solves and whose fixpoint memo
# must have served transfers and joins, a budgeted manifest (about half
# its requests trip mid-fixpoint, so the memo declines repeats it cannot
# afford) byte-identical at jobs=1 and jobs=4, and ASan+TSan passes over
# the same tests (the snapshot/apply handoff, the pending-inference
# countdown and the caches' single-flight are the concurrency surface).
#
# --crash runs the kill -9 durability drill (docs/persistence.md):
#   a. a 2000-request generated batch runs uninterrupted (no store) to
#      produce the reference report stream
#   b. the same batch runs with --store and is SIGKILLed mid-run, after
#      the store file has visibly grown
#   c. the batch reruns with the survivor store; its stdout must be
#      byte-identical to the uninterrupted run's, with nonzero
#      persisted-cache hits (recovered work, not recomputed luck)
#   d. an ASan+UBSan pass over the persist and serve tests of the engine
#      and net suites
#
# Usage: scripts/check.sh [--tier1-only | --stress | --crash | --conditions |
#                          --serve | --inference]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run() {
  echo "== $*" >&2
  "$@"
}

# --- 1. tier-1: full build + full test suite ---------------------------
run cmake -B build -S . -DTERMILOG_OBS=ON
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure -j "$JOBS"
# An out-of-range flag value is a usage error, not a wrapped, saturated
# or ignored value.
for flag in "--jobs 4294967298" "--deadline-ms 99999999999999999999999"; do
  rc=0
  # Unquoted on purpose: "--flag value" splits into two words.
  ./build/examples/termilog_cli $flag --corpus perm >/dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 1 ]]; then
    echo "check.sh: $flag exited $rc, want 1" >&2
    exit 1
  fi
done

# Every --batch input form is planned by the same code, so a directory, a
# text manifest (FILE, FILE<TAB>QUERY, a comment, a missing file) and
# --conditions --batch must print exactly what --batch prints over their
# JSONL twins. Each run has error lines (bad.pl, nomode.pl or missing.pl),
# so each must exit 2.
forms="$(mktemp -d)"
trap 'rm -rf "$forms"' EXIT
printf '%s\n' ':- mode(app(b,f,f)).' ':- mode(app(f,f,b)).' \
    'app([], L, L).' 'app([H|T], L, [H|R]) :- app(T, L, R).' >"$forms/app.pl"
printf '%s\n' 'len([], 0).' 'len([_|T], s(N)) :- len(T, N).' \
    >"$forms/nomode.pl"
printf '%s\n' 'p(X :- .' >"$forms/bad.pl"
for f in app bad nomode; do
  printf '{"file":"%s/%s.pl"}\n' "$forms" "$f"
done >"$forms/dir.jsonl"
printf '# comment\n%s/app.pl\n%s/nomode.pl\tlen(b,f)\n%s/missing.pl\n' \
    "$forms" "$forms" "$forms" >"$forms/list.txt"
{
  printf '{"file":"%s/app.pl"}\n' "$forms"
  printf '{"file":"%s/nomode.pl","query":"len(b,f)"}\n' "$forms"
  printf '{"file":"%s/missing.pl"}\n' "$forms"
} >"$forms/list.jsonl"
sed 's/^{/{"kind":"conditions",/' "$forms/list.jsonl" >"$forms/cond.jsonl"
forms_run() {  # forms_run OUT ARGS...
  local out="$1" rc=0
  shift
  echo "== termilog_cli $* >$out" >&2
  ./build/examples/termilog_cli "$@" >"$out" 2>/dev/null || rc=$?
  if [[ "$rc" -ne 2 ]]; then
    echo "check.sh: termilog_cli $* exited $rc, want 2" >&2
    exit 1
  fi
}
forms_run "$forms/dir.out" --batch "$forms"
forms_run "$forms/dir.twin" --batch "$forms/dir.jsonl"
run cmp "$forms/dir.out" "$forms/dir.twin"
forms_run "$forms/list.out" --batch "$forms/list.txt"
forms_run "$forms/list.twin" --batch "$forms/list.jsonl"
run cmp "$forms/list.out" "$forms/list.twin"
forms_run "$forms/cond.out" --conditions --batch "$forms/list.txt"
forms_run "$forms/cond.twin" --batch "$forms/cond.jsonl"
run cmp "$forms/cond.out" "$forms/cond.twin"
# A text-mode --conditions error line ends in a newline, like the text
# reports around it.
for target in "--corpus nosuch" "$forms/missing.pl"; do
  # Unquoted on purpose: "--corpus nosuch" splits into two words.
  forms_run "$forms/err.txt" --conditions $target
  if [[ "$(tail -c 1 "$forms/err.txt" | wc -l)" -ne 1 ]]; then
    echo "check.sh: termilog_cli --conditions $target: stdout does not" \
         "end in a newline" >&2
    exit 1
  fi
done
rm -rf "$forms"

# A single run is one engine request whether it prints text or --json, so
# under a work budget both exit alike, and the text report holds no
# wall-clock figure: two text runs print the same bytes.
single="$(mktemp -d)"
trap 'rm -rf "$single"' EXIT
for name in nnf perm deriv gcd_subtract; do
  for budget in 20 300 1000; do
    echo "== termilog_cli --corpus $name --work-budget $budget [--json]" >&2
    text_rc=0
    json_rc=0
    ./build/examples/termilog_cli --corpus "$name" --work-budget "$budget" \
        >"$single/text1" 2>/dev/null || text_rc=$?
    ./build/examples/termilog_cli --corpus "$name" --work-budget "$budget" \
        >"$single/text2" 2>/dev/null || true
    ./build/examples/termilog_cli --corpus "$name" --work-budget "$budget" \
        --json >/dev/null 2>&1 || json_rc=$?
    if [[ "$text_rc" -ne "$json_rc" ]]; then
      echo "check.sh: --corpus $name --work-budget $budget exited" \
           "$text_rc as text and $json_rc with --json" >&2
      exit 1
    fi
    if ! cmp -s "$single/text1" "$single/text2"; then
      echo "check.sh: --corpus $name --work-budget $budget printed" \
           "different text on a repeated run" >&2
      exit 1
    fi
  done
done
# A single run attaches --store like every other engine surface, so a
# repeated run is served from the store.
run ./build/examples/termilog_cli --corpus perm --store "$single/store" \
    >/dev/null 2>&1
hits="$(./build/examples/termilog_cli --corpus perm --store "$single/store" \
    --json 2>/dev/null | grep -o '"engine":{[^}]*' |
    grep -o '"cache_hits":[0-9]*' | cut -d: -f2 || true)"
if [[ -z "$hits" || "$hits" -eq 0 ]]; then
  echo "check.sh: a repeated --corpus perm --store run served no cache" \
       "hits from the store" >&2
  exit 1
fi
# The store is a log with no duplicate: a key it holds is served as a hit
# and never appended again, so a repeated --batch appends nothing, a
# --conditions sweep adds only new keys, and --compact drops no byte.
run ./build/examples/termilog_cli --gen "5:count=300,mix=70/25/5" \
    --out "$single/gen.jsonl"
for pass in 1 2; do
  run ./build/examples/termilog_cli --batch "$single/gen.jsonl" \
      --check-expect --store "$single/log.store" >/dev/null \
      2>"$single/batch$pass.err"
done
if ! grep -q '^{"store":{.*"appends":0,' "$single/batch2.err"; then
  echo "check.sh: a repeated --batch on one --store appended records" >&2
  grep '^{"store"' "$single/batch2.err" >&2
  exit 1
fi
run ./build/examples/termilog_cli --conditions --store "$single/log.store" \
    >/dev/null 2>&1
run ./build/examples/termilog_cli --compact "$single/log.store" \
    2>"$single/compact.err"
# Compaction is deterministic and idempotent: compacting the compacted
# store rewrites the same bytes.
cp "$single/log.store" "$single/once.store"
run ./build/examples/termilog_cli --compact "$single/log.store" 2>/dev/null
run cmp "$single/once.store" "$single/log.store"
# A mistyped path is an error, and --compact creates nothing there.
rc=0
./build/examples/termilog_cli --compact "$single/missing.store" \
    2>"$single/missing.err" || rc=$?
if [[ "$rc" -ne 1 || -e "$single/missing.store" ]]; then
  echo "check.sh: --compact of a missing path exited $rc (want 1) or" \
       "created a file" >&2
  cat "$single/missing.err" >&2
  exit 1
fi
# The stats lines are JSON whatever the path holds.
esc="$single/a\"b\\c.store"
run ./build/examples/termilog_cli --corpus perm --store "$esc" >/dev/null \
    2>"$single/esc.err"
run ./build/examples/termilog_cli --compact "$esc" 2>"$single/esc.compact.err"
run python3 - "$single/compact.err" "$single/esc.err" \
    "$single/esc.compact.err" <<'PY'
import json
import sys


def stats(path, kind):
    for line in open(path):
        if line.startswith('{"%s":' % kind):
            return json.loads(line)[kind]
    sys.exit("check.sh: %s holds no {\"%s\":...} line" % (path, kind))


compact = stats(sys.argv[1], "compact")
if compact["bytes_after"] != compact["bytes_before"]:
    sys.exit("check.sh: --compact reclaimed bytes from a store that should "
             "hold no duplicate: %s" % compact)
stats(sys.argv[2], "store")
stats(sys.argv[3], "compact")
PY
rm -rf "$single"

# One analysis per run: --explain renders the report the run holds (perm's
# 3 recursive SCCs analyzed once), and --reorder runs its attempts on the
# run's engine, so SCCs and inference nodes an attempt leaves unchanged
# are cache hits (perm_unbound: 11 attempts after the run).
spans="$(mktemp -d)"
trap 'rm -rf "$spans"' EXIT
expect_spans() {  # expect_spans TRACE NAME OP COUNT
  local got
  got="$(grep -o "\"name\":\"$2\"" "$1" | wc -l)"
  if ! [ "$got" "-$3" "$4" ]; then
    echo "check.sh: $1 records $got $2 spans, want -$3 $4" >&2
    exit 1
  fi
}
run ./build/examples/termilog_cli --corpus perm --explain \
    --trace "$spans/explain.json" >/dev/null
expect_spans "$spans/explain.json" batch.run eq 1
expect_spans "$spans/explain.json" scc.analyze eq 3
expect_spans "$spans/explain.json" inference.scc eq 3
rc=0
./build/examples/termilog_cli --corpus perm_unbound --reorder \
    --trace "$spans/reorder.json" >/dev/null 2>&1 || rc=$?
if [[ "$rc" -ne 2 ]]; then
  echo "check.sh: --corpus perm_unbound --reorder exited $rc, want 2" >&2
  exit 1
fi
expect_spans "$spans/reorder.json" scc.analyze le 11
expect_spans "$spans/reorder.json" inference.scc le 14
rm -rf "$spans"

# corpus_report's JOBS follows termilog_cli's int-flag rule: trailing
# characters and values above INT_MAX are usage errors.
for jobs in 4294967298 2x; do
  rc=0
  ./build/examples/corpus_report "$jobs" >/dev/null 2>&1 || rc=$?
  if [[ "$rc" -ne 1 ]]; then
    echo "check.sh: corpus_report $jobs exited $rc, want 1" >&2
    exit 1
  fi
done

# FourierMotzkin::Project's history filter (docs/arithmetic.md, section 5)
# drops rows of nnf's hull projections without an LP: it must fire, and the
# prune LPs must stay at or below 450 (1,010 without the filter).
fm_metrics="$(mktemp)"
run ./build/examples/termilog_cli --corpus nnf --metrics "$fm_metrics" \
    >/dev/null
run python3 - "$fm_metrics" <<'PY'
import json
import sys

counters = json.load(open(sys.argv[1]))["counters"]
filtered = counters.get("fm.rows_filtered", 0)
prune = counters.get("simplex.solves.prune", 0)
if filtered <= 0 or prune > 450:
    sys.exit("check.sh: --corpus nnf has fm.rows_filtered %d (want > 0) and "
             "simplex.solves.prune %d (want <= 450)" % (filtered, prune))
PY
rm -f "$fm_metrics"

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "check.sh: tier-1 OK (sanitizer passes skipped)" >&2
  exit 0
fi

if [[ "${1:-}" == "--stress" ]]; then
  # --- a. stress suite at full size ------------------------------------
  run env TERMILOG_STRESS_REQUESTS=2000 \
      ctest --test-dir build --output-on-failure -L stress

  # --- b. 10k-request CLI round trip -----------------------------------
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
  manifest="$workdir/stress10k.jsonl"
  run ./build/examples/termilog_cli \
      --gen "2026:count=10000,sccs=1-3,preds=1-3,mix=70/25/5" \
      --out "$manifest"
  run ./build/examples/termilog_cli --batch "$manifest" --jobs 1 \
      --check-expect >"$workdir/out.j1.jsonl"
  run ./build/examples/termilog_cli --batch "$manifest" --jobs 8 \
      --check-expect >"$workdir/out.j8.jsonl"
  run cmp "$workdir/out.j1.jsonl" "$workdir/out.j8.jsonl"

  # --- c. seeded chaos replay ------------------------------------------
  run ./build/bench/bench_engine --chaos 7 >"$workdir/chaos.json"

  echo "check.sh: stress harness OK (10k round trip byte-identical)" >&2
  exit 0
fi

if [[ "${1:-}" == "--conditions" ]]; then
  # --- a. condinf suite --------------------------------------------------
  run ctest --test-dir build --output-on-failure -L condinf

  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT

  # --- b. corpus sweep, byte-identical across jobs levels ----------------
  run ./build/examples/termilog_cli --conditions --jobs 1 \
      >"$workdir/cond.j1.jsonl"
  run ./build/examples/termilog_cli --conditions --jobs 8 \
      >"$workdir/cond.j8.jsonl"
  run cmp "$workdir/cond.j1.jsonl" "$workdir/cond.j8.jsonl"

  # --- c. generated workload with exact minimal-mode expectations --------
  manifest="$workdir/modes.jsonl"
  run ./build/examples/termilog_cli \
      --gen "7:count=40,sccs=1-3,arity=3,modes=2,mix=70/30/0" \
      --out "$manifest"
  run ./build/examples/termilog_cli --conditions --batch "$manifest" \
      --jobs 8 --check-expect >"$workdir/modes.out.jsonl"
  # Plain --batch grades the same "expect_modes" declarations.
  run ./build/examples/termilog_cli --batch "$manifest" --jobs 8 \
      --check-expect >"$workdir/modes.batch.jsonl" 2>"$workdir/modes.err"
  run cmp "$workdir/modes.out.jsonl" "$workdir/modes.batch.jsonl"
  if ! grep -q ' 152/152 minimal-mode sets match' "$workdir/modes.err"; then
    echo "check.sh: --batch did not grade the 152 minimal-mode sets" >&2
    cat "$workdir/modes.err" >&2
    exit 1
  fi
  # One tampered declaration (a mode no sweep reports) must fail both.
  sed '0,/"expect_modes":{"\([^"]*\)":\[[^]]*\]/s//"expect_modes":{"\1":["x"]/' \
      "$manifest" >"$workdir/modes.bad.jsonl"
  for mode in --batch "--conditions --batch"; do
    rc=0
    # Unquoted on purpose: "--conditions --batch" splits into two words.
    ./build/examples/termilog_cli $mode "$workdir/modes.bad.jsonl" \
        --check-expect >/dev/null 2>&1 || rc=$?
    if [[ "$rc" -ne 4 ]]; then
      echo "check.sh: $mode over a tampered manifest exited $rc, want 4" >&2
      exit 1
    fi
  done

  # --- d. ASan over the condinf suite ------------------------------------
  run cmake -B build-asan -S . -DTERMILOG_SANITIZE=address -DTERMILOG_OBS=ON
  run cmake --build build-asan -j "$JOBS" --target termilog_condinf_tests
  run ctest --test-dir build-asan --output-on-failure -j "$JOBS" -L condinf

  echo "check.sh: conditions harness OK (corpus sweep byte-identical," \
       "generated expectations reproduced)" >&2
  exit 0
fi

if [[ "${1:-}" == "--serve" ]]; then
  # --- a. net suite in the tier-1 tree ----------------------------------
  run ctest --test-dir build --output-on-failure -L net

  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
  manifest="$workdir/serve2000.jsonl"
  sock="$workdir/serve.sock"
  store="$workdir/serve.store"
  run ./build/examples/termilog_cli \
      --gen "2026:count=2000,sccs=1-3,preds=1-3,mix=70/25/5" \
      --out "$manifest"

  # Verdict exits 2/3 are expected from --batch: the generated mix holds
  # not-proved and resource-limited requests by design.
  run_batch() {
    echo "== $*" >&2
    "$@" || { rc=$?; [[ "$rc" -eq 2 || "$rc" -eq 3 ]] || return "$rc"; }
  }

  wait_for_socket() {
    for _ in $(seq 1 200); do
      [[ -S "$1" ]] && return 0
      sleep 0.05
    done
    echo "check.sh: serve harness failed: $1 never appeared" >&2
    return 1
  }

  # --- b. reference stream + 4-client socket round trip ------------------
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      >"$workdir/out.ref.jsonl"
  ./build/examples/termilog_cli --listen "unix:$sock" --jobs 4 \
      >/dev/null 2>"$workdir/srv.err.txt" &
  server=$!
  wait_for_socket "$sock"
  run ./build/examples/termilog_cli --connect "unix:$sock" \
      --batch "$manifest" --clients 4 >"$workdir/out.net.jsonl" \
      2>"$workdir/client.err.txt"
  # Graceful drain is part of the contract: SIGTERM must exit 0.
  kill -TERM "$server"
  run wait "$server"
  # Per-request byte identity: each response must match --batch's line
  # for the same request; only cross-client interleaving may differ.
  run sort -o "$workdir/out.ref.sorted" "$workdir/out.ref.jsonl"
  run sort -o "$workdir/out.net.sorted" "$workdir/out.net.jsonl"
  run cmp "$workdir/out.ref.sorted" "$workdir/out.net.sorted"

  # --- c. socket-mode kill -9 drill --------------------------------------
  ./build/examples/termilog_cli --listen "unix:$sock" --jobs 4 \
      --store "$store" >/dev/null 2>&1 &
  victim=$!
  wait_for_socket "$sock"
  ./build/examples/termilog_cli --connect "unix:$sock" \
      --batch "$manifest" --clients 4 >/dev/null 2>&1 &
  loader=$!
  # Wait until the workers have demonstrably persisted work, then kill
  # the server without ceremony; the loader's half-dead connections are
  # allowed to fail.
  for _ in $(seq 1 200); do
    size=$(stat -c %s "$store" 2>/dev/null || echo 0)
    [[ "$size" -gt 4096 ]] && break
    sleep 0.05
  done
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  wait "$loader" 2>/dev/null || true
  size=$(stat -c %s "$store" 2>/dev/null || echo 0)
  if [[ "$size" -le 16 ]]; then
    echo "check.sh: serve drill setup failed: store never grew" >&2
    exit 1
  fi
  echo "== killed mid-load with $size store bytes on disk" >&2

  # Restart on the survivor store (the stale socket file is replaced) and
  # replay the full manifest: byte-identical again, with recovered work
  # served from the store rather than recomputed.
  ./build/examples/termilog_cli --listen "unix:$sock" --jobs 4 \
      --store "$store" >/dev/null 2>"$workdir/srv.warm.err.txt" &
  server=$!
  wait_for_socket "$sock"
  run ./build/examples/termilog_cli --connect "unix:$sock" \
      --batch "$manifest" --clients 4 >"$workdir/out.warm.jsonl" \
      2>/dev/null
  kill -TERM "$server"
  run wait "$server"
  run sort -o "$workdir/out.warm.sorted" "$workdir/out.warm.jsonl"
  run cmp "$workdir/out.ref.sorted" "$workdir/out.warm.sorted"
  if ! grep -q '"persisted_hits":[1-9]' "$workdir/srv.warm.err.txt"; then
    echo "check.sh: serve drill failed: warm restart served zero" \
         "persisted-cache hits" >&2
    cat "$workdir/srv.warm.err.txt" >&2
    exit 1
  fi

  # --- d. stdio round trips: the --serve peer matches --batch ------------
  run ./build/examples/termilog_cli --serve - --jobs 4 --queue-limit 4000 \
      <"$manifest" >"$workdir/out.stdio.jsonl" 2>/dev/null
  run cmp "$workdir/out.ref.jsonl" "$workdir/out.stdio.jsonl"
  # --batch plans sweep lines and a modeless, queryless line with the
  # planner ServeRequest uses, so their bytes match.
  sweeps="$workdir/sweeps.jsonl"
  run ./build/examples/termilog_cli \
      --gen "7:count=40,sccs=1-3,arity=3,modes=2,mix=70/30/0" --out "$sweeps"
  echo '{"name":"modeless","source":"p(s(X)) :- p(X).\np(0).\n"}' >>"$sweeps"
  run_batch ./build/examples/termilog_cli --batch "$sweeps" --jobs 2 \
      >"$workdir/sweeps.batch.jsonl"
  run ./build/examples/termilog_cli --serve - --jobs 2 --queue-limit 1000 \
      <"$sweeps" >"$workdir/sweeps.stdio.jsonl" 2>/dev/null
  run cmp "$workdir/sweeps.batch.jsonl" "$workdir/sweeps.stdio.jsonl"

  # --- e. FIFO drill: SIGTERM drains --serve to exit 0 ------------------
  fifo="$workdir/serve.fifo"
  fifo_store="$workdir/fifo.store"
  mkfifo "$fifo"
  ./build/examples/termilog_cli --serve "$fifo" --jobs 4 --queue-limit 4000 \
      --store "$fifo_store" >"$workdir/out.fifo.jsonl" \
      2>"$workdir/fifo.err.txt" &
  server=$!
  # The writer stays open, so only the signal can end the server.
  exec 3>"$fifo"
  head -n 400 "$manifest" >&3
  for _ in $(seq 1 200); do
    [[ "$(wc -l <"$workdir/out.fifo.jsonl")" -ge 50 ]] && break
    sleep 0.05
  done
  kill -TERM "$server"
  run wait "$server"
  exec 3>&-
  if ! grep -q '"served":[1-9]' "$workdir/fifo.err.txt"; then
    echo "check.sh: FIFO drill failed: no stats line after SIGTERM" >&2
    cat "$workdir/fifo.err.txt" >&2
    exit 1
  fi
  answered=$(wc -l <"$workdir/out.fifo.jsonl")
  echo "== SIGTERM drained --serve FIFO after $answered responses" >&2
  head -n "$answered" "$workdir/out.ref.jsonl" >"$workdir/out.ref.prefix"
  run cmp "$workdir/out.ref.prefix" "$workdir/out.fifo.jsonl"
  run ./build/examples/termilog_cli --compact "$fifo_store" \
      2>"$workdir/fifo.compact.txt"
  if ! grep -q '"records_quarantined":0' "$workdir/fifo.compact.txt"; then
    echo "check.sh: FIFO drill failed: the store did not reopen clean" >&2
    cat "$workdir/fifo.compact.txt" >&2
    exit 1
  fi

  # --- f. ASan and TSan over the net suite -------------------------------
  for flavor in address thread; do
    tree="build-asan"
    [[ "$flavor" == "thread" ]] && tree="build-tsan"
    run cmake -B "$tree" -S . -DTERMILOG_SANITIZE="$flavor" -DTERMILOG_OBS=ON
    run cmake --build "$tree" -j "$JOBS" --target termilog_net_tests
    run ctest --test-dir "$tree" --output-on-failure -j "$JOBS" -L net
  done

  echo "check.sh: serve harness OK (socket and stdio round trips" \
       "byte-identical, drains exit 0, kill -9 replay recovered)" >&2
  exit 0
fi

if [[ "${1:-}" == "--inference" ]]; then
  # --- a. inference regressions in the tier-1 tree -----------------------
  # ContentCache matches the typed contract suite's SCC instantiation too.
  INFERENCE_TESTS='Inference|CanonicalInferenceKey|ContentCache'
  run ctest --test-dir build --output-on-failure -j "$JOBS" \
      -R "$INFERENCE_TESTS"

  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
  manifest="$workdir/inf500.jsonl"
  store="$workdir/inf.store"
  run ./build/examples/termilog_cli \
      --gen "3090:count=500,sccs=1-3,preds=1-3,mix=70/25/5" \
      --out "$manifest"

  run_batch() {
    echo "== $*" >&2
    "$@" || { rc=$?; [[ "$rc" -eq 2 || "$rc" -eq 3 ]] || return "$rc"; }
  }

  # --- b. jobs=1 vs jobs=8 cold: parallel inference is output-invisible --
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 1 \
      >"$workdir/out.j1.jsonl"
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 8 \
      >"$workdir/out.j8.jsonl"
  run cmp "$workdir/out.j1.jsonl" "$workdir/out.j8.jsonl"

  # --- c. warm-store replay: inference recovered, not recomputed ---------
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      --store "$store" >"$workdir/out.cold.jsonl" 2>"$workdir/err.cold.txt"
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      --store "$store" >"$workdir/out.warm.jsonl" 2>"$workdir/err.warm.txt"
  run cmp "$workdir/out.cold.jsonl" "$workdir/out.warm.jsonl"
  run cmp "$workdir/out.j1.jsonl" "$workdir/out.warm.jsonl"
  for kind in persisted_hits inference_persisted_hits; do
    if ! grep -q "\"$kind\":[1-9]" "$workdir/err.warm.txt"; then
      echo "check.sh: inference harness failed: warm restart served zero" \
           "$kind" >&2
      cat "$workdir/err.warm.txt" >&2
      exit 1
    fi
  done

  # --- d. LP solves split by caller; the fixpoint memo served repeats -----
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      --metrics "$workdir/metrics.json" >/dev/null
  counter() {  # a counter's value in the metrics file, 0 when absent
    local value
    value="$(grep -o "\"$1\":[0-9]*" "$workdir/metrics.json" |
             head -1 | cut -d: -f2 || true)"
    echo "${value:-0}"
  }
  solves="$(counter simplex.solves)"
  split=0
  for caller in emptiness prune entailment analyzer; do
    split=$((split + $(counter "simplex.solves.$caller")))
  done
  if [[ "$solves" -eq 0 || "$split" -ne "$solves" ]]; then
    echo "check.sh: inference harness failed: LP solves by caller sum to" \
         "$split, simplex.solves is $solves" >&2
    exit 1
  fi
  for hits in inference.transfer_hits inference.join_hits; do
    if [[ "$(counter "$hits")" -le 0 ]]; then
      echo "check.sh: inference harness failed: $hits is 0" >&2
      exit 1
    fi
  done

  # --- e. a budgeted manifest: memo declines are output-invisible --------
  budgeted="$workdir/budget300.jsonl"
  run ./build/examples/termilog_cli \
      --gen "5:count=300,sccs=1-3,preds=1-3,mix=0/0/100,budget=300" \
      --out "$budgeted"
  run_batch ./build/examples/termilog_cli --batch "$budgeted" --jobs 1 \
      >"$workdir/budget.j1.jsonl"
  run_batch ./build/examples/termilog_cli --batch "$budgeted" --jobs 4 \
      >"$workdir/budget.j4.jsonl"
  run cmp "$workdir/budget.j1.jsonl" "$workdir/budget.j4.jsonl"

  # --- f. ASan and TSan over the inference regressions -------------------
  # The regressions live in both the engine and the unit suite
  # (InferenceTest.*), so both are rebuilt: ctest would otherwise run a
  # stale unit binary, or none.
  for flavor in address thread; do
    tree="build-asan"
    [[ "$flavor" == "thread" ]] && tree="build-tsan"
    run cmake -B "$tree" -S . -DTERMILOG_SANITIZE="$flavor" -DTERMILOG_OBS=ON
    run cmake --build "$tree" -j "$JOBS" \
        --target termilog_engine_tests termilog_tests
    run ctest --test-dir "$tree" --output-on-failure -j "$JOBS" \
        -R "$INFERENCE_TESTS"
  done

  echo "check.sh: inference harness OK (jobs sweep byte-identical," \
       "warm store skipped recomputation, LP split sums to the total," \
       "memo served repeats, budgeted manifest byte-identical)" >&2
  exit 0
fi

if [[ "${1:-}" == "--crash" ]]; then
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
  manifest="$workdir/crash2000.jsonl"
  store="$workdir/crash.store"
  run ./build/examples/termilog_cli \
      --gen "1991:count=2000,sccs=1-3,preds=1-3,mix=70/25/5" \
      --out "$manifest"

  # Verdict exits 2/3 are expected: the generated mix deliberately holds
  # not-proved and resource-limited requests. Byte identity of the report
  # stream is the assertion, not the verdict tally.
  run_batch() {
    echo "== $*" >&2
    "$@" || { rc=$?; [[ "$rc" -eq 2 || "$rc" -eq 3 ]] || return "$rc"; }
  }

  # --- a. reference stream: uninterrupted, storeless ---------------------
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      >"$workdir/out.ref.jsonl"

  # --- b. kill -9 mid-run with a store attached --------------------------
  ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      --store "$store" >"$workdir/out.killed.jsonl" \
      2>"$workdir/err.killed.txt" &
  victim=$!
  # Wait until the workers have demonstrably persisted work (the store
  # outgrows its 16-byte header), then kill without ceremony.
  for _ in $(seq 1 200); do
    size=$(stat -c %s "$store" 2>/dev/null || echo 0)
    [[ "$size" -gt 4096 ]] && break
    sleep 0.05
  done
  kill -9 "$victim" 2>/dev/null || true
  wait "$victim" 2>/dev/null || true
  size=$(stat -c %s "$store" 2>/dev/null || echo 0)
  if [[ "$size" -le 16 ]]; then
    echo "check.sh: crash drill setup failed: store never grew" >&2
    exit 1
  fi
  echo "== killed mid-run with $size store bytes on disk" >&2

  # --- c. warm restart must reproduce the reference bytes ---------------
  run_batch ./build/examples/termilog_cli --batch "$manifest" --jobs 4 \
      --store "$store" >"$workdir/out.warm.jsonl" \
      2>"$workdir/err.warm.txt"
  run cmp "$workdir/out.ref.jsonl" "$workdir/out.warm.jsonl"
  if ! grep -q '"persisted_hits":[1-9]' "$workdir/err.warm.txt"; then
    echo "check.sh: crash drill failed: warm restart served zero" \
         "persisted-cache hits" >&2
    cat "$workdir/err.warm.txt" >&2
    exit 1
  fi

  # --- d. ASan over the persist and serve tests -------------------------
  # ServeTest lives in the net binary (the stdio peer); the filter also
  # picks NetServerTest there.
  run cmake -B build-asan -S . -DTERMILOG_SANITIZE=address -DTERMILOG_OBS=ON
  run cmake --build build-asan -j "$JOBS" \
      --target termilog_engine_tests termilog_net_tests
  run ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -R 'Persist|Serve|StoreWriter'

  echo "check.sh: crash drill OK (kill -9 replay byte-identical," \
       "recovered hits served)" >&2
  exit 0
fi

# --- 2. UBSan over the arithmetic-heavy suites -------------------------
# UBSan findings are fatal in sanitizer trees (-fno-sanitize-recover), so
# e.g. a signed overflow at the int64 boundary fails its unit test here.
run cmake -B build-ubsan -S . -DTERMILOG_SANITIZE=undefined -DTERMILOG_OBS=ON
run cmake --build build-ubsan -j "$JOBS" \
    --target termilog_tests termilog_engine_tests
run ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L 'unit|engine'

# --- 3. ASan+UBSan over the unit suite and the concurrency-heavy suites
# Rational owns a heap BigInt pair behind hand-written copy and move, so
# the unit suite (the arithmetic kernel) runs under ASan too. -L takes a
# regex: select every test labelled unit, engine, obs or condinf.
run cmake -B build-asan -S . -DTERMILOG_SANITIZE=address -DTERMILOG_OBS=ON
run cmake --build build-asan -j "$JOBS" --target termilog_tests \
    termilog_engine_tests termilog_obs_tests termilog_condinf_tests
run ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
    -L 'unit|engine|obs|condinf'

# --- 4. TSan over the concurrency-heavy suites ------------------------
run cmake -B build-tsan -S . -DTERMILOG_SANITIZE=thread -DTERMILOG_OBS=ON
run cmake --build build-tsan -j "$JOBS" \
    --target termilog_engine_tests termilog_obs_tests termilog_condinf_tests
run ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -L 'engine|obs|condinf'

echo "check.sh: tier-1 + UBSan + ASan + TSan passes OK" >&2
