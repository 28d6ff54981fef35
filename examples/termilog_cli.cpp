// termilog_cli: command-line driver for the analyzer. This is the shape a
// downstream user consumes the library in: point it at a Prolog-subset
// file, name a query pattern, get a verdict and a certificate.
//
// Usage:
//   termilog_cli FILE QUERY [options]
//   termilog_cli --corpus NAME [options]
//   termilog_cli --batch DIR|MANIFEST [--jobs N] [options]
//   termilog_cli --gen SEED[:PARAMS] [--out FILE]
//   termilog_cli --serve FIFO|- [--queue-limit N] [--store PATH] [options]
//   termilog_cli --listen unix:PATH|tcp:HOST:PORT [--queue-limit N] [options]
//   termilog_cli --connect unix:PATH|tcp:HOST:PORT --batch MANIFEST
//                [--clients N] [--window N]
//   termilog_cli --conditions [FILE | --corpus NAME | --batch ...] [options]
//   termilog_cli --compact PATH
//
//   FILE    program file (Prolog subset; see README)
//   QUERY   entry pattern, e.g. "perm(b,f)" (b = bound, f = free).
//           Omitted if the file has `:- mode(pred(b,f)).` directives:
//           the run then analyzes one query per directive.
//
// Batch mode analyzes many requests through the parallel engine
// (docs/engine.md). Every input form is read into manifest entries: DIR
// is every *.pl file in sorted order; MANIFEST is either a text file of
// lines
//   corpus:NAME          a built-in corpus entry
//   FILE [QUERY]         a program file (QUERY after a space or tab)
// (# comments and blank lines ignored), or — when its first byte is '{' —
// a JSONL manifest (docs/generator.md): one JSON object per line with
// "source" (inline program) or "file", plus optional "query", "name",
// "kind", "expect", "expect_modes" and per-request "limits". Each entry is
// planned by the code serve mode uses (src/engine/serve.h), so an entry
// prints the bytes --serve answers: its "query", else one request per
// `:- mode(...)` directive (named "NAME QUERY" when there are several;
// serve answers only the first), else an error line; a "kind":"conditions"
// entry is a sweep (below). Output is one JSON line per request, streamed
// to stdout in request order — byte-identical for every --jobs value —
// with an aggregate stats object (cache hits/misses, work spend) on
// stderr.
//
// Generator mode (--gen, docs/generator.md) emits a JSONL manifest of
// synthetic programs with declared expected verdicts to --out (default
// stdout); the spec is "SEED:count=10000,sccs=1-3,preds=1-3,arity=2,
// depth=2,fanout=2,mix=70/25/5,dup=0,budget=1,prefix=gen" (every key
// optional). Feed the manifest back through --batch; --check-expect then
// verifies every verdict against the generator's declaration (exit 4 on
// mismatch) — the stress harness in scripts/check.sh --stress.
//
// Serve mode (--serve, docs/serve.md) is a long-running request loop
// over the same JSONL framing as --batch: one manifest-entry object per
// input line (FIFO path or '-' for stdin), one report JSON line per
// request on stdout, in request order, until EOF. A bounded waiting room
// (--queue-limit: admitted requests not yet answered) sheds overload with
// a deterministic RESOURCE_EXHAUSTED response instead of queueing without
// bound, and per-request deadlines (--deadline-ms or a line's own
// "limits") are enforced by the ResourceGovernor. Combine with --store so
// every client shares one durable cache. A line with "kind":"conditions"
// answers with a termination-condition sweep report (below); an unknown
// "kind" answers with the structured per-request error shape.
//
// Listen mode (--listen, docs/serve.md) is serve mode behind real
// sockets: a Unix-domain and/or TCP listener (the flag repeats) drives a
// poll event loop serving many concurrent clients, each speaking the same
// JSONL request protocol with per-connection response ordering, bounded
// read/write buffers (over-long lines answered with a structured error,
// slow readers backpressured), idle timeouts (--idle-timeout-ms), and the
// shared --queue-limit waiting room shedding overload deterministically.
// --serve's FIFO or stdin is one more connection of the same loop.
// SIGTERM/SIGINT drain gracefully in both modes: stop accepting, answer
// everything admitted, flush the --store, exit 0.
//
// Connect mode (--connect, docs/serve.md) is the built-in load client:
// it replays a JSONL manifest (--batch FILE, or a positional file)
// against a --listen server over --clients connections with --window
// requests pipelined each, prints every response line to stdout
// (per-connection order preserved; interleaving across clients is
// unordered — sort to compare against --batch output), and reports
// latency percentiles and throughput on stderr.
//
// Conditions mode (--conditions, docs/conditions.md) infers, for every
// defined predicate, the weakest binding patterns under which termination
// is proved, by sweeping the boundedness lattice through the engine with
// frontier pruning. It is batch mode with every entry a
// "kind":"conditions" sweep, over --batch's inputs, a FILE, --corpus NAME
// or (with none of these) the whole built-in corpus; a FILE or --corpus
// NAME prints a text report unless --json is given. --jobs parallelizes
// the mode variants (output bytes are identical for every value), and
// --store makes a repeat sweep mostly persisted cache hits.
//
// Store maintenance (--compact PATH) rewrites the persistent store's
// append-only log to its live-entry minimum (docs/persistence.md),
// reporting recovery and size stats on stderr.
//
// Options:
//   --json                 structured JSON output instead of text, one
//                          line per query (--batch is always JSON)
//   --jobs N               engine worker threads, in every mode (default 1)
//   --no-cache             disable the engine's content-addressed caches
//   --store PATH           durable SCC and inference outcome store
//                          (docs/persistence.md), in every mode: warm-starts
//                          the caches from PATH (crash recovery
//                          + per-record verification on load) and persists
//                          new outcomes write-behind; flushed on exit
//   --serve FIFO|-         serve JSONL requests from FIFO (or stdin) until
//                          EOF instead of running a batch
//   --conditions           termination-condition sweep instead of a
//                          single-mode analysis (see above)
//   --compact PATH         compact the persistent store at PATH and exit
//   --queue-limit N        serve/listen waiting room: admitted requests
//                          not yet answered before overload shedding
//                          (default 64)
//   --listen ADDR          socket server mode; ADDR is unix:PATH or
//                          tcp:HOST:PORT (repeatable for both at once)
//   --connect ADDR         load-client mode against a --listen server
//   --clients N            connect-mode concurrent connections (default 1)
//   --window N             connect-mode pipelined requests per connection
//                          (default 8)
//   --idle-timeout-ms N    serve/listen: close a connection idle this long
//                          (no bytes, no request in flight; default off)
//   --max-line-bytes N     serve/listen request line cap (default 1 MiB);
//                          longer lines answer with a structured error
//   --store-auto-compact R compact the --store when its dead-record
//                          fraction (shadowed + quarantined bytes) reaches
//                          R (0 < R <= 1), checked at open and after the
//                          final flush; manual --compact PATH still works
//   --check-expect         with --batch over a JSONL manifest: compare each
//                          plain verdict against its "expect" field and
//                          each sweep against its "expect_modes" sets
//   --out FILE             with --gen: write the manifest here
//   --transform            run the Appendix A pipeline first
//   --negative-deltas      enable the Appendix C free-delta mode
//   --no-inference         skip inter-argument inference (manual mode)
//   --supply P/N:SPEC      supply constraints, e.g. --supply "edge/2:a1 >= 1 + a2"
//   --run GOAL             after analysis, run GOAL under SLD resolution
//   --reorder              if analysis fails, search for a subgoal order
//                          that is provably terminating (capture rules)
//   --explain              print the full proof trace (Eq. 1 blocks,
//                          Eq. 9 rows, deltas, certificate)
//   --show-constraints     print the inter-argument constraint store
//   --baselines            also run the three prior-art analyzers
//   --deadline-ms N        wall-clock budget; every budget is a limit per
//                          task (docs/engine.md)
//   --work-budget N        abstract work-tick budget (FM row combinations,
//                          simplex pivots, inference sweeps, ...)
//   --limb-limit N         cap on the largest BigInt (32-bit limbs)
//   --trace FILE           write a span trace of the run (Chrome
//                          trace_event JSON; a .jsonl suffix selects one
//                          object per line). Env: TERMILOG_TRACE=FILE.
//   --metrics FILE         write the metrics registry (counters and
//                          histograms) as JSON. Env: TERMILOG_METRICS=FILE.
//                          Both are side channels: analysis output bytes
//                          are identical with or without them
//                          (docs/observability.md).
//
// Exit codes: 0 = proved, 2 = not proved, 3 = resource-limited (a budget
// tripped; the report printed is valid but partial), 4 = --check-expect
// found mismatches, 5 = a content cache failed its integrity self-check
// (after a --store warm start or at shutdown; the store is suspect, see
// docs/persistence.md), 1 = usage/parse error. In batch and conditions
// mode an error line is not proved, and a sweep is proved when no probe
// tripped a budget. When --check-expect verified at least one declaration,
// all matched and no line is an error, the exit is 0 regardless of the
// verdict mix: the assertion being made is "engine agrees with the
// manifest", not "everything proved".

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "termilog/termilog.h"

using namespace termilog;

namespace {

int Fail(const char* message) {
  std::fprintf(stderr, "termilog_cli: %s\n", message);
  return EXIT_FAILURE;
}

constexpr int kExitNotProved = 2;
constexpr int kExitResourceLimited = 3;
constexpr int kExitExpectMismatch = 4;
constexpr int kExitSelfCheck = 5;

// 0 proved / 2 not proved / 3 resource-limited, with the tripped budget on
// stderr so scripts can tell a weak verdict from an underfunded one.
int VerdictExit(bool proved, bool resource_limited,
                const std::string& first_trip) {
  if (resource_limited) {
    std::fprintf(stderr, "termilog_cli: resource budget tripped: %s\n",
                 first_trip.c_str());
  }
  if (proved) return EXIT_SUCCESS;
  return resource_limited ? kExitResourceLimited : kExitNotProved;
}

// A value past the int64 range is rejected, never saturated.
bool ParseInt64Flag(const char* text, int64_t* out) {
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 0) {
    return false;
  }
  *out = value;
  return true;
}

// For flags stored as int: a value above INT_MAX is rejected, never
// narrowed.
bool ParseIntFlag(const char* text, int* out) {
  int64_t value = 0;
  if (!ParseInt64Flag(text, &value) || value > INT_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

// One input of --batch or --conditions: a manifest entry and the
// AnalysisOptions it runs under.
struct BatchInput {
  gen::ManifestEntry entry;
  AnalysisOptions options;
};

// A program file, named by its path.
BatchInput FileInput(const std::string& file, const std::string& query,
                     const AnalysisOptions& base) {
  BatchInput input{gen::ManifestEntry(), base};
  input.entry.name = file;
  input.entry.file = file;
  input.entry.query = query;
  return input;
}

// The built-in corpus entry NAME, named "corpus:NAME", with its source
// inline, its query, and the options it needs on top of `base`.
BatchInput CorpusInput(const std::string& name, const AnalysisOptions& base) {
  BatchInput input{gen::ManifestEntry(), base};
  input.entry.name = "corpus:" + name;
  const CorpusEntry* entry = FindCorpusEntry(name);
  if (entry == nullptr) {
    input.entry.error = Status::InvalidArgument("unknown corpus entry");
    return input;
  }
  input.entry.source = entry->source;
  input.entry.query = entry->query;
  input.options.apply_transformations |= entry->needs_transformations;
  input.options.allow_negative_deltas |= entry->needs_negative_deltas;
  for (const auto& supplied : entry->supplied_constraints) {
    input.options.supplied_constraints.push_back(supplied);
  }
  return input;
}

// Reads --batch DIR|MANIFEST (see the header comment) into inputs under
// `base`. Fails when the path is unreadable or names no request.
Result<std::vector<BatchInput>> ReadBatch(const std::string& path,
                                          const AnalysisOptions& base) {
  namespace fs = std::filesystem;
  std::vector<BatchInput> inputs;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.path().extension() == ".pl") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      return Status::InvalidArgument("--batch directory holds no *.pl files");
    }
    for (const std::string& file : files) {
      inputs.push_back(FileInput(file, "", base));
    }
    return inputs;
  }
  std::ifstream in(path);
  if (!in) return Status::InvalidArgument("cannot open --batch manifest");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  size_t first = text.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && text[first] == '{') {
    // JSONL manifest (docs/generator.md has the line schema).
    for (gen::ManifestEntry& entry : gen::ParseManifestJsonl(text)) {
      inputs.push_back(BatchInput{std::move(entry), base});
    }
  } else {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      size_t start = line.find_first_not_of(" \t");
      if (start == std::string::npos || line[start] == '#') continue;
      size_t end = line.find_last_not_of(" \t\r");
      line = line.substr(start, end - start + 1);
      if (line.rfind("corpus:", 0) == 0) {
        inputs.push_back(CorpusInput(line.substr(7), base));
        continue;
      }
      // FILE [QUERY]: the file name ends at the first space or tab.
      size_t split = line.find_first_of(" \t");
      std::string query;
      if (split != std::string::npos) {
        query = line.substr(line.find_first_not_of(" \t", split));
      }
      inputs.push_back(FileInput(line.substr(0, split), query, base));
    }
  }
  if (inputs.empty()) {
    return Status::InvalidArgument("--batch manifest names no requests");
  }
  return inputs;
}

// Opens the --store file (replaying its log with the recovery rules in
// docs/persistence.md), reports what recovery did on stderr, and attaches
// it to the engine, which warm-starts both caches and audits them with
// BatchEngine::SelfCheck. Returns 0 on success, EXIT_FAILURE when the
// filesystem refuses the path, kExitSelfCheck when the warm-started cache
// fails its audit (the store is suspect; nothing was analyzed).
int AttachStoreOrFail(BatchEngine& engine, const std::string& store_path,
                      double auto_compact_ratio) {
  if (store_path.empty()) return 0;
  Result<std::unique_ptr<persist::PersistentStore>> store =
      persist::PersistentStore::Open(store_path);
  if (!store.ok()) {
    std::fprintf(stderr, "termilog_cli: --store: %s\n",
                 store.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  for (const std::string& note : (*store)->stats().notes) {
    std::fprintf(stderr, "termilog_cli: store recovery: %s\n", note.c_str());
  }
  // --store-auto-compact: shed accumulated dead bytes before the cache
  // warm-starts, so a long-lived store converges to its live minimum
  // without a manual --compact pass.
  Result<bool> compacted =
      (*store)->AutoCompactIfNeeded(auto_compact_ratio);
  if (!compacted.ok()) {
    std::fprintf(stderr, "termilog_cli: --store-auto-compact: %s\n",
                 compacted.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  if (*compacted) {
    std::fprintf(stderr, "termilog_cli: %s\n",
                 (*store)->stats().notes.back().c_str());
  }
  Status attached = engine.AttachStore(std::move(*store));
  if (!attached.ok()) {
    std::fprintf(stderr, "termilog_cli: store self-check failed: %s\n",
                 attached.ToString().c_str());
    return kExitSelfCheck;
  }
  return 0;
}

// Shutdown path for a store-attached engine: drain the write-behind
// queue, fsync, re-audit both caches. A flush failure is a warning (a lost
// write degrades to a future cache miss, the printed verdicts stand); a
// failed self-check overrides `code` with kExitSelfCheck because the
// verdict/provenance bookkeeping itself is no longer trustworthy.
int FinishStore(BatchEngine& engine, int code,
                double auto_compact_ratio = 0.0) {
  if (engine.store() == nullptr) return code;
  Status flushed = engine.FlushStore();
  if (!flushed.ok()) {
    std::fprintf(stderr, "termilog_cli: store flush failed: %s\n",
                 flushed.ToString().c_str());
  }
  // Post-flush auto-compaction: a long serve/batch run appends shadowed
  // duplicates; reclaim them now if the dead fraction crossed the bar.
  Result<bool> compacted =
      engine.store()->AutoCompactIfNeeded(auto_compact_ratio);
  if (!compacted.ok()) {
    std::fprintf(stderr, "termilog_cli: --store-auto-compact: %s\n",
                 compacted.status().ToString().c_str());
  } else if (*compacted) {
    std::fprintf(stderr, "termilog_cli: %s\n",
                 engine.store()->stats().notes.back().c_str());
  }
  persist::StoreStats stats = engine.store()->stats();
  std::fprintf(stderr,
               "{\"store\":{\"path\":\"%s\",\"records_loaded\":%lld,"
               "\"records_quarantined\":%lld,\"tail_bytes_truncated\":%lld,"
               "\"appends\":%lld,\"append_failures\":%lld,"
               "\"entries\":%lld,\"inference_entries\":%lld}}\n",
               engine.store()->path().c_str(),
               static_cast<long long>(stats.records_loaded),
               static_cast<long long>(stats.records_quarantined),
               static_cast<long long>(stats.tail_bytes_truncated),
               static_cast<long long>(stats.appends),
               static_cast<long long>(stats.append_failures),
               static_cast<long long>(engine.store()->size()),
               static_cast<long long>(
                   engine.store()->entries<CachedInferenceOutcome>().size()));
  Status audit = engine.SelfCheck();
  if (!audit.ok()) {
    std::fprintf(stderr, "termilog_cli: cache self-check failed: %s\n",
                 audit.ToString().c_str());
    return kExitSelfCheck;
  }
  return code;
}

// Runs every input through one engine, planned by the serve planner
// (ServeRequest's), and prints one line per request, sweep or error in
// input order: a sweep's report as JSON, or as text when `text` is set;
// byte-identical for every --jobs value. Sweeps start first and advance
// from engine workers while BatchEngine::Run streams the plain requests.
// Returns the process exit code.
int RunBatch(const std::vector<BatchInput>& inputs, bool text, int jobs,
             bool use_cache, bool check_expect, const std::string& store_path,
             double auto_compact) {
  std::vector<std::optional<std::string>> lines;  // one slot per output line
  std::vector<BatchRequest> requests;
  struct Planned {  // per request: its slot, query text and declaration
    size_t slot;
    std::string query;
    std::string expect;
  };
  std::vector<Planned> planned;
  std::vector<condinf::ConditionsSweep> sweeps;
  std::vector<std::pair<size_t, gen::ExpectModes>> swept;  // per sweep
  bool any_error = false;
  auto error_line = [&](std::string line) {
    any_error = true;
    lines.emplace_back(std::move(line));
  };
  for (const BatchInput& input : inputs) {
    const gen::ManifestEntry& entry = input.entry;
    Result<Program> program = LoadProgram(entry);
    if (!program.ok()) {
      error_line(EntryErrorLine(entry, program.status()));
      continue;
    }
    if (entry.kind == "conditions") {
      swept.emplace_back(lines.size(), entry.expect_modes);
      lines.emplace_back();
      sweeps.push_back(PlanSweep(entry, std::move(*program), input.options));
      continue;
    }
    Result<std::vector<std::string>> queries = EntryQueries(entry, *program);
    if (!queries.ok()) {
      error_line(EntryErrorLine(entry, queries.status()));
      continue;
    }
    for (const std::string& query : *queries) {
      std::string name =
          queries->size() > 1 ? entry.name + " " + query : entry.name;
      Result<BatchRequest> request =
          PlanRequest(entry, name, *program, query, input.options);
      if (!request.ok()) {
        error_line(ServeErrorLine(name, request.status()));
        continue;
      }
      planned.push_back(Planned{lines.size(), query, entry.expect});
      lines.emplace_back();
      requests.push_back(std::move(*request));
    }
  }

  EngineOptions engine_options;
  engine_options.jobs = jobs;
  engine_options.use_cache = use_cache;
  BatchEngine engine(engine_options);
  int attach = AttachStoreOrFail(engine, store_path, auto_compact);
  if (attach != 0) return attach;

  // Sweeps finish on engine workers, so the slots and the tallies are
  // shared under `mu`; only this thread prints, with `mu` held.
  std::mutex mu;
  std::condition_variable swept_cv;
  size_t sweeps_left = sweeps.size();
  size_t next_to_print = 0;
  bool all_proved = true;
  bool any_limited = false;
  // --check-expect: "expect" verdicts and "expect_modes" sets checked.
  int64_t verdicts = 0, verdict_mismatches = 0;
  int64_t sets = 0, set_mismatches = 0;
  int printed = 0;
  auto print_mismatch = [&](const std::string& message) {
    if (printed++ < 10) {
      std::fprintf(stderr, "termilog_cli: expect mismatch: %s\n",
                   message.c_str());
    }
  };
  auto flush = [&] {
    for (; next_to_print < lines.size() && lines[next_to_print].has_value();
         ++next_to_print) {
      const std::string& line = *lines[next_to_print];
      // A text report is multi-line and newline-terminated already; every
      // other line (a JSON report, an error line) gets its newline here.
      std::fputs(line.c_str(), stdout);
      if (line.empty() || line.back() != '\n') std::fputc('\n', stdout);
    }
    std::fflush(stdout);
  };
  for (size_t i = 0; i < sweeps.size(); ++i) {
    condinf::SubmitConditionsSweep(
        engine, std::move(sweeps[i]),
        [&, i](condinf::ConditionsReport report) {
          std::lock_guard<std::mutex> lock(mu);
          const auto& [slot, expect_modes] = swept[i];
          all_proved = all_proved && report.status.ok() &&
                       !report.resource_limited;
          any_limited = any_limited || report.resource_limited;
          if (check_expect && !expect_modes.empty()) {
            sets += static_cast<int64_t>(expect_modes.size());
            std::vector<std::string> messages;
            set_mismatches += condinf::CountExpectModeMismatches(
                report, expect_modes, &messages);
            for (const std::string& message : messages) {
              print_mismatch(message);
            }
          }
          lines[slot] = text ? condinf::ConditionsReportToText(report)
                             : condinf::ConditionsReportToJsonLine(report);
          --sweeps_left;
          swept_cv.notify_all();
        });
  }
  size_t next_request = 0;
  engine.Run(requests, [&](const BatchItemResult& item) {
    std::lock_guard<std::mutex> lock(mu);
    const Planned& request = planned[next_request++];
    lines[request.slot] = ReportToJsonLine(item.name, request.query,
                                           item.status, item.report);
    if (item.status.ok()) {
      all_proved = all_proved && item.report.proved;
      any_limited = any_limited || item.report.resource_limited;
    } else {
      any_error = true;
    }
    gen::ExpectedVerdict expect;
    if (check_expect && gen::ParseExpectedVerdict(request.expect, &expect)) {
      ++verdicts;
      if (!item.status.ok() ||
          !gen::OutcomeMatchesExpect(expect, item.report.proved,
                                     item.report.resource_limited)) {
        ++verdict_mismatches;
        print_mismatch(item.name + " declared " + request.expect);
      }
    }
    flush();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      flush();
      if (sweeps_left == 0) break;
      swept_cv.wait(lock);
    }
  }

  std::fprintf(stderr, "%s\n",
               EngineStatsToJson(engine.stats(), jobs).c_str());
  int code = EXIT_SUCCESS;
  if (any_error || !all_proved) {
    code = any_limited ? kExitResourceLimited : kExitNotProved;
  }
  if (check_expect) {
    std::fprintf(stderr,
                 "termilog_cli: expect check: %lld/%lld verdicts and "
                 "%lld/%lld minimal-mode sets match\n",
                 static_cast<long long>(verdicts - verdict_mismatches),
                 static_cast<long long>(verdicts),
                 static_cast<long long>(sets - set_mismatches),
                 static_cast<long long>(sets));
    if (verdict_mismatches + set_mismatches > 0) {
      code = kExitExpectMismatch;
    } else if (verdicts + sets > 0 && !any_error) {
      // In verification mode the contract is "outcomes match
      // declarations", not "everything proved": a generated workload
      // deliberately mixes not-proved and resource-limited requests, and
      // all of them matching is the success being asserted.
      code = EXIT_SUCCESS;
    }
  }
  return FinishStore(engine, code, auto_compact);
}

// Offline store maintenance (--compact PATH): replay the log with the
// usual recovery rules, rewrite it to its live-entry minimum, report
// what recovery found and how many bytes compaction reclaimed.
int RunCompact(const std::string& path) {
  namespace fs = std::filesystem;
  Result<std::unique_ptr<persist::PersistentStore>> store =
      persist::PersistentStore::Open(path);
  if (!store.ok()) {
    std::fprintf(stderr, "termilog_cli: --compact: %s\n",
                 store.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  for (const std::string& note : (*store)->stats().notes) {
    std::fprintf(stderr, "termilog_cli: store recovery: %s\n", note.c_str());
  }
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  const long long bytes_before = ec ? -1 : static_cast<long long>(size);
  Status compacted = (*store)->Compact();
  if (!compacted.ok()) {
    std::fprintf(stderr, "termilog_cli: --compact failed: %s\n",
                 compacted.ToString().c_str());
    return EXIT_FAILURE;
  }
  size = fs::file_size(path, ec);
  const long long bytes_after = ec ? -1 : static_cast<long long>(size);
  persist::StoreStats stats = (*store)->stats();
  std::fprintf(stderr,
               "{\"compact\":{\"path\":\"%s\",\"entries\":%lld,"
               "\"records_loaded\":%lld,\"records_quarantined\":%lld,"
               "\"tail_bytes_truncated\":%lld,\"bytes_before\":%lld,"
               "\"bytes_after\":%lld}}\n",
               path.c_str(), static_cast<long long>((*store)->size()),
               static_cast<long long>(stats.records_loaded),
               static_cast<long long>(stats.records_quarantined),
               static_cast<long long>(stats.tail_bytes_truncated),
               bytes_before, bytes_after);
  return EXIT_SUCCESS;
}

// Serve mode, one NetServer for both transports (docs/serve.md): the
// --listen sockets and the --serve FIFO|- peer (requests from the FIFO or
// stdin, responses on stdout in request order). SIGTERM/SIGINT drain
// gracefully, and so does the peer's end of input: answer everything
// admitted, print the stats, flush the --store, exit 0.
int RunServer(const std::string& serve_path,
              const std::vector<std::string>& listen_specs,
              const AnalysisOptions& options, int jobs, bool use_cache,
              int queue_limit, int64_t max_line_bytes,
              int64_t idle_timeout_ms, const std::string& store_path,
              double auto_compact) {
  EngineOptions engine_options;
  engine_options.jobs = jobs;
  engine_options.use_cache = use_cache;
  BatchEngine engine(engine_options);
  int attach = AttachStoreOrFail(engine, store_path, auto_compact);
  if (attach != 0) return attach;

  net::NetServerOptions net_options;
  net_options.serve.base = options;
  net_options.serve.queue_limit = queue_limit;
  net_options.serve.max_line_bytes = static_cast<size_t>(max_line_bytes);
  net_options.idle_timeout_ms = idle_timeout_ms;

  net::NetServer server(engine, net_options);
  for (const std::string& spec : listen_specs) {
    Result<net::NetAddress> address = net::ParseNetAddress(spec);
    if (!address.ok()) return Fail(address.status().ToString().c_str());
    Status listening = server.Listen(*address);
    if (!listening.ok()) return Fail(listening.ToString().c_str());
    net::NetAddress bound = *address;
    if (bound.kind == net::NetAddress::Kind::kTcp && bound.port == 0) {
      bound.port = server.port();
    }
    std::fprintf(stderr, "termilog_cli: listening on %s\n",
                 bound.ToString().c_str());
  }
  // A blocking open, so a FIFO waits for its writer.
  int serve_fd = -1;
  if (!serve_path.empty()) {
    serve_fd =
        serve_path == "-" ? STDIN_FILENO : ::open(serve_path.c_str(), O_RDONLY);
    if (serve_fd < 0) return Fail("cannot open --serve input (FIFO or file)");
    Status added = server.AddPeer(serve_fd, STDOUT_FILENO);
    if (!added.ok()) return Fail(added.ToString().c_str());
  }
  Status handlers = server.InstallSignalHandlers();
  if (!handlers.ok()) return Fail(handlers.ToString().c_str());
  Status ran = server.Run();
  if (serve_fd > STDIN_FILENO) ::close(serve_fd);
  if (!ran.ok()) {
    std::fprintf(stderr, "termilog_cli: serve: %s\n", ran.ToString().c_str());
  }
  std::fprintf(stderr, "%s\n", server.stats().ToJson().c_str());
  std::fprintf(stderr, "%s\n",
               EngineStatsToJson(engine.stats(), jobs).c_str());
  return FinishStore(engine, ran.ok() ? EXIT_SUCCESS : EXIT_FAILURE,
                     auto_compact);
}

// Load-client mode (--connect): replay a JSONL manifest against a
// --listen server. Responses go to stdout (per-connection request order;
// interleaving across clients unordered), latency/throughput to stderr.
int RunConnect(const std::string& connect_spec,
               const std::string& manifest_path, int clients, int window) {
  Result<net::NetAddress> address = net::ParseNetAddress(connect_spec);
  if (!address.ok()) return Fail(address.status().ToString().c_str());
  std::ifstream in(manifest_path);
  if (!in) return Fail("cannot open --connect manifest (--batch FILE)");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  net::LoadClientOptions client_options;
  client_options.clients = clients;
  client_options.window = window;
  std::vector<std::string> responses;
  client_options.responses = &responses;
  Result<net::LoadClientStats> ran =
      net::RunLoadClient(*address, lines, client_options);
  if (!ran.ok()) return Fail(ran.status().ToString().c_str());
  for (const std::string& response : responses) {
    std::printf("%s\n", response.c_str());
  }
  std::fflush(stdout);
  const gen::LatencySummary latency =
      gen::SummarizeLatencies(ran->latencies_us);
  const double seconds = ran->elapsed_ms / 1000.0;
  const double rps = seconds > 0 ? ran->received / seconds : 0.0;
  std::fprintf(stderr,
               "{\"connect\":{\"sent\":%lld,\"received\":%lld,"
               "\"shed\":%lld,\"errors\":%lld,\"elapsed_ms\":%.1f,"
               "\"req_per_s\":%.1f,\"latency_us\":{\"p50\":%lld,"
               "\"p95\":%lld,\"p99\":%lld,\"max\":%lld}}}\n",
               static_cast<long long>(ran->sent),
               static_cast<long long>(ran->received),
               static_cast<long long>(ran->shed),
               static_cast<long long>(ran->errors), ran->elapsed_ms, rps,
               static_cast<long long>(latency.p50_us),
               static_cast<long long>(latency.p95_us),
               static_cast<long long>(latency.p99_us),
               static_cast<long long>(latency.max_us));
  return EXIT_SUCCESS;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source, query;
  AnalysisOptions options;
  std::vector<std::string> run_goals;
  bool show_constraints = false, run_baselines = false, reorder = false;
  bool explain = false, json = false, use_cache = true;
  bool check_expect = false, conditions = false;
  int jobs = 1;
  int queue_limit = 64;
  int clients = 1;
  int window = 8;
  int64_t idle_timeout_ms = 0;
  int64_t max_line_bytes = 1 << 20;
  double store_auto_compact = 0.0;
  std::string corpus_name, batch_path, trace_path, metrics_path;
  std::string gen_spec, out_path, store_path, serve_path, compact_path;
  std::string connect_spec;
  std::vector<std::string> listen_specs;

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-cache") {
      use_cache = false;
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!ParseIntFlag(argv[++i], &jobs) || jobs < 1) {
        return Fail("--jobs wants a positive integer");
      }
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_path = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--serve" && i + 1 < argc) {
      serve_path = argv[++i];
    } else if (arg == "--conditions") {
      conditions = true;
    } else if (arg == "--compact" && i + 1 < argc) {
      compact_path = argv[++i];
    } else if (arg == "--queue-limit" && i + 1 < argc) {
      if (!ParseIntFlag(argv[++i], &queue_limit) || queue_limit < 1) {
        return Fail("--queue-limit wants a positive integer");
      }
    } else if (arg == "--listen" && i + 1 < argc) {
      listen_specs.emplace_back(argv[++i]);
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_spec = argv[++i];
    } else if (arg == "--clients" && i + 1 < argc) {
      if (!ParseIntFlag(argv[++i], &clients) || clients < 1) {
        return Fail("--clients wants a positive integer");
      }
    } else if (arg == "--window" && i + 1 < argc) {
      if (!ParseIntFlag(argv[++i], &window) || window < 1) {
        return Fail("--window wants a positive integer");
      }
    } else if (arg == "--idle-timeout-ms" && i + 1 < argc) {
      if (!ParseInt64Flag(argv[++i], &idle_timeout_ms)) {
        return Fail("--idle-timeout-ms wants a nonnegative integer");
      }
    } else if (arg == "--max-line-bytes" && i + 1 < argc) {
      if (!ParseInt64Flag(argv[++i], &max_line_bytes) ||
          max_line_bytes < 1) {
        return Fail("--max-line-bytes wants a positive integer");
      }
    } else if (arg == "--store-auto-compact" && i + 1 < argc) {
      char* end = nullptr;
      store_auto_compact = std::strtod(argv[++i], &end);
      // Negated, so NaN (which fails every comparison) is rejected too.
      if (end == argv[i] || *end != '\0' ||
          !(store_auto_compact > 0.0 && store_auto_compact <= 1.0)) {
        return Fail("--store-auto-compact wants a ratio in (0, 1]");
      }
    } else if (arg == "--gen" && i + 1 < argc) {
      gen_spec = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check-expect") {
      check_expect = true;
    } else if (arg == "--transform") {
      options.apply_transformations = true;
    } else if (arg == "--negative-deltas") {
      options.allow_negative_deltas = true;
    } else if (arg == "--no-inference") {
      options.run_inference = false;
    } else if (arg == "--reorder") {
      reorder = true;
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--show-constraints") {
      show_constraints = true;
    } else if (arg == "--baselines") {
      run_baselines = true;
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      if (!ParseInt64Flag(argv[++i], &options.limits.deadline_ms)) {
        return Fail("--deadline-ms wants a nonnegative integer");
      }
    } else if (arg == "--work-budget" && i + 1 < argc) {
      if (!ParseInt64Flag(argv[++i], &options.limits.work_budget)) {
        return Fail("--work-budget wants a nonnegative integer");
      }
    } else if (arg == "--limb-limit" && i + 1 < argc) {
      if (!ParseInt64Flag(argv[++i], &options.limits.bigint_limb_limit)) {
        return Fail("--limb-limit wants a nonnegative integer");
      }
    } else if (arg == "--supply" && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t colon = spec.find(':');
      if (colon == std::string::npos) {
        return Fail("--supply wants pred/arity:constraints");
      }
      options.supplied_constraints.emplace_back(spec.substr(0, colon),
                                                spec.substr(colon + 1));
    } else if (arg == "--run" && i + 1 < argc) {
      run_goals.emplace_back(argv[++i]);
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_name = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      return Fail(("unknown option " + arg).c_str());
    } else {
      positional.push_back(arg);
    }
  }

  // Lives until main returns: enables tracing/metrics now (flag or env)
  // and writes the files on destruction, whatever exit path is taken.
  obs::ObsExport obs_export(trace_path, metrics_path);

  if (!gen_spec.empty()) {
    Result<gen::GenParams> params = gen::ParseGenSpec(gen_spec);
    if (!params.ok()) return Fail(params.status().ToString().c_str());
    gen::GeneratedWorkload workload = gen::Generate(*params);
    std::string manifest = gen::WorkloadToManifestJsonl(workload);
    if (out_path.empty()) {
      std::fwrite(manifest.data(), 1, manifest.size(), stdout);
      return EXIT_SUCCESS;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) return Fail("cannot open --out file");
    out << manifest;
    out.close();
    if (!out) return Fail("write to --out file failed");
    std::fprintf(stderr, "termilog_cli: wrote %zu-request manifest to %s\n",
                 workload.requests.size(), out_path.c_str());
    return EXIT_SUCCESS;
  }

  if (!compact_path.empty()) {
    return RunCompact(compact_path);
  }

  if (!serve_path.empty() || !listen_specs.empty()) {
    return RunServer(serve_path, listen_specs, options, jobs, use_cache,
                     queue_limit, max_line_bytes, idle_timeout_ms, store_path,
                     store_auto_compact);
  }

  if (!connect_spec.empty()) {
    std::string manifest_path =
        !batch_path.empty()
            ? batch_path
            : (positional.empty() ? std::string() : positional[0]);
    if (manifest_path.empty()) {
      return Fail("--connect wants a manifest: --batch FILE (or a "
                  "positional file)");
    }
    return RunConnect(connect_spec, manifest_path, clients, window);
  }

  if (conditions || !batch_path.empty()) {
    std::vector<BatchInput> inputs;
    bool text = false;  // one --conditions report, rendered for people
    if (!batch_path.empty()) {
      Result<std::vector<BatchInput>> read = ReadBatch(batch_path, options);
      if (!read.ok()) return Fail(read.status().message().c_str());
      inputs = std::move(*read);
    } else if (!corpus_name.empty()) {
      inputs.push_back(CorpusInput(corpus_name, options));
      text = !json;
    } else if (!positional.empty()) {
      inputs.push_back(FileInput(positional[0], "", options));
      text = !json;
    } else {
      for (const CorpusEntry& entry : Corpus()) {
        inputs.push_back(CorpusInput(entry.name, options));
      }
    }
    // --conditions is --batch with every entry a sweep.
    if (conditions) {
      for (BatchInput& input : inputs) input.entry.kind = "conditions";
    }
    return RunBatch(inputs, text, jobs, use_cache, check_expect, store_path,
                    store_auto_compact);
  }

  if (!corpus_name.empty()) {
    BatchInput input = CorpusInput(corpus_name, options);
    if (!input.entry.error.ok()) {
      std::fprintf(stderr, "unknown corpus entry; available:\n");
      for (const CorpusEntry& e : Corpus()) {
        std::fprintf(stderr, "  %-22s %s\n", e.name.c_str(),
                     e.description.c_str());
      }
      return EXIT_FAILURE;
    }
    source = input.entry.source;
    query = input.entry.query;
    options = input.options;
  } else {
    if (positional.empty()) {
      return Fail("usage: termilog_cli FILE [QUERY] | --corpus NAME");
    }
    std::ifstream in(positional[0]);
    if (!in) return Fail("cannot open program file");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    source = buffer.str();
    if (positional.size() > 1) query = positional[1];
  }

  std::vector<std::string> warnings;
  Result<Program> parsed = ParseProgram(source, &warnings);
  if (!parsed.ok()) return Fail(parsed.status().ToString().c_str());
  for (const std::string& warning : warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  Program& program = *parsed;

  // QUERY as given, else one query per `:- mode(...)` directive (the
  // capture-rule setting: one proof per bound-free pattern). All of them
  // run on one engine, so --jobs parallelizes across modes, SCCs shared
  // between modes are solved once, and --store persists the outcomes.
  std::vector<std::string> queries;
  if (!query.empty()) {
    queries.push_back(query);
  } else {
    for (const ModeDecl& decl : program.mode_decls()) {
      queries.push_back(ModeQueryText(program, decl));
    }
  }
  if (queries.empty()) {
    return Fail("no QUERY given and no :- mode(...) directive in the file");
  }
  const std::string name = positional.empty() ? corpus_name : positional[0];
  std::vector<BatchRequest> requests;
  for (const std::string& text : queries) {
    Result<BatchRequest> request =
        PlanRequest(gen::ManifestEntry(), queries.size() > 1 ? text : name,
                    program, text, options);
    if (!request.ok()) return Fail(request.status().ToString().c_str());
    requests.push_back(std::move(*request));
  }
  EngineOptions engine_options;
  engine_options.jobs = jobs;
  engine_options.use_cache = use_cache;
  BatchEngine engine(engine_options);
  int attach = AttachStoreOrFail(engine, store_path, store_auto_compact);
  if (attach != 0) return attach;
  std::vector<BatchItemResult> results = engine.Run(requests);
  ReportJsonOptions json_options;
  json_options.include_spend = true;

  if (results.size() > 1) {
    bool all_proved = true;
    bool any_limited = false;
    std::string first_trip;
    for (size_t i = 0; i < results.size(); ++i) {
      const BatchItemResult& item = results[i];
      if (json) {
        std::printf("%s\n",
                    ReportToJsonLine(item.name, item.name, item.status,
                                     item.report, json_options)
                        .c_str());
      } else {
        std::printf("==== mode %s(%s) ====\n",
                    program.symbols().Name(requests[i].query.symbol).c_str(),
                    AdornmentToString(requests[i].adornment).c_str());
        if (item.status.ok()) {
          std::printf("%s\n", item.report.ToString().c_str());
        } else {
          std::printf("analysis failed: %s\n",
                      item.status.ToString().c_str());
        }
      }
      if (!item.status.ok()) {
        all_proved = false;
        continue;
      }
      all_proved = all_proved && item.report.proved;
      if (item.report.resource_limited && !any_limited) {
        any_limited = true;
        first_trip = item.report.first_resource_trip;
      }
    }
    if (json) {
      std::fprintf(stderr, "%s\n",
                   EngineStatsToJson(engine.stats(), jobs).c_str());
    }
    return FinishStore(engine, VerdictExit(all_proved, any_limited, first_trip),
                       store_auto_compact);
  }

  query = queries.front();
  BatchItemResult& item = results.front();
  if (!item.status.ok()) {
    return FinishStore(engine, Fail(item.status.ToString().c_str()),
                       store_auto_compact);
  }
  TerminationReport& report = item.report;
  json_options.scc_tasks = item.scc_tasks;
  json_options.cache_hits = item.cache_hits;
  json_options.inference_tasks = item.inference_tasks;
  json_options.inference_cache_hits = item.inference_cache_hits;
  if (reorder && !report.proved) {
    ReorderOptions reorder_options;
    reorder_options.analysis = options;
    Result<ReorderResult> search =
        FindTerminatingOrder(program, query, reorder_options);
    if (search.ok() && search->proved) {
      std::printf("reordering found a terminating subgoal order "
                  "(%d attempts):\n",
                  search->attempts);
      for (const std::string& line : search->log) {
        std::printf("  %s\n", line.c_str());
      }
      program = search->program;
      report = search->report;
      // The printed report no longer corresponds to the engine run above.
      json_options = ReportJsonOptions();
      json_options.include_spend = true;
    } else if (search.ok()) {
      std::printf("reordering search exhausted (%d attempts), no "
                  "terminating order found\n",
                  search->attempts);
    }
  }
  if (explain) {
    Result<std::string> trace = ExplainAnalysis(program, query, options);
    if (trace.ok()) std::printf("%s\n", trace->c_str());
  }
  if (json) {
    // One structured line from the same serializer as --batch, plus the
    // spend counters (single-run output has no byte-identity constraint).
    std::printf("%s\n", ReportToJsonLine(name, query, Status::Ok(), report,
                                         json_options)
                            .c_str());
    return FinishStore(engine,
                       VerdictExit(report.proved, report.resource_limited,
                                   report.first_resource_trip),
                       store_auto_compact);
  }
  std::printf("query: %s\n%s", query.c_str(), report.ToString().c_str());
  if (show_constraints) {
    std::printf("\ninter-argument constraints:\n%s",
                report.arg_sizes.ToString(report.analyzed_program).c_str());
  }

  if (run_baselines) {
    Result<std::pair<PredId, Adornment>> parsed_query =
        ParseQuerySpec(program, query);
    if (parsed_query.ok()) {
      ArgSizeDb db;
      (void)ConstraintInference::Run(program, &db);
      std::printf("\nprior methods:\n");
      std::printf("  naish'83 subset descent : %s\n",
                  BaselineVerdictName(
                      NaishAnalyzer::Analyze(program, parsed_query->first,
                                             parsed_query->second)
                          .verdict));
      std::printf("  uvg'88 pairwise descent : %s\n",
                  BaselineVerdictName(
                      UvgAnalyzer::Analyze(program, parsed_query->first,
                                           parsed_query->second)
                          .verdict));
      std::printf("  argument mapping        : %s\n",
                  BaselineVerdictName(
                      ArgMapAnalyzer::Analyze(program, parsed_query->first,
                                              parsed_query->second, db)
                          .verdict));
    }
  }

  for (const std::string& goal : run_goals) {
    Result<SldResult> run = RunQuery(program, goal);
    if (!run.ok()) {
      std::fprintf(stderr, "run error: %s\n",
                   run.status().ToString().c_str());
      continue;
    }
    std::printf("\n?- %s\n", goal.c_str());
    for (const TermPtr& solution : run->solutions) {
      std::printf("   %s\n", solution->ToString(program.symbols()).c_str());
    }
    std::printf("   %zu solution(s); %lld steps; search tree %s.\n",
                run->num_solutions, static_cast<long long>(run->steps),
                run->outcome == SldOutcome::kExhausted ? "exhausted"
                                                       : "NOT exhausted");
  }
  return FinishStore(engine,
                     VerdictExit(report.proved, report.resource_limited,
                                 report.first_resource_trip),
                     store_auto_compact);
}
