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
//           Omitted if the file has a `:- mode(pred(b,f)).` directive.
//
// Batch mode analyzes many requests through the parallel engine
// (docs/engine.md): DIR expands to every *.pl file in sorted order, one
// request per `:- mode(...)` directive; MANIFEST is either a text file of
// lines
//   corpus:NAME          a built-in corpus entry
//   FILE [QUERY]         a program file (QUERY optional as above)
// (# comments and blank lines ignored), or — when its first byte is '{' —
// a JSONL manifest (docs/generator.md): one JSON object per line with
// "source" (inline program) or "file", plus optional "query", "name",
// "expect" and per-request "limits". A "kind":"conditions" line, or one
// with neither a "query" nor a mode directive, is answered the way serve
// mode answers it (ServeRequest), so the bytes match. Output is one JSON
// line per request, streamed to stdout in request order — byte-identical
// for every --jobs value — with an aggregate stats object (cache
// hits/misses, work spend) on stderr.
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
// frontier pruning. With a FILE or --corpus NAME it sweeps that program
// (text report, or one JSON line with --json); with --batch it sweeps
// every batch entry and streams one conditions JSON line per entry; with
// neither it sweeps the whole built-in corpus. --jobs parallelizes the
// mode variants (output bytes are identical for every value), --store
// makes a repeat sweep mostly persisted cache hits, and --check-expect
// verifies JSONL-manifest "expect_modes" declarations (exit 4 on
// mismatch).
//
// Store maintenance (--compact PATH) rewrites the persistent store's
// append-only log to its live-entry minimum (docs/persistence.md),
// reporting recovery and size stats on stderr.
//
// Options:
//   --json                 structured JSON output instead of text (single
//                          run and multi-mode; --batch is always JSON)
//   --jobs N               worker threads for --batch / multi-mode (default 1)
//   --no-cache             disable the engine's content-addressed SCC cache
//   --store PATH           durable SCC-outcome store (docs/persistence.md):
//                          warm-starts the cache from PATH (crash recovery
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
//                          verdict against the manifest's "expect" field
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
//   --deadline-ms N        wall-clock budget for the analysis
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
// found verdict mismatches, 5 = a content cache failed its integrity
// self-check (after a --store warm start or at shutdown; the store is
// suspect, see docs/persistence.md), 1 = usage/parse error. When
// --check-expect verified at least one declared verdict and all matched,
// the exit is 0 regardless of the verdict mix: the assertion being made
// is "engine agrees with the manifest", not "everything proved".

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

std::string ModeQueryText(const Program& program, const ModeDecl& decl) {
  std::string query = program.symbols().Name(decl.pred.symbol) + "(";
  for (size_t i = 0; i < decl.adornment.size(); ++i) {
    if (i > 0) query += ",";
    query += decl.adornment[i] == Mode::kBound ? "b" : "f";
  }
  query += ")";
  return query;
}

// The batch is a list of output slots, filled either eagerly (parse/setup
// errors, rendered as {"ok":false,...} lines up front) or by the engine as
// requests complete. Slots print in order, so the JSONL stream is
// deterministic regardless of --jobs.
struct BatchPlan {
  std::vector<std::optional<std::string>> lines;
  std::vector<BatchRequest> requests;
  std::vector<size_t> request_slot;   // request index -> output slot
  std::vector<std::string> request_query;  // query text for the JSON line
  std::vector<std::string> request_expect;  // declared verdict ("" = none)
  // JSONL entries answered through the serve path (ServeRequest), so
  // --batch prints the bytes --serve does: "kind":"conditions" sweeps and
  // entries with neither a "query" nor a mode directive. Slot, entry.
  std::vector<std::pair<size_t, gen::ManifestEntry>> served;
  bool any_error = false;
  // Expectation attached to the entry currently being expanded (JSONL
  // manifests only); AddProgram stamps it onto every request it creates.
  std::string pending_expect;

  void AddErrorLine(const std::string& name, const Status& status) {
    any_error = true;
    lines.push_back(ReportToJsonLine(name, "", status, TerminationReport()));
  }

  // One request per declared mode (or the explicit query when given).
  void AddProgram(const std::string& name, const Program& program,
                  const std::string& query, const AnalysisOptions& options) {
    std::vector<std::string> queries;
    if (!query.empty()) {
      queries.push_back(query);
    } else {
      for (const ModeDecl& decl : program.mode_decls()) {
        queries.push_back(ModeQueryText(program, decl));
      }
      if (queries.empty()) {
        AddErrorLine(name, Status::InvalidArgument(
                               "no QUERY given and no :- mode(...) "
                               "directive in the file"));
        return;
      }
    }
    for (const std::string& q : queries) {
      std::string request_name =
          queries.size() > 1 ? name + " " + q : name;
      Result<std::pair<PredId, Adornment>> parsed_query =
          ParseQuerySpec(program, q);
      if (!parsed_query.ok()) {
        AddErrorLine(request_name, parsed_query.status());
        continue;
      }
      BatchRequest request;
      request.name = request_name;
      request.program = program;
      request.query = parsed_query->first;
      request.adornment = parsed_query->second;
      request.options = options;
      request_slot.push_back(lines.size());
      request_query.push_back(q);
      request_expect.push_back(pending_expect);
      lines.emplace_back(std::nullopt);
      requests.push_back(std::move(request));
    }
  }

  void AddServed(const gen::ManifestEntry& entry) {
    served.emplace_back(lines.size(), entry);
    lines.emplace_back(std::nullopt);
  }

  // One JSONL manifest entry (inline source or program file), with its
  // per-request limits and declared expectation.
  void AddManifestEntry(const gen::ManifestEntry& entry,
                        const AnalysisOptions& base) {
    if (!entry.error.ok()) {
      // Truncated or garbage manifest line: one error response for it,
      // the rest of the batch still runs (docs/generator.md).
      AddErrorLine(entry.name, entry.error);
      return;
    }
    if (entry.kind == "conditions") {
      AddServed(entry);
      return;
    }
    AnalysisOptions options = base;
    if (entry.has_limits) options.limits = entry.limits;
    pending_expect = entry.expect;
    std::string source = entry.source;
    if (source.empty()) {
      std::ifstream in(entry.file);
      if (!in) {
        AddErrorLine(entry.name,
                     Status::InvalidArgument("cannot open program file"));
        pending_expect.clear();
        return;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      source = buffer.str();
    }
    Result<Program> parsed = ParseProgram(source);
    if (!parsed.ok()) {
      AddErrorLine(entry.name, parsed.status());
    } else if (entry.query.empty() && parsed->mode_decls().empty()) {
      AddServed(entry);
    } else {
      AddProgram(entry.name, *parsed, entry.query, options);
    }
    pending_expect.clear();
  }

  void AddFile(const std::string& path, const std::string& query,
               const AnalysisOptions& options) {
    std::ifstream in(path);
    if (!in) {
      AddErrorLine(path, Status::InvalidArgument("cannot open program file"));
      return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<Program> parsed = ParseProgram(buffer.str());
    if (!parsed.ok()) {
      AddErrorLine(path, parsed.status());
      return;
    }
    AddProgram(path, *parsed, query, options);
  }

  void AddCorpusEntry(const std::string& name, const AnalysisOptions& base) {
    const CorpusEntry* entry = FindCorpusEntry(name);
    if (entry == nullptr) {
      AddErrorLine("corpus:" + name,
                   Status::InvalidArgument("unknown corpus entry"));
      return;
    }
    AnalysisOptions options = base;
    options.apply_transformations |= entry->needs_transformations;
    options.allow_negative_deltas |= entry->needs_negative_deltas;
    for (const auto& supplied : entry->supplied_constraints) {
      options.supplied_constraints.push_back(supplied);
    }
    Result<Program> parsed = ParseProgram(entry->source);
    if (!parsed.ok()) {
      AddErrorLine("corpus:" + name, parsed.status());
      return;
    }
    AddProgram("corpus:" + name, *parsed, entry->query, options);
  }
};

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

// Expands DIR|MANIFEST into a BatchPlan, runs it through the engine, and
// streams the JSONL report. Returns the process exit code.
int RunBatch(const std::string& batch_path, const AnalysisOptions& options,
             int jobs, bool use_cache, bool check_expect,
             const std::string& store_path, double auto_compact) {
  namespace fs = std::filesystem;
  BatchPlan plan;
  std::error_code ec;
  if (fs::is_directory(batch_path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(batch_path, ec)) {
      if (entry.path().extension() == ".pl") {
        files.push_back(entry.path().string());
      }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) return Fail("--batch directory holds no *.pl files");
    for (const std::string& file : files) plan.AddFile(file, "", options);
  } else {
    std::ifstream in(batch_path);
    if (!in) return Fail("cannot open --batch manifest");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    size_t first = text.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && text[first] == '{') {
      // JSONL manifest (generator output or hand-written; see
      // docs/generator.md for the line schema).
      Result<std::vector<gen::ManifestEntry>> entries =
          gen::ParseManifestJsonl(text);
      if (!entries.ok()) return Fail(entries.status().ToString().c_str());
      for (const gen::ManifestEntry& entry : *entries) {
        plan.AddManifestEntry(entry, options);
      }
    } else {
      std::istringstream lines_in(text);
      std::string line;
      while (std::getline(lines_in, line)) {
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#') continue;
        size_t end = line.find_last_not_of(" \t\r");
        line = line.substr(start, end - start + 1);
        if (line.rfind("corpus:", 0) == 0) {
          plan.AddCorpusEntry(line.substr(7), options);
          continue;
        }
        size_t space = line.find(' ');
        std::string file = line.substr(0, space);
        std::string query =
            space == std::string::npos ? "" : line.substr(space + 1);
        size_t qstart = query.find_first_not_of(" \t");
        query = qstart == std::string::npos ? "" : query.substr(qstart);
        plan.AddFile(file, query, options);
      }
    }
    if (plan.lines.empty()) return Fail("--batch manifest names no requests");
  }

  EngineOptions engine_options;
  engine_options.jobs = jobs;
  engine_options.use_cache = use_cache;
  BatchEngine engine(engine_options);
  int attach = AttachStoreOrFail(engine, store_path, auto_compact);
  if (attach != 0) return attach;

  bool all_proved = !plan.any_error;
  bool any_limited = false;
  int64_t expect_checked = 0;
  int64_t expect_mismatches = 0;
  size_t next_request = 0;
  size_t next_to_print = 0;
  // Served entries fill their slots from engine workers, so the slots and
  // the verdict tally are shared under `mu`; flush runs with it held.
  std::mutex mu;
  std::condition_variable served_cv;
  size_t served_left = plan.served.size();
  auto flush = [&] {
    while (next_to_print < plan.lines.size() &&
           plan.lines[next_to_print].has_value()) {
      std::printf("%s\n", plan.lines[next_to_print]->c_str());
      ++next_to_print;
    }
    std::fflush(stdout);
  };
  for (auto& [slot, entry] : plan.served) {
    ServeRequest(engine, std::move(entry), options,
                 [&, slot = slot](std::string line, ServeAnswer answer) {
                   std::lock_guard<std::mutex> lock(mu);
                   plan.lines[slot] = std::move(line);
                   // A served plain entry is always an error line.
                   all_proved = all_proved &&
                                answer == ServeAnswer::kConditionsReport;
                   any_limited = any_limited ||
                                 answer == ServeAnswer::kConditionsLimited;
                   --served_left;
                   served_cv.notify_all();
                 });
  }
  engine.Run(plan.requests, [&](const BatchItemResult& item) {
    std::lock_guard<std::mutex> lock(mu);
    size_t index = next_request++;
    plan.lines[plan.request_slot[index]] = ReportToJsonLine(
        item.name, plan.request_query[index], item.status, item.report);
    if (!item.status.ok()) {
      all_proved = false;
    } else {
      all_proved = all_proved && item.report.proved;
      any_limited = any_limited || item.report.resource_limited;
    }
    if (check_expect && !plan.request_expect[index].empty()) {
      gen::ExpectedVerdict expect;
      if (gen::ParseExpectedVerdict(plan.request_expect[index], &expect)) {
        ++expect_checked;
        bool matches =
            item.status.ok() &&
            gen::OutcomeMatchesExpect(expect, item.report.proved,
                                      item.report.resource_limited);
        if (!matches) {
          ++expect_mismatches;
          if (expect_mismatches <= 10) {
            std::fprintf(stderr,
                         "termilog_cli: expect mismatch: %s declared %s\n",
                         item.name.c_str(),
                         plan.request_expect[index].c_str());
          }
        }
      }
    }
    flush();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    served_cv.wait(lock, [&] { return served_left == 0; });
    flush();
  }

  std::fprintf(stderr, "%s\n",
               EngineStatsToJson(engine.stats(), jobs).c_str());
  int code = any_limited ? kExitResourceLimited : kExitNotProved;
  if (all_proved) code = EXIT_SUCCESS;
  if (check_expect) {
    std::fprintf(stderr,
                 "termilog_cli: expect check: %lld/%lld verdicts match\n",
                 static_cast<long long>(expect_checked - expect_mismatches),
                 static_cast<long long>(expect_checked));
    if (expect_mismatches > 0) {
      code = kExitExpectMismatch;
    } else if (expect_checked > 0) {
      // In verification mode the contract is "verdicts match
      // declarations", not "everything proved": a generated workload
      // deliberately mixes not-proved and resource-limited requests, and
      // all of them matching is the success being asserted.
      code = EXIT_SUCCESS;
    }
  }
  return FinishStore(engine, code, auto_compact);
}

// Sweep plan for --conditions: one slot per entry, filled eagerly for
// setup errors and by the engine-driven sweeps otherwise, so the output
// stream is deterministic in entry order like --batch.
struct ConditionsPlan {
  std::vector<std::optional<std::string>> lines;
  std::vector<condinf::ConditionsSweep> sweeps;
  std::vector<size_t> sweep_slot;               // sweep index -> output slot
  std::vector<gen::ExpectModes> sweep_expect;   // declared minimal modes
  bool any_error = false;

  void AddErrorLine(const std::string& name, const Status& status) {
    any_error = true;
    condinf::ConditionsReport report;
    report.name = name;
    report.status = status;
    lines.push_back(condinf::ConditionsReportToJsonLine(report));
  }

  void AddProgram(const std::string& name, Program program,
                  const condinf::ConditionsOptions& options,
                  gen::ExpectModes expect = {}) {
    sweeps.emplace_back(name, std::move(program), options);
    sweep_slot.push_back(lines.size());
    sweep_expect.push_back(std::move(expect));
    lines.emplace_back(std::nullopt);
  }

  void AddFile(const std::string& path,
               const condinf::ConditionsOptions& options) {
    std::ifstream in(path);
    if (!in) {
      AddErrorLine(path, Status::InvalidArgument("cannot open program file"));
      return;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    Result<Program> parsed = ParseProgram(buffer.str());
    if (!parsed.ok()) {
      AddErrorLine(path, parsed.status());
      return;
    }
    AddProgram(path, std::move(*parsed), options);
  }

  void AddCorpusEntry(const std::string& name,
                      const condinf::ConditionsOptions& base) {
    const CorpusEntry* entry = FindCorpusEntry(name);
    if (entry == nullptr) {
      AddErrorLine("corpus:" + name,
                   Status::InvalidArgument("unknown corpus entry"));
      return;
    }
    condinf::ConditionsOptions options = base;
    options.analysis.apply_transformations |= entry->needs_transformations;
    options.analysis.allow_negative_deltas |= entry->needs_negative_deltas;
    for (const auto& supplied : entry->supplied_constraints) {
      options.analysis.supplied_constraints.push_back(supplied);
    }
    Result<Program> parsed = ParseProgram(entry->source);
    if (!parsed.ok()) {
      AddErrorLine("corpus:" + name, parsed.status());
      return;
    }
    AddProgram("corpus:" + name, std::move(*parsed), options);
  }

  void AddManifestEntry(const gen::ManifestEntry& entry,
                        const condinf::ConditionsOptions& base) {
    if (!entry.error.ok()) {
      AddErrorLine(entry.name, entry.error);
      return;
    }
    condinf::ConditionsOptions options = base;
    if (entry.has_limits) options.analysis.limits = entry.limits;
    std::string source = entry.source;
    if (source.empty()) {
      std::ifstream in(entry.file);
      if (!in) {
        AddErrorLine(entry.name,
                     Status::InvalidArgument("cannot open program file"));
        return;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      source = buffer.str();
    }
    Result<Program> parsed = ParseProgram(source);
    if (!parsed.ok()) {
      AddErrorLine(entry.name, parsed.status());
      return;
    }
    AddProgram(entry.name, std::move(*parsed), options, entry.expect_modes);
  }
};

// Runs --conditions: per program, the minimal terminating binding
// patterns of every predicate (docs/conditions.md). Sweeps share one
// engine, so mode variants parallelize under --jobs and shared SCC
// structure hits the cache (and the --store) instead of recomputing.
int RunConditions(const std::string& batch_path,
                  const std::string& corpus_name,
                  const std::vector<std::string>& positional,
                  const AnalysisOptions& options, int jobs, bool use_cache,
                  bool check_expect, const std::string& store_path,
                  double auto_compact, bool json) {
  namespace fs = std::filesystem;
  ConditionsPlan plan;
  condinf::ConditionsOptions base;
  base.analysis = options;
  bool single_text = false;  // human rendering: one program, no --json
  if (!batch_path.empty()) {
    std::error_code ec;
    if (fs::is_directory(batch_path, ec)) {
      std::vector<std::string> files;
      for (const auto& entry : fs::directory_iterator(batch_path, ec)) {
        if (entry.path().extension() == ".pl") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      if (files.empty()) return Fail("--batch directory holds no *.pl files");
      for (const std::string& file : files) plan.AddFile(file, base);
    } else {
      std::ifstream in(batch_path);
      if (!in) return Fail("cannot open --batch manifest");
      std::ostringstream buffer;
      buffer << in.rdbuf();
      std::string text = buffer.str();
      size_t first = text.find_first_not_of(" \t\r\n");
      if (first != std::string::npos && text[first] == '{') {
        Result<std::vector<gen::ManifestEntry>> entries =
            gen::ParseManifestJsonl(text);
        if (!entries.ok()) return Fail(entries.status().ToString().c_str());
        for (const gen::ManifestEntry& entry : *entries) {
          plan.AddManifestEntry(entry, base);
        }
      } else {
        std::istringstream lines_in(text);
        std::string line;
        while (std::getline(lines_in, line)) {
          size_t start = line.find_first_not_of(" \t");
          if (start == std::string::npos || line[start] == '#') continue;
          size_t end = line.find_last_not_of(" \t\r");
          line = line.substr(start, end - start + 1);
          if (line.rfind("corpus:", 0) == 0) {
            plan.AddCorpusEntry(line.substr(7), base);
            continue;
          }
          // The sweep covers every predicate, so a line's QUERY column
          // (a single entry mode) is irrelevant here and ignored.
          plan.AddFile(line.substr(0, line.find(' ')), base);
        }
      }
      if (plan.lines.empty()) {
        return Fail("--batch manifest names no requests");
      }
    }
  } else if (!corpus_name.empty()) {
    plan.AddCorpusEntry(corpus_name, base);
    single_text = !json;
  } else if (!positional.empty()) {
    plan.AddFile(positional[0], base);
    single_text = !json;
  } else {
    // Bare --conditions: the whole built-in corpus, one line per entry.
    for (const CorpusEntry& entry : Corpus()) {
      plan.AddCorpusEntry(entry.name, base);
    }
  }

  EngineOptions engine_options;
  engine_options.jobs = jobs;
  engine_options.use_cache = use_cache;
  BatchEngine engine(engine_options);
  int attach = AttachStoreOrFail(engine, store_path, auto_compact);
  if (attach != 0) return attach;

  std::vector<condinf::ConditionsReport> reports =
      condinf::RunConditionsSweeps(engine, plan.sweeps);
  bool any_limited = false;
  int64_t expect_checked = 0;
  int64_t expect_mismatches = 0;
  for (size_t i = 0; i < reports.size(); ++i) {
    any_limited = any_limited || reports[i].resource_limited;
    if (check_expect && !plan.sweep_expect[i].empty()) {
      std::vector<std::string> messages;
      int mismatches = condinf::CountExpectModeMismatches(
          reports[i], plan.sweep_expect[i], &messages);
      expect_checked += static_cast<int64_t>(plan.sweep_expect[i].size());
      expect_mismatches += mismatches;
      for (const std::string& message : messages) {
        if (expect_mismatches <= 10) {
          std::fprintf(stderr, "termilog_cli: expect mismatch: %s\n",
                       message.c_str());
        }
      }
    }
    plan.lines[plan.sweep_slot[i]] =
        single_text ? condinf::ConditionsReportToText(reports[i])
                    : condinf::ConditionsReportToJsonLine(reports[i]);
  }
  for (const std::optional<std::string>& line : plan.lines) {
    if (single_text) {
      std::fputs(line->c_str(), stdout);  // multi-line, newline-terminated
    } else {
      std::printf("%s\n", line->c_str());
    }
  }
  std::fflush(stdout);
  std::fprintf(stderr, "%s\n",
               EngineStatsToJson(engine.stats(), jobs).c_str());

  int code = EXIT_SUCCESS;
  if (plan.any_error) {
    code = kExitNotProved;
  } else if (any_limited) {
    code = kExitResourceLimited;
  }
  if (check_expect) {
    std::fprintf(
        stderr,
        "termilog_cli: expect check: %lld/%lld minimal-mode sets match\n",
        static_cast<long long>(expect_checked - expect_mismatches),
        static_cast<long long>(expect_checked));
    if (expect_mismatches > 0) {
      code = kExitExpectMismatch;
    } else if (expect_checked > 0 && !plan.any_error) {
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

  if (conditions) {
    return RunConditions(batch_path, corpus_name, positional, options,
                         jobs, use_cache, check_expect,
                         store_path, store_auto_compact, json);
  }

  if (!batch_path.empty()) {
    return RunBatch(batch_path, options, jobs, use_cache,
                    check_expect, store_path, store_auto_compact);
  }

  if (!corpus_name.empty()) {
    const CorpusEntry* entry = FindCorpusEntry(corpus_name);
    if (entry == nullptr) {
      std::fprintf(stderr, "unknown corpus entry; available:\n");
      for (const CorpusEntry& e : Corpus()) {
        std::fprintf(stderr, "  %-22s %s\n", e.name.c_str(),
                     e.description.c_str());
      }
      return EXIT_FAILURE;
    }
    source = entry->source;
    query = entry->query;
    options.apply_transformations |= entry->needs_transformations;
    options.allow_negative_deltas |= entry->needs_negative_deltas;
    for (const auto& supplied : entry->supplied_constraints) {
      options.supplied_constraints.push_back(supplied);
    }
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

  if (query.empty()) {
    if (program.mode_decls().empty()) {
      return Fail("no QUERY given and no :- mode(...) directive in the file");
    }
    if (program.mode_decls().size() > 1) {
      // Analyze every declared mode (the capture-rule setting: one proof
      // per bound-free pattern) through the batch engine, so --jobs
      // parallelizes across modes and shared SCCs are solved once.
      EngineOptions engine_options;
      engine_options.jobs = jobs;
      engine_options.use_cache = use_cache;
      BatchEngine engine(engine_options);
      std::vector<BatchRequest> requests;
      for (const ModeDecl& decl : program.mode_decls()) {
        BatchRequest request;
        request.name = ModeQueryText(program, decl);
        request.program = program;
        request.query = decl.pred;
        request.adornment = decl.adornment;
        request.options = options;
        requests.push_back(std::move(request));
      }
      std::vector<BatchItemResult> results = engine.Run(requests);
      bool all_proved = true;
      bool any_limited = false;
      std::string first_trip;
      for (size_t i = 0; i < results.size(); ++i) {
        const ModeDecl& decl = program.mode_decls()[i];
        const BatchItemResult& item = results[i];
        if (json) {
          ReportJsonOptions json_options;
          json_options.include_spend = true;
          std::printf("%s\n",
                      ReportToJsonLine(item.name, item.name, item.status,
                                       item.report, json_options)
                          .c_str());
        } else if (!item.status.ok()) {
          std::printf("==== mode %s(%s) ====\nanalysis failed: %s\n",
                      program.symbols().Name(decl.pred.symbol).c_str(),
                      AdornmentToString(decl.adornment).c_str(),
                      item.status.ToString().c_str());
        } else {
          std::printf("==== mode %s(%s) ====\n%s\n",
                      program.symbols().Name(decl.pred.symbol).c_str(),
                      AdornmentToString(decl.adornment).c_str(),
                      item.report.ToString().c_str());
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
      return VerdictExit(all_proved, any_limited, first_trip);
    }
    query = ModeQueryText(program, program.mode_decls().front());
  }

  TerminationAnalyzer analyzer(options);
  // Single-run --json goes through the engine at jobs=1 (same verdicts and
  // certificates as the serial analyzer) so the JSON line can carry the
  // per-request scc_tasks / cache_hits accounting.
  int64_t scc_tasks = -1, cache_hits = -1;
  int64_t inference_tasks = -1, inference_cache_hits = -1;
  Result<TerminationReport> report = Status::Internal("not yet analyzed");
  if (json) {
    Result<std::pair<PredId, Adornment>> parsed_query =
        ParseQuerySpec(program, query);
    if (!parsed_query.ok()) {
      return Fail(parsed_query.status().ToString().c_str());
    }
    EngineOptions engine_options;
    engine_options.use_cache = use_cache;
    BatchEngine engine(engine_options);
    std::vector<BatchRequest> requests(1);
    requests[0].name = positional.empty() ? corpus_name : positional[0];
    requests[0].program = program;
    requests[0].query = parsed_query->first;
    requests[0].adornment = parsed_query->second;
    requests[0].options = options;
    BatchItemResult item = std::move(engine.Run(requests)[0]);
    if (!item.status.ok()) return Fail(item.status.ToString().c_str());
    report = std::move(item.report);
    scc_tasks = item.scc_tasks;
    cache_hits = item.cache_hits;
    inference_tasks = item.inference_tasks;
    inference_cache_hits = item.inference_cache_hits;
  } else {
    report = analyzer.Analyze(program, query);
  }
  if (!report.ok()) return Fail(report.status().ToString().c_str());
  if (reorder && !report->proved) {
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
      *report = search->report;
      // The printed report no longer corresponds to the engine run above.
      scc_tasks = -1;
      cache_hits = -1;
      inference_tasks = -1;
      inference_cache_hits = -1;
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
    ReportJsonOptions json_options;
    json_options.include_spend = true;
    json_options.scc_tasks = scc_tasks;
    json_options.cache_hits = cache_hits;
    json_options.inference_tasks = inference_tasks;
    json_options.inference_cache_hits = inference_cache_hits;
    std::printf("%s\n", ReportToJsonLine(positional.empty() ? corpus_name
                                                            : positional[0],
                                         query, Status::Ok(), *report,
                                         json_options)
                            .c_str());
    return VerdictExit(report->proved, report->resource_limited,
                       report->first_resource_trip);
  }
  std::printf("query: %s\n%s", query.c_str(), report->ToString().c_str());
  if (show_constraints) {
    std::printf("\ninter-argument constraints:\n%s",
                report->arg_sizes.ToString(report->analyzed_program).c_str());
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
  return VerdictExit(report->proved, report->resource_limited,
                     report->first_resource_trip);
}
