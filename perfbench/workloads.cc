// The four benchmark workloads. Each Run* function performs one rep:
// set-up (timed, repeated), the timed phase, the correctness gate, and —
// when traced — the per-layer collection. See README.md for why each
// workload exists and which layer it stresses.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <thread>

#include "termibench.h"

namespace termibench {

using namespace termilog;

namespace {

// The corpus entries whose own analysis dominates corpus_cold (ROADMAP
// baseline: nnf 5.3 s, gcd_subtract 1.4 s, deriv 0.15 s; every other
// entry is <= 10 ms). They form the workload's heavy request class.
const std::set<std::string> kHeavyCorpusEntries = {"nnf", "gcd_subtract",
                                                   "deriv"};
// Generated requests with at least this many planned recursive predicates
// form the gen_* heavy class (about a quarter of the mix).
constexpr int kHeavyGenPredicates = 6;

constexpr int kGenRequests = 2000;
// 500 light lines a rep: run.py pools the latencies of the faster half of
// at least three reps, so light_p99_ms has >= 1000 samples.
constexpr int kServePlainRequests = 450;
constexpr int kServeConditionsRequests = 50;  // one light line in ten
constexpr int kTinyRequests = 24;

template <typename T>
T Median(std::vector<T> values) {
  if (values.empty()) return T{};
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Runs `setup` `repeats` times, recording each duration as a setup_s
// sample, and returns the last result (earlier ones are discarded). The
// millisecond-scale set-ups (corpus, serve) repeat most, so their median
// stays steady; gen_warm's repeats come from its many reps.
template <typename F>
auto TimedSetup(int repeats, RepResult* result, F setup) {
  for (int i = 1;; ++i) {
    const double start = NowSeconds();
    auto value = setup();
    result->setup_s.push_back(NowSeconds() - start);
    if (i >= repeats) return value;
  }
}

Result<BatchRequest> BuildRequest(const std::string& name,
                                  const std::string& source,
                                  const std::string& query,
                                  const AnalysisOptions& options) {
  Result<Program> program = Status::Internal("not parsed");
  {
    obs::ScopedSpan span("bench.parse", "bench");
    program = ParseProgram(source);
  }
  if (!program.ok()) return program.status();
  Result<std::pair<PredId, Adornment>> parsed_query =
      ParseQuerySpec(*program, query);
  if (!parsed_query.ok()) return parsed_query.status();
  BatchRequest request;
  request.name = name;
  request.program = std::move(*program);
  request.query = parsed_query->first;
  request.adornment = parsed_query->second;
  request.options = options;
  return request;
}

AnalysisOptions LimitsOnly(const GovernorLimits& limits) {
  AnalysisOptions options;
  options.limits = limits;
  return options;
}

// Times one engine Run: wall and process CPU of the timed phase, the
// process's peak RSS up to its end, and each request's send-to-response
// latency. The whole batch is sent when Run starts and results come back in
// request order through `on_result`, so a light request's answer also waits
// for every request ahead of it. `heavy` names the heavy request class.
std::vector<BatchItemResult> TimedRun(BatchEngine& engine,
                                      const std::vector<BatchRequest>& requests,
                                      const std::vector<bool>& heavy,
                                      RepResult* result) {
  const double wall_start = NowSeconds();
  const double cpu_start = CpuSeconds();
  size_t index = 0;
  std::vector<BatchItemResult> items =
      engine.Run(requests, [&](const BatchItemResult&) {
        const auto latency_us =
            static_cast<int64_t>((NowSeconds() - wall_start) * 1e6);
        (heavy[index++] ? result->heavy_us : result->light_us)
            .push_back(latency_us);
      });
  result->wall_s = NowSeconds() - wall_start;
  result->cpu_s = CpuSeconds() - cpu_start;
  result->peak_rss_mb = PeakRssMb();
  result->requests = static_cast<int64_t>(items.size());
  result->attempted = static_cast<int64_t>(items.size());
  result->light_count = static_cast<int64_t>(result->light_us.size());
  result->light_seconds = result->wall_s;
  return items;
}

// Median of (admission-to-completion wall - service CPU): the time a batch
// request spent waiting rather than being served.
double BatchQueueWaitMs(const std::vector<BatchItemResult>& items) {
  std::vector<int64_t> waits;
  for (const BatchItemResult& item : items) {
    waits.push_back(item.e2e_us - item.latency_us);
  }
  return static_cast<double>(Median(waits)) / 1e3;
}

void CheckReplay(const std::vector<ReplayInput>& inputs,
                 const std::vector<BatchItemResult>& items,
                 LayerInputs* layers, RepResult* result) {
  ResetTrace();
  std::vector<Verdict> replayed =
      ReplayLayers(inputs, &layers->replay_limb_high_water);
  layers->kernel = CaptureTrace();
  for (size_t i = 0; i < items.size(); ++i) {
    if (!(replayed[i] == VerdictOf(items[i]))) {
      result->Fail(StrCat("replay verdict differs from the engine's for ",
                          items[i].name));
    }
  }
}

// --- corpus --------------------------------------------------------------

AnalysisOptions CorpusOptions(const CorpusEntry& entry) {
  AnalysisOptions options;
  options.apply_transformations = entry.needs_transformations;
  options.allow_negative_deltas = entry.needs_negative_deltas;
  options.supplied_constraints = entry.supplied_constraints;
  return options;
}

// The corpus in its stable order. The seed does not apply: entries share
// SCCs through the cache, so any reordering would move cost between them.
// The tiny self-test size keeps six light entries and deriv.
std::vector<const CorpusEntry*> CorpusEntries(const RepOptions& options) {
  std::vector<const CorpusEntry*> entries;
  size_t light = 0;
  for (const CorpusEntry& entry : Corpus()) {
    const bool heavy = kHeavyCorpusEntries.count(entry.name) != 0;
    if (options.tiny &&
        (heavy ? entry.name != "deriv" : ++light > 6)) {
      continue;
    }
    entries.push_back(&entry);
  }
  return entries;
}

// --- generated programs --------------------------------------------------

// gen_cold / gen_warm: distinct mixed-verdict programs, spec
// SEED:sccs=1-3,preds=1-3,arity=2,depth=2,fanout=2,mix=70/25/5,dup=0.
gen::GenParams GenParams(const RepOptions& options, int count,
                         const char* prefix) {
  gen::GenParams params;
  params.seed = options.seed;
  params.count = options.tiny ? std::min(count, kTinyRequests) : count;
  params.min_sccs = 1;
  params.max_sccs = 3;
  params.min_scc_size = 1;
  params.max_scc_size = 3;
  params.max_arity = 2;
  params.term_depth = 2;
  params.fanout = 2;
  params.mix_proved = 70;
  params.mix_not_proved = 25;
  params.mix_resource_limit = 5;
  params.name_prefix = prefix;
  return params;
}

bool IsHeavyGenerated(const gen::GeneratedRequest& request) {
  int preds = 0;
  for (int size : request.scc_sizes) preds += size;
  return preds >= kHeavyGenPredicates;
}

gen::ExpectedVerdict Falsified(gen::ExpectedVerdict expect) {
  return expect == gen::ExpectedVerdict::kProved
             ? gen::ExpectedVerdict::kNotProved
             : gen::ExpectedVerdict::kProved;
}

std::vector<BatchRequest> BuildGenerated(const gen::GeneratedWorkload& workload,
                                         RepResult* result) {
  std::vector<BatchRequest> requests;
  requests.reserve(workload.requests.size());
  for (const gen::GeneratedRequest& generated : workload.requests) {
    Result<BatchRequest> request =
        BuildRequest(generated.name, generated.source, generated.query,
                     LimitsOnly(generated.limits));
    if (!request.ok()) {
      result->Fail(StrCat(generated.name, ": ", request.status().ToString()));
      continue;
    }
    requests.push_back(std::move(*request));
  }
  return requests;
}

// Verdicts against the generator's declared expectations.
void CheckGenerated(const gen::GeneratedWorkload& workload,
                    const std::vector<BatchItemResult>& items, bool falsify,
                    RepResult* result) {
  if (items.size() != workload.requests.size()) {
    result->Fail("request count changed during set-up");
    return;
  }
  for (size_t i = 0; i < items.size(); ++i) {
    gen::ExpectedVerdict expect = workload.requests[i].expect;
    if (falsify && i == 0) expect = Falsified(expect);
    Verdict verdict = VerdictOf(items[i]);
    if (!verdict.ok ||
        !gen::OutcomeMatchesExpect(expect, verdict.proved,
                                   verdict.resource_limited)) {
      result->Fail(StrCat(items[i].name, ": verdict does not match ",
                          gen::ExpectedVerdictName(expect)));
    }
  }
}

std::vector<bool> GenHeavyMask(const gen::GeneratedWorkload& workload) {
  std::vector<bool> heavy;
  for (const gen::GeneratedRequest& request : workload.requests) {
    heavy.push_back(IsHeavyGenerated(request));
  }
  return heavy;
}

std::vector<std::string> ReportLines(const std::vector<BatchItemResult>& items) {
  std::vector<std::string> lines;
  for (const BatchItemResult& item : items) {
    lines.push_back(ReportToJsonLine(item.name, "", item.status, item.report));
  }
  return lines;
}

std::string WarmPath(const RepOptions& options, const char* suffix) {
  return StrCat(options.dir, "/gen_warm-", options.seed,
                options.tiny ? "-tiny" : "", suffix);
}

void RemoveStore(const std::string& path) {
  std::error_code ec;
  for (const char* suffix : {"", ".quarantined", ".tmp"}) {
    std::filesystem::remove(path + suffix, ec);
  }
}

double FileMb(const std::string& path) {
  std::error_code ec;
  auto bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// Opens the store at `path` and attaches it to `engine`, under the
// bench.store_open / bench.attach spans.
Status AttachStore(BatchEngine& engine, const std::string& path) {
  Result<std::unique_ptr<persist::PersistentStore>> store =
      Status::Internal("not opened");
  {
    obs::ScopedSpan span("bench.store_open", "bench");
    store = persist::PersistentStore::Open(path);
  }
  if (!store.ok()) return store.status();
  obs::ScopedSpan span("bench.attach", "bench");
  return engine.AttachStore(std::move(*store));
}

Status FlushStore(BatchEngine& engine) {
  obs::ScopedSpan span("bench.flush", "bench");
  return engine.FlushStore();
}

void NoteStore(BatchEngine& engine, LayerInputs* layers) {
  if (engine.store() == nullptr) return;
  layers->store_stats = engine.store()->stats();
  layers->store_mb = FileMb(engine.store()->path());
}

// --- serve_mixed helpers ----------------------------------------------------

// Appends `suffix` to every identifier equal to `name` (lower-case atoms
// only; variables start upper-case and are never touched).
std::string RenameIdentifier(const std::string& source, const std::string& name,
                             const std::string& suffix) {
  std::string out;
  size_t i = 0;
  auto word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  while (i < source.size()) {
    if (!word_char(source[i])) {
      out += source[i++];
      continue;
    }
    size_t j = i;
    while (j < source.size() && word_char(source[j])) ++j;
    std::string word = source.substr(i, j - i);
    out += word;
    if (word == name) out += suffix;
    i = j;
  }
  return out;
}

// Copy `k` of the corpus deriv program with its (single) predicate renamed,
// so every copy misses the cache (CanonicalSccKey renames only variables)
// and does the same work.
gen::GeneratedRequest HeavyRequest(const RepOptions& options, int64_t k) {
  const CorpusEntry* deriv = FindCorpusEntry("deriv");
  const std::string suffix = StrCat("_h", k);
  gen::GeneratedRequest request;
  request.name = StrCat("heavy:s", options.seed, ":h", k);
  request.source = RenameIdentifier(deriv->source, "deriv", suffix);
  request.query = RenameIdentifier(deriv->query, "deriv", suffix);
  request.expect = deriv->expect_proved ? gen::ExpectedVerdict::kProved
                                        : gen::ExpectedVerdict::kNotProved;
  return request;
}

// The light stream: plain generated requests (30% verbatim repeats, so the
// cache gets hits) with every tenth line a conditions sweep (modes=2).
std::vector<gen::GeneratedRequest> LightRequests(const RepOptions& options) {
  gen::GenParams plain_params =
      GenParams(options, kServePlainRequests, "light");
  plain_params.dup_percent = 30;
  gen::GenParams conditions_params =
      GenParams(options, kServeConditionsRequests, "cond");
  conditions_params.modes_cycle = 2;
  if (options.tiny) conditions_params.count = 2;
  std::vector<gen::GeneratedRequest> plain =
      gen::Generate(plain_params).requests;
  std::vector<gen::GeneratedRequest> conditions =
      gen::Generate(conditions_params).requests;
  std::vector<gen::GeneratedRequest> light;
  size_t p = 0, c = 0;
  while (p < plain.size() || c < conditions.size()) {
    for (int i = 0; i < 9 && p < plain.size(); ++i) light.push_back(plain[p++]);
    if (c < conditions.size()) light.push_back(conditions[c++]);
  }
  return light;
}

// The heavy connection: one Unix-socket connection with one request in
// flight, whose next line is sent as soon as its response arrives.
class HeavyConnection {
 public:
  explicit HeavyConnection(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) return;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&address),
                              sizeof(address)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~HeavyConnection() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& line) {
    const std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      const ssize_t n =
          ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one response line (without its newline).
  bool Receive(std::string* response) {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    response->assign(buffer_, 0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string ResponseName(const std::string& line) {
  const std::string open = "{\"name\":\"";
  if (line.compare(0, open.size(), open) != 0) return "";
  size_t end = line.find('"', open.size());
  return end == std::string::npos ? ""
                                  : line.substr(open.size(), end - open.size());
}

// Serve queue wait: per plain request, client send-to-response latency
// minus the engine's request span (prep start to merge), median over the
// requests both sides saw.
double ServeQueueWaitMs(const std::vector<std::string>& responses,
                        const std::vector<int64_t>& latencies_us) {
  std::map<std::string, int64_t> engine_us;
  for (const obs::SpanEvent& span : obs::Tracer::Global().Snapshot()) {
    if (span.name != "request") continue;
    for (const auto& [key, value] : span.args) {
      if (key == "name") engine_us[value] = span.duration_us;
    }
  }
  std::vector<int64_t> waits;
  for (size_t i = 0; i < responses.size() && i < latencies_us.size(); ++i) {
    auto it = engine_us.find(ResponseName(responses[i]));
    if (it != engine_us.end()) waits.push_back(latencies_us[i] - it->second);
  }
  return static_cast<double>(Median(waits)) / 1e3;
}

// The in-process engine's answers for the lines the server received, plus
// the gate on their verdicts and declared minimal modes. Plain requests
// render exactly as ProcessServeChunk renders them.
std::vector<std::string> ServeReference(
    const std::vector<gen::GeneratedRequest>& requests, bool traced,
    LayerInputs* layers, RepResult* result) {
  BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
  std::vector<const gen::GeneratedRequest*> plain;
  std::vector<BatchRequest> batch;
  std::vector<condinf::ConditionsSweep> sweeps;
  std::vector<const gen::GeneratedRequest*> swept;
  for (const gen::GeneratedRequest& request : requests) {
    if (request.kind == "conditions") {
      Result<Program> program = ParseProgram(request.source);
      if (!program.ok()) {
        result->Fail(StrCat(request.name, ": ", program.status().ToString()));
        continue;
      }
      sweeps.emplace_back(request.name, std::move(*program),
                          condinf::ConditionsOptions());
      swept.push_back(&request);
      continue;
    }
    Result<BatchRequest> built = BuildRequest(
        request.name, request.source, request.query, LimitsOnly(request.limits));
    if (!built.ok()) {
      result->Fail(StrCat(request.name, ": ", built.status().ToString()));
      continue;
    }
    batch.push_back(std::move(*built));
    plain.push_back(&request);
  }

  std::vector<std::string> lines;
  std::vector<BatchItemResult> items = engine.Run(batch);
  for (size_t i = 0; i < items.size(); ++i) {
    Verdict verdict = VerdictOf(items[i]);
    if (!verdict.ok ||
        !gen::OutcomeMatchesExpect(plain[i]->expect, verdict.proved,
                                   verdict.resource_limited)) {
      result->Fail(StrCat(items[i].name, ": verdict does not match ",
                          gen::ExpectedVerdictName(plain[i]->expect)));
    }
    lines.push_back(ReportToJsonLine(items[i].name, plain[i]->query,
                                     items[i].status, items[i].report));
  }

  if (traced) ResetTrace();
  std::vector<condinf::ConditionsReport> reports;
  {
    obs::ScopedSpan span("bench.conditions", "bench");
    reports = condinf::RunConditionsSweeps(engine, sweeps);
  }
  if (traced) {
    layers->condinf_sweep_ms = CaptureTrace().TotalMs("bench.conditions");
  }
  for (size_t i = 0; i < reports.size(); ++i) {
    std::vector<std::string> messages;
    if (condinf::CountExpectModeMismatches(reports[i], swept[i]->expect_modes,
                                           &messages) != 0) {
      result->Fail(StrCat(reports[i].name, ": minimal modes differ: ",
                          messages.empty() ? "" : messages.front()));
    }
    for (const condinf::PredConditions& pred : reports[i].preds) {
      layers->condinf_evaluated += pred.evaluated;
      layers->condinf_implied += pred.implied_proved + pred.implied_failed;
    }
    lines.push_back(condinf::ConditionsReportToJsonLine(reports[i]));
  }
  return lines;
}

// Responses (any order) against the reference lines (any order): every
// response must be byte-identical to one reference line.
void CompareSorted(std::vector<std::string> responses,
                   std::vector<std::string> reference, RepResult* result) {
  std::sort(responses.begin(), responses.end());
  std::sort(reference.begin(), reference.end());
  std::vector<std::string> missing;
  std::set_difference(reference.begin(), reference.end(), responses.begin(),
                      responses.end(), std::back_inserter(missing));
  for (const std::string& line : missing) {
    result->Fail(StrCat("no byte-identical response for ",
                        ResponseName(line).empty() ? line.substr(0, 80)
                                                   : ResponseName(line)));
  }
  if (responses.size() != reference.size()) {
    result->Fail(StrCat(responses.size(), " responses for ", reference.size(),
                        " requests"));
  }
}

// One serve_mixed set-up: engine with a fresh store, and a listening server.
struct ServeRig {
  std::unique_ptr<BatchEngine> engine;
  std::unique_ptr<net::NetServer> server;
  std::string store_path;
  Status status = Status::Ok();
};

}  // namespace

// --- the four workloads ----------------------------------------------------

RepResult RunCorpusCold(const RepOptions& options) {
  RepResult result;
  const std::vector<const CorpusEntry*> entries = CorpusEntries(options);
  if (options.trace) StartTracing();
  std::vector<BatchRequest> requests = TimedSetup(50, &result, [&] {
    std::vector<BatchRequest> built;
    for (const CorpusEntry* entry : entries) {
      Result<BatchRequest> request = BuildRequest(
          entry->name, entry->source, entry->query, CorpusOptions(*entry));
      if (request.ok()) built.push_back(std::move(*request));
    }
    return built;
  });
  if (requests.size() != entries.size()) {
    result.Fail("a corpus entry failed to parse");
    return result;
  }

  std::vector<bool> heavy;
  for (const CorpusEntry* entry : entries) {
    heavy.push_back(kHeavyCorpusEntries.count(entry->name) != 0);
  }
  BatchEngine engine(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  std::vector<BatchItemResult> items =
      TimedRun(engine, requests, heavy, &result);

  for (size_t i = 0; i < items.size(); ++i) {
    const CorpusEntry& entry = *entries[i];
    bool expect = entry.expect_proved;
    if (options.falsify && i == 0) expect = !expect;
    Verdict verdict = VerdictOf(items[i]);
    if (!verdict.ok || verdict.resource_limited || verdict.proved != expect) {
      result.Fail(StrCat(entry.name, ": expected ",
                         expect ? "proved" : "not proved"));
    }
  }

  if (options.trace) {
    LayerInputs layers;
    layers.engine = CaptureTrace();
    layers.engine_stats = engine.stats();
    layers.queue_wait_ms = BatchQueueWaitMs(items);
    std::vector<ReplayInput> inputs;
    for (const CorpusEntry* entry : entries) {
      inputs.push_back({entry->source, entry->query, CorpusOptions(*entry)});
    }
    CheckReplay(inputs, items, &layers, &result);
    StopTracing();
    result.layers = LayerMetrics(layers);
  }
  return result;
}

RepResult RunGenCold(const RepOptions& options) {
  RepResult result;
  const gen::GeneratedWorkload workload =
      gen::Generate(GenParams(options, kGenRequests, "gen"));
  if (options.trace) StartTracing();
  std::vector<BatchRequest> requests = TimedSetup(
      5, &result, [&] { return BuildGenerated(workload, &result); });

  BatchEngine engine(EngineOptions{/*jobs=*/2, /*use_cache=*/true});
  std::vector<BatchItemResult> items =
      TimedRun(engine, requests, GenHeavyMask(workload), &result);
  CheckGenerated(workload, items, options.falsify, &result);

  if (options.trace) {
    LayerInputs layers;
    layers.engine = CaptureTrace();
    layers.engine_stats = engine.stats();
    layers.queue_wait_ms = BatchQueueWaitMs(items);
    std::vector<ReplayInput> inputs;
    for (const gen::GeneratedRequest& request : workload.requests) {
      inputs.push_back({request.source, request.query,
                        LimitsOnly(request.limits)});
    }
    CheckReplay(inputs, items, &layers, &result);
    StopTracing();
    result.layers = LayerMetrics(layers);
  }
  return result;
}

bool FillWarmStore(const RepOptions& options) {
  RepResult result;
  const gen::GeneratedWorkload workload =
      gen::Generate(GenParams(options, kGenRequests, "gen"));
  std::vector<BatchRequest> requests = BuildGenerated(workload, &result);
  const std::string store_path = WarmPath(options, ".store");
  RemoveStore(store_path);
  std::vector<std::string> lines;
  {
    BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
    Status attached = AttachStore(engine, store_path);
    if (!attached.ok()) {
      std::fprintf(stderr, "fill: %s\n", attached.ToString().c_str());
      return false;
    }
    std::vector<BatchItemResult> items = engine.Run(requests);
    CheckGenerated(workload, items, /*falsify=*/false, &result);
    Status flushed = engine.FlushStore();
    if (!flushed.ok()) result.Fail(flushed.ToString());
    lines = ReportLines(items);
  }
  std::ofstream out(WarmPath(options, ".lines"), std::ios::binary);
  for (const std::string& line : lines) out << line << '\n';
  out.close();
  if (!out) result.Fail("cannot write the reference lines");
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "fill: %s\n", failure.c_str());
  }
  return result.failed == 0;
}

RepResult RunGenWarm(const RepOptions& options) {
  RepResult result;
  const gen::GeneratedWorkload workload =
      gen::Generate(GenParams(options, kGenRequests, "gen"));
  std::vector<std::string> cold_lines;
  {
    std::ifstream in(WarmPath(options, ".lines"), std::ios::binary);
    for (std::string line; std::getline(in, line);) cold_lines.push_back(line);
  }
  const std::string store_path = WarmPath(options, ".store");
  if (cold_lines.empty() || !std::filesystem::exists(store_path)) {
    result.Fail("the gen_warm store has not been filled (termibench fill)");
    return result;
  }
  if (options.falsify) cold_lines[0] += " ";
  if (options.trace) StartTracing();

  struct Warm {
    std::vector<BatchRequest> requests;
    std::unique_ptr<BatchEngine> engine;
    Status status = Status::Ok();
  };
  Warm warm = TimedSetup(1, &result, [&] {
    Warm setup;
    setup.requests = BuildGenerated(workload, &result);
    setup.engine = std::make_unique<BatchEngine>(
        EngineOptions{/*jobs=*/2, /*use_cache=*/true});
    setup.status = AttachStore(*setup.engine, store_path);
    return setup;
  });
  if (!warm.status.ok()) {
    result.Fail(warm.status.ToString());
    return result;
  }

  std::vector<BatchItemResult> items =
      TimedRun(*warm.engine, warm.requests, GenHeavyMask(workload), &result);
  CheckGenerated(workload, items, /*falsify=*/false, &result);
  std::vector<std::string> lines = ReportLines(items);
  for (size_t i = 0; i < lines.size(); ++i) {
    if (i >= cold_lines.size() || lines[i] != cold_lines[i]) {
      result.Fail(StrCat(items[i].name, ": warm report line differs from cold"));
    }
  }
  if (lines.size() != cold_lines.size()) {
    result.Fail("warm and cold runs answered different request counts");
  }
  Status flushed = FlushStore(*warm.engine);
  if (!flushed.ok()) result.Fail(flushed.ToString());

  if (options.trace) {
    LayerInputs layers;
    layers.engine = CaptureTrace();
    layers.kernel = layers.engine;
    layers.engine_stats = warm.engine->stats();
    layers.queue_wait_ms = BatchQueueWaitMs(items);
    NoteStore(*warm.engine, &layers);
    StopTracing();
    result.layers = LayerMetrics(layers);
  }
  return result;
}

RepResult RunServeMixed(const RepOptions& options) {
  RepResult result;
  const std::vector<gen::GeneratedRequest> light = LightRequests(options);
  std::vector<std::string> light_lines;
  for (const gen::GeneratedRequest& request : light) {
    light_lines.push_back(gen::RequestToManifestLine(request));
  }
  const std::string socket_path =
      StrCat(options.dir, "/serve-", ::getpid(), ".sock");
  const net::NetAddress address =
      net::ParseNetAddress("unix:" + socket_path).value();
  if (options.trace) StartTracing();

  ServeRig rig = TimedSetup(10, &result, [&] {
    ServeRig setup;
    // Every line the light clients send must be a well-formed program.
    for (const gen::GeneratedRequest& request : light) {
      obs::ScopedSpan span("bench.parse", "bench");
      if (!ParseProgram(request.source).ok()) {
        setup.status = Status::Internal(request.name + " does not parse");
      }
    }
    setup.engine = std::make_unique<BatchEngine>(
        EngineOptions{/*jobs=*/2, /*use_cache=*/true});
    setup.store_path = StrCat(options.dir, "/serve-", ::getpid(), ".store");
    RemoveStore(setup.store_path);
    Status attached = AttachStore(*setup.engine, setup.store_path);
    if (setup.status.ok()) setup.status = attached;
    setup.server = std::make_unique<net::NetServer>(*setup.engine,
                                                    net::NetServerOptions());
    Status listening = setup.server->Listen(address);
    if (setup.status.ok()) setup.status = listening;
    return setup;
  });
  if (!rig.status.ok()) {
    result.Fail(rig.status.ToString());
    return result;
  }

  Status run_status = Status::Ok();
  std::thread server_thread([&] { run_status = rig.server->Run(); });

  const double wall_start = NowSeconds();
  const double cpu_start = CpuSeconds();
  std::atomic<bool> light_done{false};
  std::vector<std::string> light_responses;
  Result<net::LoadClientStats> light_stats =
      Status::Internal("light stream did not run");
  std::thread light_thread([&] {
    net::LoadClientOptions client;
    client.clients = 2;
    client.window = 8;
    client.responses = &light_responses;
    light_stats = net::RunLoadClient(address, light_lines, client);
    light_done = true;
  });

  // The heavy connection: one deriv copy at a time until the light stream
  // is done. The next line is built while a response is awaited, so it
  // goes out as soon as that response arrives.
  std::vector<gen::GeneratedRequest> heavy;
  std::vector<std::string> heavy_responses;
  int64_t heavy_sent = 0;
  {
    HeavyConnection connection(socket_path);
    if (!connection.ok()) result.Fail("heavy stream: cannot connect");
    heavy.push_back(HeavyRequest(options, 0));
    std::string line = gen::RequestToManifestLine(heavy.back());
    while (connection.ok() && !light_done) {
      const double sent_at = NowSeconds();
      std::string response;
      if (!connection.Send(line)) {
        result.Fail("heavy stream: send failed");
        break;
      }
      ++heavy_sent;
      heavy.push_back(
          HeavyRequest(options, static_cast<int64_t>(heavy.size())));
      line = gen::RequestToManifestLine(heavy.back());
      if (!connection.Receive(&response)) {
        result.Fail("heavy stream: connection lost");
        break;
      }
      result.heavy_us.push_back(
          static_cast<int64_t>((NowSeconds() - sent_at) * 1e6));
      heavy_responses.push_back(std::move(response));
    }
    heavy.resize(static_cast<size_t>(heavy_sent));
  }
  light_thread.join();
  result.wall_s = NowSeconds() - wall_start;
  rig.server->BeginDrain();
  server_thread.join();
  result.cpu_s = CpuSeconds() - cpu_start;
  result.peak_rss_mb = PeakRssMb();
  if (!run_status.ok()) result.Fail("server: " + run_status.ToString());
  if (!light_stats.ok()) {
    result.Fail("light stream: " + light_stats.status().ToString());
    return result;
  }
  Status flushed = FlushStore(*rig.engine);
  if (!flushed.ok()) result.Fail(flushed.ToString());

  result.attempted = light_stats->sent + heavy_sent;
  result.requests =
      light_stats->received + static_cast<int64_t>(heavy_responses.size());
  result.light_us = light_stats->latencies_us;
  result.light_count = light_stats->received;
  result.light_seconds = light_stats->elapsed_ms / 1e3;

  LayerInputs layers;
  if (options.trace) {
    layers.engine = CaptureTrace();
    layers.kernel = layers.engine;
    layers.engine_stats = rig.engine->stats();
    std::vector<std::string> responses = light_responses;
    responses.insert(responses.end(), heavy_responses.begin(),
                     heavy_responses.end());
    std::vector<int64_t> latencies = light_stats->latencies_us;
    latencies.insert(latencies.end(), result.heavy_us.begin(),
                     result.heavy_us.end());
    layers.queue_wait_ms = ServeQueueWaitMs(responses, latencies);
    NoteStore(*rig.engine, &layers);
    layers.net_stats = rig.server->stats();
  }

  std::vector<gen::GeneratedRequest> answered = light;
  answered.insert(answered.end(), heavy.begin(), heavy.end());
  std::vector<std::string> reference =
      ServeReference(answered, options.trace, &layers, &result);
  if (options.falsify && !reference.empty()) reference[0] += " ";
  std::vector<std::string> responses = std::move(light_responses);
  responses.insert(responses.end(), heavy_responses.begin(),
                   heavy_responses.end());
  CompareSorted(std::move(responses), std::move(reference), &result);

  rig.server.reset();
  rig.engine.reset();
  RemoveStore(rig.store_path);
  std::error_code ec;
  std::filesystem::remove(socket_path, ec);
  if (options.trace) {
    StopTracing();
    result.layers = LayerMetrics(layers);
  }
  return result;
}

}  // namespace termibench
