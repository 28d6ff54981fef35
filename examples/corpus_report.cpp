// Full corpus x methods comparison report (experiment E5): runs this
// paper's analyzer plus the three reconstructed prior methods (Naish
// subset descent, Ullman-Van Gelder pairwise descent, Brodsky-Sagiv style
// argument mapping) over every corpus program and prints the matrix that
// substantiates the paper's claim that "several programs that could not be
// shown to terminate by earlier published methods are handled
// successfully".
//
// This paper's column is computed through the parallel batch engine
// (docs/engine.md): one request per corpus entry, scheduled onto a worker
// pool with content-addressed SCC memoization. Pass a job count as argv[1]
// (default 4; a positive integer up to INT_MAX, anything else exits 1);
// the matrix is byte-identical for every value. Aggregate engine
// statistics (cache hits/misses, total work) print after the matrix.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "termilog/termilog.h"

using namespace termilog;

namespace {

struct QuerySpec {
  PredId pred;
  Adornment adornment;
};

QuerySpec ParseQuery(Program& program, const std::string& query) {
  size_t open = query.find('(');
  std::string name = query.substr(0, open);
  Adornment adornment;
  for (char c : query.substr(open)) {
    if (c == 'b') adornment.push_back(Mode::kBound);
    if (c == 'f') adornment.push_back(Mode::kFree);
  }
  return {PredId{program.symbols().Intern(name),
                 static_cast<int>(adornment.size())},
          adornment};
}

const char* Cell(BaselineVerdict verdict) {
  switch (verdict) {
    case BaselineVerdict::kProved:
      return "proved";
    case BaselineVerdict::kNotProved:
      return "-";
    case BaselineVerdict::kUnsupported:
      return "n/a";
  }
  return "?";
}

AnalysisOptions EntryOptions(const CorpusEntry& entry) {
  AnalysisOptions options;
  options.apply_transformations = entry.needs_transformations;
  options.allow_negative_deltas = entry.needs_negative_deltas;
  options.supplied_constraints = entry.supplied_constraints;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  // Env-driven observability: TERMILOG_TRACE / TERMILOG_METRICS name output
  // files; the matrix bytes are unaffected (docs/observability.md).
  obs::ObsExport obs_export("", "");
  int jobs = 4;
  if (argc > 1) {
    // termilog_cli's rule for int flags: no trailing characters, nothing
    // above INT_MAX (std::atoi would narrow or ignore either).
    char* end = nullptr;
    errno = 0;
    long long value = std::strtoll(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || errno == ERANGE || value < 1 ||
        value > INT_MAX) {
      std::fprintf(stderr, "usage: corpus_report [JOBS]\n");
      return EXIT_FAILURE;
    }
    jobs = static_cast<int>(value);
  }

  // Phase 1: this paper's analyzer over the whole corpus, as one batch.
  std::vector<BatchRequest> requests;
  for (const CorpusEntry& entry : Corpus()) {
    Result<Program> parsed = ParseProgram(entry.source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", entry.name.c_str(),
                   parsed.status().ToString().c_str());
      return EXIT_FAILURE;
    }
    Program program = std::move(*parsed);
    QuerySpec query = ParseQuery(program, entry.query);
    BatchRequest request;
    request.name = entry.name;
    request.program = std::move(program);
    request.query = query.pred;
    request.adornment = query.adornment;
    request.options = EntryOptions(entry);
    requests.push_back(std::move(request));
  }
  EngineOptions engine_options;
  engine_options.jobs = jobs;
  BatchEngine engine(engine_options);
  std::vector<BatchItemResult> results = engine.Run(requests);

  std::printf("%-22s %-6s %-10s %-8s %-8s %-8s %-8s\n", "program",
              "truth", "this-paper", "naish", "uvg", "argmap", "notes");
  std::printf("%s\n", std::string(80, '-').c_str());

  // Phase 2: baselines per entry (serial; they share no engine state) and
  // the matrix row, with this paper's verdict taken from the batch.
  int ours = 0, naish = 0, uvg = 0, argmap = 0, terminating = 0;
  size_t index = 0;
  for (const CorpusEntry& entry : Corpus()) {
    const BatchItemResult& item = results[index++];
    bool proved = item.status.ok() && item.report.proved;

    Result<Program> parsed = ParseProgram(entry.source);
    Program& program = *parsed;
    QuerySpec query = ParseQuery(program, entry.query);

    ArgSizeDb db;
    for (const auto& [spec, text] : entry.supplied_constraints) {
      size_t slash = spec.find('/');
      PredId pred{program.symbols().Intern(spec.substr(0, slash)),
                  std::atoi(spec.c_str() + slash + 1)};
      db.Set(pred, ArgSizeDb::ParseSpec(pred.arity, text).value());
    }
    (void)ConstraintInference::Run(program, &db);

    BaselineReport naish_report =
        NaishAnalyzer::Analyze(program, query.pred, query.adornment);
    BaselineReport uvg_report =
        UvgAnalyzer::Analyze(program, query.pred, query.adornment);
    BaselineReport argmap_report =
        ArgMapAnalyzer::Analyze(program, query.pred, query.adornment, db);

    if (entry.terminating) ++terminating;
    if (proved) ++ours;
    if (naish_report.verdict == BaselineVerdict::kProved) ++naish;
    if (uvg_report.verdict == BaselineVerdict::kProved) ++uvg;
    if (argmap_report.verdict == BaselineVerdict::kProved) ++argmap;

    std::string notes;
    if (entry.needs_transformations) notes += "transform ";
    if (entry.needs_negative_deltas) notes += "appendixC ";
    if (!entry.supplied_constraints.empty()) notes += "supplied ";
    if (!entry.paper_ref.empty()) notes += "[" + entry.paper_ref + "]";
    std::printf("%-22s %-6s %-10s %-8s %-8s %-8s %s\n", entry.name.c_str(),
                entry.terminating ? "term" : "loops",
                proved ? "proved" : "-", Cell(naish_report.verdict),
                Cell(uvg_report.verdict), Cell(argmap_report.verdict),
                notes.c_str());
  }
  std::printf("%s\n", std::string(80, '-').c_str());
  std::printf("%-22s %-6d %-10d %-8d %-8d %-8d\n", "proved totals",
              terminating, ours, naish, uvg, argmap);
  std::printf("\nbatch engine (jobs=%d): %s\n", jobs,
              engine.stats().ToString().c_str());
  return EXIT_SUCCESS;
}
