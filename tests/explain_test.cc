#include "core/explain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "corpus/corpus.h"
#include "obs/obs.h"
#include "program/parser.h"

namespace termilog {
namespace {

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// A report and the query it was run for.
struct Analyzed {
  PredId query;
  Adornment adornment;
  TerminationReport report;
};

Analyzed MustAnalyze(const Program& program, const std::string& query,
                     const AnalysisOptions& options) {
  std::pair<PredId, Adornment> parsed = ParseQuerySpec(program, query).value();
  Result<TerminationReport> report =
      TerminationAnalyzer(options).Analyze(program, parsed.first,
                                           parsed.second);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return {parsed.first, parsed.second,
          report.ok() ? std::move(report).value() : TerminationReport()};
}

// Analyzes `query` over `program`, then renders the report it returned.
std::string AnalyzeAndExplain(const Program& program, const std::string& query,
                              const AnalysisOptions& options) {
  Analyzed run = MustAnalyze(program, query, options);
  return ExplainAnalysis(run.report, run.query, run.adornment, options);
}

AnalysisOptions EntryOptions(const CorpusEntry& entry) {
  AnalysisOptions options;
  options.apply_transformations = entry.needs_transformations;
  options.allow_negative_deltas = entry.needs_negative_deltas;
  options.supplied_constraints = entry.supplied_constraints;
  return options;
}

std::string Explain(const char* corpus_name) {
  const CorpusEntry* entry = FindCorpusEntry(corpus_name);
  EXPECT_NE(entry, nullptr);
  if (entry == nullptr) return "";
  return AnalyzeAndExplain(MustParse(entry->source), entry->query,
                           EntryOptions(*entry));
}

TEST(ExplainTest, MergeTraceShowsThePaperMatrices) {
  std::string trace = Explain("merge");
  // Example 5.1's a vector and the reduced constraint 2*theta2 >= delta.
  EXPECT_NE(trace.find("x = a + A phi: constant (2, 2)"), std::string::npos)
      << trace;
  EXPECT_NE(trace.find("y = b + B phi: constant (2, 0)"), std::string::npos);
  EXPECT_NE(trace.find("2*theta[merge][2] - delta(merge,merge) >= 0"),
            std::string::npos);
  EXPECT_NE(trace.find("TERMINATES (proved)"), std::string::npos);
  EXPECT_NE(trace.find("certificate"), std::string::npos);
}

TEST(ExplainTest, PermTraceShowsImportedConstraintAndDelta) {
  std::string trace = Explain("perm");
  EXPECT_NE(trace.find("a1 + a2 - a3 = 0"), std::string::npos) << trace;
  EXPECT_NE(trace.find("delta(perm,perm) = 1"), std::string::npos);
  EXPECT_NE(trace.find("TERMINATES (proved)"), std::string::npos);
}

TEST(ExplainTest, ParserTraceShowsForcedDeltas) {
  std::string trace = Explain("expr_parser");
  EXPECT_NE(trace.find("delta(e,t) = 0   (forced to 0 by a derived row)"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("delta(n,e) = 1"), std::string::npos);
}

TEST(ExplainTest, NonPositiveCycleCalledOut) {
  std::string trace = Explain("grow");
  EXPECT_NE(trace.find("NON-POSITIVE CYCLE"), std::string::npos) << trace;
  EXPECT_NE(trace.find("UNKNOWN"), std::string::npos);
}

TEST(ExplainTest, NonRecursiveSccsLabeled) {
  Program p = MustParse("f(X) :- g(X). g(a).");
  std::string trace = AnalyzeAndExplain(p, "f(b)", AnalysisOptions());
  EXPECT_NE(trace.find("non-recursive: nothing to prove"), std::string::npos)
      << trace;
}

int64_t EngineRequests() {
  std::map<std::string, int64_t> counters =
      obs::Metrics::Global().Collect().counters;
  auto it = counters.find("engine.requests");
  return it == counters.end() ? 0 : it->second;
}

TEST(ExplainTest, RendersTheHeldReportWithoutAnalyzing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "build has TERMILOG_OBS=OFF";
  const CorpusEntry* entry = FindCorpusEntry("perm");
  ASSERT_NE(entry, nullptr);
  AnalysisOptions options = EntryOptions(*entry);
  obs::Metrics::Global().Enable();
  Analyzed run = MustAnalyze(MustParse(entry->source), entry->query, options);
  const int64_t requests = EngineRequests();
  EXPECT_EQ(requests, 1);  // the analysis itself
  std::string trace =
      ExplainAnalysis(run.report, run.query, run.adornment, options);
  EXPECT_EQ(EngineRequests(), requests);
  obs::Metrics::Global().Disable();
  EXPECT_NE(trace.find("TERMINATES (proved)"), std::string::npos) << trace;
}

TEST(ExplainTest, RederivesUnderTheRunsFmOptions) {
  // The Eq. 9 rows come from the run's FmOptions: a row limit no
  // elimination of perm's dual variables fits in fails the derivation, as
  // it would the analysis.
  const CorpusEntry* entry = FindCorpusEntry("perm");
  ASSERT_NE(entry, nullptr);
  Analyzed run =
      MustAnalyze(MustParse(entry->source), entry->query, AnalysisOptions());
  std::string trace =
      ExplainAnalysis(run.report, run.query, run.adornment, AnalysisOptions());
  EXPECT_EQ(trace.find("(derivation failed: "), std::string::npos) << trace;
  AnalysisOptions tight;
  tight.fm.row_limit = 0;
  trace = ExplainAnalysis(run.report, run.query, run.adornment, tight);
  EXPECT_NE(trace.find("(derivation failed: RESOURCE_EXHAUSTED: FM blowup"),
            std::string::npos)
      << trace;
}

}  // namespace
}  // namespace termilog
