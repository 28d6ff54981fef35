// Termination-condition inference (docs/conditions.md): for every defined
// predicate, find the minimal binding patterns under which the analyzer
// proves termination. The sweep is a frontier search over the boundedness
// lattice, scheduled as mode-variant requests through the batch engine so
// the content-addressed SCC cache deduplicates the shared structure
// between variants, and pruned in both directions: a proved pattern
// implies every stronger pattern (upward closure), a failed pattern
// implies every weaker one (backwards propagation of boundedness
// requirements through the dependency condensation — a requirement
// violated at a callee SCC surfaces as a failed weakened pattern at the
// entry, and the frontier then rules out everything below it).

#include "condinf/condinf.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <utility>

#include "engine/report_json.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/string_util.h"

namespace termilog {
namespace condinf {
namespace {

// Predicates wider than this are reported truncated rather than swept,
// which also keeps Finish()'s exact lattice accounting walk affordable.
constexpr int kMaxSweepArity = 12;
// Mode evaluations allowed per predicate (the probes and necessity row
// take arity + 2); past it the report is truncated and the patterns left
// unclassified count as `unknown`.
constexpr int64_t kMaxEvalsPerPred = 64;

void AppendQuoted(std::string_view text, std::string* out) {
  *out += '"';
  *out += JsonEscape(text);
  *out += '"';
}

void AppendStringArray(const std::vector<std::string>& items,
                       std::string* out) {
  *out += '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) *out += ',';
    AppendQuoted(items[i], out);
  }
  *out += ']';
}

std::vector<std::string> ModeStrings(const std::vector<ModeBits>& modes,
                                     int arity) {
  std::vector<std::string> out;
  out.reserve(modes.size());
  for (ModeBits mode : modes) out.push_back(ModeBitsToString(mode, arity));
  return out;
}

}  // namespace

ConditionsSweep::ConditionsSweep(std::string name, Program program,
                                 ConditionsOptions options)
    : name_(std::move(name)),
      program_(std::move(program)),
      options_(std::move(options)) {
  // (name, arity) order, not PredId order: symbol ids are an artifact of
  // interning order and must not leak into report bytes.
  std::vector<std::pair<std::string, PredId>> named;
  for (const PredId& pred : program_.DefinedPredicates()) {
    named.emplace_back(program_.PredName(pred), pred);
  }
  std::sort(named.begin(), named.end());
  preds_.reserve(named.size());
  for (auto& [display, pred] : named) {
    PredSweep ps;
    ps.pred = pred;
    ps.display = display;
    ps.arity = pred.arity;
    if (pred.arity > kMaxSweepArity) {
      ps.stage = PredSweep::Stage::kDone;
      ps.truncated = true;
      ps.notes.push_back(StrCat("arity ", pred.arity,
                                " exceeds the sweep's max_arity ",
                                kMaxSweepArity, "; lattice not explored"));
    }
    preds_.push_back(std::move(ps));
  }
}

bool ConditionsSweep::done() const {
  for (const PredSweep& ps : preds_) {
    if (ps.stage != PredSweep::Stage::kDone || !ps.pending.empty()) {
      return false;
    }
  }
  return true;
}

bool ConditionsSweep::WasEvaluated(const PredSweep& ps, ModeBits mode) const {
  return std::find(ps.evaluated.begin(), ps.evaluated.end(), mode) !=
         ps.evaluated.end();
}

// Raw candidate list of the predicate's current stage, in deterministic
// order; NextRound filters it against the frontier and the eval budget.
std::vector<ModeBits> ConditionsSweep::StageCandidates(
    const PredSweep& ps) const {
  const ModeBits top = TopMode(ps.arity);
  std::vector<ModeBits> out;
  switch (ps.stage) {
    case PredSweep::Stage::kProbe:
      out.push_back(0);  // bottom: all-free
      if (top != 0) out.push_back(top);
      break;
    case PredSweep::Stage::kNecessity:
      // Top with one argument freed, per argument: a failure here is the
      // backwards boundedness requirement — every pattern leaving that
      // argument free is below the failed one, hence failed.
      for (int i = 0; i < ps.arity; ++i) {
        out.push_back(top & ~(ModeBits{1} << i));
      }
      break;
    case PredSweep::Stage::kLayer:
      for (ModeBits m = 1; m < top; ++m) {
        if (BoundCount(m) == ps.layer) out.push_back(m);
      }
      break;
    case PredSweep::Stage::kDone:
      break;
  }
  return out;
}

void ConditionsSweep::AdvanceStage(PredSweep* ps) const {
  const ModeBits top = TopMode(ps->arity);
  switch (ps->stage) {
    case PredSweep::Stage::kProbe:
      // A failed top closes the lattice downward (nothing proves); a
      // proved bottom closes it upward (everything proves). Arity < 2 has
      // no patterns beyond the probes.
      if (ps->frontier.ImpliedFailed(top) || ps->frontier.ImpliedProved(0) ||
          ps->arity < 2) {
        ps->stage = PredSweep::Stage::kDone;
      } else {
        ps->stage = PredSweep::Stage::kNecessity;
      }
      break;
    case PredSweep::Stage::kNecessity:
      ps->stage = PredSweep::Stage::kLayer;
      ps->layer = 1;
      break;
    case PredSweep::Stage::kLayer:
      if (++ps->layer > ps->arity - 1) ps->stage = PredSweep::Stage::kDone;
      break;
    case PredSweep::Stage::kDone:
      break;
  }
}

std::vector<BatchRequest> ConditionsSweep::NextRound() {
  std::vector<BatchRequest> out;
  for (PredSweep& ps : preds_) {
    TERMILOG_CHECK_MSG(ps.pending.empty(),
                       "NextRound before Absorb of the previous round");
    while (ps.stage != PredSweep::Stage::kDone) {
      std::vector<ModeBits> candidates;
      for (ModeBits mode : StageCandidates(ps)) {
        if (WasEvaluated(ps, mode)) continue;
        if (ps.frontier.ImpliedProved(mode)) continue;
        if (ps.frontier.ImpliedFailed(mode)) continue;
        candidates.push_back(mode);
      }
      if (candidates.empty()) {
        AdvanceStage(&ps);
        continue;
      }
      int64_t remaining = kMaxEvalsPerPred - ps.evals;
      if (remaining <= 0) {
        ps.truncated = true;
        ps.notes.push_back(StrCat("mode-evaluation budget (",
                                  kMaxEvalsPerPred,
                                  ") exhausted; frontier left open"));
        ps.stage = PredSweep::Stage::kDone;
        break;
      }
      if (static_cast<int64_t>(candidates.size()) > remaining) {
        candidates.resize(static_cast<size_t>(remaining));
        ps.truncated = true;
      }
      ps.pending = candidates;
      for (ModeBits mode : candidates) {
        BatchRequest request;
        request.name = StrCat(name_, " ", ps.display, " ",
                              ModeBitsToString(mode, ps.arity));
        request.program = program_;
        request.query = ps.pred;
        request.adornment = BitsToAdornment(mode, ps.arity);
        request.options = options_.analysis;
        out.push_back(std::move(request));
      }
      break;
    }
  }
  return out;
}

void ConditionsSweep::Absorb(const std::vector<BatchItemResult>& results) {
  size_t next = 0;
  for (PredSweep& ps : preds_) {
    for (ModeBits mode : ps.pending) {
      TERMILOG_CHECK_MSG(next < results.size(),
                         "Absorb got fewer results than requests");
      const BatchItemResult& item = results[next++];
      ++ps.evals;
      ps.evaluated.push_back(mode);
      const std::string mode_text = ModeBitsToString(mode, ps.arity);
      if (!item.status.ok()) {
        ps.notes.push_back(StrCat("mode ", mode_text, ": analysis error: ",
                                  item.status.ToString()));
        ps.frontier.RecordFailed(mode);
        continue;
      }
      if (item.report.resource_limited) {
        ps.resource_limited = true;
        ps.notes.push_back(StrCat("mode ", mode_text,
                                  ": resource-limited (",
                                  item.report.first_resource_trip,
                                  "); counted as not proved"));
      }
      if (item.report.proved) {
        ps.frontier.RecordProved(mode);
        ps.proved_reports.emplace(mode, item.report);
      } else {
        ps.frontier.RecordFailed(mode);
      }
    }
    ps.pending.clear();
  }
  TERMILOG_CHECK_MSG(next == results.size(),
                     "Absorb got more results than requests");
}

ConditionsReport ConditionsSweep::Finish() {
  TERMILOG_CHECK_MSG(done(), "Finish before the sweep completed");
  ConditionsReport report;
  report.name = name_;
  for (PredSweep& ps : preds_) {
    PredConditions pc;
    pc.pred = ps.pred;
    pc.name = ps.display;
    pc.arity = ps.arity;
    pc.lattice_size = int64_t{1} << ps.arity;
    pc.evaluated = static_cast<int64_t>(ps.evaluated.size());
    pc.truncated = ps.truncated;
    pc.resource_limited = ps.resource_limited;
    pc.notes = std::move(ps.notes);
    pc.minimal_modes = ps.frontier.minimal_proved();

    if (ps.arity <= kMaxSweepArity) {
      // Exact accounting over the whole lattice: every pattern is either
      // evaluated, decided by the frontier, or unknown (truncation only).
      std::set<ModeBits> evaluated(ps.evaluated.begin(), ps.evaluated.end());
      for (ModeBits m = 0; m <= TopMode(ps.arity); ++m) {
        if (evaluated.count(m)) continue;
        if (ps.frontier.ImpliedProved(m)) {
          ++pc.implied_proved;
        } else if (ps.frontier.ImpliedFailed(m)) {
          ++pc.implied_failed;
        } else {
          ++pc.unknown;
        }
        if (m == TopMode(ps.arity)) break;  // ModeBits overflow guard
      }
    } else {
      pc.unknown = pc.lattice_size - pc.evaluated;
    }

    if (!pc.minimal_modes.empty()) {
      const ModeBits top = TopMode(ps.arity);
      for (int i = 0; i < ps.arity; ++i) {
        if (ps.frontier.ImpliedFailed(top & ~(ModeBits{1} << i))) {
          pc.required_bound.push_back(i);
        }
      }
    }
    for (ModeBits mode : pc.minimal_modes) {
      auto it = ps.proved_reports.find(mode);
      TERMILOG_CHECK_MSG(it != ps.proved_reports.end(),
                         "minimal mode without a witness report");
      ModeWitness witness;
      witness.mode = mode;
      witness.report = std::move(it->second);
      pc.witnesses.push_back(std::move(witness));
    }
    report.resource_limited |= pc.resource_limited;
    report.preds.push_back(std::move(pc));
  }
  return report;
}

namespace {

// One sweep in flight. A round's results gather here in request order;
// the callback that delivers the round's last result absorbs the round
// and submits the next one.
struct SweepRun {
  BatchEngine& engine;
  ConditionsSweep sweep;
  std::function<void(ConditionsReport)> on_done;
  // Request spans of every round nest under the submitter's span.
  obs::SpanId parent_span = obs::Tracer::Current();
  std::mutex mu;
  std::vector<BatchItemResult> results;
  size_t left = 0;
};

void SubmitRound(const std::shared_ptr<SweepRun>& run) {
  std::vector<BatchRequest> round = run->sweep.NextRound();
  if (round.empty()) {
    run->on_done(run->sweep.Finish());
    return;
  }
  // No callback of this sweep is outstanding between rounds, so the
  // round state is reset without the lock; Submit orders it before them.
  run->results.assign(round.size(), BatchItemResult());
  run->left = round.size();
  obs::ScopedParent parent(run->parent_span);
  for (size_t i = 0; i < round.size(); ++i) {
    run->engine.Submit(round[i], [run, i](BatchItemResult item) {
      {
        std::lock_guard<std::mutex> lock(run->mu);
        run->results[i] = std::move(item);
        if (--run->left > 0) return;
      }
      run->sweep.Absorb(run->results);
      SubmitRound(run);
    });
  }
}

}  // namespace

void SubmitConditionsSweep(BatchEngine& engine, ConditionsSweep sweep,
                           std::function<void(ConditionsReport)> on_done) {
  SubmitRound(std::make_shared<SweepRun>(engine, std::move(sweep),
                                         std::move(on_done)));
}

std::vector<ConditionsReport> RunConditionsSweeps(
    BatchEngine& engine, std::vector<ConditionsSweep>& sweeps) {
  // Shared with the callbacks, so none can touch freed state after the
  // wait below returns.
  struct Gather {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ConditionsReport> reports;
    size_t left = 0;
  };
  auto gather = std::make_shared<Gather>();
  gather->reports.resize(sweeps.size());
  gather->left = sweeps.size();
  for (size_t s = 0; s < sweeps.size(); ++s) {
    SubmitConditionsSweep(engine, std::move(sweeps[s]),
                          [gather, s](ConditionsReport report) {
                            std::lock_guard<std::mutex> lock(gather->mu);
                            gather->reports[s] = std::move(report);
                            --gather->left;
                            gather->cv.notify_all();
                          });
  }
  std::unique_lock<std::mutex> lock(gather->mu);
  gather->cv.wait(lock, [&] { return gather->left == 0; });
  return std::move(gather->reports);
}

std::string ConditionsReportToJsonLine(const ConditionsReport& report) {
  std::string out = "{\"name\":";
  AppendQuoted(report.name, &out);
  out += ",\"kind\":\"conditions\"";
  if (!report.status.ok()) {
    out += ",\"ok\":false,\"error\":";
    AppendQuoted(report.status.ToString(), &out);
    out += '}';
    return out;
  }
  out += StrCat(",\"ok\":true,\"resource_limited\":",
                report.resource_limited ? "true" : "false");
  out += ",\"preds\":[";
  for (size_t p = 0; p < report.preds.size(); ++p) {
    const PredConditions& pc = report.preds[p];
    if (p > 0) out += ',';
    out += "{\"pred\":";
    AppendQuoted(pc.name, &out);
    out += StrCat(",\"arity\":", pc.arity,
                  ",\"lattice_size\":", pc.lattice_size,
                  ",\"evaluated\":", pc.evaluated,
                  ",\"implied_proved\":", pc.implied_proved,
                  ",\"implied_failed\":", pc.implied_failed,
                  ",\"unknown\":", pc.unknown,
                  ",\"truncated\":", pc.truncated ? "true" : "false",
                  ",\"resource_limited\":",
                  pc.resource_limited ? "true" : "false");
    out += ",\"minimal_modes\":";
    AppendStringArray(ModeStrings(pc.minimal_modes, pc.arity), &out);
    out += ",\"required_bound\":[";
    for (size_t i = 0; i < pc.required_bound.size(); ++i) {
      if (i > 0) out += ',';
      out += StrCat(pc.required_bound[i]);
    }
    out += ']';
    if (!pc.witnesses.empty()) {
      out += ",\"witnesses\":[";
      for (size_t w = 0; w < pc.witnesses.size(); ++w) {
        const ModeWitness& witness = pc.witnesses[w];
        const Program& program = witness.report.analyzed_program;
        if (w > 0) out += ',';
        out += "{\"mode\":";
        AppendQuoted(ModeBitsToString(witness.mode, pc.arity), &out);
        out += ",\"sccs\":[";
        bool first = true;
        for (const SccReport& scc : witness.report.sccs) {
          if (scc.status == SccStatus::kNonRecursive) continue;
          if (!first) out += ',';
          first = false;
          out += "{\"preds\":[";
          for (size_t i = 0; i < scc.preds.size(); ++i) {
            if (i > 0) out += ',';
            AppendQuoted(program.PredName(scc.preds[i]), &out);
          }
          out += StrCat("],\"status\":\"", SccStatusName(scc.status), "\"");
          if (scc.status == SccStatus::kProved) {
            out += ",\"certificate\":";
            AppendCertificateJson(scc.certificate, program, &out);
          }
          out += '}';
        }
        out += "]}";
      }
      out += ']';
    }
    out += ",\"notes\":";
    AppendStringArray(pc.notes, &out);
    out += '}';
  }
  out += "],\"notes\":";
  AppendStringArray(report.notes, &out);
  out += '}';
  return out;
}

std::string ConditionsReportToText(const ConditionsReport& report) {
  std::string out = StrCat("conditions: ", report.name, "\n");
  if (!report.status.ok()) {
    return StrCat(out, "  error: ", report.status.ToString(), "\n");
  }
  for (const PredConditions& pc : report.preds) {
    out += StrCat("  ", pc.name, ": ");
    if (pc.minimal_modes.empty()) {
      out += pc.truncated ? "no terminating binding pattern found (truncated)"
                          : "no terminating binding pattern";
    } else {
      out += "minimal terminating modes {";
      std::vector<std::string> modes = ModeStrings(pc.minimal_modes, pc.arity);
      out += Join(modes, ", ");
      out += '}';
      if (!pc.required_bound.empty()) {
        std::vector<std::string> args;
        for (int i : pc.required_bound) args.push_back(StrCat("a", i + 1));
        out += StrCat(" (requires ", Join(args, ","), " bound)");
      }
    }
    out += StrCat("  [lattice ", pc.lattice_size, ": ", pc.evaluated,
                  " analyzed, ", pc.implied_proved, " implied proved, ",
                  pc.implied_failed, " implied failed");
    if (pc.unknown > 0) out += StrCat(", ", pc.unknown, " unknown");
    out += "]";
    if (pc.resource_limited) out += " (resource-limited)";
    out += '\n';
    for (const std::string& note : pc.notes) {
      out += StrCat("    note: ", note, "\n");
    }
  }
  for (const std::string& note : report.notes) {
    out += StrCat("  note: ", note, "\n");
  }
  return out;
}

int CountExpectModeMismatches(const ConditionsReport& report,
                              const ExpectedModes& expected,
                              std::vector<std::string>* messages) {
  int mismatches = 0;
  auto complain = [&](const std::string& text) {
    ++mismatches;
    if (messages != nullptr) messages->push_back(text);
  };
  for (const auto& [pred_name, modes] : expected) {
    const PredConditions* found = nullptr;
    for (const PredConditions& pc : report.preds) {
      if (pc.name == pred_name) {
        found = &pc;
        break;
      }
    }
    if (found == nullptr) {
      complain(StrCat(report.name, ": expected conditions for ", pred_name,
                      ", absent from the report"));
      continue;
    }
    std::vector<std::string> got = ModeStrings(found->minimal_modes,
                                               found->arity);
    std::vector<std::string> want = modes;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      complain(StrCat(report.name, " ", pred_name, ": declared minimal modes {",
                      Join(want, ","), "}, sweep found {", Join(got, ","),
                      "}"));
    }
  }
  return mismatches;
}

}  // namespace condinf
}  // namespace termilog
