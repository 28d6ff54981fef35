// Pins the bytes of the canonical cache keys (src/engine/canonical.cc).
// A key addresses stored outcomes (docs/persistence.md), so a key whose
// bytes move turns every store entry under it into a miss, and a key that
// conflates two inputs would serve a wrong hit. The fixture
// tests/data/canonical_keys.txt holds every key a jobs=1 engine stores over
// the corpus; the renderers must reproduce each byte for byte. The one
// deliberate difference from keys that decided emptiness is tested below:
// a callee polyhedron whose rows are empty by LP keys on its rows.

#include "engine/canonical.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "constraints/inference.h"
#include "corpus/corpus.h"
#include "engine/cached_outcomes.h"
#include "engine/engine.h"
#include "persist/store.h"
#include "program/modes.h"
#include "program/parser.h"

namespace termilog {
namespace {

using persist::PersistentStore;
using KeySet = std::set<std::pair<std::string, std::string>>;  // kind, text

Program MustParse(const std::string& source) {
  Result<Program> program = ParseProgram(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// The fixture's keys as (kind, text): `%%% KIND` opens a key, whose text
// runs verbatim to the next such line.
KeySet LoadKeyFixture() {
  std::ifstream in(TERMILOG_CANONICAL_KEYS, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << TERMILOG_CANONICAL_KEYS;
  KeySet keys;
  std::string kind;
  std::string text;
  std::string line;
  auto flush = [&] {
    if (!kind.empty()) {
      EXPECT_TRUE(keys.emplace(kind, text).second) << text;
    }
    text.clear();
  };
  while (std::getline(in, line)) {
    if (line.rfind("%%% ", 0) == 0) {
      flush();
      kind = line.substr(4);
    } else if (!kind.empty()) {
      text += line;
      text += '\n';
    }
  }
  flush();
  return keys;
}

// Every key a jobs=1 engine stores while analyzing each corpus entry once,
// read back from the store it filled.
KeySet CorpusKeys() {
  std::vector<BatchRequest> requests;
  for (const CorpusEntry& entry : Corpus()) {
    Program program = MustParse(entry.source);
    Result<std::pair<PredId, Adornment>> query =
        ParseQuerySpec(program, entry.query);
    EXPECT_TRUE(query.ok()) << entry.name;
    BatchRequest request;
    request.name = entry.name;
    request.program = std::move(program);
    request.query = query->first;
    request.adornment = query->second;
    request.options.apply_transformations = entry.needs_transformations;
    request.options.allow_negative_deltas = entry.needs_negative_deltas;
    request.options.supplied_constraints = entry.supplied_constraints;
    requests.push_back(std::move(request));
  }
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "canonical_keys.store")
          .string();
  std::filesystem::remove(path);
  {
    BatchEngine engine;
    Result<std::unique_ptr<PersistentStore>> store =
        PersistentStore::Open(path);
    EXPECT_TRUE(store.ok());
    EXPECT_TRUE(engine.AttachStore(std::move(store).value()).ok());
    for (const BatchItemResult& result : engine.Run(requests)) {
      EXPECT_TRUE(result.status.ok()) << result.name;
    }
    EXPECT_TRUE(engine.FlushStore().ok());
  }
  Result<std::unique_ptr<PersistentStore>> reopened =
      PersistentStore::Open(path);
  EXPECT_TRUE(reopened.ok());
  PersistentStore::LiveSets live = (*reopened)->TakeRecovered();
  reopened->reset();
  std::filesystem::remove(path);
  KeySet keys;
  for (const auto& [text, outcome] : live.sccs) keys.emplace("scc", text);
  for (const auto& [text, outcome] : live.inferences) {
    keys.emplace("inference", text);
  }
  return keys;
}

TEST(CanonicalKeyFixtureTest, CorpusKeysMatchTheFixtureByteForByte) {
  const KeySet fixture = LoadKeyFixture();
  const KeySet keys = CorpusKeys();
  ASSERT_EQ(fixture.size(), 125u);
  for (const auto& key : fixture) {
    EXPECT_TRUE(keys.count(key) != 0)
        << key.first << " key no longer rendered:\n" << key.second;
  }
  for (const auto& key : keys) {
    EXPECT_TRUE(fixture.count(key) != 0)
        << key.first << " key not in the fixture:\n" << key.second;
  }
}

// p/1 recursive through a call of q/1, whose db entry the tests vary.
struct CalleeFixture {
  Program program = MustParse("p(s(X)) :- q(X), p(X).");
  PredId p{program.symbols().Lookup("p"), 1};
  PredId q{program.symbols().Lookup("q"), 1};
  std::map<PredId, Adornment> modes = {{p, {Mode::kBound}},
                                       {q, {Mode::kBound}}};

  // The db whose q/1 entry holds a1 >= lower and a1 <= 0: empty by LP for
  // lower > 0, though not the hard bottom.
  ArgSizeDb DbWithLower(int64_t lower) const {
    ConstraintSystem rows(1);
    rows.Add(Constraint({Rational(1)}, Rational(-lower), Relation::kGe));
    rows.Add(Constraint({Rational(-1)}, Rational(0), Relation::kGe));
    ArgSizeDb db;
    db.Set(q, Polyhedron::FromSystem(std::move(rows)));
    return db;
  }
};

// Keys render a callee polyhedron as stored and decide no emptiness, so two
// LP-empty callees with different rows key apart (keys that asked IsEmpty()
// rendered both as "false"). The key is finer, never a wrong hit: both
// analyses give the same outcome.
TEST(CanonicalKeyFixtureTest, LpEmptyCalleeKeysOnItsRows) {
  CalleeFixture fx;
  const std::vector<PredId> scc = {fx.p};
  const AnalysisOptions options;
  const ArgSizeDb one = fx.DbWithLower(1);
  const ArgSizeDb two = fx.DbWithLower(2);
  ASSERT_TRUE(one.Get(fx.q).IsEmpty());
  ASSERT_TRUE(two.Get(fx.q).IsEmpty());

  const std::string key_one =
      CanonicalSccKey(fx.program, scc, fx.modes, one, options).text;
  const std::string key_two =
      CanonicalSccKey(fx.program, scc, fx.modes, two, options).text;
  EXPECT_NE(key_one, key_two);
  EXPECT_NE(key_one.find("  q/1:b\n-1 + a1 >= 0\n-a1 >= 0\n"),
            std::string::npos)
      << key_one;
  EXPECT_NE(CanonicalInferenceKey(fx.program, scc, one, options).text,
            CanonicalInferenceKey(fx.program, scc, two, options).text);

  // The hard bottom still keys as "false".
  ArgSizeDb bottom;
  bottom.Set(fx.q, Polyhedron::Empty(1));
  EXPECT_NE(CanonicalSccKey(fx.program, scc, fx.modes, bottom, options)
                .text.find("  q/1:b\nfalse\n"),
            std::string::npos);

  TerminationAnalyzer analyzer(options);
  auto outcome = [&](const ArgSizeDb& db) {
    ResourceGovernor governor(options.limits);
    SccReport report = analyzer.AnalyzeScc(fx.program, scc, fx.modes, db,
                                           /*has_conflict=*/false, &governor);
    return persist::EncodeRecord("", DehydrateSccReport(report, fx.program));
  };
  EXPECT_EQ(outcome(one), outcome(two));
  Result<SccInferenceResult> fixpoint_one =
      ConstraintInference::RunScc(fx.program, scc, one, options.inference);
  Result<SccInferenceResult> fixpoint_two =
      ConstraintInference::RunScc(fx.program, scc, two, options.inference);
  ASSERT_TRUE(fixpoint_one.ok() && fixpoint_two.ok());
  EXPECT_EQ(persist::EncodeRecord(
                "", DehydrateInferenceResult(*fixpoint_one, fx.program)),
            persist::EncodeRecord(
                "", DehydrateInferenceResult(*fixpoint_two, fx.program)));
}

// The engine builds the keys of one request's SCC tasks on several workers
// at once, over the request's one db. Keys only read it (no emptiness cache
// is written), so under TSan this is race-free, and every build renders the
// same bytes.
TEST(CanonicalKeyFixtureTest, ConcurrentKeyBuildsReadOneDb) {
  CalleeFixture fx;
  const std::vector<PredId> scc = {fx.p};
  const AnalysisOptions options;
  const ArgSizeDb db = fx.DbWithLower(1);
  const std::string scc_key =
      CanonicalSccKey(fx.program, scc, fx.modes, db, options).text;
  const std::string inference_key =
      CanonicalInferenceKey(fx.program, scc, db, options).text;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        if (CanonicalSccKey(fx.program, scc, fx.modes, db, options).text !=
                scc_key ||
            CanonicalInferenceKey(fx.program, scc, db, options).text !=
                inference_key) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace termilog
