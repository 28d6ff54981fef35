// Crash-recovery suite for the persistent analysis store
// (docs/persistence.md). The contract under test: whatever happens to the
// file between runs — torn final write, bit flips, truncation at an
// arbitrary byte, a foreign or future-version header — Open() never
// fails, never loads a record that differs from what was written, and
// accounts for everything it dropped. A corrupt entry degrades to a
// cache miss, never to a wrong verdict.
//
// Lives in termilog_engine_tests so the ASan and TSan trees run it
// (scripts/check.sh): engine workers append through one store handle,
// exactly where a lifetime or lock-order mistake would surface.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "engine/report_json.h"
#include "gen/gen.h"
#include "persist/store.h"
#include "util/failpoint.h"

namespace termilog {
namespace {

namespace fs = std::filesystem;
using persist::PersistentStore;

std::string TempStorePath(const char* name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

void RemoveStoreFiles(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  fs::remove(path + ".quarantined", ec);
  fs::remove(path + ".tmp", ec);
}

// A representative outcome: proved, with multi-coefficient rationals in
// theta and a non-integer delta — every field the encoder serializes.
CachedSccOutcome SampleOutcome(int i) {
  CachedSccOutcome outcome;
  outcome.status = i % 2 == 0 ? SccStatus::kProved : SccStatus::kNotProved;
  outcome.used_negative_deltas = i % 3 == 0;
  outcome.reduced_constraints = "theta[p][1] >= " + std::to_string(i);
  outcome.notes = {"note one", std::to_string(i)};
  CachedSccOutcome::NamedTheta theta;
  theta.name = "pred" + std::to_string(i);
  theta.arity = 2;
  theta.coeffs = {Rational(1, 2), Rational(i + 1), Rational(-3, 7)};
  outcome.theta.push_back(theta);
  CachedSccOutcome::NamedDelta delta;
  delta.from_name = theta.name;
  delta.from_arity = 2;
  delta.to_name = "other";
  delta.to_arity = 1;
  delta.value = Rational(2 * i + 1, 3);
  outcome.delta.push_back(delta);
  return outcome;
}

bool OutcomesEqual(const CachedSccOutcome& a, const CachedSccOutcome& b) {
  // EncodeRecord is deterministic and covers every field, so encoded
  // equality is field equality.
  return persist::EncodeRecord("k", a) == persist::EncodeRecord("k", b);
}

// Opens `path` and returns what replaying its log recovered.
PersistentStore::LiveSets Recover(const std::string& path) {
  auto store = PersistentStore::Open(path);
  EXPECT_TRUE(store.ok());
  if (!store.ok()) return PersistentStore::LiveSets();
  return (*store)->TakeRecovered();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Builds a store with `count` sample records and returns its file bytes.
std::string BuildStore(const std::string& path, int count) {
  RemoveStoreFiles(path);
  auto store = PersistentStore::Open(path);
  EXPECT_TRUE(store.ok());
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(
        (*store)->Append("key" + std::to_string(i), SampleOutcome(i)).ok());
  }
  EXPECT_TRUE((*store)->Flush().ok());
  store->reset();  // close the handle before the test injures the file
  return ReadFile(path);
}

TEST(PersistStoreTest, Crc32MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(persist::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(persist::Crc32(""), 0x00000000u);
}

TEST(PersistStoreTest, EncodeDecodeRoundtrip) {
  for (int i = 0; i < 5; ++i) {
    CachedSccOutcome outcome = SampleOutcome(i);
    std::string payload = persist::EncodeRecord("the key", outcome);
    auto decoded = persist::DecodeRecord(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->first, "the key");
    EXPECT_TRUE(OutcomesEqual(decoded->second, outcome));
  }
}

TEST(PersistStoreTest, DecodeRejectsResourceLimitOutcomes) {
  CachedSccOutcome starved = SampleOutcome(0);
  starved.status = SccStatus::kResourceLimit;
  std::string payload = persist::EncodeRecord("k", starved);
  EXPECT_FALSE(persist::DecodeRecord(payload).ok());
}

TEST(PersistStoreTest, DecodeRejectsTrailingBytes) {
  std::string payload = persist::EncodeRecord("k", SampleOutcome(1));
  payload.push_back('\0');
  EXPECT_FALSE(persist::DecodeRecord(payload).ok());
}

TEST(PersistStoreTest, AppendThenReopenRecoversEverything) {
  std::string path = TempStorePath("persist_roundtrip.store");
  BuildStore(path, 4);
  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().records_loaded, 4);
  EXPECT_EQ((*store)->stats().records_quarantined, 0);
  EXPECT_EQ((*store)->stats().tail_bytes_truncated, 0);
  PersistentStore::LiveSets live = (*store)->TakeRecovered();
  EXPECT_EQ(live.size(), 4);
  for (int i = 0; i < 4; ++i) {
    auto it = live.sccs.find("key" + std::to_string(i));
    ASSERT_NE(it, live.sccs.end());
    EXPECT_TRUE(OutcomesEqual(it->second, SampleOutcome(i)));
  }
  // The handle hands its recovered records over once and keeps none.
  EXPECT_EQ((*store)->TakeRecovered().size(), 0);
  RemoveStoreFiles(path);
}

TEST(PersistStoreTest, DuplicateKeysResolveLastWriteWins) {
  std::string path = TempStorePath("persist_dup.store");
  RemoveStoreFiles(path);
  {
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("k", SampleOutcome(0)).ok());
    ASSERT_TRUE((*store)->Append("k", SampleOutcome(1)).ok());
  }
  PersistentStore::LiveSets live = Recover(path);
  EXPECT_EQ(live.size(), 1);
  EXPECT_TRUE(OutcomesEqual(live.sccs.at("k"), SampleOutcome(1)));
  RemoveStoreFiles(path);
}

// The crash-recovery sweep: a writer killed at *any* byte offset leaves a
// prefix of the full file. Reopening every such prefix must succeed, must
// recover only records that match what was written, and must never
// invent data.
TEST(PersistStoreTest, TruncationAtEveryOffsetRecoversAPrefix) {
  std::string path = TempStorePath("persist_trunc.store");
  std::string full = BuildStore(path, 3);
  std::map<std::string, CachedSccOutcome> expected;
  for (int i = 0; i < 3; ++i) {
    expected["key" + std::to_string(i)] = SampleOutcome(i);
  }
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFile(path, full.substr(0, cut));
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok()) << "cut=" << cut;
    persist::StoreStats stats = (*store)->stats();
    PersistentStore::LiveSets live = (*store)->TakeRecovered();
    // Every recovered record must be one we wrote, byte for byte.
    for (const auto& [key, outcome] : live.sccs) {
      auto it = expected.find(key);
      ASSERT_NE(it, expected.end()) << "cut=" << cut;
      EXPECT_TRUE(OutcomesEqual(outcome, it->second)) << "cut=" << cut;
    }
    // A cut strictly inside the file must be *noticed* unless it landed
    // exactly on a frame boundary (then the loss is silent prefix loss,
    // visible as a smaller record count).
    if (cut < 16) {
      EXPECT_TRUE(cut == 0 || stats.file_quarantined) << "cut=" << cut;
      EXPECT_EQ(stats.records_loaded, 0) << "cut=" << cut;
    } else {
      EXPECT_LT(stats.records_loaded, 3) << "cut=" << cut;
    }
    // The reopened store must accept appends again (recovery leaves a
    // usable handle at a clean frame boundary).
    EXPECT_TRUE((*store)->Append("fresh", SampleOutcome(7)).ok())
        << "cut=" << cut;
    fs::remove(path + ".quarantined");
  }
  RemoveStoreFiles(path);
}

// Bit-rot sweep: flipping one bit anywhere in the file must either leave
// recovery byte-exact (impossible for CRC-protected regions) or drop the
// damaged region — quarantined record, truncated tail, or the whole file
// set aside. Never a record that differs from what was written.
TEST(PersistStoreTest, BitFlipAtEveryOffsetNeverYieldsWrongData) {
  std::string path = TempStorePath("persist_flip.store");
  std::string full = BuildStore(path, 2);
  std::map<std::string, CachedSccOutcome> expected;
  for (int i = 0; i < 2; ++i) {
    expected["key" + std::to_string(i)] = SampleOutcome(i);
  }
  for (size_t offset = 0; offset < full.size(); ++offset) {
    std::string damaged = full;
    damaged[offset] = static_cast<char>(damaged[offset] ^ 0x10);
    WriteFile(path, damaged);
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok()) << "offset=" << offset;
    persist::StoreStats stats = (*store)->stats();
    PersistentStore::LiveSets live = (*store)->TakeRecovered();
    for (const auto& [key, outcome] : live.sccs) {
      auto it = expected.find(key);
      ASSERT_NE(it, expected.end()) << "offset=" << offset;
      EXPECT_TRUE(OutcomesEqual(outcome, it->second)) << "offset=" << offset;
    }
    // One flipped bit always damages a CRC-covered region, so recovery
    // must have lost something and said so.
    EXPECT_TRUE(stats.records_loaded < 2 || stats.records_quarantined > 0 ||
                stats.tail_bytes_truncated > 0 || stats.file_quarantined)
        << "offset=" << offset;
    fs::remove(path + ".quarantined");
  }
  RemoveStoreFiles(path);
}

TEST(PersistStoreTest, UnknownVersionQuarantinesWholeFile) {
  std::string path = TempStorePath("persist_version.store");
  std::string full = BuildStore(path, 2);
  // Patch the version field (offset 8) and its header CRC so only the
  // version check can object.
  std::string future = full;
  future[8] = 9;
  uint32_t crc = persist::Crc32(std::string_view(future.data(), 12));
  for (int i = 0; i < 4; ++i) {
    future[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  WriteFile(path, future);
  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->stats().file_quarantined);
  EXPECT_EQ((*store)->stats().records_loaded, 0);
  EXPECT_TRUE(fs::exists(path + ".quarantined"));
  // The quarantined copy is the evidence: bytes preserved, not deleted.
  EXPECT_EQ(ReadFile(path + ".quarantined"), future);
  RemoveStoreFiles(path);
}

TEST(PersistStoreTest, CompactDropsShadowedRecordsAndKeepsLiveSet) {
  std::string path = TempStorePath("persist_compact.store");
  RemoveStoreFiles(path);
  {
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE((*store)
                        ->Append("key" + std::to_string(i),
                                 SampleOutcome(i + round))
                        .ok());
      }
    }
  }
  const int64_t before = static_cast<int64_t>(fs::file_size(path));
  Result<persist::StoreStats> compacted = PersistentStore::Compact(path);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  EXPECT_EQ(compacted->records_loaded, 3);
  EXPECT_EQ(compacted->records_quarantined, 0);
  EXPECT_LT(static_cast<int64_t>(fs::file_size(path)), before);
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // The live frames are written verbatim in key order, which is what
  // appending each live record afresh in that order writes.
  const std::string compacted_bytes = ReadFile(path);
  const std::string fresh_path = TempStorePath("persist_compact_fresh.store");
  RemoveStoreFiles(fresh_path);
  {
    auto fresh = PersistentStore::Open(fresh_path);
    ASSERT_TRUE(fresh.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*fresh)
                      ->Append("key" + std::to_string(i), SampleOutcome(i + 2))
                      .ok());
    }
  }
  EXPECT_EQ(ReadFile(fresh_path), compacted_bytes);
  RemoveStoreFiles(fresh_path);
  // Compacting a compacted store rewrites the same bytes.
  ASSERT_TRUE(PersistentStore::Compact(path).ok());
  EXPECT_EQ(ReadFile(path), compacted_bytes);
  PersistentStore::LiveSets live = Recover(path);
  EXPECT_EQ(live.size(), 3);
  for (int i = 0; i < 3; ++i) {
    // Last write wins: the round-2 values survive compaction.
    EXPECT_TRUE(OutcomesEqual(live.sccs.at("key" + std::to_string(i)),
                              SampleOutcome(i + 2)));
  }
  RemoveStoreFiles(path);
}

TEST(PersistStoreTest, CompactOfAMissingPathCreatesNothing) {
  std::string path = TempStorePath("persist_compact_missing.store");
  RemoveStoreFiles(path);
  Result<persist::StoreStats> compacted = PersistentStore::Compact(path);
  ASSERT_FALSE(compacted.ok());
  EXPECT_EQ(compacted.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(PersistStoreTest, TornWriteFailpointIsRecoveredOnReopen) {
  std::string path = TempStorePath("persist_torn.store");
  // Leaves `path` holding one good frame and half of a second.
  auto tear = [&path] {
    RemoveStoreFiles(path);
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("good", SampleOutcome(0)).ok());
    FailpointRegistry::Global().EnableFromSpec("persist.append");
    EXPECT_FALSE((*store)->Append("torn", SampleOutcome(1)).ok());
    FailpointRegistry::Global().Clear();
    // The handle is broken: later appends fail instead of interleaving
    // bytes after a half-written frame, and so does the flush.
    EXPECT_FALSE((*store)->Append("after", SampleOutcome(2)).ok());
    EXPECT_GE((*store)->stats().append_failures, 2);
    EXPECT_FALSE((*store)->Flush().ok());
  };
  tear();
  {
    // Offline compaction replays up to the torn frame, so the rewritten
    // log holds only whole frames.
    Result<persist::StoreStats> compacted = PersistentStore::Compact(path);
    ASSERT_TRUE(compacted.ok());
    EXPECT_GT(compacted->tail_bytes_truncated, 0);
    EXPECT_EQ(compacted->records_loaded, 1);
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->stats().tail_bytes_truncated, 0);
    EXPECT_TRUE((*store)->Append("after", SampleOutcome(2)).ok());
  }
  // Reopening the torn log truncates the half frame.
  tear();
  auto reopened = PersistentStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT((*reopened)->stats().tail_bytes_truncated, 0);
  PersistentStore::LiveSets live = (*reopened)->TakeRecovered();
  EXPECT_EQ(live.size(), 1);
  EXPECT_TRUE(OutcomesEqual(live.sccs.at("good"), SampleOutcome(0)));
  RemoveStoreFiles(path);
}

TEST(PersistStoreTest, RejectsResourceLimitAndEmptyKeyAppends) {
  std::string path = TempStorePath("persist_reject.store");
  RemoveStoreFiles(path);
  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  CachedSccOutcome starved = SampleOutcome(0);
  starved.status = SccStatus::kResourceLimit;
  EXPECT_FALSE((*store)->Append("k", starved).ok());
  EXPECT_FALSE((*store)->Append("", SampleOutcome(0)).ok());
  EXPECT_EQ((*store)->stats().appends, 0);
  RemoveStoreFiles(path);
}

// --- inference records (record type 2) -----------------------------------

// A representative inference outcome: one entry with exact rational rows
// (kEq and kGe), one universe entry, one hard-bottom entry — every value
// state the encoder must reproduce byte-exactly.
CachedInferenceOutcome SampleInference(int i) {
  CachedInferenceOutcome outcome;
  CachedInferenceOutcome::Entry constrained;
  constrained.name = "inf" + std::to_string(i);
  constrained.arity = 2;
  ConstraintSystem system(2);
  system.Add(Constraint({Rational(1), Rational(-1)}, Rational(i, 3),
                        Relation::kGe));
  system.Add(Constraint({Rational(1, 2), Rational(i + 1)}, Rational(-7),
                        Relation::kEq));
  constrained.polyhedron = Polyhedron::FromSystem(std::move(system));
  outcome.entries.push_back(std::move(constrained));
  CachedInferenceOutcome::Entry universe;
  universe.name = "top";
  universe.arity = 1;
  universe.polyhedron = Polyhedron::Universe(1);
  outcome.entries.push_back(std::move(universe));
  CachedInferenceOutcome::Entry bottom;
  bottom.name = "bot";
  bottom.arity = 3;
  bottom.polyhedron = Polyhedron::Empty(3);
  outcome.entries.push_back(std::move(bottom));
  return outcome;
}

bool InferenceEqual(const CachedInferenceOutcome& a,
                    const CachedInferenceOutcome& b) {
  return persist::EncodeRecord("k", a) == persist::EncodeRecord("k", b);
}

TEST(PersistInferenceTest, EncodeDecodeRoundtrip) {
  for (int i = 0; i < 5; ++i) {
    CachedInferenceOutcome outcome = SampleInference(i);
    std::string payload = persist::EncodeRecord("the key", outcome);
    auto decoded = persist::DecodeInferenceRecord(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->first, "the key");
    EXPECT_TRUE(InferenceEqual(decoded->second, outcome));
    // The exact value state survives: rows verbatim, hard bottom intact,
    // no nonnegativity rows invented on the way back.
    ASSERT_EQ(decoded->second.entries.size(), 3u);
    EXPECT_EQ(decoded->second.entries[0].polyhedron.ToString(),
              outcome.entries[0].polyhedron.ToString());
    EXPECT_TRUE(decoded->second.entries[1].polyhedron.constraints().empty());
    EXPECT_FALSE(decoded->second.entries[1].polyhedron.known_empty());
    EXPECT_TRUE(decoded->second.entries[2].polyhedron.known_empty());
  }
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char ch : bytes) {
    out.push_back(kDigits[static_cast<unsigned char>(ch) >> 4]);
    out.push_back(kDigits[static_cast<unsigned char>(ch) & 0xF]);
  }
  return out;
}

// Pins the format-version-1 payload bytes of both record kinds. The round
// trips above would not notice an encoder change that the decoder
// mirrors, yet such a change quarantines every record an older store
// holds. The literals were captured from the version-1 encoders; a
// deliberate format change bumps kStoreFormatVersion and these together.
TEST(PersistStoreTest, RecordPayloadBytesArePinned) {
  EXPECT_EQ(persist::kStoreFormatVersion, 1u);
  EXPECT_EQ(Hex(persist::EncodeRecord("scc:golden", SampleOutcome(1))),
            "010a0000007363633a676f6c64656e02001000000074686574615b705d5b315d"
            "203e3d203102000000080000006e6f7465206f6e650100000031010000000500"
            "00007072656431020000000300000003000000312f320100000032040000002d"
            "332f370100000005000000707265643102000000050000006f74686572010000"
            "000100000031");
  EXPECT_EQ(Hex(persist::EncodeRecord("inference-scc:golden",
                                      SampleInference(2))),
            "0214000000696e666572656e63652d7363633a676f6c64656e03000000040000"
            "00696e663202000000000200000001020000000100000031020000002d310300"
            "0000322f33000200000003000000312f320100000033020000002d3703000000"
            "746f7001000000000000000003000000626f74030000000100000000");
}

TEST(PersistInferenceTest, StoreRejectsNonRetainableAppends) {
  std::string path = TempStorePath("persist_inf_reject.store");
  RemoveStoreFiles(path);
  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  CachedInferenceOutcome starved = SampleInference(0);
  starved.resource_limited = true;
  EXPECT_FALSE((*store)->Append("k", starved).ok());
  CachedInferenceOutcome errored = SampleInference(0);
  errored.error = Status::Internal("fixpoint failed");
  EXPECT_FALSE((*store)->Append("k", errored).ok());
  EXPECT_FALSE((*store)->Append("", SampleInference(0)).ok());
  EXPECT_EQ((*store)->stats().appends, 0);
  RemoveStoreFiles(path);
}

TEST(PersistInferenceTest, DecodeRejectsTrailingBytes) {
  std::string payload = persist::EncodeRecord("k", SampleInference(1));
  payload.push_back('\0');
  EXPECT_FALSE(persist::DecodeInferenceRecord(payload).ok());
}

TEST(PersistInferenceTest, MixedRecordKindsRecoverIntoDisjointMaps) {
  std::string path = TempStorePath("persist_mixed.store");
  RemoveStoreFiles(path);
  {
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("scc:a", SampleOutcome(0)).ok());
    ASSERT_TRUE((*store)->Append("inference-scc:a", SampleInference(0)).ok());
    ASSERT_TRUE((*store)->Append("scc:b", SampleOutcome(1)).ok());
    ASSERT_TRUE((*store)->Append("inference-scc:b", SampleInference(1)).ok());
    // Last write wins within the inference key space too.
    ASSERT_TRUE((*store)->Append("inference-scc:a", SampleInference(2)).ok());
    EXPECT_EQ((*store)->stats().appends, 5);
  }
  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().records_loaded, 4);
  EXPECT_EQ((*store)->stats().records_quarantined, 0);
  PersistentStore::LiveSets live = (*store)->TakeRecovered();
  EXPECT_EQ(live.sccs.size(), 2u);
  EXPECT_EQ(live.inferences.size(), 2u);
  EXPECT_TRUE(InferenceEqual(live.inferences.at("inference-scc:a"),
                             SampleInference(2)));
  EXPECT_TRUE(InferenceEqual(live.inferences.at("inference-scc:b"),
                             SampleInference(1)));
  // Compaction of the closed log keeps both kinds and drops the shadowed
  // frame.
  store->reset();
  const int64_t before = static_cast<int64_t>(fs::file_size(path));
  Result<persist::StoreStats> written = PersistentStore::Compact(path);
  ASSERT_TRUE(written.ok());
  EXPECT_EQ(written->records_loaded, 4);
  EXPECT_LT(static_cast<int64_t>(fs::file_size(path)), before);
  PersistentStore::LiveSets compacted = Recover(path);
  EXPECT_EQ(compacted.sccs.size(), 2u);
  EXPECT_EQ(compacted.inferences.size(), 2u);
  EXPECT_TRUE(InferenceEqual(compacted.inferences.at("inference-scc:a"),
                             SampleInference(2)));
  RemoveStoreFiles(path);
}

TEST(PersistInferenceTest, TornInferenceWriteIsRecoveredOnReopen) {
  std::string path = TempStorePath("persist_inf_torn.store");
  RemoveStoreFiles(path);
  {
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("scc:good", SampleOutcome(0)).ok());
    ASSERT_TRUE(
        (*store)->Append("inference-scc:good", SampleInference(0)).ok());
    FailpointRegistry::Global().EnableFromSpec("persist.append");
    EXPECT_FALSE(
        (*store)->Append("inference-scc:torn", SampleInference(1)).ok());
    FailpointRegistry::Global().Clear();
  }
  auto reopened = PersistentStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT((*reopened)->stats().tail_bytes_truncated, 0);
  PersistentStore::LiveSets live = (*reopened)->TakeRecovered();
  EXPECT_EQ(live.size(), 2);
  EXPECT_EQ(live.inferences.count("inference-scc:torn"), 0u);
  EXPECT_TRUE(InferenceEqual(live.inferences.at("inference-scc:good"),
                             SampleInference(0)));
  RemoveStoreFiles(path);
}

TEST(PersistInferenceTest, UnknownRecordTypeIsQuarantinedPerRecord) {
  std::string path = TempStorePath("persist_unknown_type.store");
  std::string full = BuildStore(path, 1);
  // Frame a well-formed CRC'd record whose payload opens with a type byte
  // from the future, followed by a valid inference record: the unknown
  // record must be skipped (and counted), not kill the scan.
  auto frame = [](std::string_view payload) {
    std::string out;
    out.push_back(static_cast<char>(payload.size() & 0xFF));
    out.push_back(static_cast<char>((payload.size() >> 8) & 0xFF));
    out.push_back(static_cast<char>((payload.size() >> 16) & 0xFF));
    out.push_back(static_cast<char>((payload.size() >> 24) & 0xFF));
    uint32_t len_crc = persist::Crc32(std::string_view(out.data(), 4));
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((len_crc >> (8 * i)) & 0xFF));
    }
    uint32_t payload_crc = persist::Crc32(payload);
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((payload_crc >> (8 * i)) & 0xFF));
    }
    out.append(payload);
    return out;
  };
  std::string future_payload = "\x07" + std::string("bytes from v2");
  std::string tail =
      frame(future_payload) +
      frame(persist::EncodeRecord("inference-scc:x", SampleInference(3)));
  WriteFile(path, full + tail);

  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->stats().records_quarantined, 1);
  EXPECT_FALSE((*store)->stats().file_quarantined);
  PersistentStore::LiveSets live = (*store)->TakeRecovered();
  EXPECT_EQ(live.sccs.size(), 1u);
  ASSERT_EQ(live.inferences.size(), 1u);
  EXPECT_TRUE(InferenceEqual(live.inferences.at("inference-scc:x"),
                             SampleInference(3)));
  // Compaction decodes each record the same way, so the unknown record is
  // dropped and the rewritten log holds only records Open accepts.
  store->reset();
  Result<persist::StoreStats> compacted = PersistentStore::Compact(path);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted->records_quarantined, 1);
  EXPECT_EQ(compacted->records_loaded, 2);
  auto reopened = PersistentStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().records_quarantined, 0);
  EXPECT_EQ((*reopened)->stats().records_loaded, 2);
  RemoveStoreFiles(path);
}

// StoreWriterTest covers the store's write path. No thread or queue sits
// in it: engine workers append through one handle, each from the cache
// listener of the outcome it computed.

// Concurrent appends of both record kinds must each land as one whole
// frame, and none may be dropped.
TEST(StoreWriterTest, ConcurrentEnqueueDrainsEverythingWritten) {
  std::string path = TempStorePath("persist_concurrent.store");
  RemoveStoreFiles(path);
  constexpr int kThreads = 4, kPerThread = 50;
  {
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    PersistentStore* handle = store->get();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([handle, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const std::string id = std::to_string(t) + "-" + std::to_string(i);
          EXPECT_TRUE((i % 2 == 0 ? handle->Append("scc:" + id,
                                                   SampleOutcome(i))
                                  : handle->Append("inference-scc:" + id,
                                                   SampleInference(i)))
                          .ok());
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(handle->stats().appends, kThreads * kPerThread);
    ASSERT_TRUE(handle->Flush().ok());
  }
  // Every key is distinct, so replay recovers each appended record.
  auto reopened = PersistentStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().records_loaded, kThreads * kPerThread);
  EXPECT_EQ((*reopened)->stats().records_quarantined, 0);
  EXPECT_EQ((*reopened)->stats().tail_bytes_truncated, 0);
  PersistentStore::LiveSets live = (*reopened)->TakeRecovered();
  EXPECT_EQ(live.sccs.size(), static_cast<size_t>(kThreads * kPerThread / 2));
  EXPECT_EQ(live.inferences.size(),
            static_cast<size_t>(kThreads * kPerThread / 2));
  RemoveStoreFiles(path);
}

// A store-attached engine appends each new outcome of either kind while
// the run computes it, not at FlushStore: when Run returns, the store
// holds one record per retained cache entry, and a reopen after the
// flush recovers every one of them.
TEST(StoreWriterTest, InferenceEnqueueIsWrittenBehind) {
  std::string path = TempStorePath("persist_inf_writer.store");
  RemoveStoreFiles(path);
  gen::GenParams params;
  params.seed = 11;
  params.count = 20;
  params.mix_proved = 80;
  params.mix_not_proved = 20;
  params.mix_resource_limit = 0;
  params.name_prefix = "behind";
  std::vector<BatchRequest> requests =
      gen::WorkloadToBatchRequests(gen::Generate(params)).value();
  EngineStats stats;
  {
    BatchEngine engine(EngineOptions{/*jobs=*/4, /*use_cache=*/true});
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(engine.AttachStore(std::move(*store)).ok());
    engine.Run(requests);
    stats = engine.stats();
    EXPECT_GT(stats.unique_sccs, 0);
    EXPECT_GT(stats.unique_inference_sccs, 0);
    EXPECT_EQ(engine.store()->stats().appends,
              stats.unique_sccs + stats.unique_inference_sccs);
    EXPECT_EQ(engine.store()->stats().append_failures, 0);
    ASSERT_TRUE(engine.FlushStore().ok());
  }
  auto reopened = PersistentStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->stats().records_quarantined, 0);
  EXPECT_EQ((*reopened)->stats().tail_bytes_truncated, 0);
  PersistentStore::LiveSets live = (*reopened)->TakeRecovered();
  EXPECT_EQ(static_cast<int64_t>(live.sccs.size()), stats.unique_sccs);
  EXPECT_EQ(static_cast<int64_t>(live.inferences.size()),
            stats.unique_inference_sccs);
  RemoveStoreFiles(path);
}

// The caches hold the one in-memory copy of each outcome: AttachStore
// moves every record Open recovered into the cache of its kind, and the
// store keeps none of them.
TEST(PersistEngineTest, AttachStoreLeavesNoRecoveredRecordInTheStore) {
  std::string path = TempStorePath("persist_attach.store");
  RemoveStoreFiles(path);
  {
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Append("scc:a", SampleOutcome(0)).ok());
    ASSERT_TRUE((*store)->Append("scc:b", SampleOutcome(1)).ok());
    ASSERT_TRUE((*store)->Append("inference-scc:a", SampleInference(0)).ok());
    ASSERT_TRUE((*store)->Append("scc:a", SampleOutcome(2)).ok());  // shadows
  }
  auto store = PersistentStore::Open(path);
  ASSERT_TRUE(store.ok());
  BatchEngine engine(EngineOptions{/*jobs=*/1, /*use_cache=*/true});
  ASSERT_TRUE(engine.AttachStore(std::move(*store)).ok());
  EXPECT_EQ(engine.store()->TakeRecovered().size(), 0);
  const int64_t records_loaded = engine.store()->stats().records_loaded;
  EXPECT_EQ(records_loaded, 3);
  EngineStats stats = engine.stats();
  EXPECT_EQ(stats.persisted_loaded, 2);
  EXPECT_EQ(stats.inference_persisted_loaded, 1);
  EXPECT_EQ(stats.persisted_loaded + stats.inference_persisted_loaded,
            records_loaded);
  RemoveStoreFiles(path);
}

// The tentpole invariant, end to end: a batch run that persists through
// the cache listeners, then a *fresh* engine warm-started from the
// store, must produce byte-identical report lines while serving nonzero
// persisted-cache hits — work the first process paid for.
TEST(PersistEngineTest, WarmStartIsByteIdenticalWithPersistedHits) {
  std::string path = TempStorePath("persist_engine.store");
  RemoveStoreFiles(path);
  gen::GenParams params;
  params.seed = 42;
  params.count = 30;
  params.mix_proved = 80;
  params.mix_not_proved = 20;
  params.mix_resource_limit = 0;
  params.name_prefix = "warm";
  std::vector<BatchRequest> requests =
      gen::WorkloadToBatchRequests(gen::Generate(params)).value();

  auto run = [&requests, &path](std::vector<std::string>* lines,
                                EngineStats* stats) {
    BatchEngine engine(EngineOptions{/*jobs=*/2, /*use_cache=*/true});
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(engine.AttachStore(std::move(*store)).ok());
    for (const BatchItemResult& item : engine.Run(requests)) {
      lines->push_back(
          ReportToJsonLine(item.name, "", item.status, item.report));
    }
    ASSERT_TRUE(engine.FlushStore().ok());
    ASSERT_TRUE(engine.SelfCheck().ok());
    *stats = engine.stats();
  };

  std::vector<std::string> cold_lines, warm_lines;
  EngineStats cold_stats, warm_stats;
  run(&cold_lines, &cold_stats);
  run(&warm_lines, &warm_stats);

  EXPECT_EQ(cold_stats.persisted_loaded, 0);
  EXPECT_GT(warm_stats.persisted_loaded, 0);
  EXPECT_GT(warm_stats.persisted_hits, 0);
  // Inference results persist too: the warm process recovers them and
  // skips the [VG90] fixpoint for every recursive SCC.
  EXPECT_EQ(cold_stats.inference_persisted_loaded, 0);
  EXPECT_GT(cold_stats.inference_cache_misses, 0);
  EXPECT_GT(warm_stats.inference_persisted_loaded, 0);
  EXPECT_GT(warm_stats.inference_persisted_hits, 0);
  EXPECT_EQ(warm_lines, cold_lines);
  RemoveStoreFiles(path);
}

// A failed append has no caller waiting on it: it runs in a cache
// listener on the worker that computed the outcome. It breaks the handle,
// so it surfaces at FlushStore, and the run's reports are unaffected.
TEST(PersistEngineTest, AppendFailureSurfacesAtFlushStore) {
  std::string path = TempStorePath("persist_append_failure.store");
  RemoveStoreFiles(path);
  gen::GenParams params;
  params.seed = 7;
  params.count = 20;
  params.mix_proved = 80;
  params.mix_not_proved = 20;
  params.mix_resource_limit = 0;
  params.name_prefix = "torn";
  std::vector<BatchRequest> requests =
      gen::WorkloadToBatchRequests(gen::Generate(params)).value();
  auto lines_of = [&requests](BatchEngine& engine) {
    std::vector<std::string> lines;
    for (const BatchItemResult& item : engine.Run(requests)) {
      lines.push_back(
          ReportToJsonLine(item.name, "", item.status, item.report));
    }
    return lines;
  };
  std::vector<std::string> storeless;
  {
    BatchEngine engine(EngineOptions{/*jobs=*/2, /*use_cache=*/true});
    storeless = lines_of(engine);
  }
  {
    BatchEngine engine(EngineOptions{/*jobs=*/2, /*use_cache=*/true});
    auto store = PersistentStore::Open(path);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(engine.AttachStore(std::move(*store)).ok());
    FailpointRegistry::Global().EnableFromSpec("persist.append=1");
    std::vector<std::string> lines = lines_of(engine);
    FailpointRegistry::Global().Clear();
    EXPECT_EQ(lines, storeless);
    EXPECT_FALSE(engine.FlushStore().ok());
    EXPECT_GE(engine.store()->stats().append_failures, 1);
  }
  // The first append tore: a reopen truncates its half frame and finds no
  // damaged record.
  auto reopened = PersistentStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT((*reopened)->stats().tail_bytes_truncated, 0);
  EXPECT_EQ((*reopened)->stats().records_quarantined, 0);
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace termilog
