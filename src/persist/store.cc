#include "persist/store.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace termilog {
namespace persist {
namespace {

constexpr char kMagic[8] = {'T', 'L', 'S', 'T', 'O', 'R', 'E', '1'};
constexpr size_t kHeaderSize = 16;   // magic[8] + version u32 + crc u32
constexpr size_t kFrameHeaderSize = 12;  // len u32 + len_crc u32 + payload_crc u32
constexpr uint32_t kMaxPayloadLen = 1u << 30;
constexpr uint8_t kRecordTypeSccOutcome = 1;
constexpr uint8_t kRecordTypeInference = 2;

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

void PutString(std::string* out, std::string_view text) {
  PutU32(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

// Bounds-checked sequential reader over a record payload. Every length
// field is validated against the bytes actually present before any
// allocation, so a corrupt length degrades to a decode error, not an
// oversized allocation.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) return false;
    *out = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return false;
    *out = GetU32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }
  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

std::string FrameBytes(std::string_view payload) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  // len_crc covers exactly the four length bytes just written.
  PutU32(&frame, Crc32(std::string_view(frame.data(), 4)));
  PutU32(&frame, Crc32(payload));
  frame.append(payload);
  return frame;
}

std::string HeaderBytes() {
  std::string header(kMagic, sizeof(kMagic));
  PutU32(&header, kStoreFormatVersion);
  PutU32(&header, Crc32(std::string_view(header.data(), 12)));
  return header;
}

Result<Rational> ParseRational(const std::string& text) {
  return Rational::FromString(text);
}

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string EncodeRecord(const std::string& key,
                         const CachedSccOutcome& outcome) {
  std::string out;
  out.push_back(static_cast<char>(kRecordTypeSccOutcome));
  PutString(&out, key);
  out.push_back(static_cast<char>(outcome.status));
  out.push_back(outcome.used_negative_deltas ? 1 : 0);
  PutString(&out, outcome.reduced_constraints);
  PutU32(&out, static_cast<uint32_t>(outcome.notes.size()));
  for (const std::string& note : outcome.notes) PutString(&out, note);
  PutU32(&out, static_cast<uint32_t>(outcome.theta.size()));
  for (const CachedSccOutcome::NamedTheta& theta : outcome.theta) {
    PutString(&out, theta.name);
    PutU32(&out, static_cast<uint32_t>(theta.arity));
    PutU32(&out, static_cast<uint32_t>(theta.coeffs.size()));
    for (const Rational& coeff : theta.coeffs) {
      PutString(&out, coeff.ToString());
    }
  }
  PutU32(&out, static_cast<uint32_t>(outcome.delta.size()));
  for (const CachedSccOutcome::NamedDelta& delta : outcome.delta) {
    PutString(&out, delta.from_name);
    PutU32(&out, static_cast<uint32_t>(delta.from_arity));
    PutString(&out, delta.to_name);
    PutU32(&out, static_cast<uint32_t>(delta.to_arity));
    PutString(&out, delta.value.ToString());
  }
  return out;
}

Result<std::pair<std::string, CachedSccOutcome>> DecodeRecord(
    std::string_view payload) {
  auto bad = [](const char* what) {
    return Status::InvalidArgument(StrCat("store record: ", what));
  };
  Reader reader(payload);
  uint8_t record_type = 0;
  if (!reader.ReadU8(&record_type)) return bad("truncated record type");
  if (record_type != kRecordTypeSccOutcome) return bad("unknown record type");
  std::string key;
  if (!reader.ReadString(&key)) return bad("truncated key");
  if (key.empty()) return bad("empty key");
  CachedSccOutcome outcome;
  uint8_t status = 0, negative = 0;
  if (!reader.ReadU8(&status) || !reader.ReadU8(&negative)) {
    return bad("truncated status");
  }
  if (status > static_cast<uint8_t>(SccStatus::kResourceLimit)) {
    return bad("status out of range");
  }
  outcome.status = static_cast<SccStatus>(status);
  if (outcome.status == SccStatus::kResourceLimit) {
    // A starved verdict says the budget ran out, not what the answer is;
    // serving one from disk would be a wrong verdict by construction.
    return bad("kResourceLimit outcome must not be persisted");
  }
  if (negative > 1) return bad("bad bool");
  outcome.used_negative_deltas = negative == 1;
  if (!reader.ReadString(&outcome.reduced_constraints)) {
    return bad("truncated constraints");
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return bad("truncated note count");
  for (uint32_t i = 0; i < count; ++i) {
    std::string note;
    if (!reader.ReadString(&note)) return bad("truncated note");
    outcome.notes.push_back(std::move(note));
  }
  if (!reader.ReadU32(&count)) return bad("truncated theta count");
  for (uint32_t i = 0; i < count; ++i) {
    CachedSccOutcome::NamedTheta theta;
    uint32_t arity = 0, coeffs = 0;
    if (!reader.ReadString(&theta.name) || !reader.ReadU32(&arity) ||
        !reader.ReadU32(&coeffs)) {
      return bad("truncated theta");
    }
    if (theta.name.empty() || arity > (1u << 20)) return bad("bad theta");
    theta.arity = static_cast<int>(arity);
    for (uint32_t c = 0; c < coeffs; ++c) {
      std::string text;
      if (!reader.ReadString(&text)) return bad("truncated coefficient");
      Result<Rational> value = ParseRational(text);
      if (!value.ok()) return bad("unparseable coefficient");
      theta.coeffs.push_back(std::move(*value));
    }
    outcome.theta.push_back(std::move(theta));
  }
  if (!reader.ReadU32(&count)) return bad("truncated delta count");
  for (uint32_t i = 0; i < count; ++i) {
    CachedSccOutcome::NamedDelta delta;
    uint32_t from_arity = 0, to_arity = 0;
    std::string text;
    if (!reader.ReadString(&delta.from_name) || !reader.ReadU32(&from_arity) ||
        !reader.ReadString(&delta.to_name) || !reader.ReadU32(&to_arity) ||
        !reader.ReadString(&text)) {
      return bad("truncated delta");
    }
    if (delta.from_name.empty() || delta.to_name.empty() ||
        from_arity > (1u << 20) || to_arity > (1u << 20)) {
      return bad("bad delta");
    }
    delta.from_arity = static_cast<int>(from_arity);
    delta.to_arity = static_cast<int>(to_arity);
    Result<Rational> value = ParseRational(text);
    if (!value.ok()) return bad("unparseable delta value");
    delta.value = std::move(*value);
    outcome.delta.push_back(std::move(delta));
  }
  if (!reader.AtEnd()) return bad("trailing bytes");
  return std::make_pair(std::move(key), std::move(outcome));
}

std::string EncodeRecord(const std::string& key,
                         const CachedInferenceOutcome& outcome) {
  std::string out;
  out.push_back(static_cast<char>(kRecordTypeInference));
  PutString(&out, key);
  PutU32(&out, static_cast<uint32_t>(outcome.entries.size()));
  for (const CachedInferenceOutcome::Entry& entry : outcome.entries) {
    PutString(&out, entry.name);
    PutU32(&out, static_cast<uint32_t>(entry.arity));
    const Polyhedron& polyhedron = entry.polyhedron;
    // The exact value state: hard bottom carries no rows; otherwise the
    // rows verbatim (re-deciding emptiness happens lazily on use, exactly
    // as for the freshly computed value).
    out.push_back(polyhedron.known_empty() ? 1 : 0);
    const ConstraintSystem& system = polyhedron.constraints();
    PutU32(&out, static_cast<uint32_t>(system.rows().size()));
    for (const Constraint& row : system.rows()) {
      out.push_back(row.rel == Relation::kEq ? 0 : 1);
      PutU32(&out, static_cast<uint32_t>(row.coeffs.size()));
      for (const Rational& coeff : row.coeffs) PutString(&out, coeff.ToString());
      PutString(&out, row.constant.ToString());
    }
  }
  return out;
}

Result<std::pair<std::string, CachedInferenceOutcome>> DecodeInferenceRecord(
    std::string_view payload) {
  auto bad = [](const char* what) {
    return Status::InvalidArgument(StrCat("store inference record: ", what));
  };
  Reader reader(payload);
  uint8_t record_type = 0;
  if (!reader.ReadU8(&record_type)) return bad("truncated record type");
  if (record_type != kRecordTypeInference) return bad("unknown record type");
  std::string key;
  if (!reader.ReadString(&key)) return bad("truncated key");
  if (key.empty()) return bad("empty key");
  CachedInferenceOutcome outcome;
  uint32_t entry_count = 0;
  if (!reader.ReadU32(&entry_count)) return bad("truncated entry count");
  for (uint32_t i = 0; i < entry_count; ++i) {
    CachedInferenceOutcome::Entry entry;
    uint32_t arity = 0;
    uint8_t known_empty = 0;
    uint32_t row_count = 0;
    if (!reader.ReadString(&entry.name) || !reader.ReadU32(&arity) ||
        !reader.ReadU8(&known_empty) || !reader.ReadU32(&row_count)) {
      return bad("truncated entry");
    }
    if (entry.name.empty() || arity > (1u << 20)) return bad("bad entry");
    if (known_empty > 1) return bad("bad bool");
    entry.arity = static_cast<int>(arity);
    if (known_empty == 1) {
      // The hard bottom holds no rows by construction (Polyhedron
      // invariant); a record claiming both is corrupt.
      if (row_count != 0) return bad("hard-bottom entry with rows");
      entry.polyhedron = Polyhedron::Empty(entry.arity);
      outcome.entries.push_back(std::move(entry));
      continue;
    }
    ConstraintSystem system(entry.arity);
    for (uint32_t r = 0; r < row_count; ++r) {
      uint8_t rel = 0;
      uint32_t coeff_count = 0;
      if (!reader.ReadU8(&rel) || !reader.ReadU32(&coeff_count)) {
        return bad("truncated row");
      }
      if (rel > 1) return bad("bad relation");
      if (coeff_count != arity) return bad("row width != arity");
      std::vector<Rational> coeffs;
      for (uint32_t c = 0; c < coeff_count; ++c) {
        std::string text;
        if (!reader.ReadString(&text)) return bad("truncated coefficient");
        Result<Rational> value = ParseRational(text);
        if (!value.ok()) return bad("unparseable coefficient");
        coeffs.push_back(std::move(*value));
      }
      std::string constant_text;
      if (!reader.ReadString(&constant_text)) return bad("truncated constant");
      Result<Rational> constant = ParseRational(constant_text);
      if (!constant.ok()) return bad("unparseable constant");
      system.Add(Constraint(std::move(coeffs), std::move(*constant),
                            rel == 0 ? Relation::kEq : Relation::kGe));
    }
    entry.polyhedron = Polyhedron::FromSystem(std::move(system));
    outcome.entries.push_back(std::move(entry));
  }
  if (!reader.AtEnd()) return bad("trailing bytes");
  // resource_limited is not even encoded: a retained outcome is by
  // definition a completed fixpoint.
  return std::make_pair(std::move(key), std::move(outcome));
}

namespace {

// The whole file in one read into a string of its size; empty when the
// path is absent, not a regular file, or unreadable.
std::string ReadFileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return std::string();
  std::string bytes(size, '\0');
  std::ifstream in(path, std::ios::binary);
  if (!in.read(bytes.data(), static_cast<std::streamsize>(size))) {
    return std::string();
  }
  return bytes;
}

// Reads the log at `path` for replay under rule 1: a file whose header is
// unreadable or of another format version is not ours to decode, so it is
// set aside whole as PATH.quarantined (nothing is deleted) and reads as
// empty, like an absent file. Fails only when the rename does.
Result<std::string> ReadLog(const std::string& path, StoreStats* stats) {
  std::string bytes = ReadFileBytes(path);
  if (bytes.empty()) return bytes;
  // Magic and header CRC; the version is checked apart so the note can
  // say which one failed.
  const bool header_ok =
      bytes.size() >= kHeaderSize &&
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0 &&
      GetU32(bytes.data() + 12) == Crc32(std::string_view(bytes.data(), 12));
  const uint32_t version = header_ok ? GetU32(bytes.data() + 8) : 0;
  if (header_ok && version == kStoreFormatVersion) return bytes;
  const std::string aside = path + ".quarantined";
  std::error_code ec;
  std::filesystem::rename(path, aside, ec);
  if (ec) {
    return Status::Internal(StrCat("store: cannot quarantine unreadable file ",
                                   path, ": ", ec.message()));
  }
  stats->file_quarantined = true;
  stats->notes.push_back(
      !header_ok ? StrCat("store header unreadable; file set aside as ", aside)
                 : StrCat("store format version ", version, " != ",
                          kStoreFormatVersion, "; file set aside as ", aside));
  return std::string();
}

// Dispatches on a payload's record-type byte. Each decoder validates its
// own type byte again; anything else (including types from the future)
// lands in DecodeRecord's "unknown record type" rejection and is
// quarantined per record — the forward-compatibility contract that let the
// inference record type ship without a version bump.
bool IsInferenceRecord(std::string_view payload) {
  return !payload.empty() &&
         static_cast<uint8_t>(payload[0]) == kRecordTypeInference;
}

// Applies one decoded record to the live set of its kind, last write
// winning; a decode failure passes through for the walk to quarantine.
template <typename Outcome>
Status Apply(Result<std::pair<std::string, Outcome>> record,
             std::map<std::string, Outcome>* live) {
  if (!record.ok()) return record.status();
  live->insert_or_assign(std::move(record->first), std::move(record->second));
  return Status::Ok();
}

// The frame walk Open and Compact share, over a log whose header is
// intact. Each frame whose payload passes its CRC goes to `apply(frame,
// payload)`; a failed CRC, or a non-OK status from `apply` (a decode
// failure), quarantines the record and the scan continues at the next
// frame. A torn or untrustworthy frame header ends the walk. Each event is
// noted in `stats`, with the bytes after the last intact frame as
// `tail_bytes_truncated`; returns the end of that frame, where appends
// resume.
template <typename Visitor>
size_t ReplayFrames(std::string_view bytes, StoreStats* stats,
                    Visitor apply) {
  size_t valid_end = kHeaderSize;
  size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    if (pos + kFrameHeaderSize > bytes.size()) {
      stats->notes.push_back(StrCat("torn frame header at offset ", pos,
                                    "; tail truncated"));
      break;  // torn tail: a frame header was mid-write at the crash
    }
    uint32_t len = GetU32(bytes.data() + pos);
    uint32_t len_crc = GetU32(bytes.data() + pos + 4);
    uint32_t payload_crc = GetU32(bytes.data() + pos + 8);
    if (len_crc != Crc32(bytes.substr(pos, 4)) || len > kMaxPayloadLen) {
      // The length itself is untrustworthy, so there is no way to find
      // the next frame boundary: everything from here is tail loss.
      stats->notes.push_back(StrCat("corrupt frame header at offset ", pos,
                                    "; tail truncated"));
      break;
    }
    if (pos + kFrameHeaderSize + len > bytes.size()) {
      stats->notes.push_back(StrCat("torn frame payload at offset ", pos,
                                    "; tail truncated"));
      break;
    }
    std::string_view frame = bytes.substr(pos, kFrameHeaderSize + len);
    std::string_view payload = frame.substr(kFrameHeaderSize);
    const size_t offset = pos;
    pos += frame.size();
    valid_end = pos;  // framing is intact, whatever the payload holds
    if (Crc32(payload) != payload_crc) {
      ++stats->records_quarantined;
      stats->notes.push_back(StrCat("record at offset ", offset,
                                    " failed its checksum; quarantined"));
      continue;
    }
    Status applied = apply(frame, payload);
    if (!applied.ok()) {
      ++stats->records_quarantined;
      stats->notes.push_back(StrCat("record at offset ", offset, ": ",
                                    applied.message(), "; quarantined"));
    }
  }
  stats->tail_bytes_truncated = static_cast<int64_t>(bytes.size() - valid_end);
  return valid_end;
}

}  // namespace

PersistentStore::PersistentStore(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

PersistentStore::~PersistentStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    std::fflush(file_);
    ::fsync(fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<std::unique_ptr<PersistentStore>> PersistentStore::Open(
    const std::string& path) {
  // Replay fills the handle's members directly; the file is attached once
  // recovery has settled where appends resume.
  std::unique_ptr<PersistentStore> store(new PersistentStore(path, nullptr));
  StoreStats& stats = store->stats_;
  Result<std::string> bytes = ReadLog(path, &stats);
  if (!bytes.ok()) return bytes.status();

  std::FILE* file = nullptr;
  if (bytes->empty()) {
    file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return Status::Internal(StrCat("store: cannot create ", path));
    }
    std::string header = HeaderBytes();
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
      std::fclose(file);
      return Status::Internal(StrCat("store: cannot write header to ", path));
    }
    std::fflush(file);
  } else {
    LiveSets& live = store->recovered_;
    const size_t valid_end = ReplayFrames(
        *bytes, &stats, [&live](std::string_view, std::string_view payload) {
          return IsInferenceRecord(payload)
                     ? Apply(DecodeInferenceRecord(payload), &live.inferences)
                     : Apply(DecodeRecord(payload), &live.sccs);
        });
    stats.records_loaded = live.size();
    if (valid_end < bytes->size()) {
      std::error_code ec;
      std::filesystem::resize_file(path, valid_end, ec);
      if (ec) {
        return Status::Internal(StrCat("store: cannot truncate torn tail of ",
                                       path, ": ", ec.message()));
      }
    }
    file = std::fopen(path.c_str(), "ab");
    if (file == nullptr) {
      return Status::Internal(StrCat("store: cannot open ", path,
                                     " for append"));
    }
  }

  store->file_ = file;
  return store;
}

Result<StoreStats> PersistentStore::Compact(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return Status::NotFound(StrCat("no store at ", path));
  }
  StoreStats stats;
  Result<std::string> bytes = ReadLog(path, &stats);
  if (!bytes.ok()) return bytes.status();
  // The live frame of each key, by kind: views into `bytes`, so the replay
  // keeps no decoded outcome. A frame that decodes is written verbatim;
  // EncodeRecord is deterministic, so this is the frame re-encoding its
  // record would give.
  std::map<std::string_view, std::string_view> sccs, inferences;
  auto keep_live_frame = [&sccs, &inferences](std::string_view frame,
                                              std::string_view payload) {
    const bool inference = IsInferenceRecord(payload);
    Status decoded = inference ? DecodeInferenceRecord(payload).status()
                               : DecodeRecord(payload).status();
    if (!decoded.ok()) return decoded;
    // A payload that decodes opens [type u8][key length u32][key].
    std::string_view key = payload.substr(5, GetU32(payload.data() + 1));
    (inference ? inferences : sccs).insert_or_assign(key, frame);
    return Status::Ok();
  };
  if (!bytes->empty()) ReplayFrames(*bytes, &stats, keep_live_frame);
  stats.records_loaded = static_cast<int64_t>(sccs.size() + inferences.size());

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return Status::Internal(StrCat("store: cannot create ", tmp));
  }
  const std::string header = HeaderBytes();
  bool ok = std::fwrite(header.data(), 1, header.size(), out) == header.size();
  for (const auto* live : {&sccs, &inferences}) {
    for (auto it = live->begin(); ok && it != live->end(); ++it) {
      ok = std::fwrite(it->second.data(), 1, it->second.size(), out) ==
           it->second.size();
    }
  }
  ok = ok && std::fflush(out) == 0 && ::fsync(fileno(out)) == 0;
  std::fclose(out);
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::Internal("store: compaction write failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("store: compaction rename failed");
  }
  return stats;
}

PersistentStore::LiveSets PersistentStore::TakeRecovered() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(recovered_, LiveSets());
}

template <typename Outcome>
Status PersistentStore::Append(const std::string& key,
                               const Outcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_ || file_ == nullptr) {
    ++stats_.append_failures;
    return Status::Internal("store: append handle is broken");
  }
  if (key.empty()) {
    return Status::InvalidArgument("store: empty key");
  }
  if (!CacheTraits<Outcome>::Retainable(outcome)) {
    return Status::InvalidArgument(
        StrCat("store: ", CacheTraits<Outcome>::kLabel,
               " outcome is starved or errored; not persistable"));
  }
  std::string frame = FrameBytes(EncodeRecord(key, outcome));
  if (TERMILOG_FAILPOINT_HIT("persist.append")) {
    // Crash-mid-write replay: half a frame reaches the disk image and
    // the handle dies, exactly what a kill -9 between two fwrites leaves
    // behind. Recovery on the next Open must truncate this torn tail.
    std::fwrite(frame.data(), 1, frame.size() / 2, file_);
    std::fflush(file_);
    broken_ = true;
    ++stats_.append_failures;
    return Status::ResourceExhausted(
        FailpointRegistry::TripMessage("persist.append"));
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    broken_ = true;
    ++stats_.append_failures;
    return Status::Internal("store: short write; handle marked broken");
  }
  ++stats_.appends;
  return Status::Ok();
}

template Status PersistentStore::Append(const std::string&,
                                        const CachedSccOutcome&);
template Status PersistentStore::Append(const std::string&,
                                        const CachedInferenceOutcome&);

Status PersistentStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (broken_ || file_ == nullptr) {
    return Status::Internal("store: flush on broken handle");
  }
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    broken_ = true;
    return Status::Internal("store: flush failed; handle marked broken");
  }
  return Status::Ok();
}

StoreStats PersistentStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace persist
}  // namespace termilog
