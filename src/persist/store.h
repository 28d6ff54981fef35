#ifndef TERMILOG_PERSIST_STORE_H_
#define TERMILOG_PERSIST_STORE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/cached_outcomes.h"
#include "util/status.h"

namespace termilog {
namespace persist {

/// On-disk format version (docs/persistence.md). Bump on any change to
/// the record payload encoding; a store written by a different version is
/// quarantined whole (renamed aside, never decoded) rather than guessed
/// at.
constexpr uint32_t kStoreFormatVersion = 1;

/// CRC-32 (IEEE 802.3, reflected), the checksum behind every frame in the
/// store. Exposed for tests and the chaos harness.
uint32_t Crc32(std::string_view bytes);

/// Serializes one (key, outcome) pair into a record payload (the bytes a
/// frame's CRC covers): record type 1 for an SCC outcome, type 2 for an
/// inference outcome. Deterministic: equal inputs yield equal bytes.
///
/// Inference records share the log with SCC-outcome records,
/// distinguished by the payload's leading record-type byte; no
/// format-version bump was needed because binaries predating type 2
/// simply quarantine such records per-record (a cache miss, not an
/// error). Polyhedra are encoded as their exact constraint rows plus the
/// hard-bottom flag — never re-minimized or re-parsed through ParseSpec,
/// which would add nonnegativity rows and break the byte-identity
/// contract between warm and cold runs.
std::string EncodeRecord(const std::string& key,
                         const CachedSccOutcome& outcome);
std::string EncodeRecord(const std::string& key,
                         const CachedInferenceOutcome& outcome);

/// Decodes a record payload, validating everything the store will serve:
/// bounds on every length field, no trailing bytes, a known status value,
/// parseable rationals, a non-empty key — and never a kResourceLimit
/// outcome (a starved verdict is not an answer and must not survive a
/// restart). Any violation is kInvalidArgument: the caller quarantines
/// the record and the entry degrades to a cache miss.
Result<std::pair<std::string, CachedSccOutcome>> DecodeRecord(
    std::string_view payload);

/// Decodes an inference-record payload with the same validation posture
/// as DecodeRecord (everything bounds-checked, kInvalidArgument on any
/// violation, resource-limited outcomes rejected).
Result<std::pair<std::string, CachedInferenceOutcome>> DecodeInferenceRecord(
    std::string_view payload);

/// Counters describing what Open recovered and what has been written
/// since. `notes` is a human-readable recovery log (one line per
/// quarantine/truncation event), surfaced on stderr by the CLI.
struct StoreStats {
  /// Good records applied on open (after last-wins dedup by key).
  int64_t records_loaded = 0;
  /// Frames whose payload failed its CRC or decode validation; skipped.
  int64_t records_quarantined = 0;
  /// Bytes dropped from the tail on open (torn final write, or a frame
  /// header too corrupt to trust its length).
  int64_t tail_bytes_truncated = 0;
  /// True when the whole file was set aside (bad header, unknown
  /// version) and the store started fresh.
  bool file_quarantined = false;
  /// Records appended through this handle.
  int64_t appends = 0;
  /// Appends rejected after a write error left the handle broken.
  int64_t append_failures = 0;
  std::vector<std::string> notes;
};

/// Append-only, checksummed, versioned on-disk store of SCC analysis
/// outcomes keyed by CanonicalSccKey text, and of inter-argument
/// inference outcomes keyed by CanonicalInferenceKey text
/// (docs/persistence.md). The file is the store: past Open the handle
/// holds no decoded outcome.
///
/// Layout: a 16-byte header (magic, format version, header CRC) followed
/// by length-prefixed frames `[len u32][len_crc u32][payload_crc u32]
/// [payload]`, little-endian throughout. Recovery on Open:
///   - short/garbled header or unknown version: the file is renamed to
///     PATH.quarantined and the store starts empty;
///   - a frame header whose length bytes fail their own CRC, or whose
///     frame extends past EOF: torn tail — the file is truncated at the
///     frame boundary (everything before it is kept);
///   - a payload that fails its CRC or decode validation: the record is
///     quarantined (skipped, counted) and scanning continues at the next
///     frame.
/// A corrupt entry therefore degrades to a cache miss, never to a wrong
/// verdict. Duplicate keys resolve last-write-wins, so re-appending an
/// entry is harmless and Compact drops shadowed records.
///
/// Thread contract: Open returns an exclusive handle; Append and Flush
/// are thread-safe (one internal mutex), so engine workers append the
/// outcomes they compute directly while another thread flushes.
class PersistentStore {
 public:
  /// The live set of each record kind: the last write per key. The two
  /// kinds share one log but address disjoint key spaces (SCC keys open
  /// with "scc:", inference keys with "inference-scc:").
  struct LiveSets {
    std::map<std::string, CachedSccOutcome> sccs;
    std::map<std::string, CachedInferenceOutcome> inferences;

    int64_t size() const {
      return static_cast<int64_t>(sccs.size() + inferences.size());
    }
  };

  /// Opens `path` (creating it if absent), replays the log with the
  /// recovery rules above, and leaves the file positioned for appends.
  /// Fails only when the filesystem itself refuses (unwritable path);
  /// corruption never fails Open.
  static Result<std::unique_ptr<PersistentStore>> Open(
      const std::string& path);

  /// Compacts the closed log at `path` offline: replays it with Open's
  /// recovery rules, decoding each record once, and writes the last good
  /// frame of each key (SCC keys, then inference keys, in key order) to
  /// PATH.tmp, fsynced and renamed over PATH. Returns what the replay
  /// found (`records_loaded` records are written); kNotFound, creating
  /// nothing, when no file is at `path`.
  static Result<StoreStats> Compact(const std::string& path);

  ~PersistentStore();
  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// Hands over the live sets Open recovered and keeps nothing, so the
  /// caller holds the one in-memory copy (BatchEngine::AttachStore moves
  /// each record into its cache). A second call returns empty sets.
  LiveSets TakeRecovered();

  /// Encodes one record of either kind and appends its frame; the handle
  /// keeps nothing of it. An empty key, and an outcome the caches would
  /// not retain (CacheTraits<Outcome>::Retainable), are refused: a starved
  /// outcome must not survive a restart. Failpoint "persist.append"
  /// simulates a crash mid-write: half the frame reaches the file and the
  /// handle goes broken (later appends are counted as failures, not
  /// retried), so tests can replay a kill -9 between the bytes of a frame.
  template <typename Outcome>
  Status Append(const std::string& key, const Outcome& outcome);

  /// Durability point: flushes stdio buffers and fsyncs the file. Fails
  /// once a failed write has broken the handle.
  Status Flush();


  StoreStats stats() const;
  const std::string& path() const { return path_; }

 private:
  PersistentStore(std::string path, std::FILE* file);

  const std::string path_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;  // append handle, attached by Open
  bool broken_ = false;
  LiveSets recovered_;  // what Open replayed, until TakeRecovered
  StoreStats stats_;
};

}  // namespace persist
}  // namespace termilog

#endif  // TERMILOG_PERSIST_STORE_H_
