// Crash-safe matrix execution: checkpoint/resume for run_matrix.
//
// A long matrix run (the paper's 88 cells x 50 reps; the ROADMAP's
// million-client campaigns) must survive being killed. The contract here:
//
//   * One record per completed cell, keyed by the cell's index and a stable
//     hash over every behaviour-affecting field of its config (the same
//     fields that derive the testbed seed, plus the testbed/fault knobs).
//     A resumed run skips a cell only when both match, so editing the
//     matrix definition between runs silently re-runs what changed.
//   * Atomic persistence: the writer rewrites the whole checkpoint to
//     `<path>.tmp` and rename(2)s it over `<path>`. A crash at any instant
//     leaves either the previous complete checkpoint or the new one —
//     never a torn file.
//   * Bit-identity: cell results are deterministic, and the JSON encoding
//     (obs/json.h, %.17g doubles) round-trips every finite double exactly,
//     so a killed-and-resumed run produces a final matrix report that is
//     byte-identical to an uninterrupted run's. tools/chaos_matrix and
//     scripts/check.sh gate this on every run.
//
// CheckpointWriter is the one writer under both checkpoint formats: this
// matrix format and the campaign's shard format (core/campaign.h). A format
// supplies its header members and one encoded JSON record per completed
// task; the writer owns the lock, the flush cadence, the atomic rewrite and
// the flush metrics.
//
// The reader is deliberately forgiving: a missing, truncated, or corrupt
// checkpoint degrades to "no records" (the run starts over) instead of
// failing — a half-written file must never wedge the campaign it was meant
// to protect.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace bnm::core {

inline constexpr const char* kCheckpointFormat = "bnm-matrix-checkpoint";
inline constexpr int kCheckpointVersion = 1;

/// 64-bit FNV-1a over the bit patterns of the values fed in: the one hasher
/// behind every checkpoint key (cell_config_hash, campaign_spec_hash).
/// Doubles are hashed by bit pattern, not by value, so any representable
/// change — including the sign of zero — changes the hash.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void dur(sim::Duration d) { i64(d.ns()); }
  void tp(sim::TimePoint t) { i64(t.ns_since_epoch()); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Stable 64-bit FNV-1a hash over every config field that can change a
/// cell's results: the seed-deriving case fields, repetition plan, timing
/// knobs, and the full testbed config including fault plans. custom_profile
/// is hashed shallowly (presence, label, capability flags) — byte-for-byte
/// profile identity is the caller's responsibility when overriding it.
std::uint64_t cell_config_hash(const ExperimentConfig& config);

/// Write `contents` to `path` via the atomic temp-file + rename(2) protocol
/// every checkpoint and report in this module and core/campaign.h uses.
/// Returns false (old file intact) on I/O failure.
bool write_file_atomic(const std::string& path, const std::string& contents);

/// Slurp a file; nullopt when it cannot be read. The forgiving-reader
/// counterpart of write_file_atomic for resume paths.
std::optional<std::string> read_file_contents(const std::string& path);

/// cell_config_hash as fixed-width lowercase hex (the on-disk key).
std::string cell_config_hash_hex(const ExperimentConfig& config);

/// Serialize one completed series (samples, accounting, labels — not the
/// config, which the resuming run supplies from its own matrix).
obs::json::Value series_to_json(const OverheadSeries& series);

/// Rebuild a series from its JSON form. nullopt on any shape mismatch.
/// The returned series has a default-constructed config.
std::optional<OverheadSeries> series_from_json(const obs::json::Value& v);

/// What one on-disk checkpoint format supplies to CheckpointWriter besides
/// its records: the document's leading members and the counters its writes
/// are reported under (nullptr = not counted).
struct CheckpointFormat {
  obs::json::Value header;  ///< non-empty object: members before "records"
  bool trailing_newline = false;
  const obs::Counter* records_added = nullptr;  ///< one per add()
  const obs::Counter* flushes = nullptr;        ///< atomic rewrites
  const obs::Counter* bytes_written = nullptr;  ///< bytes persisted
};

/// Accumulates one encoded JSON record per completed task, keyed and
/// ordered by task index, and persists them atomically as
/// `{<header members>,"records":[...]}`. Thread-safe: pool workers call
/// add() concurrently.
class CheckpointWriter {
 public:
  /// `flush_every` completed tasks trigger one atomic rewrite (1 = after
  /// every task, the crash-safest and the chaos-gate default).
  CheckpointWriter(std::string path, CheckpointFormat format,
                   int flush_every = 1);
  /// The matrix format (kCheckpointFormat) over `total_cells` cells.
  CheckpointWriter(std::string path, std::size_t total_cells,
                   int flush_every = 1);

  /// Record a completed task and flush if the cadence says so.
  void add(std::size_t task, obs::json::Value record);
  /// Matrix format: record a completed cell under its config's hash.
  void add(std::size_t cell, const ExperimentConfig& config,
           const OverheadSeries& series);

  /// Seed a record taken from a prior checkpoint (resume path) without
  /// triggering the flush cadence or the records_added metric.
  void preload(std::size_t task, obs::json::Value record);
  /// Matrix format: the stored record keeps its original hash and survives
  /// the next rewrite verbatim.
  void preload(std::size_t cell, const std::string& config_hash,
               const OverheadSeries& series);

  /// Unconditional atomic rewrite (write <path>.tmp, rename over <path>).
  /// Returns false (and keeps the old file intact) on I/O failure.
  bool flush();
  /// flush() only when add() left records the cadence has not written yet.
  bool flush_pending();

  const std::string& path() const { return path_; }
  std::size_t records() const;

 private:
  std::string path_;
  std::string head_;  ///< the header object's bytes, up to its closing '}'
  CheckpointFormat format_;
  int flush_every_;
  mutable std::mutex mu_;
  int unflushed_ = 0;
  std::map<std::size_t, std::string> records_;  ///< encoded, by task index
};

struct CheckpointRecord {
  std::size_t cell = 0;      ///< index into the matrix, in input order
  std::string config_hash;   ///< cell_config_hash_hex at completion time
  OverheadSeries series;
};

/// Parsed checkpoint with hash-checked record lookup.
class CheckpointReader {
 public:
  /// Parse `path`. nullopt when the file is absent, unparsable, or not a
  /// checkpoint (detail in *error when given) — resuming from nothing is
  /// always safe, so corruption degrades to a fresh run, never a failure.
  static std::optional<CheckpointReader> load(const std::string& path,
                                              std::string* error = nullptr);

  std::size_t total_cells() const { return total_cells_; }
  std::size_t records() const { return records_.size(); }

  /// The stored series for `cell`, iff a record exists and its hash matches
  /// `config` (a mismatch means the matrix changed: re-run the cell).
  const OverheadSeries* lookup(std::size_t cell,
                               const ExperimentConfig& config) const;

 private:
  std::size_t total_cells_ = 0;
  std::map<std::size_t, CheckpointRecord> records_;
};

/// Canonical deterministic report over a full matrix run: one entry per
/// cell, in input order, using the same series encoding as the checkpoint.
/// Two runs of the same matrix — interrupted-and-resumed or not — must
/// produce byte-identical report strings (the chaos gate's contract).
std::string matrix_report_json(const std::vector<ExperimentConfig>& cells,
                               const std::vector<OverheadSeries>& results);

/// matrix_report_json straight to a file (atomic temp+rename). False on
/// I/O failure.
bool write_matrix_report(const std::string& path,
                         const std::vector<ExperimentConfig>& cells,
                         const std::vector<OverheadSeries>& results);

}  // namespace bnm::core
