// Shared plumbing of the benchmark: host clocks, output fingerprints,
// metrics-registry deltas, the in-memory span recorder, and the interface
// every workload implements. README.md in this directory explains the
// workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// 64-bit FNV-1a over the canonical output bytes (the hash core/checkpoint
/// uses for config keys).
std::uint64_t fnv1a(std::string_view bytes);
std::string hex64(std::uint64_t v);
/// splitmix64 finalizer: spreads a benchmark seed into input seeds.
std::uint64_t mix64(std::uint64_t x);

/// Every counter of the metrics registry by name, plus each histogram's
/// count (under its name) and sum (under "<name>.sum"). Gauges are read
/// separately: they are maxima, not totals, so they have no delta.
using Counts = std::map<std::string, std::uint64_t>;
Counts registry_counts();
std::uint64_t registry_gauge(std::string_view name);
Counts delta(const Counts& after, const Counts& before);
std::uint64_t count_of(const Counts& counts, std::string_view name);
/// Sum of every count whose name starts with `prefix`.
std::uint64_t count_prefix(const Counts& counts, std::string_view prefix);

/// Spans recorded around the calls the benchmark makes into the library:
/// name, host start/end, parent span and the unit (group) id. Kept in
/// memory while a traced run executes and written out when it ends.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 = root
    std::uint64_t unit = 0;
  };
  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;  ///< duration minus the time its child spans cover
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  std::size_t open(const char* name, std::uint64_t unit);
  void close(std::size_t id);
  /// Record a span measured elsewhere (e.g. a library's own trace) as a
  /// child of the innermost open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t unit);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, Totals> totals() const;
  /// One JSON object per line: name, start/end ns, parent, unit, self ns.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

SpanRecorder& recorder();
std::int64_t now_ns();

/// RAII span; records nothing while the recorder is disabled.
class SpanScope {
 public:
  SpanScope(const char* name, std::uint64_t unit)
      : id_{recorder().enabled() ? recorder().open(name, unit) : kNone} {}
  ~SpanScope() {
    if (id_ != kNone) recorder().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t id_;
};

/// One group of work units: a full matrix, a campaign, or a run of passive
/// scenarios.
struct GroupResult {
  std::uint64_t units = 0;          ///< repetitions / clients / packets
  std::uint64_t sim_attempted = 0;  ///< denominator of failed_share
  std::uint64_t sim_failed = 0;     ///< numerator of failed_share
  std::vector<double> batch_ms;     ///< per cell / shard / scenario
  std::uint64_t fingerprint = 0;    ///< FNV-1a of the canonical output
  std::string problem;              ///< non-empty: the output check failed
};

/// Per-layer facts only a traced or composed group can see.
struct LayerExtras {
  std::uint64_t captured_packets = 0;
  double sketch_bytes = 0;          ///< largest aggregate seen
  double pool_busy_ns = 0;          ///< sum of shard spans
  double pool_capacity_ns = 0;      ///< workers x campaign wall
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// True when a group runs on one thread; the timed loop then moves that
  /// thread from vCPU to vCPU between groups.
  virtual bool serial() const { return true; }
  /// Group `index` of the inputs generated from `seed`, through the
  /// library's public entry points as a user would call them.
  virtual GroupResult run(std::uint64_t seed, std::uint64_t index) = 0;
  /// The same group with profiling on and spans around each public call.
  /// Must reproduce run()'s fingerprint.
  virtual GroupResult run_traced(std::uint64_t seed, std::uint64_t index,
                                 LayerExtras* extras) = 0;
  /// An extra composition of the group from smaller public calls, for
  /// workloads whose run_traced() cannot compose without changing what is
  /// timed. Also must reproduce run()'s fingerprint.
  virtual std::optional<GroupResult> compose(std::uint64_t /*seed*/,
                                             std::uint64_t /*index*/,
                                             LayerExtras* /*extras*/) {
    return std::nullopt;
  }
};

std::unique_ptr<Workload> make_paper_matrix();
std::unique_ptr<Workload> make_campaign_lossy();
std::unique_ptr<Workload> make_passive_bulk();

}  // namespace perfbench
