#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Counts registry_counts() {
  Counts out;
  for (const bnm::obs::MetricValue& m :
       bnm::obs::MetricsRegistry::instance().snapshot().metrics) {
    if (m.kind == bnm::obs::MetricKind::kCounter) {
      out[m.name] = m.value;
    } else if (m.kind == bnm::obs::MetricKind::kHistogram) {
      out[m.name] = m.value;
      out[m.name + ".sum"] = m.sum;
    }
  }
  return out;
}

std::uint64_t registry_gauge(std::string_view name) {
  const bnm::obs::MetricsSnapshot snap =
      bnm::obs::MetricsRegistry::instance().snapshot();
  const bnm::obs::MetricValue* m = snap.find(name);
  return m != nullptr ? m->value : 0;
}

Counts delta(const Counts& after, const Counts& before) {
  Counts out;
  for (const auto& [name, value] : after) {
    out[name] = value - count_of(before, name);
  }
  return out;
}

std::uint64_t count_of(const Counts& counts, std::string_view name) {
  const auto it = counts.find(std::string{name});
  return it == counts.end() ? 0 : it->second;
}

std::uint64_t count_prefix(const Counts& counts, std::string_view prefix) {
  std::uint64_t sum = 0;
  for (auto it = counts.lower_bound(std::string{prefix});
       it != counts.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += it->second;
  }
  return sum;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

std::size_t SpanRecorder::open(const char* name, std::uint64_t unit) {
  Span s;
  s.name = name;
  s.unit = unit;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t id) {
  spans_[id].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::add(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t unit) {
  Span s;
  s.name = name;
  s.unit = unit;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

namespace {

/// Self time of every span: its duration minus the union of its children's
/// intervals (children of one parent may overlap when they ran on a pool).
std::vector<double> self_times(const std::vector<SpanRecorder::Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      iv.emplace_back(spans[c].start_ns, spans[c].end_ns);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t from = std::max(a, reach);
      const std::int64_t to = std::min(b, spans[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, b);
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered);
  }
  return self;
}

}  // namespace

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  const std::vector<double> self = self_times(spans_);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    t.self_ns += self[i];
  }
  return out;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_times(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 ",\"parent\":%" PRId64
                 ",\"unit\":%" PRIu64 ",\"self_ns\":%.0f}\n",
                 i, s.name, s.start_ns, s.end_ns, s.parent, s.unit, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
