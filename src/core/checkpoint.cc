#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/prof.h"

namespace bnm::core {
namespace {

using obs::json::Value;

// ---------------------------------------------------------------------------
// Config hashing: Fnv (checkpoint.h) over every behaviour-affecting field.

void hash_fault_plan(Fnv& h, const std::optional<net::FaultPlan>& plan) {
  h.b(plan.has_value());
  if (!plan) return;
  h.str(plan->name);
  h.f64(plan->loss_probability);
  h.b(plan->bursty_loss.has_value());
  if (plan->bursty_loss) {
    h.f64(plan->bursty_loss->p_good_to_bad);
    h.f64(plan->bursty_loss->p_bad_to_good);
    h.f64(plan->bursty_loss->loss_good);
    h.f64(plan->bursty_loss->loss_bad);
  }
  h.f64(plan->corrupt_probability);
  h.f64(plan->duplicate_probability);
  h.u64(plan->blackholes.size());
  for (const net::TimeWindow& w : plan->blackholes) {
    h.tp(w.begin);
    h.tp(w.end);
  }
  h.u64(plan->flaps.size());
  for (const net::TimeWindow& w : plan->flaps) {
    h.tp(w.begin);
    h.tp(w.end);
  }
  h.u64(plan->drop_data_segments.size());
  for (std::uint64_t n : plan->drop_data_segments) h.u64(n);
  h.u64(plan->max_events);
}

void hash_testbed(Fnv& h, const Testbed::Config& t) {
  h.u64(t.seed);
  h.dur(t.server_delay);
  h.f64(t.bandwidth_bps);
  h.dur(t.link_propagation);
  h.dur(t.capture_jitter);
  h.u64(static_cast<std::uint64_t>(t.client_os));
  h.u64(t.http_port);
  h.u64(t.tcp_echo_port);
  h.u64(t.udp_echo_port);
  h.u64(t.ws_port);
  h.f64(t.link_loss_probability);
  h.dur(t.server_jitter);
  h.b(t.allow_reorder);
  h.f64(t.cross_traffic_mbps);
  const net::TcpConfig& tcp = t.tcp;
  h.u64(tcp.mss);
  h.u64(tcp.send_window);
  h.dur(tcp.delayed_ack);
  h.dur(tcp.rto_initial);
  h.dur(tcp.rto_max);
  h.u64(tcp.max_retransmissions);
  h.u64(tcp.dupack_threshold);
  h.b(tcp.congestion_control);
  h.u64(tcp.initial_cwnd_segments);
  h.dur(tcp.time_wait);
  hash_fault_plan(h, t.faults_to_server);
  hash_fault_plan(h, t.faults_from_server);
}

// ---------------------------------------------------------------------------
// JSON helpers.

/// Accept both number encodings: dump() writes an integral-valued double as
/// "3" (%.17g), which parses back as kInt — both must read as the same value.
bool read_number(const Value* v, double* out) {
  if (!v) return false;
  if (v->type() == Value::Type::kDouble) {
    *out = v->as_double();
    return true;
  }
  if (v->type() == Value::Type::kInt) {
    *out = static_cast<double>(v->as_int());
    return true;
  }
  return false;
}

bool read_int(const Value* v, std::int64_t* out) {
  if (!v || v->type() != Value::Type::kInt) return false;
  *out = v->as_int();
  return true;
}

bool read_string(const Value* v, std::string* out) {
  if (!v || v->type() != Value::Type::kString) return false;
  *out = v->as_string();
  return true;
}

/// Error strings pass through escape() -> parse_string_raw(); the parser's
/// \u decoding is lossy, so control characters would break the byte-identity
/// contract. Sanitize them once at serialization time — both the clean run's
/// report and the resumed run's then agree byte for byte.
std::string printable(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return out;
}

Value sample_to_json(const OverheadSample& s) {
  Value a = Value::array();
  a.push(Value::number(s.d1_ms));
  a.push(Value::number(s.d2_ms));
  a.push(Value::number(s.browser_rtt1_ms));
  a.push(Value::number(s.browser_rtt2_ms));
  a.push(Value::number(s.net_rtt1_ms));
  a.push(Value::number(s.net_rtt2_ms));
  a.push(Value::integer(s.connections_opened1));
  a.push(Value::integer(s.connections_opened2));
  return a;
}

bool sample_from_json(const Value& v, OverheadSample* out) {
  if (v.type() != Value::Type::kArray || v.items().size() != 8) return false;
  const auto& it = v.items();
  std::int64_t co1 = 0, co2 = 0;
  if (!read_number(&it[0], &out->d1_ms) || !read_number(&it[1], &out->d2_ms) ||
      !read_number(&it[2], &out->browser_rtt1_ms) ||
      !read_number(&it[3], &out->browser_rtt2_ms) ||
      !read_number(&it[4], &out->net_rtt1_ms) ||
      !read_number(&it[5], &out->net_rtt2_ms) || !read_int(&it[6], &co1) ||
      !read_int(&it[7], &co2)) {
    return false;
  }
  out->connections_opened1 = static_cast<int>(co1);
  out->connections_opened2 = static_cast<int>(co2);
  return true;
}

// --- metrics (docs/OBSERVABILITY.md catalog) -------------------------------

const obs::Counter& cells_written_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "checkpoint.cells_written", "cells",
      "completed cells recorded in a matrix checkpoint");
  return c;
}

const obs::Counter& flushes_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "checkpoint.flushes", "flushes",
      "atomic matrix-checkpoint rewrites (temp file + rename)");
  return c;
}

const obs::Counter& bytes_written_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "checkpoint.bytes_written", "bytes",
      "matrix-checkpoint JSON bytes persisted across all flushes");
  return c;
}

CheckpointFormat matrix_format(std::size_t total_cells) {
  CheckpointFormat f;
  f.header = Value::object();
  f.header.add("format", Value::string(kCheckpointFormat));
  f.header.add("version", Value::integer(kCheckpointVersion));
  f.header.add("cells", Value::integer(static_cast<std::int64_t>(total_cells)));
  f.trailing_newline = true;
  f.records_added = &cells_written_counter();
  f.flushes = &flushes_counter();
  f.bytes_written = &bytes_written_counter();
  return f;
}

Value matrix_record(std::size_t cell, const std::string& config_hash,
                    const OverheadSeries& series) {
  Value r = Value::object();
  r.add("cell", Value::integer(static_cast<std::int64_t>(cell)));
  r.add("config_hash", Value::string(config_hash));
  r.add("series", series_to_json(series));
  return r;
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool write_ok = n == contents.size() && std::fclose(f) == 0;
  if (!write_ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<std::string> read_file_contents(const std::string& path,
                                              std::size_t max_bytes,
                                              std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what;
    return std::nullopt;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return fail("cannot read " + path);
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while (out.size() <= max_bytes &&
         (n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, n);
  }
  const bool err = std::ferror(f) != 0;
  long size = -1;
  if (out.size() > max_bytes && std::fseek(f, 0, SEEK_END) == 0) {
    size = std::ftell(f);
  }
  std::fclose(f);
  if (err) return fail("cannot read " + path);
  if (out.size() > max_bytes) {
    return fail(path + " is " + std::to_string(size) + " bytes, over the " +
                std::to_string(max_bytes) + "-byte limit for this run");
  }
  return out;
}

std::size_t matrix_checkpoint_limit(
    const std::vector<ExperimentConfig>& cells) {
  // A record's labels, hash, counters and first_error fit in 4 KiB; a
  // repetition is 8 numbers of at most 25 characters plus separators.
  constexpr std::size_t kRecordBytes = 4096;
  constexpr std::size_t kSampleBytes = 8 * 26 + 2;
  std::size_t limit = kRecordBytes;  // header
  for (const ExperimentConfig& cell : cells) {
    limit += kRecordBytes +
             kSampleBytes * static_cast<std::size_t>(std::max(cell.runs, 0));
  }
  return limit;
}

std::uint64_t cell_config_hash(const ExperimentConfig& config) {
  Fnv h;
  h.u64(static_cast<std::uint64_t>(config.browser));
  h.u64(static_cast<std::uint64_t>(config.os));
  h.u64(static_cast<std::uint64_t>(config.kind));
  h.i64(config.runs);
  h.u64(config.seed);
  h.b(config.java_use_nanotime);
  h.b(config.java_via_appletviewer);
  h.b(config.js_use_performance_now);
  // custom_profile is hashed shallowly: presence, label, capability flags.
  // The numeric overhead tables inside are calibration data; callers that
  // swap them between runs must also change the label (see checkpoint.h).
  h.b(config.custom_profile.has_value());
  if (config.custom_profile) {
    const browser::BrowserProfile& p = *config.custom_profile;
    h.str(p.label());
    h.b(p.supports_websocket);
    h.b(p.supports_flash);
    h.b(p.supports_java);
    h.b(p.supports_performance_now);
    h.str(p.flash_version);
    h.str(p.java_version);
    h.str(p.browser_version);
  }
  h.dur(config.inter_run_gap_min);
  h.dur(config.inter_run_gap_max);
  h.dur(config.sample_deadline);
  h.dur(config.http_request_timeout);
  h.i64(config.http_max_retries);
  h.dur(config.http_retry_backoff);
  h.dur(config.probe_timeout);
  hash_testbed(h, config.testbed);
  return h.value();
}

std::string cell_config_hash_hex(const ExperimentConfig& config) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(cell_config_hash(config)));
  return buf;
}

obs::json::Value series_to_json(const OverheadSeries& series) {
  Value v = Value::object();
  v.add("case_label", Value::string(series.case_label));
  v.add("method_name", Value::string(series.method_name));
  v.add("failures", Value::integer(series.failures));
  v.add("first_error", Value::string(printable(series.first_error)));
  Value acc = Value::object();
  acc.add("timeouts", Value::integer(series.accounting.timeouts));
  acc.add("transport_errors",
          Value::integer(series.accounting.transport_errors));
  acc.add("degraded", Value::integer(series.accounting.degraded));
  acc.add("http_retries",
          Value::integer(static_cast<std::int64_t>(
              series.accounting.http_retries)));
  acc.add("http_timeouts",
          Value::integer(static_cast<std::int64_t>(
              series.accounting.http_timeouts)));
  v.add("accounting", std::move(acc));
  Value samples = Value::array();
  for (const OverheadSample& s : series.samples) {
    samples.push(sample_to_json(s));
  }
  v.add("samples", std::move(samples));
  return v;
}

std::optional<OverheadSeries> series_from_json(const obs::json::Value& v) {
  if (v.type() != Value::Type::kObject) return std::nullopt;
  OverheadSeries out;
  std::int64_t failures = 0;
  if (!read_string(v.find("case_label"), &out.case_label) ||
      !read_string(v.find("method_name"), &out.method_name) ||
      !read_int(v.find("failures"), &failures) ||
      !read_string(v.find("first_error"), &out.first_error)) {
    return std::nullopt;
  }
  out.failures = static_cast<int>(failures);
  const Value* acc = v.find("accounting");
  if (!acc || acc->type() != Value::Type::kObject) return std::nullopt;
  std::int64_t timeouts = 0, transport = 0, degraded = 0, retries = 0,
               http_timeouts = 0;
  if (!read_int(acc->find("timeouts"), &timeouts) ||
      !read_int(acc->find("transport_errors"), &transport) ||
      !read_int(acc->find("degraded"), &degraded) ||
      !read_int(acc->find("http_retries"), &retries) ||
      !read_int(acc->find("http_timeouts"), &http_timeouts)) {
    return std::nullopt;
  }
  out.accounting.timeouts = static_cast<int>(timeouts);
  out.accounting.transport_errors = static_cast<int>(transport);
  out.accounting.degraded = static_cast<int>(degraded);
  out.accounting.http_retries = static_cast<std::uint64_t>(retries);
  out.accounting.http_timeouts = static_cast<std::uint64_t>(http_timeouts);
  const Value* samples = v.find("samples");
  if (!samples || samples->type() != Value::Type::kArray) return std::nullopt;
  out.samples.reserve(samples->items().size());
  for (const Value& s : samples->items()) {
    OverheadSample sample;
    if (!sample_from_json(s, &sample)) return std::nullopt;
    out.samples.push_back(sample);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer.

CheckpointWriter::CheckpointWriter(std::string path, CheckpointFormat format,
                                   int flush_every)
    : path_{std::move(path)},
      head_{format.header.dump()},
      format_{std::move(format)},
      flush_every_{flush_every < 1 ? 1 : flush_every} {
  head_.pop_back();  // reopen the header object: "records" follows
}

CheckpointWriter::CheckpointWriter(std::string path, std::size_t total_cells,
                                   int flush_every)
    : CheckpointWriter{std::move(path), matrix_format(total_cells),
                       flush_every} {}

void CheckpointWriter::add(std::size_t task, obs::json::Value record) {
  std::string encoded = record.dump();
  bool do_flush = false;
  {
    std::lock_guard<std::mutex> lock{mu_};
    records_.insert_or_assign(task, std::move(encoded));
    if (++unflushed_ >= flush_every_) {
      unflushed_ = 0;
      do_flush = true;
    }
  }
  if (format_.records_added) format_.records_added->add();
  if (do_flush) flush();
}

void CheckpointWriter::add(std::size_t cell, const ExperimentConfig& config,
                           const OverheadSeries& series) {
  add(cell, matrix_record(cell, cell_config_hash_hex(config), series));
}

void CheckpointWriter::preload(std::size_t task, obs::json::Value record) {
  std::string encoded = record.dump();
  std::lock_guard<std::mutex> lock{mu_};
  records_.insert_or_assign(task, std::move(encoded));
}

void CheckpointWriter::preload(std::size_t cell,
                               const std::string& config_hash,
                               const OverheadSeries& series) {
  preload(cell, matrix_record(cell, config_hash, series));
}

std::size_t CheckpointWriter::records() const {
  std::lock_guard<std::mutex> lock{mu_};
  return records_.size();
}

bool CheckpointWriter::flush_pending() {
  {
    std::lock_guard<std::mutex> lock{mu_};
    if (unflushed_ == 0) return true;
  }
  return flush();
}

bool CheckpointWriter::flush() {
  BNM_PROF_SCOPE("checkpoint.flush");
  // Byte-for-byte what dump() of the whole document would produce; the
  // records were encoded once, at add(), so a rewrite only concatenates.
  std::string contents = head_;
  contents += ",\"records\":[";
  {
    std::lock_guard<std::mutex> lock{mu_};
    unflushed_ = 0;
    bool first = true;
    for (const auto& [task, encoded] : records_) {  // std::map: by task
      if (!first) contents += ',';
      first = false;
      contents += encoded;
    }
  }
  contents += "]}";
  if (format_.trailing_newline) contents += '\n';
  if (!write_file_atomic(path_, contents)) return false;
  if (format_.flushes) format_.flushes->add();
  if (format_.bytes_written) format_.bytes_written->add(contents.size());
  return true;
}

// ---------------------------------------------------------------------------
// Reader.

std::optional<CheckpointReader> CheckpointReader::load(const std::string& path,
                                                       std::size_t max_bytes,
                                                       std::string* error) {
  const auto set_error = [&](const std::string& what) {
    if (error) *error = what;
  };
  std::optional<std::string> text = read_file_contents(path, max_bytes, error);
  if (!text) return std::nullopt;
  std::string parse_error;
  std::optional<Value> doc = obs::json::parse(*text, &parse_error);
  if (!doc || doc->type() != Value::Type::kObject) {
    set_error("not a JSON object: " + parse_error);
    return std::nullopt;
  }
  std::string format;
  std::int64_t version = 0, cells = 0;
  if (!read_string(doc->find("format"), &format) ||
      format != kCheckpointFormat) {
    set_error("missing/unknown format marker");
    return std::nullopt;
  }
  if (!read_int(doc->find("version"), &version) ||
      version != kCheckpointVersion) {
    set_error("unsupported checkpoint version");
    return std::nullopt;
  }
  if (!read_int(doc->find("cells"), &cells) || cells < 0) {
    set_error("missing cell count");
    return std::nullopt;
  }
  const Value* records = doc->find("records");
  if (!records || records->type() != Value::Type::kArray) {
    set_error("missing records array");
    return std::nullopt;
  }
  CheckpointReader reader;
  reader.total_cells_ = static_cast<std::size_t>(cells);
  for (const Value& r : records->items()) {
    if (r.type() != Value::Type::kObject) {
      set_error("malformed record");
      return std::nullopt;
    }
    std::int64_t cell = 0;
    CheckpointRecord rec;
    const Value* series = r.find("series");
    if (!read_int(r.find("cell"), &cell) || cell < 0 ||
        !read_string(r.find("config_hash"), &rec.config_hash) || !series) {
      set_error("malformed record");
      return std::nullopt;
    }
    std::optional<OverheadSeries> parsed = series_from_json(*series);
    if (!parsed) {
      set_error("malformed series in record");
      return std::nullopt;
    }
    rec.cell = static_cast<std::size_t>(cell);
    rec.series = std::move(*parsed);
    reader.records_[rec.cell] = std::move(rec);
  }
  return reader;
}

const OverheadSeries* CheckpointReader::lookup(
    std::size_t cell, const ExperimentConfig& config) const {
  auto it = records_.find(cell);
  if (it == records_.end()) return nullptr;
  if (it->second.config_hash != cell_config_hash_hex(config)) return nullptr;
  return &it->second.series;
}

// ---------------------------------------------------------------------------
// Canonical matrix report.

std::string matrix_report_json(const std::vector<ExperimentConfig>& cells,
                               const std::vector<OverheadSeries>& results) {
  Value root = Value::object();
  root.add("format", Value::string("bnm-matrix-report"));
  root.add("version", Value::integer(1));
  root.add("cells", Value::integer(static_cast<std::int64_t>(cells.size())));
  Value out = Value::array();
  const std::size_t n = cells.size() < results.size() ? cells.size()
                                                      : results.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push(matrix_record(i, cell_config_hash_hex(cells[i]), results[i]));
  }
  root.add("results", std::move(out));
  std::string text = root.dump();
  text += '\n';
  return text;
}

bool write_matrix_report(const std::string& path,
                         const std::vector<ExperimentConfig>& cells,
                         const std::vector<OverheadSeries>& results) {
  return write_file_atomic(path, matrix_report_json(cells, results));
}

}  // namespace bnm::core
