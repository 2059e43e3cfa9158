// The benchmark program. perfbench/run.py builds it and runs it; it runs
// one workload and prints one JSON line with everything the run measured.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --default-seed N --held-out-seed N
//             [--t0-ns NS] [--setup-only] [--spans-out PATH]
//
// --trace 0 times groups of the workload back to back for S seconds, runs
// the reference kernel (reference.cpp) after each, and reports the
// end-to-end metrics in host time and in reference time. --trace 1
// alternates an untraced group with the same group traced (profiling
// scopes on, spans around every public call) and reports the per-layer
// metrics. --t0-ns is the
// CLOCK_MONOTONIC time at which the caller spawned the process, so that
// setup time counts from process start.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "reference.h"

namespace perfbench {
namespace {

using bnm::obs::json::Value;

constexpr int kCampaignWorkers = 4;
/// The reference kernel's time on the gate box in its usual state (see
/// README.md). Host times are scaled by kReferenceMs / the kernel's time
/// measured next to them, so one reference second is about one host
/// second there.
constexpr double kReferenceMs = 6.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::uint64_t default_seed = 0;
  std::uint64_t held_out_seed = 0;
  std::int64_t t0_ns = 0;
  bool setup_only = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_matrix|campaign_lossy|passive_bulk --seed N --seconds S "
               "--trace 0|1 --default-seed N --held-out-seed N [--t0-ns NS] "
               "[--setup-only] [--spans-out PATH]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("expected an unsigned integer");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false,
       have_default = false, have_held_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = parse_u64(v) != 0;
      have_trace = true;
    } else if (flag == "--default-seed") {
      a.default_seed = parse_u64(v);
      have_default = true;
    } else if (flag == "--held-out-seed") {
      a.held_out_seed = parse_u64(v);
      have_held_out = true;
    } else if (flag == "--t0-ns") {
      a.t0_ns = static_cast<std::int64_t>(parse_u64(v));
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage("unknown flag");
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      !have_default || !have_held_out) {
    usage("missing a required flag");
  }
  return a;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of this process image. getrusage's ru_maxrss is not
/// used: Linux carries it across execve, so it would report the spawning
/// parent's peak whenever that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Raw integer throughput of `threads` spinning cores, in million loop
/// iterations per second: what the box can give a CPU-bound pool. Each
/// thread spins for about a quarter second; shorter bursts mostly measure
/// how long the VM takes to wake idle vCPUs.
double spin_mops(int threads) {
  constexpr std::uint64_t kIters = 160'000'000;
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads) * 8);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      for (std::uint64_t i = 0; i < kIters; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sinks[static_cast<std::size_t>(t) * 8] = x;
    });
  }
  const Clock::time_point t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  const double s = ms_between(t0, Clock::now()) / 1e3;
  std::uint64_t keep = 0;
  for (const std::uint64_t v : sinks) keep ^= v;
  if (keep == 42) std::fputs("", stderr);  // keeps the loops observable
  return static_cast<double>(kIters) * threads / s / 1e6;
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

Value environment_block() {
  const double one = spin_mops(1);
  const double many = spin_mops(kCampaignWorkers);
  Value env = Value::object();
  env.add("nproc", Value::integer(std::thread::hardware_concurrency()));
  env.add("cpus_allowed",
          Value::integer(static_cast<std::int64_t>(allowed_cpus().size())));
  env.add("build_type", Value::string(PERFBENCH_BUILD_TYPE));
  env.add("spin_mops_1", Value::number(one));
  env.add("spin_workers", Value::integer(kCampaignWorkers));
  env.add("spin_mops_workers", Value::number(many));
  env.add("spin_speedup", Value::number(ratio(many, one)));
  return env;
}

struct Checks {
  std::vector<std::string> problems;
  std::string default_fingerprint;
  std::string held_out_fingerprint;
};

/// The output checks every run makes after its timed part: the default
/// seed's fingerprint (compared against the committed one by run.py), the
/// run's own first group again, and the held-out seed twice — fingerprints
/// and registry counter deltas must repeat exactly.
Checks run_checks(Workload& w, const Args& a, const GroupResult& first) {
  Checks c;
  if (a.seed == a.default_seed) {
    c.default_fingerprint = hex64(first.fingerprint);
  } else {
    const GroupResult d = w.run(a.default_seed, 0);
    if (!d.problem.empty()) c.problems.push_back("default seed: " + d.problem);
    c.default_fingerprint = hex64(d.fingerprint);
  }
  if (w.run(a.seed, 0).fingerprint != first.fingerprint) {
    c.problems.push_back("group 0 did not repeat its fingerprint");
  }
  const Counts c0 = registry_counts();
  const GroupResult h1 = w.run(a.held_out_seed, 0);
  const Counts c1 = registry_counts();
  const GroupResult h2 = w.run(a.held_out_seed, 0);
  const Counts c2 = registry_counts();
  if (h1.fingerprint != h2.fingerprint) {
    c.problems.push_back("held-out seed did not repeat its fingerprint");
  }
  if (delta(c1, c0) != delta(c2, c1)) {
    c.problems.push_back("held-out seed did not repeat its counters");
  }
  if (!h1.problem.empty()) c.problems.push_back("held-out seed: " + h1.problem);
  c.held_out_fingerprint = hex64(h1.fingerprint);
  return c;
}

Value timed_run(Workload& w, const Args& a, Value out) {
  // Serial groups rotate over the vCPUs: on a shared VM their speeds can
  // differ by 40% at the same moment, and a run should average over them
  // rather than read whichever one the scheduler picked.
  const std::vector<int> cpus = w.serial() ? allowed_cpus() : std::vector<int>{};
  const int threads = w.serial() ? 1 : kCampaignWorkers;
  std::vector<double> rates, batch_ms, ref_rates, ref_batch_ms, ref_ms;
  std::uint64_t groups = 0, units = 0, bad_units = 0, sim_attempted = 0,
                sim_failed = 0;
  GroupResult first;
  std::vector<std::string> problems;
  const Clock::time_point start = Clock::now();
  double wall_s = 0;
  do {
    if (cpus.size() > 1) set_affinity({cpus[groups % cpus.size()]});
    const Clock::time_point t0 = Clock::now();
    GroupResult g = w.run(a.seed, groups);
    const double rate = static_cast<double>(g.units) /
                        (ms_between(t0, Clock::now()) / 1e3);
    // Right after the group, on the same vCPU(s): the machine's speed for
    // this kind of code at this moment, as a factor against kReferenceMs.
    const double kernel_ms = reference_ms(threads);
    const double slow = kernel_ms / kReferenceMs;
    ref_ms.push_back(kernel_ms);
    rates.push_back(rate);
    ref_rates.push_back(rate * slow);
    batch_ms.insert(batch_ms.end(), g.batch_ms.begin(), g.batch_ms.end());
    for (const double b : g.batch_ms) ref_batch_ms.push_back(b / slow);
    units += g.units;
    sim_attempted += g.sim_attempted;
    sim_failed += g.sim_failed;
    if (!g.problem.empty()) {
      bad_units += g.units;
      problems.push_back(g.problem);
    }
    if (groups++ == 0) first = std::move(g);
    wall_s = ms_between(start, Clock::now()) / 1e3;
  } while (wall_s < a.seconds);
  const double rss = peak_rss_mb();
  if (cpus.size() > 1) set_affinity(cpus);

  const Checks checks = run_checks(w, a, first);
  problems.insert(problems.end(), checks.problems.begin(),
                  checks.problems.end());
  if (!checks.problems.empty()) bad_units = units;

  const double failed_share = ratio(static_cast<double>(sim_failed),
                                    static_cast<double>(sim_attempted));
  Value m = Value::object();
  m.add("units_per_s", Value::number(percentile(rates, 0.50)));
  m.add("batch_ms_p50", Value::number(percentile(batch_ms, 0.50)));
  m.add("batch_ms_p90", Value::number(percentile(batch_ms, 0.90)));
  m.add("batch_ms_p95", Value::number(percentile(batch_ms, 0.95)));
  m.add("units_per_ref_s", Value::number(percentile(ref_rates, 0.50)));
  m.add("batch_ref_ms_p50", Value::number(percentile(ref_batch_ms, 0.50)));
  m.add("batch_ref_ms_p90", Value::number(percentile(ref_batch_ms, 0.90)));
  m.add("reference_ms_p50", Value::number(percentile(ref_ms, 0.50)));
  m.add("peak_rss_mb", Value::number(rss));
  m.add("completed_share", Value::number(1.0 - failed_share));
  m.add("failed_share", Value::number(failed_share));
  out.add("metrics", std::move(m));

  Value n = Value::object();
  n.add("groups", Value::integer(static_cast<std::int64_t>(groups)));
  n.add("batches", Value::integer(static_cast<std::int64_t>(batch_ms.size())));
  n.add("units", Value::integer(static_cast<std::int64_t>(units)));
  n.add("sim_attempted", Value::integer(static_cast<std::int64_t>(sim_attempted)));
  n.add("sim_failed", Value::integer(static_cast<std::int64_t>(sim_failed)));
  n.add("wall_s", Value::number(wall_s));
  n.add("reference_ms", Value::number(kReferenceMs));
  out.add("samples", std::move(n));
  out.add("attempted", Value::integer(static_cast<std::int64_t>(units)));
  out.add("failed", Value::integer(static_cast<std::int64_t>(bad_units)));
  out.add("default_fingerprint", Value::string(checks.default_fingerprint));
  out.add("held_out_fingerprint", Value::string(checks.held_out_fingerprint));
  Value p = Value::array();
  for (const std::string& s : problems) p.push(Value::string(s));
  out.add("problems", std::move(p));
  return out;
}

/// Sites whose scopes enclose others; the rest are the named scopes whose
/// share of experiment.repetition is the profile's coverage.
bool is_container_site(const std::string& name) {
  return name == "experiment.repetition" || name == "matrix.cell" ||
         name == "campaign.run" || name == "campaign.checkpoint_flush" ||
         name == "checkpoint.flush";
}

Value traced_run(Workload& w, const Args& a, Value out) {
  namespace prof = bnm::obs::prof;
  LayerExtras extras;
  GroupResult first;
  Counts first_counts;
  std::uint64_t arena_peak = 0, units_u = 0, units_t = 0, batches_t = 0,
                rounds = 0, events_u = 0;
  double wall_u_ms = 0, wall_t_ms = 0;
  std::vector<std::string> problems;
  prof::reset();
  bnm::obs::MetricsRegistry::instance().reset();
  const Clock::time_point start = Clock::now();
  do {
    const Counts before = registry_counts();
    Clock::time_point t0 = Clock::now();
    const GroupResult u = w.run(a.seed, rounds);
    wall_u_ms += ms_between(t0, Clock::now());
    const Counts counts = delta(registry_counts(), before);
    events_u += count_of(counts, "scheduler.events");
    units_u += u.units;
    if (rounds == 0) {
      first = u;
      first_counts = counts;
      arena_peak = registry_gauge("arena.peak_bytes");
    }

    prof::set_enabled(true);
    recorder().set_enabled(true);
    t0 = Clock::now();
    const GroupResult t = w.run_traced(a.seed, rounds, &extras);
    {
      SpanScope s{"obs.snapshot", rounds};
      bnm::obs::MetricsRegistry::instance().snapshot();
    }
    wall_t_ms += ms_between(t0, Clock::now());
    prof::set_enabled(false);
    units_t += t.units;
    batches_t += t.batch_ms.size();

    // One composed group gives thousands of per-call spans; composing
    // every round would only grow the span file.
    const std::optional<GroupResult> c =
        rounds == 0 ? w.compose(a.seed, rounds, &extras) : std::nullopt;
    recorder().set_enabled(false);

    for (const GroupResult* g : {&u, &t, c ? &*c : nullptr}) {
      if (g == nullptr) continue;
      if (!g->problem.empty()) problems.push_back(g->problem);
      if (g->fingerprint != u.fingerprint) {
        problems.push_back("traced or composed group " +
                           std::to_string(rounds) +
                           " did not reproduce the untraced fingerprint");
      }
    }
    ++rounds;
  } while (ms_between(start, Clock::now()) / 1e3 < a.seconds);

  std::map<std::string, double> site_ns;
  for (const prof::ProfEntry& e : prof::report()) {
    site_ns[e.name] = static_cast<double>(e.total_ns);
  }
  const auto site_ms_per_batch = [&](const char* name) {
    return ratio(site_ns[name] / 1e6, static_cast<double>(batches_t));
  };
  double scoped_ns = 0;
  for (const auto& [name, ns] : site_ns) {
    if (!is_container_site(name)) scoped_ns += ns;
  }
  const std::map<std::string, SpanRecorder::Totals> spans = recorder().totals();
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanRecorder::Totals{} : it->second;
  };
  const auto span_mean = [&](const char* name, double scale_ns) {
    const SpanRecorder::Totals t = span(name);
    return ratio(t.total_ns / scale_ns, static_cast<double>(t.count));
  };
  const auto span_ns_per_packet = [&](const char* name) {
    return ratio(span(name).total_ns, static_cast<double>(units_t));
  };
  const auto per_unit = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(first.units));
  };
  const auto c = [&](const char* name) { return count_of(first_counts, name); };

  Value m = Value::object();
  const auto put = [&](const char* name, double v) {
    m.add(name, Value::number(v));
  };
  // sim
  put("sim.events_per_unit", per_unit(c("scheduler.events")));
  put("sim.events_per_batch", ratio(static_cast<double>(c("scheduler.events")),
                                    static_cast<double>(c("scheduler.batches"))));
  put("sim.overflow_pulls_per_unit", per_unit(c("scheduler.overflow_pulls")));
  put("sim.host_ns_per_event",
      ratio(wall_u_ms * 1e6, static_cast<double>(events_u)));
  put("sim.dispatch_ms", site_ms_per_batch("scheduler.dispatch"));
  put("sim.arena_allocs_per_unit", per_unit(c("arena.allocations")));
  put("sim.arena_peak_bytes", static_cast<double>(arena_peak));
  // net
  put("net.captured_packets_per_unit",
      ratio(static_cast<double>(extras.captured_packets),
            static_cast<double>(units_t)));
  put("net.payload_buffers_per_unit", per_unit(c("payload.buffers_allocated")));
  put("net.payload_copy_bytes_per_unit", per_unit(c("payload.deep_copy_bytes")));
  put("net.payload_alias_bytes_per_unit", per_unit(c("payload.aliased_bytes")));
  put("net.fault_drops_per_unit", per_unit(count_prefix(first_counts, "fault.")));
  put("net.tcp_segmentation_ms", site_ms_per_batch("tcp.segmentation"));
  put("net.pcap_write_ns_per_packet", span_ns_per_packet("pcap.write"));
  put("net.pcap_read_ns_per_packet", span_ns_per_packet("pcap.read"));
  // http
  put("http.connections_per_unit", per_unit(c("http.connections_opened")));
  put("http.retries_per_unit", per_unit(c("http.request_retries")));
  put("http.timeouts_per_unit", per_unit(c("http.request_timeouts")));
  put("http.failures_per_unit", per_unit(c("http.request_failures")));
  // methods
  put("methods.stamp_ms", site_ms_per_batch("method.stamp"));
  // core
  put("core.experiment_ctor_us", span_mean("experiment.ctor", 1e3));
  put("core.experiment_run_ms", span_mean("experiment.run", 1e6));
  put("core.repetition_ms", site_ms_per_batch("experiment.repetition"));
  put("core.window_scan_ms", site_ms_per_batch("experiment.window_scan"));
  put("core.prof_coverage", ratio(scoped_ns, site_ns["experiment.repetition"]));
  put("core.sample_yield", ratio(static_cast<double>(c("experiment.samples")),
                                 static_cast<double>(c("experiment.runs"))));
  put("core.failures_per_unit",
      per_unit(c("experiment.timeouts") + c("experiment.transport_errors") +
               c("experiment.degraded") + c("campaign.client_failures")));
  put("core.report_ms", span_mean("core.report", 1e6));
  put("core.campaign.config_us", span_mean("campaign.config", 1e3));
  put("core.campaign.fold_us", span_mean("campaign.fold", 1e3));
  put("core.campaign.merge_ms",
      ratio(span("campaign.merge").total_ns / 1e6,
            static_cast<double>(span("campaign.composed").count)));
  put("core.campaign.pool_busy_share",
      ratio(extras.pool_busy_ns, extras.pool_capacity_ns));
  // stats
  put("stats.box_us_per_cell", span_mean("stats.box", 1e3));
  put("stats.sketch_bytes", extras.sketch_bytes);
  // obs
  put("obs.snapshot_ms", span_mean("obs.snapshot", 1e6));
  put("obs.trace_overhead_share", ratio(wall_t_ms, wall_u_ms) - 1.0);
  // passive
  put("passive.live_ns_per_packet", span_ns_per_packet("passive.live"));
  put("passive.offline_ns_per_packet", span_ns_per_packet("passive.offline"));
  put("passive.report_ms", span_mean("passive.report", 1e6));
  put("passive.sample_yield", ratio(static_cast<double>(c("passive.samples")),
                                    static_cast<double>(c("passive.ts_packets"))));
  put("passive.anchors_per_packet",
      ratio(static_cast<double>(c("passive.anchors")),
            static_cast<double>(c("passive.packets_scanned"))));
  put("passive.poisoned_per_unit", per_unit(c("passive.retransmit_poisoned")));
  out.add("per_layer", std::move(m));

  Value n = Value::object();
  n.add("rounds", Value::integer(static_cast<std::int64_t>(rounds)));
  n.add("units_untraced", Value::integer(static_cast<std::int64_t>(units_u)));
  n.add("units_traced", Value::integer(static_cast<std::int64_t>(units_t)));
  n.add("batches_traced", Value::integer(static_cast<std::int64_t>(batches_t)));
  n.add("spans", Value::integer(static_cast<std::int64_t>(recorder().spans().size())));
  n.add("wall_untraced_ms", Value::number(wall_u_ms));
  n.add("wall_traced_ms", Value::number(wall_t_ms));
  out.add("samples", std::move(n));

  Value self = Value::object();
  for (const auto& [name, t] : spans) {
    Value s = Value::object();
    s.add("count", Value::integer(static_cast<std::int64_t>(t.count)));
    s.add("total_ms", Value::number(t.total_ns / 1e6));
    s.add("self_ms", Value::number(t.self_ns / 1e6));
    self.add(name, std::move(s));
  }
  out.add("spans", std::move(self));
  Value sites = Value::object();
  for (const auto& [name, ns] : site_ns) sites.add(name, Value::number(ns / 1e6));
  out.add("prof_ms", std::move(sites));

  if (!a.spans_out.empty() && !recorder().write_jsonl(a.spans_out)) {
    problems.push_back("cannot write " + a.spans_out);
  }
  const Checks checks = run_checks(w, a, first);
  problems.insert(problems.end(), checks.problems.begin(),
                  checks.problems.end());
  out.add("default_fingerprint", Value::string(checks.default_fingerprint));
  out.add("held_out_fingerprint", Value::string(checks.held_out_fingerprint));
  out.add("attempted", Value::integer(static_cast<std::int64_t>(units_u)));
  out.add("failed",
          Value::integer(static_cast<std::int64_t>(problems.empty() ? 0 : units_u)));
  Value p = Value::array();
  for (const std::string& s : problems) p.push(Value::string(s));
  out.add("problems", std::move(p));
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  const std::int64_t t0 = a.t0_ns != 0 ? a.t0_ns : now_ns();
  std::unique_ptr<Workload> w;
  if (a.workload == "paper_matrix") {
    w = make_paper_matrix();
  } else if (a.workload == "campaign_lossy") {
    w = make_campaign_lossy();
  } else if (a.workload == "passive_bulk") {
    w = make_passive_bulk();
  } else {
    usage("unknown workload");
  }

  // Set-up is config generation plus one warm-up group at a seed outside
  // the measured sequence, so lazy initialisation and allocator growth are
  // paid before the first timed unit.
  w->run(mix64(a.seed ^ 0x5eedULL), 0);
  const double setup_s = static_cast<double>(now_ns() - t0) / 1e9;

  Value out = Value::object();
  out.add("workload", Value::string(a.workload));
  out.add("seed", Value::integer(static_cast<std::int64_t>(a.seed)));
  out.add("setup_s", Value::number(setup_s));
  if (!a.setup_only) {
    out = a.trace ? traced_run(*w, a, std::move(out))
                  : timed_run(*w, a, std::move(out));
    out.add("env", environment_block());
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
