#include "core/experiment.h"

#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/arena.h"

namespace bnm::core {

namespace {

// Sample-outcome totals and RTT distributions ("experiment.*" in
// docs/OBSERVABILITY.md). Totals mirror the per-series SampleAccounting;
// the histograms are registry-only (there was no aggregate view of RTT
// shape before). Units are integer microseconds so merges stay exact.
struct ExperimentMetrics {
  obs::Counter runs;
  obs::Counter samples;
  obs::Counter timeouts;
  obs::Counter transport_errors;
  obs::Counter degraded;
  obs::Histogram net_rtt_us;
  obs::Histogram browser_overhead_us;

  static const ExperimentMetrics& get() {
    static const ExperimentMetrics m{
        obs::MetricsRegistry::instance().counter(
            "experiment.runs", "runs", "method repetitions attempted"),
        obs::MetricsRegistry::instance().counter(
            "experiment.samples", "samples",
            "repetitions yielding a valid overhead sample"),
        obs::MetricsRegistry::instance().counter(
            "experiment.timeouts", "runs",
            "repetitions abandoned at the sample deadline"),
        obs::MetricsRegistry::instance().counter(
            "experiment.transport_errors", "runs",
            "repetitions failed by the transport or method"),
        obs::MetricsRegistry::instance().counter(
            "experiment.degraded", "runs",
            "repetitions with no probe packets in the capture window"),
        obs::MetricsRegistry::instance().histogram(
            "experiment.net_rtt_us", "us",
            "network-level RTT of accepted samples (t_n_r - t_n_s)",
            {100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000,
             200000, 500000}),
        obs::MetricsRegistry::instance().histogram(
            "experiment.browser_overhead_us", "us",
            "browser-added delay of accepted samples (Eq. 1 delta-d)",
            {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000,
             50000}),
    };
    return m;
  }
};

std::uint64_t to_us_clamped(double ms) {
  if (ms <= 0) return 0;
  return static_cast<std::uint64_t>(ms * 1000.0);
}

}  // namespace

std::vector<double> OverheadSeries::d1() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.d1_ms);
  return out;
}

std::vector<double> OverheadSeries::d2() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(s.d2_ms);
  return out;
}

namespace {
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}
}  // namespace

Experiment::Experiment(ExperimentConfig config) : config_{std::move(config)} {
  config_.testbed.client_os = config_.os;
  // Each experiment is its own testbed session: derive an independent seed
  // from the case so no two experiments share stochastic state (notably the
  // machine's timer-regime schedule).
  std::uint64_t seed = config_.seed;
  seed = mix(seed, static_cast<std::uint64_t>(config_.browser));
  seed = mix(seed, static_cast<std::uint64_t>(config_.os));
  seed = mix(seed, static_cast<std::uint64_t>(config_.kind));
  seed = mix(seed, config_.java_use_nanotime ? 2 : 1);
  seed = mix(seed, config_.java_via_appletviewer ? 2 : 1);
  config_.testbed.seed = seed;
  testbed_ = std::make_unique<Testbed>(config_.testbed);
}

net::Port Experiment::probe_port() const {
  switch (config_.kind) {
    case methods::ProbeKind::kFlashSocket:
    case methods::ProbeKind::kJavaSocket:
      return config_.testbed.tcp_echo_port;
    case methods::ProbeKind::kJavaUdp:
      return config_.testbed.udp_echo_port;
    case methods::ProbeKind::kWebSocket:
      return config_.testbed.ws_port;
    default:
      return config_.testbed.http_port;
  }
}

Experiment::WindowTimes Experiment::network_rtt_in_window(
    sim::TimePoint from, sim::TimePoint to, net::Port port) const {
  // Records are time-ordered: binary-search the window start and stop at the
  // first record past the window instead of re-scanning the whole capture
  // for every run (the scan was O(records x runs) per experiment).
  const net::PacketCapture& capture = testbed_->client().capture();
  BNM_PROF_SCOPE("experiment.window_scan");
  WindowTimes out;
  std::optional<sim::TimePoint> t_n_s;
  std::optional<sim::TimePoint> t_n_r;
  const std::size_t n = capture.size();
  for (std::size_t i = capture.first_index_at_or_after(from);
       i < n && capture.true_time(i) <= to; ++i) {
    // Column scan: true_time/direction are packed arrays; the heavyweight
    // packet column is only dereferenced for rows inside the window.
    const net::Packet& p = capture.packet(i);
    const bool outbound =
        capture.direction(i) == net::CaptureDirection::kOutbound;
    if (outbound && p.protocol == net::Protocol::kTcp && p.flags.syn &&
        !p.flags.ack && p.dst.port == port) {
      ++out.connections_opened;
    }
    if (outbound && p.dst.port == port && p.carries_data()) {
      if (!t_n_s) t_n_s = capture.timestamp(i);  // first request packet
    }
    if (!outbound && p.src.port == port && p.carries_data()) {
      t_n_r = capture.timestamp(i);  // last response packet so far
    }
  }
  if (t_n_s && t_n_r && *t_n_r > *t_n_s) {
    out.net_rtt_ms = (*t_n_r - *t_n_s).ms_f();
  }
  return out;
}

OverheadSeries Experiment::run() {
  // Route the packet path through the simulation's bump arena unless an
  // outer scope (e.g. a run_matrix worker's private arena) is already
  // active. Everything arena-allocated below dies with testbed_, before the
  // arena is reset or destroyed.
  sim::ArenaScope arena_scope{
      sim::Arena::current() != nullptr ? nullptr : &testbed_->sim().arena()};
  // Publish the arena's service to the registry when run() returns (or
  // throws), so arena.* totals are exact once the run is over.
  struct PublishOnExit {
    sim::Arena* arena;
    ~PublishOnExit() {
      if (arena != nullptr) arena->publish();
    }
  } publish_on_exit{sim::Arena::current()};
  // Pre-size the capture columns from the repetition plan: one repetition
  // records the handshake, the probe exchange and its ACKs — 256 rows
  // covers every method with slack, and clear() keeps the capacity across
  // repetitions, so recording never reallocates mid-run.
  if (config_.runs > 0) testbed_->client().capture().reserve(256);

  OverheadSeries series;
  series.config = config_;

  auto method = methods::make_method(config_.kind);
  series.method_name = method->info().name;

  browser::BrowserProfile profile =
      config_.custom_profile
          ? *config_.custom_profile
          : browser::make_profile(config_.browser, config_.os);
  series.case_label = config_.java_via_appletviewer
                          ? std::string{"appletviewer ("} +
                                browser::os_initial(config_.os) + ")"
                          : profile.label();

  sim::Scheduler& sched = testbed_->sim().scheduler();
  sim::Rng gap_rng = testbed_->sim().rng_for("experiment/gaps");
  const net::Port port = probe_port();

  // Sessions abandoned at the sample deadline are parked here instead of
  // being destroyed: their event loops may still hold queued callbacks, and
  // tearing the browser down under them would leave those firing into freed
  // state. The graveyard drains naturally as the simulation idles between
  // runs and is released when the experiment ends.
  std::vector<std::unique_ptr<browser::Browser>> graveyard;

  // Watchdog accounting: every simulated event this cell fires (from run()
  // entry on) counts against the budget, so runaway event loops anywhere in
  // the repetition protocol — not just the probe drive — are bounded.
  const std::uint64_t budget =
      watchdog_ != nullptr ? watchdog_->event_budget : 0;
  const std::uint64_t budget_start = sched.executed_events();
  const auto abort_cell = [&](methods::MeasurementMethod& m, const char* where,
                              int at_run) {
    m.cancel();  // tear the in-flight probe down so nothing calls back later
    throw CellAbortError{
        where, std::string{where} + " tripped at repetition " +
                   std::to_string(at_run) + "/" +
                   std::to_string(config_.runs)};
  };

  const ExperimentMetrics& metrics = ExperimentMetrics::get();
  for (int run = 0; run < config_.runs; ++run) {
    BNM_PROF_SCOPE("experiment.repetition");
    metrics.runs.add(1);
    auto browser = testbed_->launch_browser(profile,
                                            static_cast<std::uint64_t>(run));
    if (!config_.http_request_timeout.is_zero()) {
      browser->http().set_default_timeout(config_.http_request_timeout);
    }
    if (config_.http_max_retries > 0) {
      browser->http().set_default_retries(config_.http_max_retries,
                                          config_.http_retry_backoff);
    }

    methods::MethodContext ctx;
    ctx.browser = browser.get();
    ctx.http_server = testbed_->http_endpoint();
    ctx.tcp_echo = testbed_->tcp_echo_endpoint();
    ctx.udp_echo = testbed_->udp_echo_endpoint();
    ctx.ws_server = testbed_->ws_endpoint();
    ctx.java_use_nanotime = config_.java_use_nanotime;
    ctx.java_via_appletviewer = config_.java_via_appletviewer;
    ctx.js_use_performance_now = config_.js_use_performance_now;
    ctx.probe_timeout = config_.probe_timeout;

    // The result slot is shared with the completion callback: if a run is
    // abandoned at the deadline, a straggler callback must land in memory
    // that outlives this loop iteration, not a dead stack frame (arena
    // memory: it lives as long as the testbed).
    auto result =
        sim::make_arena_shared<std::optional<methods::MethodRunResult>>();
    auto done = sim::make_arena_shared<bool>(false);
    method->run(ctx, [result, done](methods::MethodRunResult r) {
      *result = std::move(r);
      *done = true;
    });
    // Drive the simulation until the method completes. A drained queue
    // with no result surfaces a deadlock; the deadline guards against
    // perpetual event sources (cross traffic) masking one. With a watchdog
    // attached, the drive additionally honours the runner's wall-clock
    // abort flag and the cell's remaining simulated-event budget.
    const sim::TimePoint deadline =
        testbed_->sim().now() + config_.sample_deadline;
    sim::Scheduler::RunLimits limits;
    const sim::Scheduler::RunLimits* limits_ptr = nullptr;
    if (watchdog_ != nullptr) {
      limits.abort = &watchdog_->wall_expired;
      if (budget != 0) {
        const std::uint64_t used = sched.executed_events() - budget_start;
        if (used >= budget) abort_cell(*method, "watchdog.event_budget", run);
        limits.max_events = budget - used;
      }
      limits_ptr = &limits;
    }
    sched.run_while(*done, deadline, limits_ptr);
    if (watchdog_ != nullptr) {
      if (watchdog_->wall_expired.load(std::memory_order_acquire)) {
        abort_cell(*method, "watchdog.wall_clock", run);
      }
      if (budget != 0 && !*done &&
          sched.executed_events() - budget_start >= budget) {
        abort_cell(*method, "watchdog.event_budget", run);
      }
    }

    if (!*result) {
      // Deadline expired (or the queue drained without completion): tear
      // the run-state down so nothing calls back later, and record the
      // repetition as a timeout sample.
      method->cancel();
      ++series.failures;
      ++series.accounting.timeouts;
      metrics.timeouts.add(1);
      if (series.first_error.empty()) {
        series.first_error = "sample deadline exceeded";
      }
    } else if (!(*result)->ok) {
      ++series.failures;
      ++series.accounting.transport_errors;
      metrics.transport_errors.add(1);
      if (series.first_error.empty()) {
        series.first_error = (*result)->error.empty() ? "method failed"
                                                      : (*result)->error;
      }
    } else {
      OverheadSample s;
      const methods::MethodRunResult& r = **result;
      const auto w1 =
          network_rtt_in_window(r.m1.true_send, r.m1.true_recv, port);
      const auto w2 =
          network_rtt_in_window(r.m2.true_send, r.m2.true_recv, port);
      if (w1.net_rtt_ms && w2.net_rtt_ms) {
        s.browser_rtt1_ms = r.m1.browser_rtt().ms_f();
        s.browser_rtt2_ms = r.m2.browser_rtt().ms_f();
        s.net_rtt1_ms = *w1.net_rtt_ms;
        s.net_rtt2_ms = *w2.net_rtt_ms;
        s.d1_ms = s.browser_rtt1_ms - s.net_rtt1_ms;
        s.d2_ms = s.browser_rtt2_ms - s.net_rtt2_ms;
        s.connections_opened1 = w1.connections_opened;
        s.connections_opened2 = w2.connections_opened;
        series.samples.push_back(s);
        metrics.samples.add(1);
        metrics.net_rtt_us.observe(to_us_clamped(s.net_rtt1_ms));
        metrics.net_rtt_us.observe(to_us_clamped(s.net_rtt2_ms));
        metrics.browser_overhead_us.observe(to_us_clamped(s.d1_ms));
        metrics.browser_overhead_us.observe(to_us_clamped(s.d2_ms));
        sim::Trace& trace = testbed_->sim().trace();
        if (trace.enabled()) {
          // Method-layer spans bracket each probe's true send/receive in
          // simulated time — the rows Perfetto shows above the scheduler
          // and link spans for a sample.
          trace.emit_span(
              r.m1.true_send, r.m1.true_recv - r.m1.true_send, "method",
              series.method_name + " m1",
              {{"run", static_cast<std::int64_t>(run)},
               {"browser_rtt_ms", s.browser_rtt1_ms},
               {"net_rtt_ms", s.net_rtt1_ms}});
          trace.emit_span(
              r.m2.true_send, r.m2.true_recv - r.m2.true_send, "method",
              series.method_name + " m2",
              {{"run", static_cast<std::int64_t>(run)},
               {"browser_rtt_ms", s.browser_rtt2_ms},
               {"net_rtt_ms", s.net_rtt2_ms}});
        }
      } else {
        ++series.failures;
        ++series.accounting.degraded;
        metrics.degraded.add(1);
        if (series.first_error.empty()) {
          series.first_error = "no probe packets in capture window";
        }
      }
    }

    series.accounting.http_retries += browser->http().request_retries();
    series.accounting.http_timeouts += browser->http().request_timeouts();

    // Tear the session down and idle until the next repetition. A session
    // whose run timed out is parked instead: queued callbacks may still
    // reference it, and all of them are no-ops once the run is cancelled.
    if (*result) {
      browser.reset();
    } else {
      graveyard.push_back(std::move(browser));
    }
    testbed_->client().capture().clear();
    const sim::Duration gap = gap_rng.uniform_ms(
        config_.inter_run_gap_min.ms_f(), config_.inter_run_gap_max.ms_f());
    sched.run_until(testbed_->sim().now() + gap);
  }
  return series;
}

OverheadSeries run_experiment(ExperimentConfig config) {
  Experiment e{std::move(config)};
  return e.run();
}

OverheadSeries run_experiment_watched(ExperimentConfig config,
                                      CellWatchdog* watchdog) {
  Experiment e{std::move(config)};
  e.set_watchdog(watchdog);
  return e.run();
}

}  // namespace bnm::core
