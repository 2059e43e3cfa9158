// Performance harness for the experiment pipeline. Three sections:
//
//   1. Full Figure-3 matrix, serial (jobs=1) vs parallel (--jobs, default
//      all cores), with a byte-identity check between the result sets.
//      (The report bytes themselves are pinned by the golden fingerprints,
//      ctest -L golden.)
//   2. Crash-safe engine overhead: run_matrix_checked with every feature
//      off vs a plain serial loop.
//   3. Scheduler event throughput: cancellable schedule_at path (pooled
//      control blocks) vs fire-and-forget post_at path, a
//      batched-vs-stepwise sub-bench, and the events/sec headline one of
//      the gates floors.
//
// Emits BENCH_perf_matrix.json in the working directory, with its gates
// (bench_json.h), and exits non-zero when one fails. The speedup section
// reports whatever the host offers; on a single-core machine the parallel
// run cannot win and the harness says so instead of failing.
//
//   $ perf_matrix [--runs=N] [--jobs=N]   (default 12 runs per cell)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/prof.h"
#include "sim/arena.h"
#include "sim/scheduler.h"

using namespace bnm;

namespace {

using obs::json::Value;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::vector<core::ExperimentConfig> full_matrix(int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto& who : browser::paper_cases()) {
    for (const auto kind : browser::all_probe_kinds()) {
      core::ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cfg.runs = runs;
      cells.push_back(cfg);
    }
  }
  return cells;
}

bool identical(const core::OverheadSeries& a, const core::OverheadSeries& b) {
  if (a.case_label != b.case_label || a.method_name != b.method_name ||
      a.failures != b.failures || a.first_error != b.first_error ||
      a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.d1_ms != y.d1_ms || x.d2_ms != y.d2_ms ||
        x.browser_rtt1_ms != y.browser_rtt1_ms ||
        x.browser_rtt2_ms != y.browser_rtt2_ms ||
        x.net_rtt1_ms != y.net_rtt1_ms || x.net_rtt2_ms != y.net_rtt2_ms ||
        x.connections_opened1 != y.connections_opened1 ||
        x.connections_opened2 != y.connections_opened2) {
      return false;
    }
  }
  return true;
}

struct MatrixTimings {
  std::size_t cells = 0;
  int runs = 0;
  int jobs = 0;
  double serial_ms = 0;
  double parallel_ms = 0;
  bool identical = true;
  // Arena service counters over the serial + parallel passes. Every arena
  // allocation is a global-allocator round trip the packet path no longer
  // pays.
  std::uint64_t arena_allocs_avoided = 0;
  std::uint64_t arena_bytes_served = 0;
  std::uint64_t arena_peak_bytes = 0;
  double speedup() const {
    return parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  }
  /// With one worker the "parallel" run is just a second serial run, and
  /// with one visible core extra workers only timeslice it, so in either
  /// case the measured speedup is noise, not signal.
  bool parallel_meaningful() const {
    return jobs > 1 && std::thread::hardware_concurrency() > 1;
  }
};

MatrixTimings bench_matrix(int runs, int jobs_flag) {
  MatrixTimings t;
  const auto cells = full_matrix(runs);
  t.cells = cells.size();
  t.runs = runs;
  t.jobs = core::resolve_jobs(jobs_flag, cells.size());

  std::printf("matrix: %zu cells x %d runs\n", t.cells, runs);
  sim::ArenaStats::reset();

  std::printf("  serial (jobs=1)    ... ");
  std::fflush(stdout);
  const auto s0 = Clock::now();
  const auto serial = core::run_matrix(cells, 1);
  const auto s1 = Clock::now();
  t.serial_ms = ms_between(s0, s1);
  std::printf("%8.1f ms\n", t.serial_ms);

  std::printf("  parallel (jobs=%d)  ... ", t.jobs);
  std::fflush(stdout);
  const auto p0 = Clock::now();
  const auto parallel = core::run_matrix(cells, t.jobs);
  const auto p1 = Clock::now();
  t.parallel_ms = ms_between(p0, p1);
  std::printf("%8.1f ms   (%.2fx)%s\n", t.parallel_ms, t.speedup(),
              t.parallel_meaningful() ? "" : "  [1 core/worker: not meaningful]");

  t.arena_allocs_avoided = sim::ArenaStats::allocations();
  t.arena_bytes_served = sim::ArenaStats::bytes();
  t.arena_peak_bytes = sim::ArenaStats::peak_arena_bytes();

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!identical(serial[i], parallel[i])) {
      t.identical = false;
      std::printf("  !! cell %zu (%s %s) differs between serial and parallel\n",
                  i, serial[i].case_label.c_str(),
                  serial[i].method_name.c_str());
    }
  }
  std::printf("  results byte-identical: %s\n", t.identical ? "yes" : "NO");
  std::printf("  arena: %" PRIu64 " allocs avoided, %" PRIu64
              " bytes served, peak %" PRIu64 " bytes\n",
              t.arena_allocs_avoided, t.arena_bytes_served,
              t.arena_peak_bytes);
  return t;
}

// Crash-safe engine overhead: run_matrix_checked with every feature
// disabled must cost <1% (or sub-millisecond noise) over a plain serial
// loop — one arena, run_experiment per cell, then reset() — robustness that
// taxes every healthy run would never stay on by default. The enabled pass
// (checkpointing on) is informational: it prices what a crash-safe campaign
// actually pays.
struct CheckpointTimings {
  double baseline_ms = 0;  ///< plain serial run_experiment loop
  double disabled_ms = 0;  ///< run_matrix_checked, all features off
  double enabled_ms = 0;   ///< checkpointing on (flush every 8 cells)
  bool identical = true;   ///< all three result sets bitwise equal
  double disabled_delta_ms() const { return disabled_ms - baseline_ms; }
  double disabled_overhead_percent() const {
    return baseline_ms > 0 ? (disabled_ms - baseline_ms) / baseline_ms * 100.0
                           : 0.0;
  }
  double enabled_overhead_percent() const {
    return baseline_ms > 0 ? (enabled_ms - baseline_ms) / baseline_ms * 100.0
                           : 0.0;
  }
};

CheckpointTimings bench_checkpoint(int runs) {
  CheckpointTimings t;
  const auto cells = full_matrix(runs);
  constexpr int kPasses = 5;  // best-of: single-digit-ms deltas vs VM jitter
  const auto best_of = [](auto&& pass) {
    double best = pass();  // first pass doubles as warm-up
    for (int i = 0; i < kPasses; ++i) best = std::min(best, pass());
    return best;
  };

  std::printf("checkpoint overhead: %zu cells x %d runs, best of %d\n",
              cells.size(), runs, kPasses + 1);

  std::vector<core::OverheadSeries> baseline;
  t.baseline_ms = best_of([&] {
    const auto t0 = Clock::now();
    baseline.clear();
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (const core::ExperimentConfig& cfg : cells) {
      baseline.push_back(core::run_experiment(cfg));
      arena.reset();
    }
    return ms_between(t0, Clock::now());
  });
  std::printf("  plain serial loop  ... %8.1f ms\n", t.baseline_ms);

  core::MatrixResult disabled;
  core::MatrixOptions disabled_opts;
  disabled_opts.jobs = 1;
  t.disabled_ms = best_of([&] {
    const auto t0 = Clock::now();
    disabled = core::run_matrix_checked(cells, disabled_opts);
    return ms_between(t0, Clock::now());
  });
  std::printf("  engine, all off    ... %8.1f ms   (%+.2f%%, %+.2f ms)\n",
              t.disabled_ms, t.disabled_overhead_percent(),
              t.disabled_delta_ms());

  const char* ck_path = "BENCH_checkpoint_scratch.json";
  core::MatrixResult enabled;
  t.enabled_ms = best_of([&] {
    std::remove(ck_path);
    core::MatrixOptions options;
    options.jobs = 1;
    options.checkpoint.path = ck_path;
    options.checkpoint.flush_every = 8;
    const auto t0 = Clock::now();
    enabled = core::run_matrix_checked(cells, options);
    return ms_between(t0, Clock::now());
  });
  std::remove(ck_path);
  std::remove((std::string{ck_path} + ".tmp").c_str());
  std::printf("  checkpointing on   ... %8.1f ms   (%+.2f%%)\n", t.enabled_ms,
              t.enabled_overhead_percent());

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!identical(baseline[i], disabled.series[i]) ||
        !identical(baseline[i], enabled.series[i])) {
      t.identical = false;
      std::printf("  !! cell %zu (%s %s) differs under the checked engine\n",
                  i, baseline[i].case_label.c_str(),
                  baseline[i].method_name.c_str());
    }
  }
  std::printf("  results byte-identical across all three passes: %s\n",
              t.identical ? "yes" : "NO");
  return t;
}

struct SchedulerTimings {
  std::size_t events = 0;
  double handle_ns_per_event = 0;
  double post_ns_per_event = 0;
  std::size_t pooled_blocks = 0;
  // Batched-vs-stepwise sub-bench: same workload, run() (whole-bucket
  // batches) vs a step() loop (one event per queue touch).
  double batched_ns_per_event = 0;
  double stepwise_ns_per_event = 0;
  double batch_speedup() const {
    return batched_ns_per_event > 0
               ? stepwise_ns_per_event / batched_ns_per_event
               : 0.0;
  }
  /// Headline throughput: the cancellable schedule_after path (the one the
  /// experiment pipeline leans on; 238.9 ns/event on the PR-5 heap).
  double events_per_sec() const {
    return handle_ns_per_event > 0 ? 1e9 / handle_ns_per_event : 0.0;
  }
};

SchedulerTimings bench_scheduler() {
  SchedulerTimings t;
  constexpr std::size_t kEvents = 200000;
  constexpr std::size_t kBatch = 1000;  // queue depth per drain cycle
  constexpr int kPasses = 3;            // best-of, to shrug off host jitter
  t.events = kEvents;

  volatile std::uint64_t sink = 0;

  // Every section reports the minimum of kPasses passes: at ~100 ns/event a
  // single pass is at the mercy of VM steal time, and the events/sec gate
  // needs the machine's speed, not the hypervisor's mood.
  const auto best_of = [](auto&& pass) {
    double best = pass();  // first pass doubles as warm-up
    for (int i = 0; i < kPasses; ++i) best = std::min(best, pass());
    return best;
  };

  // Cancellable path: every event carries a pooled control block; steady
  // state is allocation-free (tests/test_kernel_alloc.cpp).
  t.handle_ns_per_event = best_of([&] {
    sim::Scheduler sched;
    const auto h0 = Clock::now();
    for (std::size_t done = 0; done < kEvents; done += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.schedule_after(sim::Duration::millis(1),
                             [&sink] { sink = sink + 1; });
      }
      sched.run();
    }
    const auto h1 = Clock::now();
    t.pooled_blocks = sched.pooled_control_blocks();
    return ms_between(h0, h1) * 1e6 / kEvents;
  });

  // Fire-and-forget path: no control blocks at all.
  t.post_ns_per_event = best_of([&] {
    sim::Scheduler sched;
    const auto p0 = Clock::now();
    for (std::size_t done = 0; done < kEvents; done += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.post_after(sim::Duration::millis(1),
                         [&sink] { sink = sink + 1; });
      }
      sched.run();
    }
    const auto p1 = Clock::now();
    return ms_between(p0, p1) * 1e6 / kEvents;
  });

  // Batched vs stepwise: a spread workload (1000 events across ~1 ms, i.e.
  // ~16 calendar buckets per drain cycle) so the calendar actually pays its
  // promotion/sort costs.
  const auto drive = [&sink](bool batched) {
    sim::Scheduler sched;
    const auto t0 = Clock::now();
    for (std::size_t done = 0; done < kEvents; done += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.post_after(sim::Duration::micros(static_cast<std::int64_t>(i)),
                         [&sink] { sink = sink + 1; });
      }
      if (batched) {
        sched.run();
      } else {
        while (sched.step()) {
        }
      }
    }
    return ms_between(t0, Clock::now()) * 1e6 / kEvents;
  };
  t.batched_ns_per_event = best_of([&] { return drive(true); });
  t.stepwise_ns_per_event = best_of([&] { return drive(false); });

  std::printf("scheduler: %zu events, batches of %zu\n", t.events, kBatch);
  std::printf("  schedule_after     ... %8.1f ns/event  (%zu pooled blocks, "
              "%.2fM events/s)\n",
              t.handle_ns_per_event, t.pooled_blocks,
              t.events_per_sec() / 1e6);
  std::printf("  post_after         ... %8.1f ns/event\n",
              t.post_ns_per_event);
  std::printf("  batched dispatch   ... %8.1f ns/event\n",
              t.batched_ns_per_event);
  std::printf("  stepwise dispatch  ... %8.1f ns/event   (batched %.2fx)\n",
              t.stepwise_ns_per_event, t.batch_speedup());
  return t;
}

// One small profiled matrix pass: enable the obs profiling scopes, run a
// few cells, and surface where the wall-clock goes. Informational only
// (wall-clock, so never part of a determinism gate).
std::vector<obs::prof::ProfEntry> bench_profile(int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto kind : browser::all_probe_kinds()) {
    cells.push_back(benchutil::make_config(browser::BrowserId::kChrome,
                                           browser::OsId::kUbuntu, kind,
                                           std::max(1, runs / 4)));
  }
  obs::prof::reset();
  obs::prof::set_enabled(true);
  core::run_matrix(cells, 1);
  obs::prof::set_enabled(false);
  auto entries = obs::prof::report();
  obs::prof::reset();

  std::printf("profile (profiling scopes enabled, %zu cells):\n",
              cells.size());
  std::printf("%s", obs::prof::format_report(entries).c_str());
  return entries;
}

Value to_json(unsigned hw, const MatrixTimings& m, const CheckpointTimings& k,
              const SchedulerTimings& s,
              const std::vector<obs::prof::ProfEntry>& profile) {
  using benchutil::integer;
  Value rows = Value::array();
  for (const auto& e : profile) {
    const double total_ns = static_cast<double>(e.total_ns);
    rows.push(benchutil::object({
        {"site", Value::string(e.name)},
        {"calls", integer(e.calls)},
        {"total_ms", Value::number(total_ns / 1e6)},
        {"avg_us", Value::number(
                       e.calls ? total_ns / 1e3 / static_cast<double>(e.calls)
                               : 0.0)},
        {"max_us", Value::number(static_cast<double>(e.max_ns) / 1e3)},
    }));
  }
  return benchutil::object({
      {"hardware_concurrency", integer(hw)},
      {"matrix",
       benchutil::object({
           {"cells", integer(m.cells)},
           {"runs_per_cell", integer(m.runs)},
           {"jobs", integer(m.jobs)},
           {"serial_ms", Value::number(m.serial_ms)},
           {"parallel_ms", Value::number(m.parallel_ms)},
           {"speedup", Value::number(m.speedup())},
           {"parallel_meaningful", Value::boolean(m.parallel_meaningful())},
           {"identical", Value::boolean(m.identical)},
           {"arena",
            benchutil::object({
                {"allocs_avoided", integer(m.arena_allocs_avoided)},
                {"bytes_served", integer(m.arena_bytes_served)},
                {"peak_arena_bytes", integer(m.arena_peak_bytes)},
            })},
       })},
      {"checkpoint",
       benchutil::object({
           {"baseline_ms", Value::number(k.baseline_ms)},
           {"disabled_ms", Value::number(k.disabled_ms)},
           {"enabled_ms", Value::number(k.enabled_ms)},
           {"disabled_overhead_percent",
            Value::number(k.disabled_overhead_percent())},
           {"disabled_delta_ms", Value::number(k.disabled_delta_ms())},
           {"enabled_overhead_percent",
            Value::number(k.enabled_overhead_percent())},
           {"identical", Value::boolean(k.identical)},
       })},
      {"scheduler",
       benchutil::object({
           {"events", integer(s.events)},
           {"schedule_ns_per_event", Value::number(s.handle_ns_per_event)},
           {"post_ns_per_event", Value::number(s.post_ns_per_event)},
           {"events_per_sec", Value::number(s.events_per_sec())},
           {"batched_ns_per_event", Value::number(s.batched_ns_per_event)},
           {"stepwise_ns_per_event", Value::number(s.stepwise_ns_per_event)},
           {"batch_speedup", Value::number(s.batch_speedup())},
           {"pooled_control_blocks", integer(s.pooled_blocks)},
       })},
      {"profile", std::move(rows)},
      {"gates",
       benchutil::array({
           benchutil::gate_true("matrix.identical"),
           benchutil::gate_true("checkpoint.identical"),
           // The crash-safe engine with every feature off must not tax
           // healthy runs: under 1% over a plain serial loop, with a
           // sub-millisecond absolute slack because the full-matrix
           // baseline is only tens of ms, inside single-core VM jitter.
           benchutil::any_gate({
               benchutil::gate("checkpoint.disabled_overhead_percent", "<", 1),
               benchutil::gate("checkpoint.disabled_delta_ms", "<", 1),
           }),
           // Release floor for the cancellable schedule_after path: the
           // binary heap the calendar queue replaced measured ~4.2M
           // events/s, the calendar queue stays well above 3x that.
           benchutil::gate("scheduler.events_per_sec", ">=", 12000000),
       })},
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::options().runs = 12;  // perf default; --runs=N overrides
  const auto& opts = benchutil::init(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  benchutil::banner("perf_matrix: experiment pipeline performance");
  std::printf("hardware_concurrency: %u\n\n", hw);

  const MatrixTimings m = bench_matrix(opts.runs, opts.jobs);
  std::printf("\n");
  const CheckpointTimings k = bench_checkpoint(opts.runs);
  std::printf("\n");
  const SchedulerTimings s = bench_scheduler();
  std::printf("\n");
  const auto profile = bench_profile(opts.runs);

  benchutil::shape_check(
      k.disabled_overhead_percent() < 1.0 || k.disabled_delta_ms() < 1.0,
      "disabled crash-safe engine within 1% (or <1 ms) of a plain loop");
  if (!m.parallel_meaningful() || hw < 4) {
    std::printf("note: only %u core(s) visible (jobs=%d) - speedup is not "
                "meaningful on this host (expect >=3x at jobs=4 on 4+ "
                "cores)\n", hw, m.jobs);
  } else {
    benchutil::shape_check(m.speedup() >= 3.0 || m.jobs < 4,
                           "parallel full matrix >=3x over serial at jobs>=4");
  }
  return benchutil::emit("BENCH_perf_matrix.json",
                         to_json(hw, m, k, s, profile));
}
