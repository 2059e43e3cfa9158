// Shared helpers for the table/figure reproduction binaries.
//
// Every bench prints a "paper vs measured" section; PASS/CHECK markers are
// qualitative (shape) checks, not absolute-number assertions - the paper's
// absolute values came from 2012-era hardware and real browsers, ours from
// the calibrated testbed simulator.
//
// Common CLI, shared by every bench binary (call benchutil::init first):
//   --runs=N   repetitions per experiment cell (default 50, the paper's)
//   --jobs=N   worker threads for experiment matrices (default: all cores)
// Anything else is returned as a positional argument (e.g. fig3's CSV path).
// Benches with flags of their own parse them with int_flag. Benches that
// write a BENCH_*.json do it through bench_json.h, included here.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "report/boxplot_render.h"
#include "report/cdf_render.h"
#include "report/table.h"

namespace bnm::benchutil {

/// Default repetition count (the paper's "we run it for 50 times").
inline constexpr int kRuns = 50;

struct Options {
  int runs = kRuns;
  int jobs = 0;  ///< 0 = auto (hardware concurrency)
  std::vector<std::string> positional;
};

inline Options& options() {
  static Options opts;
  return opts;
}

/// Parse "<prefix>N" into `out` when `arg` starts with `prefix`: N must be a
/// positive decimal integer that fits T. Returns false when the prefix does
/// not match; exits 2 with "invalid value" when N is malformed.
template <typename T>
bool int_flag(const std::string& arg, const char* prefix, T& out) {
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* digits = arg.c_str() + std::strlen(prefix);
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(digits, &end, 10);
  if (end == digits || *end != '\0' || errno != 0 || v <= 0 ||
      static_cast<unsigned long long>(v) >
          static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    std::fprintf(stderr, "invalid value in '%s'\n", arg.c_str());
    std::exit(2);
  }
  out = static_cast<T>(v);
  return true;
}

/// Parse the shared bench CLI into options(). Returns the options for
/// convenience; exits with a usage message on malformed flags.
inline Options& init(int argc, char** argv) {
  Options& opts = options();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (int_flag(arg, "--runs=", opts.runs) ||
        int_flag(arg, "--jobs=", opts.jobs)) {
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--runs=N] [--jobs=N] [args...]\n", argv[0]);
      std::exit(0);
    }
    opts.positional.push_back(arg);
  }
  return opts;
}

/// Banner for a table/figure section.
inline void banner(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void shape_check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "OK" : "DEVIATES", what.c_str());
}

inline void progress_dot() {
  std::printf(".");
  std::fflush(stdout);
}

/// Build one matrix cell. runs <= 0 picks up the --runs value.
inline core::ExperimentConfig make_config(browser::BrowserId b,
                                          browser::OsId os,
                                          methods::ProbeKind kind,
                                          int runs = 0,
                                          bool java_nanotime = false,
                                          bool appletviewer = false) {
  core::ExperimentConfig cfg;
  cfg.browser = b;
  cfg.os = os;
  cfg.kind = kind;
  cfg.runs = runs > 0 ? runs : options().runs;
  cfg.java_use_nanotime = java_nanotime;
  cfg.java_via_appletviewer = appletviewer;
  return cfg;
}

/// Run one case and return the series (prints a progress dot).
inline core::OverheadSeries run_case(browser::BrowserId b, browser::OsId os,
                                     methods::ProbeKind kind,
                                     int runs = 0,
                                     bool java_nanotime = false,
                                     bool appletviewer = false) {
  progress_dot();
  return core::run_experiment(
      make_config(b, os, kind, runs, java_nanotime, appletviewer));
}

/// Run a batch of cells through the parallel runner, honouring --jobs and
/// printing one progress dot per completed cell. Results in input order,
/// byte-identical to running each cell serially.
inline std::vector<core::OverheadSeries> run_cases(
    const std::vector<core::ExperimentConfig>& cells) {
  return core::run_matrix(cells, options().jobs,
                          [](std::size_t, std::size_t) { progress_dot(); });
}

/// Box-plot rows ("<label> d1" / "<label> d2") for one series.
inline void add_box_rows(std::vector<report::BoxRow>& rows,
                         const core::OverheadSeries& s) {
  if (s.samples.empty()) return;
  rows.push_back({s.case_label + " d1", s.d1_box()});
  rows.push_back({s.case_label + " d2", s.d2_box()});
}

}  // namespace bnm::benchutil
