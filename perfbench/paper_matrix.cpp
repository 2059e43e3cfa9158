// paper_matrix: the paper's Figure-3 grid, paper_cases() x
// all_probe_kinds() = 88 cells at 50 repetitions each, through the serial
// crash-safe engine with default options, followed by the box statistics
// the figure plots. One group is one matrix; consecutive groups use
// consecutive experiment seeds. Unit: one repetition; batch: one cell.
#include <optional>

#include "browser/profile.h"
#include "common.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "sim/arena.h"

namespace perfbench {
namespace {

using namespace bnm;

constexpr int kRuns = 50;

std::vector<core::ExperimentConfig> paper_grid(std::uint64_t experiment_seed,
                                               int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const browser::BrowserOsCase& who : browser::paper_cases()) {
    for (const methods::ProbeKind kind : browser::all_probe_kinds()) {
      core::ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cfg.runs = runs;
      cfg.seed = experiment_seed;
      cells.push_back(cfg);
    }
  }
  return cells;
}

std::uint64_t group_seed(std::uint64_t seed, std::uint64_t index) {
  return mix64(seed) + index;
}

/// Box statistics per cell (Figure 3's boxes) and the output checks that
/// do not need a committed fingerprint.
void finish_group(const std::vector<core::ExperimentConfig>& cells,
                  const std::vector<core::OverheadSeries>& series,
                  GroupResult& g) {
  if (series.size() != cells.size()) {
    g.problem = "matrix returned " + std::to_string(series.size()) +
                " series for " + std::to_string(cells.size()) + " cells";
    return;
  }
  for (std::size_t i = 0; i < series.size(); ++i) {
    const core::OverheadSeries& s = series[i];
    g.units += static_cast<std::uint64_t>(cells[i].runs);
    g.sim_attempted += static_cast<std::uint64_t>(cells[i].runs);
    g.sim_failed += static_cast<std::uint64_t>(s.failures);
    if (s.samples.size() + static_cast<std::size_t>(s.failures) !=
        static_cast<std::size_t>(cells[i].runs)) {
      g.problem = "cell " + std::to_string(i) +
                  ": samples + failures != runs";
    }
    SpanScope box_span{"stats.box", 0};
    const stats::BoxStats d1 = s.d1_box();
    const stats::BoxStats d2 = s.d2_box();
    if (d1.n != s.samples.size() || d2.n != s.samples.size()) {
      g.problem = "cell " + std::to_string(i) + ": box count mismatch";
    }
  }
}

class PaperMatrix final : public Workload {
 public:
  GroupResult run(std::uint64_t seed, std::uint64_t index) override {
    const std::vector<core::ExperimentConfig> cells =
        paper_grid(group_seed(seed, index), kRuns);
    GroupResult g;
    g.batch_ms.reserve(cells.size());
    Clock::time_point last = Clock::now();
    core::MatrixOptions options;
    options.jobs = 1;
    options.progress = [&](std::size_t, std::size_t) {
      const Clock::time_point now = Clock::now();
      g.batch_ms.push_back(ms_between(last, now));
      last = now;
    };
    const core::MatrixResult r = core::run_matrix_checked(cells, options);
    finish_group(cells, r.series, g);
    if (!r.ok()) g.problem = "matrix quarantined or cancelled cells";
    g.fingerprint = fnv1a(core::matrix_report_json(cells, r.series));
    return g;
  }

  /// Composed: Experiment construct, then run, per cell — the serial
  /// engine's own loop, arena reset included, without its watchdog and
  /// checkpoint plumbing (all off by default).
  GroupResult run_traced(std::uint64_t seed, std::uint64_t index,
                         LayerExtras* /*extras*/) override {
    const std::vector<core::ExperimentConfig> cells =
        paper_grid(group_seed(seed, index), kRuns);
    GroupResult g;
    SpanScope group_span{"matrix", index};
    std::vector<core::OverheadSeries> series;
    series.reserve(cells.size());
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (const core::ExperimentConfig& cfg : cells) {
      const Clock::time_point t0 = Clock::now();
      SpanScope cell_span{"cell", index};
      std::optional<core::Experiment> experiment;
      {
        SpanScope s{"experiment.ctor", index};
        experiment.emplace(cfg);
      }
      try {
        SpanScope s{"experiment.run", index};
        series.push_back(experiment->run());
      } catch (const std::exception& e) {
        g.problem = std::string{"composed cell threw: "} + e.what();
        core::OverheadSeries failed;
        failed.config = cfg;
        failed.failures = cfg.runs;
        series.push_back(failed);
      }
      experiment.reset();
      arena.reset();
      g.batch_ms.push_back(ms_between(t0, Clock::now()));
    }
    finish_group(cells, series, g);
    SpanScope report_span{"core.report", index};
    g.fingerprint = fnv1a(core::matrix_report_json(cells, series));
    return g;
  }
};

}  // namespace

std::unique_ptr<Workload> make_paper_matrix() {
  return std::make_unique<PaperMatrix>();
}

}  // namespace perfbench
