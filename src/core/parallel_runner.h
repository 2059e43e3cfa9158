// Parallel experiment matrix runner.
//
// The paper's results are a matrix of (browser x OS x method x config)
// cells, each repeated 50 times. Every Experiment owns an independent
// Testbed whose seed is derived from its config alone (experiment.cc), so
// cells share no mutable state and shard cleanly across worker threads:
// run_matrix(cells, jobs) produces byte-identical results to running the
// same cells serially, in input order, in 1/jobs the wall-clock time.
//
// One engine runs every matrix and every campaign:
//
//   * run_task_loop — the single serial-or-pool loop: one arena per
//     thread rewound after every task, resumed tasks skipped, cancellation
//     checked at task start (in-flight tasks drain), and a guarded progress
//     callback. run_matrix_checked runs one cell per task; run_campaign
//     (core/campaign.h) runs one shard per task.
//   * run_matrix_checked — the crash-safe matrix engine on that loop:
//     per-cell watchdogs (wall-clock deadline + simulated-event budget),
//     retry with exponential backoff, quarantine with a structured
//     CellError after the attempt limit, checkpoint/resume with
//     bit-identical reports (core/checkpoint.h), and cooperative
//     cancellation. tools/chaos_matrix and scripts/check.sh kill and resume
//     it on every CI run.
//   * run_matrix — run_matrix_checked with one attempt per cell and
//     everything else off, returning just the series.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"

namespace bnm::sim {
class Arena;
}

namespace bnm::core {

/// One swallowed task exception, in submission order. Replaces the old
/// opaque tasks_failed() counter: a wedged matrix run can now say *which*
/// task died and why instead of just how many.
struct TaskFailure {
  std::size_t task_id = 0;  ///< submission ordinal (0-based)
  std::string what;
};

/// Fixed-size worker pool. Tasks are plain closures; a task that throws is
/// recorded (failures()) and the pool keeps serving — one poisoned cell
/// must never wedge a matrix run.
class ThreadPool {
 public:
  /// jobs <= 0 selects std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return jobs_; }

  void submit(std::function<void()> task);
  /// Block until every submitted task has finished.
  void wait_idle();

  /// Structured record of every task whose exception the pool swallowed,
  /// in completion order.
  std::vector<TaskFailure> failures() const;

 private:
  struct QueuedTask {
    std::size_t id;
    std::function<void()> fn;
  };

  void worker_loop();

  int jobs_ = 1;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> workers_;
  std::size_t next_task_id_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<TaskFailure> failures_;
  bool stopping_ = false;
};

/// Per-cell completion callback: (cells finished so far, total cells).
/// Invoked under a lock, in completion (not input) order. A progress
/// callback that throws cannot wedge the run: the exception is caught,
/// counted (runner.progress_errors), and the matrix keeps draining.
using MatrixProgress = std::function<void(std::size_t done, std::size_t total)>;

/// Cell runner for the resilient engine: receives the attempt's watchdog
/// (nullptr when no watchdog is configured) so the cell can be cancelled
/// mid-flight. run_matrix_checked() defaults to run_experiment_watched.
using WatchedCellRunner =
    std::function<OverheadSeries(const ExperimentConfig&, CellWatchdog*)>;

/// Resolve a jobs request: <= 0 means hardware concurrency, and the answer
/// is clamped to [1, cells] so a small matrix never spawns idle workers.
int resolve_jobs(int jobs, std::size_t cells);

/// What one run_task_loop invocation reports back.
struct TaskLoopResult {
  bool cancelled = false;           ///< tasks were skipped after a cancel
  std::size_t progress_errors = 0;  ///< progress-callback throws absorbed
  std::string progress_error;       ///< first progress exception message
};

/// The one task loop under run_matrix_checked and run_campaign. Runs
/// `run(i, arena)` for every task i whose `skip[i]` is 0 — serially on the
/// calling thread when resolve_jobs(jobs, skip.size()) is 1, on a ThreadPool
/// otherwise. Each thread serves its tasks from one sim::Arena, installed as
/// the current arena and rewound after every task. A task that would start
/// after `*cancel` is set is skipped (in-flight tasks finish). After each
/// task, under one lock, `finish(i)` runs and then `progress(done, total)`,
/// where done counts skipped tasks too; a throwing progress callback is
/// absorbed and counted in the result, never propagated.
TaskLoopResult run_task_loop(
    const std::vector<char>& skip, int jobs, const std::atomic<bool>* cancel,
    const std::function<void(std::size_t, sim::Arena&)>& run,
    const std::function<void(std::size_t)>& finish,
    const MatrixProgress& progress);

/// Run every cell and return the series in input order: run_matrix_checked
/// with one attempt per cell and no watchdog, checkpoint or cancel. jobs == 1
/// (or a single cell) runs serially on the calling thread. A cell that
/// throws yields a series with failures == runs and first_error describing
/// the exception; the remaining cells still run.
std::vector<OverheadSeries> run_matrix(const std::vector<ExperimentConfig>& cells,
                                       int jobs = 0,
                                       MatrixProgress progress = nullptr);

// ---------------------------------------------------------------------------
// The crash-safe engine.

/// Why a cell ended up quarantined after exhausting its attempts.
struct CellError {
  std::size_t cell = 0;  ///< index into the input matrix
  std::string what;      ///< last attempt's exception message
  /// Which guard gave up: "watchdog.wall_clock", "watchdog.event_budget",
  /// or "cell" (the cell itself threw).
  std::string where;
  int attempts = 0;  ///< attempts consumed before quarantine
};

/// Per-cell watchdog and retry policy. Default-constructed = both guards
/// off and up to three attempts per cell; run_matrix sets max_attempts = 1.
struct WatchdogPolicy {
  /// Real-time budget per cell attempt; zero = no wall-clock watchdog.
  std::chrono::milliseconds wall_limit{0};
  /// Simulated-event budget per cell attempt; zero = unlimited.
  std::uint64_t event_budget = 0;
  /// Total attempts before quarantine (1 = no retries).
  int max_attempts = 3;
  /// Backoff before attempt k+1 is backoff_base * 2^(k-1).
  std::chrono::milliseconds backoff_base{10};
};

/// Checkpoint persistence policy. Empty path = checkpointing off.
struct CheckpointPolicy {
  std::string path;
  bool resume = false;  ///< load `path` first and skip hash-matching cells
  int flush_every = 1;  ///< completed cells per atomic rewrite
};

struct MatrixOptions {
  int jobs = 0;  ///< as run_matrix: <= 0 means hardware concurrency
  MatrixProgress progress;
  WatchdogPolicy watchdog;
  CheckpointPolicy checkpoint;
  /// Cooperative cancellation: when set, cells not yet started are skipped
  /// and the engine drains gracefully (result.cancelled = true).
  const std::atomic<bool>* cancel = nullptr;
};

struct MatrixResult {
  /// One series per input cell, in input order. Quarantined cells carry
  /// failures == runs and first_error; resumed cells carry the stored
  /// series, bit-identical to what an uninterrupted run would produce.
  std::vector<OverheadSeries> series;
  std::vector<CellError> quarantined;  ///< sorted by cell index
  std::size_t cells_resumed = 0;       ///< taken from the checkpoint
  std::size_t cells_run = 0;           ///< executed this invocation
  std::uint64_t retries = 0;           ///< extra attempts across all cells
  std::size_t progress_errors = 0;     ///< progress-callback throws absorbed
  std::string progress_error;          ///< first progress exception message
  bool cancelled = false;              ///< stopped early via options.cancel

  bool ok() const { return quarantined.empty() && !cancelled; }
};

/// Run the matrix under the crash-safe engine: watchdogs, retry/backoff,
/// quarantine, checkpoint/resume, cancellation. With default options the
/// results are byte-identical to a plain serial run_experiment loop — and
/// the disabled machinery costs <1% over that loop (gated in
/// bench/perf_matrix).
MatrixResult run_matrix_checked(const std::vector<ExperimentConfig>& cells,
                                const MatrixOptions& options = {},
                                const WatchedCellRunner& runner = nullptr);

}  // namespace bnm::core
