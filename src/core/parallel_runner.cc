#include "core/parallel_runner.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/arena.h"

namespace bnm::core {
namespace {

// --- metrics (docs/OBSERVABILITY.md catalog) -------------------------------

struct RunnerMetrics {
  obs::Counter retries;
  obs::Counter quarantined;
  obs::Counter watchdog_wall_trips;
  obs::Counter watchdog_budget_trips;
  obs::Counter progress_errors;
  obs::Counter cells_resumed;

  static const RunnerMetrics& get() {
    static const RunnerMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      return RunnerMetrics{
          reg.counter("runner.retries", "attempts",
                      "cell attempts retried after a failure or watchdog trip"),
          reg.counter("runner.quarantined", "cells",
                      "cells quarantined after exhausting their attempts"),
          reg.counter("runner.watchdog_wall_trips", "trips",
                      "cell attempts cancelled by the wall-clock watchdog"),
          reg.counter("runner.watchdog_budget_trips", "trips",
                      "cell attempts cancelled by the simulated-event budget"),
          reg.counter("runner.progress_errors", "throws",
                      "progress-callback exceptions absorbed by the runner"),
          reg.counter("runner.cells_resumed", "cells",
                      "cells restored from a checkpoint instead of re-run"),
      };
    }();
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int jobs) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs_ = std::max(jobs, 1);
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock{mu_};
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock{mu_};
    queue_.push_back(QueuedTask{next_task_id_++, std::move(task)});
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock{mu_};
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::vector<TaskFailure> ThreadPool::failures() const {
  std::lock_guard<std::mutex> lock{mu_};
  return failures_;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    try {
      task.fn();
    } catch (const std::exception& e) {
      lock.lock();
      failures_.push_back(TaskFailure{task.id, e.what()});
      lock.unlock();
    } catch (...) {
      lock.lock();
      failures_.push_back(TaskFailure{task.id, "non-standard exception"});
      lock.unlock();
    }
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

int resolve_jobs(int jobs, std::size_t cells) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs = std::max(jobs, 1);
  if (cells > 0) {
    jobs = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs), cells));
  }
  return jobs;
}

TaskLoopResult run_task_loop(
    const std::vector<char>& skip, int jobs, const std::atomic<bool>* cancel,
    const std::function<void(std::size_t, sim::Arena&)>& run,
    const std::function<void(std::size_t)>& finish,
    const MatrixProgress& progress) {
  TaskLoopResult result;
  std::mutex mu;  // guards result and done; serializes finish + progress
  std::size_t done = static_cast<std::size_t>(
      std::count_if(skip.begin(), skip.end(), [](char s) { return s != 0; }));

  const auto run_one = [&](std::size_t i, sim::Arena& arena) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock{mu};
      result.cancelled = true;
      return;  // graceful drain: skip, let in-flight tasks finish
    }
    run(i, arena);
    // Whatever the task allocated from the arena is dead by now (its
    // testbeds are gone; results use the global allocator): rewind it
    // wholesale instead of freeing packet by packet.
    arena.reset();
    std::lock_guard<std::mutex> lock{mu};
    finish(i);
    if (!progress) return;
    try {
      progress(++done, skip.size());
    } catch (const std::exception& e) {
      if (result.progress_errors++ == 0) result.progress_error = e.what();
    } catch (...) {
      if (result.progress_errors++ == 0) {
        result.progress_error = "non-standard exception";
      }
    }
  };

  const int workers = resolve_jobs(jobs, skip.size());
  if (workers == 1) {
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (std::size_t i = 0; i < skip.size(); ++i) {
      if (!skip[i]) run_one(i, arena);
    }
    return result;
  }
  ThreadPool pool{workers};
  for (std::size_t i = 0; i < skip.size(); ++i) {
    if (skip[i]) continue;
    pool.submit([&run_one, i] {
      // Each worker keeps a private arena: tasks bump their own slabs
      // instead of contending on the global allocator.
      thread_local sim::Arena worker_arena;
      sim::ArenaScope scope{&worker_arena};
      run_one(i, worker_arena);
    });
  }
  pool.wait_idle();
  return result;
}

std::vector<OverheadSeries> run_matrix(const std::vector<ExperimentConfig>& cells,
                                       int jobs, MatrixProgress progress) {
  MatrixOptions options;
  options.jobs = jobs;
  options.progress = std::move(progress);
  options.watchdog.max_attempts = 1;
  return run_matrix_checked(cells, options).series;
}

// ---------------------------------------------------------------------------
// The crash-safe engine.

namespace {

/// One shared deadline thread per run_matrix_checked invocation: workers
/// arm their attempt's CellWatchdog with a steady-clock deadline; the host
/// wakes at the earliest one and sets wall_expired (one-shot). Lazy — a run
/// with no wall limit never spawns the thread.
class WatchdogHost {
 public:
  ~WatchdogHost() {
    {
      std::lock_guard<std::mutex> lock{mu_};
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t arm(CellWatchdog* watchdog,
                    std::chrono::steady_clock::time_point deadline) {
    std::uint64_t token = 0;
    {
      std::lock_guard<std::mutex> lock{mu_};
      token = next_token_++;
      armed_[token] = Entry{watchdog, deadline};
      if (!thread_.joinable()) {
        thread_ = std::thread{[this] { loop(); }};
      }
    }
    cv_.notify_all();
    return token;
  }

  void disarm(std::uint64_t token) {
    std::lock_guard<std::mutex> lock{mu_};
    armed_.erase(token);
  }

 private:
  struct Entry {
    CellWatchdog* watchdog = nullptr;
    std::chrono::steady_clock::time_point deadline;
  };

  void loop() {
    std::unique_lock<std::mutex> lock{mu_};
    while (!stop_) {
      if (armed_.empty()) {
        cv_.wait(lock, [this] { return stop_ || !armed_.empty(); });
        continue;
      }
      auto next = std::chrono::steady_clock::time_point::max();
      for (const auto& [token, e] : armed_) {
        next = std::min(next, e.deadline);
      }
      if (cv_.wait_until(lock, next,
                         [this] { return stop_; })) {
        return;
      }
      const auto now = std::chrono::steady_clock::now();
      for (auto it = armed_.begin(); it != armed_.end();) {
        if (it->second.deadline <= now) {
          it->second.watchdog->wall_expired.store(true,
                                                  std::memory_order_release);
          it = armed_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> armed_;
  std::uint64_t next_token_ = 0;
  std::thread thread_;
  bool stop_ = false;
};

/// What every cell of one engine invocation shares (read-only while the
/// loop runs; the writer and host are thread-safe).
struct EngineState {
  const std::vector<ExperimentConfig>* cells = nullptr;
  const WatchdogPolicy* watchdog = nullptr;
  const WatchedCellRunner* runner = nullptr;
  CheckpointWriter* writer = nullptr;  ///< nullptr = checkpointing off
  WatchdogHost* host = nullptr;        ///< nullptr = no wall watchdog
};

/// How one cell's attempts ended. The series itself goes straight into the
/// result; retries are folded in under the loop's lock, quarantine records
/// after the loop, in cell order.
struct CellOutcome {
  int retries = 0;
  std::optional<CellError> quarantined;
};

/// Run one cell under the attempt/retry/quarantine policy, storing its
/// series in `*out`. Called on a worker (or the calling thread when
/// jobs == 1) with an arena scope already active.
CellOutcome run_cell_checked(const EngineState& st, std::size_t i,
                             OverheadSeries* out) {
  const ExperimentConfig& config = (*st.cells)[i];
  const WatchdogPolicy& wd = *st.watchdog;
  const int max_attempts = std::max(wd.max_attempts, 1);
  const bool watched = wd.wall_limit.count() > 0 || wd.event_budget > 0;
  const RunnerMetrics& metrics = RunnerMetrics::get();

  CellOutcome outcome;
  std::string last_what;
  std::string last_where;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    CellWatchdog watchdog;
    watchdog.event_budget = wd.event_budget;
    std::uint64_t token = 0;
    const bool armed = st.host != nullptr && wd.wall_limit.count() > 0;
    if (armed) {
      token = st.host->arm(&watchdog,
                           std::chrono::steady_clock::now() + wd.wall_limit);
    }
    try {
      BNM_PROF_SCOPE("matrix.cell");
      OverheadSeries series =
          (*st.runner)(config, watched ? &watchdog : nullptr);
      if (armed) st.host->disarm(token);
      *out = std::move(series);
      // Persist before announcing: a crash inside the progress callback
      // (the chaos harness's hard-kill point) must find the cell on disk.
      if (st.writer != nullptr) st.writer->add(i, config, *out);
      return outcome;
    } catch (const CellAbortError& e) {
      if (armed) st.host->disarm(token);
      last_what = e.what();
      last_where = e.where();
      if (last_where == "watchdog.wall_clock") {
        metrics.watchdog_wall_trips.add();
      } else if (last_where == "watchdog.event_budget") {
        metrics.watchdog_budget_trips.add();
      }
    } catch (const std::exception& e) {
      if (armed) st.host->disarm(token);
      last_what = e.what();
      last_where = "cell";
    } catch (...) {
      if (armed) st.host->disarm(token);
      last_what = "non-standard exception";
      last_where = "cell";
    }
    if (attempt < max_attempts) {
      metrics.retries.add();
      ++outcome.retries;
      if (wd.backoff_base.count() > 0) {
        std::this_thread::sleep_for(wd.backoff_base * (1 << (attempt - 1)));
      }
    }
  }

  OverheadSeries failed;
  failed.config = config;
  failed.failures = config.runs;
  // A plain throw reads "uncaught exception: <what>"; watchdog trips name
  // the guard instead.
  if (last_where == "cell") {
    failed.first_error = last_what == "non-standard exception"
                             ? "uncaught exception (non-standard)"
                             : "uncaught exception: " + last_what;
  } else {
    failed.first_error = last_where + ": " + last_what;
  }
  *out = std::move(failed);
  metrics.quarantined.add();
  // Quarantined cells are deliberately NOT checkpointed: a resumed run
  // gets a fresh set of attempts at them.
  outcome.quarantined = CellError{i, last_what, last_where, max_attempts};
  return outcome;
}

}  // namespace

MatrixResult run_matrix_checked(const std::vector<ExperimentConfig>& cells,
                                const MatrixOptions& options,
                                const WatchedCellRunner& runner) {
  MatrixResult result;
  result.series.resize(cells.size());
  if (cells.empty()) return result;

  const WatchedCellRunner default_runner =
      [](const ExperimentConfig& config, CellWatchdog* watchdog) {
        return run_experiment_watched(config, watchdog);
      };

  // Resume: restore hash-matching cells, then keep their records alive in
  // the writer so every rewrite of the checkpoint file stays complete.
  std::unique_ptr<CheckpointWriter> writer;
  std::vector<char> resumed(cells.size(), 0);
  if (!options.checkpoint.path.empty()) {
    writer = std::make_unique<CheckpointWriter>(options.checkpoint.path,
                                                cells.size(),
                                                options.checkpoint.flush_every);
    if (options.checkpoint.resume) {
      std::optional<CheckpointReader> reader =
          CheckpointReader::load(options.checkpoint.path,
                                 matrix_checkpoint_limit(cells));
      if (reader) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const OverheadSeries* stored = reader->lookup(i, cells[i]);
          if (stored == nullptr) continue;
          result.series[i] = *stored;
          result.series[i].config = cells[i];
          resumed[i] = 1;
          ++result.cells_resumed;
          writer->preload(i, cell_config_hash_hex(cells[i]), *stored);
        }
        RunnerMetrics::get().cells_resumed.add(result.cells_resumed);
      }
    }
  }

  WatchdogHost host;
  const EngineState st{&cells, &options.watchdog,
                       runner ? &runner : &default_runner, writer.get(),
                       options.watchdog.wall_limit.count() > 0 ? &host
                                                               : nullptr};
  std::vector<CellOutcome> outcomes(cells.size());
  const TaskLoopResult loop = run_task_loop(
      resumed, options.jobs, options.cancel,
      [&](std::size_t i, sim::Arena&) {
        outcomes[i] = run_cell_checked(st, i, &result.series[i]);
      },
      [&](std::size_t i) {
        ++result.cells_run;
        result.retries += static_cast<std::uint64_t>(outcomes[i].retries);
      },
      options.progress);
  result.cancelled = loop.cancelled;
  result.progress_errors = loop.progress_errors;
  result.progress_error = loop.progress_error;
  RunnerMetrics::get().progress_errors.add(loop.progress_errors);
  for (CellOutcome& o : outcomes) {  // input order: sorted by cell
    if (o.quarantined) result.quarantined.push_back(std::move(*o.quarantined));
  }
  if (writer) writer->flush();
  return result;
}

}  // namespace bnm::core
