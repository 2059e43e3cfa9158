// Browser main-thread model: a FIFO task queue with per-task dispatch
// latency. Completion events (onreadystatechange, onload, socket data)
// queue behind whatever the main thread is doing, which is where much of
// the HTTP methods' delay overhead comes from.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>
#include <string>

#include "sim/simulation.h"

namespace bnm::browser {

class EventLoop {
 public:
  EventLoop(sim::Simulation& sim, std::string name);

  /// Queue `task` (any `void()` callable) to become runnable after
  /// `dispatch_latency`; it executes once the main thread is free
  /// (non-preemptive, FIFO among ready tasks). A task only occupies the
  /// thread when it actually runs, so timers posted far into the future do
  /// not block earlier work. The task rides in the scheduler's own closure
  /// cell, moved along (never copied) when the thread is busy.
  template <typename F>
  void post(sim::Duration dispatch_latency, F&& task) {
    if (dispatch_latency.is_negative()) {
      dispatch_latency = sim::Duration::zero();
    }
    sim_.scheduler().schedule_after(
        dispatch_latency, Runnable<std::decay_t<F>>{this, std::forward<F>(task)});
  }

  /// Cost charged to the main thread per executed task.
  void set_task_cost(sim::Duration cost) { task_cost_ = cost; }

  std::uint64_t tasks_run() const { return tasks_run_; }

 private:
  template <typename F>
  struct Runnable {
    EventLoop* loop;
    F task;
    void operator()() {
      if (loop->sim_.now() < loop->busy_until_) {
        // Main thread occupied: wait for the running task to finish.
        // Scheduler sequence numbers keep ready tasks FIFO.
        loop->sim_.scheduler().schedule_at(loop->busy_until_,
                                           std::move(*this));
        return;
      }
      loop->start_task();
      task();
    }
  };

  /// Occupy the main thread for one task.
  void start_task() {
    busy_until_ = sim_.now() + task_cost_;
    ++tasks_run_;
  }

  sim::Simulation& sim_;
  std::string name_;
  sim::TimePoint busy_until_;
  sim::Duration task_cost_ = sim::Duration::micros(20);
  std::uint64_t tasks_run_ = 0;
};

}  // namespace bnm::browser
