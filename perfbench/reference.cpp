// The reference kernel the timed run measures after every group, so that
// host times can be read against what the machine gave at that moment.
//
// The kernel is a small discrete-event loop: a binary-heap calendar of
// timestamped events, an ordered map of live objects with heap-allocated
// string payloads, and indirect calls through std::function. That is the
// instruction and allocation mix of the simulator's dispatch loop, so the
// kernel slows with the library when another tenant of the host takes
// cache, memory bandwidth or core time; a pure ALU loop does not track
// those phases nearly as well (README.md, "Noise and the reference
// kernel"). It lives here, outside the library, so no change to src/
// changes what it does.
//
// With several threads the kernel is cut into chunks that the threads
// take from a shared counter, as campaign shards are taken by the pool's
// workers, so a host that gives fewer cores than threads slows it the way
// it slows a load-balanced pool rather than by the slowest thread.
#include "reference.h"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

constexpr int kSteps = 10'000;
constexpr int kCallees = 16;
constexpr std::uint64_t kIds = 4096;

struct Event {
  std::uint64_t at;
  std::uint64_t id;
  bool operator>(const Event& o) const { return at > o.at; }
};

std::uint64_t event_loop(std::uint64_t salt) {
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> calendar;
  std::map<std::uint64_t, std::unique_ptr<std::string>> live;
  std::vector<std::function<std::uint64_t(std::uint64_t)>> callees;
  for (std::uint64_t i = 0; i < kCallees; ++i) {
    callees.emplace_back([i](std::uint64_t v) { return v * (i + 3) ^ (v >> 7); });
  }
  std::uint64_t r = 12345 + salt, acc = 0;
  for (std::uint64_t i = 0; i < 256; ++i) calendar.push({i, i});
  for (int step = 0; step < kSteps; ++step) {
    const Event e = calendar.top();
    calendar.pop();
    r = r * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += callees[(r >> 40) % kCallees](e.id);
    const auto it = live.find(e.id);
    if (it == live.end()) {
      live.emplace(e.id, std::make_unique<std::string>(24 + (r >> 58), 'x'));
    } else {
      live.erase(it);
    }
    calendar.push({e.at + 1 + ((r >> 20) & 1023), (r >> 30) % kIds});
  }
  return acc + live.size();
}

}  // namespace

double reference_ms(int threads) {
  const int chunks = 2 * threads;
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(chunks));
  std::atomic<int> next{0};
  const auto work = [&] {
    for (int c; (c = next.fetch_add(1)) < chunks;) {
      sinks[static_cast<std::size_t>(c)] =
          event_loop(static_cast<std::uint64_t>(c));
    }
  };
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> helpers;
  for (int t = 1; t < threads; ++t) helpers.emplace_back(work);
  work();
  for (std::thread& th : helpers) th.join();
  const double ms = ms_between(t0, Clock::now());
  static volatile std::uint64_t keep;  // keeps the loops observable
  for (const std::uint64_t v : sinks) keep = keep ^ v;
  return ms;
}

}  // namespace perfbench
