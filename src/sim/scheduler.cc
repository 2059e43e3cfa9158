#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/trace.h"

namespace bnm::sim {

namespace {

/// Kernel throughput counters (always on, bumped once per batch — never per
/// event). Catalogued in docs/OBSERVABILITY.md.
struct SchedulerMetrics {
  obs::Counter batches;
  obs::Counter events;
  obs::Counter promotions;
  obs::Counter overflow_pulls;

  static const SchedulerMetrics& get() {
    static const SchedulerMetrics m{
        obs::MetricsRegistry::instance().counter(
            "scheduler.batches", "batches",
            "buckets fired by batched dispatch"),
        obs::MetricsRegistry::instance().counter(
            "scheduler.events", "events", "events executed by any scheduler"),
        obs::MetricsRegistry::instance().counter(
            "scheduler.bucket_promotions", "buckets",
            "calendar buckets promoted (sorted) into the bottom tier"),
        obs::MetricsRegistry::instance().counter(
            "scheduler.overflow_pulls", "events",
            "far-future events migrated from the overflow heap into a "
            "promoted bucket"),
    };
    return m;
  }
};

}  // namespace

namespace detail {

std::uint32_t ControlBlockPool::acquire(std::uint32_t& gen) {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    Slot& s = slot(idx);
    s.alive = true;
    gen = s.gen;
    return idx;
  }
  if (size_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Grow the free list up front so retire() never reallocates on the
    // dispatch hot path.
    free_.reserve(size_ + kChunkSlots);
  }
  const std::uint32_t idx = size_++;
  Slot& s = slot(idx);
  s.alive = true;
  gen = s.gen;
  return idx;
}

void ControlBlockPool::retire(std::uint32_t idx) {
  Slot& s = slot(idx);
  ++s.gen;  // stale handles become inert instantly
  s.alive = false;
  free_.push_back(idx);
}

void CallbackPool::grow() {
  chunks_.push_back(std::make_unique<SmallCallback[]>(kChunkCells));
  // Reserve for the worst case (every cell free at once) so release() never
  // reallocates on the dispatch hot path.
  free_.reserve(chunks_.size() * kChunkCells);
  SmallCallback* base = chunks_.back().get();
  for (std::size_t i = kChunkCells; i > 0; --i) {
    free_.push_back(base + (i - 1));
  }
}

}  // namespace detail

namespace {

/// Parked tier storage of destroyed schedulers, per thread. Bounded in
/// count (a thread rarely holds more than one live simulation) and in
/// size (a vector grown by an outsized run is released, not parked).
constexpr std::size_t kParkedTiers = 4;
constexpr std::size_t kMaxParkedEntries = 4096;
/// Smallest capacity a tier vector grows to: one allocation instead of the
/// 1-2-4-8 doubling chain each bucket would otherwise walk on first use.
constexpr std::size_t kMinTierEntries = 16;

template <typename Entry>
void reserve_floor(std::vector<Entry>& v) {
  if (v.capacity() < kMinTierEntries) v.reserve(kMinTierEntries);
}

}  // namespace

struct TierCache {
  std::array<Scheduler::Tiers*, kParkedTiers> parked{};
  std::size_t count = 0;
  ~TierCache();
};

namespace {
// Trivially destructible, so it stays readable while (and after) the
// cache itself is destroyed at thread exit.
thread_local bool t_cache_closed = false;
thread_local TierCache t_cache;
}  // namespace

TierCache::~TierCache() {
  t_cache_closed = true;
  for (std::size_t i = 0; i < count; ++i) delete parked[i];
  count = 0;
}

Scheduler::Tiers* Scheduler::take_tiers() {
  if (!t_cache_closed && t_cache.count != 0) {
    return t_cache.parked[--t_cache.count];
  }
  return new Tiers;
}

void Scheduler::park_tiers(Tiers* tiers) {
  if (t_cache_closed || t_cache.count == kParkedTiers) {
    delete tiers;
    return;
  }
  const auto trim = [](std::vector<Entry>& v) {
    if (v.capacity() > kMaxParkedEntries) std::vector<Entry>{}.swap(v);
  };
  trim(tiers->bottom);
  trim(tiers->overflow);
  for (std::vector<Entry>& bucket : tiers->ring) trim(bucket);
  t_cache.parked[t_cache.count++] = tiers;
}

Scheduler::Scheduler()
    : pool_{new detail::ControlBlockPool}, tiers_{take_tiers()} {}

Scheduler::~Scheduler() {
  // Destroy the pending callables now (they may hold arena-backed state
  // that must die with the simulation) but leave their control blocks
  // alive: handles outliving the scheduler keep reporting pending().
  drop_all(/*retire_blocks=*/false);
  park_tiers(tiers_);
  pool_->release();
}

void Scheduler::push_entry(TimePoint at, SmallCallback* cb,
                           std::uint32_t block) {
  if (at < now_) at = now_;  // never schedule into the past
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t abs = bucket_of(at);
  if (abs < next_abs_bucket_) {
    // Lands inside the active bottom's time range: merge-insert into the
    // un-fired tail so the (at, seq) total order is preserved. The new
    // entry's seq is the largest so far, so it can never sort before an
    // already-fired position.
    std::vector<Entry>& bottom = tiers_->bottom;
    reserve_floor(bottom);
    const auto pos = std::upper_bound(
        bottom.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
        bottom.end(), at, [seq](TimePoint key, const Entry& e) {
          if (key != e.at) return key < e.at;
          return seq < e.seq;
        });
    bottom.insert(pos, Entry{at, seq, cb, block, now_});
  } else if (abs < next_abs_bucket_ + kBuckets) {
    std::vector<Entry>& bucket = tiers_->ring[abs & kBucketMask];
    if (bucket.empty()) {
      mark_bucket(abs, true);
      reserve_floor(bucket);
    } else if (at < bucket.back().at) {
      // Out-of-order append (the new seq is always maximal, so only an
      // earlier `at` breaks the order): remember that promotion must sort.
      const std::size_t slot = abs & kBucketMask;
      unsorted_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    bucket.push_back(Entry{at, seq, cb, block, now_});
    ++ring_count_;
  } else {
    std::vector<Entry>& overflow = tiers_->overflow;
    overflow.push_back(Entry{at, seq, cb, block, now_});
    std::push_heap(overflow.begin(), overflow.end(), Later{});
  }
}

EventHandle Scheduler::schedule_cell(TimePoint at, SmallCallback* cb) {
  std::uint32_t gen = 0;
  const std::uint32_t idx = pool_->acquire(gen);
  EventHandle handle{pool_, idx, gen};
  push_entry(at, cb, idx + 1);
  return handle;
}

void Scheduler::mark_bucket(std::uint64_t abs, bool occupied) {
  const std::size_t slot = abs & kBucketMask;
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if (occupied) {
    occupied_[slot / 64] |= bit;
  } else {
    occupied_[slot / 64] &= ~bit;
  }
}

std::uint64_t Scheduler::next_ring_bucket() const {
  if (ring_count_ == 0) return kNoBucket;
  // Scan the occupancy bitmap cyclically starting at next_abs_bucket_'s
  // slot. Each occupied slot maps to exactly one absolute bucket inside the
  // window [next_abs_bucket_, next_abs_bucket_ + kBuckets).
  const std::size_t start = next_abs_bucket_ & kBucketMask;
  for (std::size_t scanned = 0; scanned < kBuckets;) {
    const std::size_t slot = (start + scanned) & kBucketMask;
    const std::size_t word = slot / 64;
    std::uint64_t bits = occupied_[word] >> (slot % 64);
    if (bits != 0) {
      const std::size_t offset =
          static_cast<std::size_t>(__builtin_ctzll(bits));
      const std::size_t hit = scanned + offset;
      if (hit >= kBuckets) break;  // wrapped past the window
      return next_abs_bucket_ + hit;
    }
    scanned += 64 - (slot % 64);  // jump to the next word boundary
  }
  return kNoBucket;  // unreachable while ring_count_ > 0, but be safe
}

bool Scheduler::refill_bottom() {
  std::vector<Entry>& bottom = tiers_->bottom;
  std::vector<Entry>& overflow = tiers_->overflow;
  if (bottom_pos_ < bottom.size()) return true;
  bottom.clear();
  bottom_pos_ = 0;

  const std::uint64_t rb = next_ring_bucket();
  const std::uint64_t ob =
      overflow.empty() ? kNoBucket : bucket_of(overflow.front().at);
  const std::uint64_t b = std::min(rb, ob);
  if (b == kNoBucket) return false;

  bool sorted = true;
  if (rb == b) {
    std::vector<Entry>& bucket = tiers_->ring[b & kBucketMask];
    ring_count_ -= bucket.size();
    mark_bucket(b, false);
    const std::size_t slot = b & kBucketMask;
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    sorted = (unsorted_[slot / 64] & bit) == 0;
    unsorted_[slot / 64] &= ~bit;
    // Swap so the drained bucket inherits the bottom's capacity —
    // vectors circulate between the tiers instead of reallocating.
    bottom.swap(bucket);
  }
  const bool had_ring_entries = !bottom.empty();
  std::size_t pulled = 0;
  while (!overflow.empty() && bucket_of(overflow.front().at) == b) {
    std::pop_heap(overflow.begin(), overflow.end(), Later{});
    bottom.push_back(std::move(overflow.back()));
    overflow.pop_back();
    ++pulled;
  }
  // Ring buckets track sortedness at insert time (most workloads append in
  // non-decreasing (at, seq) order, so promotion is sort-free); successive
  // pop_heap pulls arrive already ascending, but appending them after ring
  // entries interleaves two runs and forces the sort.
  if (pulled != 0 && had_ring_entries) sorted = false;
  if (!sorted) std::sort(bottom.begin(), bottom.end(), Earlier{});
  next_abs_bucket_ = b + 1;

  const auto& metrics = SchedulerMetrics::get();
  metrics.promotions.add(1);
  if (pulled != 0) metrics.overflow_pulls.add(pulled);
  return true;
}

std::optional<TimePoint> Scheduler::tier_lower_bound() const {
  const std::vector<Entry>& overflow = tiers_->overflow;
  std::optional<TimePoint> lb;
  const std::uint64_t rb = next_ring_bucket();
  if (rb != kNoBucket) {
    lb = TimePoint::from_ns(static_cast<std::int64_t>(rb << kBucketShiftNs));
  }
  if (!overflow.empty() &&
      (!lb || overflow.front().at < *lb)) {
    lb = overflow.front().at;
  }
  return lb;
}

std::optional<TimePoint> Scheduler::next_event_time() {
  if (!refill_bottom()) return std::nullopt;
  return tiers_->bottom[bottom_pos_].at;
}

bool Scheduler::fire_one(bool tracing) {
  // Copy the entry out (40 trivially-copyable bytes): the callback may
  // schedule into the bottom tail and reallocate the vector under us. The
  // callable itself stays put — its pool cell is stable across any growth
  // the callback triggers — so it is invoked in place, never moved.
  const Entry e = tiers_->bottom[bottom_pos_++];
  if (e.block != 0 && !pool_->retire_was_alive(e.block - 1)) {
    tiers_->callbacks.release(e.cb);
    return false;  // cancelled while queued or staged in a batch
  }
  assert(e.at >= now_);
  now_ = e.at;
  ++executed_;
  if (tracing) {
    // The span covers the event's queue wait in simulated time: posted at
    // e.posted, fired at e.at.
    trace_->emit_span(e.posted, e.at - e.posted, "scheduler", "dispatch",
                      {{"seq", static_cast<std::int64_t>(e.seq)}});
  }
  (*e.cb)();
  tiers_->callbacks.release(e.cb);
  return true;
}

void Scheduler::note_batch(std::size_t fired) {
  ++batches_;
  const auto& metrics = SchedulerMetrics::get();
  metrics.batches.add(1);
  if (fired != 0) metrics.events.add(fired);
}

bool Scheduler::step() {
  while (refill_bottom()) {
    const bool tracing = trace_ && trace_->enabled();
    if (fire_one(tracing)) return true;
  }
  return false;
}

std::size_t Scheduler::step_batch() {
  if (!refill_bottom()) return 0;
  BNM_PROF_SCOPE("scheduler.dispatch");
  const bool tracing = trace_ && trace_->enabled();
  const std::vector<Entry>& bottom = tiers_->bottom;
  const TimePoint batch_start = bottom[bottom_pos_].at;
  std::size_t fired = 0;
  // fire_one may reallocate the bottom; the reference stays valid (it
  // names the vector, not its buffer).
  while (bottom_pos_ < bottom.size()) {
    if (fire_one(tracing)) ++fired;
  }
  if (tracing) {
    trace_->emit_span(batch_start, now_ - batch_start, "scheduler", "batch",
                      {{"events", static_cast<std::int64_t>(fired)}});
  }
  note_batch(fired);
  return fired;
}

void Scheduler::run() {
  // step_batch can legitimately fire 0 events (a fully-cancelled bucket);
  // refill_bottom is the emptiness test, not the fired count.
  while (refill_bottom()) step_batch();
}

void Scheduler::run_until(TimePoint deadline) {
  const std::vector<Entry>& bottom = tiers_->bottom;
  while (true) {
    if (bottom_pos_ < bottom.size()) {
      BNM_PROF_SCOPE("scheduler.dispatch");
      const bool tracing = trace_ && trace_->enabled();
      std::size_t fired = 0;
      while (bottom_pos_ < bottom.size() &&
             bottom[bottom_pos_].at <= deadline) {
        if (fire_one(tracing)) ++fired;
      }
      note_batch(fired);
      if (bottom_pos_ < bottom.size()) break;  // next event past deadline
      continue;
    }
    // Bottom exhausted: peek at the outer tiers before promoting, so a
    // deadline short of the next bucket costs nothing.
    const auto lb = tier_lower_bound();
    if (!lb || *lb > deadline) break;
    refill_bottom();
  }
  if (now_ < deadline) now_ = deadline;
}

std::size_t Scheduler::run_while(const bool& stop, TimePoint not_after,
                                 const RunLimits* limits) {
  std::size_t fired = 0;
  if (limits == nullptr) {
    // Default path: byte-for-byte the historical loop, no atomic loads.
    while (!stop) {
      if (now_ > not_after) break;
      if (!step()) break;
      ++fired;
    }
  } else {
    while (!stop) {
      if (now_ > not_after) break;
      if (limits->max_events != 0 && fired >= limits->max_events) break;
      if (limits->abort != nullptr &&
          limits->abort->load(std::memory_order_acquire)) {
        break;
      }
      if (!step()) break;
      ++fired;
    }
  }
  if (fired != 0) SchedulerMetrics::get().events.add(fired);
  return fired;
}

std::size_t Scheduler::pending_events() const {
  std::size_t live = 0;
  const auto count = [&](const Entry& e) {
    if (e.block == 0 || pool_->alive(e.block - 1)) ++live;
  };
  const std::vector<Entry>& bottom = tiers_->bottom;
  for (std::size_t i = bottom_pos_; i < bottom.size(); ++i) count(bottom[i]);
  for (const auto& bucket : tiers_->ring) {
    for (const Entry& e : bucket) count(e);
  }
  for (const Entry& e : tiers_->overflow) count(e);
  return live;
}

void Scheduler::drop_all(bool retire_blocks) {
  detail::CallbackPool& callbacks = tiers_->callbacks;
  const auto drop = [&](Entry& e) {
    if (retire_blocks && e.block != 0) pool_->retire(e.block - 1);
    callbacks.release(e.cb);
  };
  std::vector<Entry>& bottom = tiers_->bottom;
  for (std::size_t i = bottom_pos_; i < bottom.size(); ++i) drop(bottom[i]);
  bottom.clear();
  bottom_pos_ = 0;
  if (ring_count_ != 0) {
    for (auto& bucket : tiers_->ring) {
      for (Entry& e : bucket) drop(e);
      bucket.clear();
    }
  }
  occupied_.fill(0);
  unsorted_.fill(0);
  ring_count_ = 0;
  for (Entry& e : tiers_->overflow) drop(e);
  tiers_->overflow.clear();
}

void Scheduler::clear() {
  drop_all(/*retire_blocks=*/true);
  // Re-anchor the ring at the current time so new near-future events use
  // the buckets instead of degenerating to sorted bottom inserts.
  next_abs_bucket_ = bucket_of(now_);
}

}  // namespace bnm::sim
