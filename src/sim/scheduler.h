// Discrete-event scheduler: the heartbeat of the testbed.
//
// Components schedule closures to run at simulated instants. Events at the
// same instant execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run fully deterministic.
//
// Cancellation is supported through EventHandle tokens — cancelling marks
// the pooled control block dead; the entry is skipped (and its block
// recycled) when it surfaces.
//
// Queue layout: a two-tier calendar/ladder queue.
//
//   * bottom   — the bucket currently being fired, sorted by (at, seq).
//                Dispatch is an index increment; nested schedules landing
//                inside the bottom's time range are merge-inserted into the
//                un-fired tail, preserving the total order.
//   * ring     — kBuckets near-future buckets of width 2^kBucketShiftNs ns,
//                indexed by the quantized TimePoint. Insertion is an
//                unsorted append; a bucket is sorted once, when it is
//                promoted to become the bottom. A 256-bit occupancy bitmap
//                makes find-next-bucket a handful of word scans.
//   * overflow — binary min-heap for events beyond the ring horizon.
//                Entries migrate into the ring lazily: when their bucket is
//                promoted (epoch advance), never before.
//
// The (at, seq) total order is the contract: tests/test_scheduler.cpp
// checks it directly, and the golden fingerprints (ctest -L golden) pin the
// report bytes every canonical scenario produces on top of it.
//
// Hot-path costs: schedule_*/post_* construct the closure in a pooled cell
// and append to a bucket, plus (for the cancellable path) a pooled
// control-block acquisition — no heap allocation in steady state
// (tests/test_kernel_alloc.cpp asserts this with an operator-new hook).
// run() fires whole buckets per batch with the trace/profiling guards
// hoisted out of the per-event loop.
//
// Storage reuse: the tier vectors (bottom, the kBuckets ring buckets,
// overflow) and the callback cells only ever grow. A destroyed scheduler
// parks them, drained, in a small per-thread cache and the next scheduler
// built on that thread takes them warm, so a simulation neither pays a
// per-bucket warm-up nor a kBuckets-sized construction.
#pragma once

#include <array>
#include <cassert>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace bnm::sim {

class Trace;

namespace detail {

/// Pool of event liveness/generation slots. Chunked so slot addresses are
/// stable; recycled slots bump their generation, which instantly
/// invalidates any stale EventHandle without freeing memory. Intrusively
/// refcounted (non-atomic — a Scheduler and its handles live on one thread
/// by contract) so handles that outlive their Scheduler stay safe: they
/// keep the pool alive and, like the old shared_ptr<bool> tokens, report
/// pending() for events their dead scheduler never fired.
class ControlBlockPool {
 public:
  void add_ref() { ++refs_; }
  void release() {
    if (--refs_ == 0) delete this;
  }
  /// Take a free slot (alive, current generation — written to `gen`).
  /// Allocates a new chunk only when the pool is exhausted — steady state
  /// is allocation-free.
  std::uint32_t acquire(std::uint32_t& gen);
  /// Entry surfaced (fired, dead or cleared): invalidate outstanding
  /// handles and recycle the slot.
  void retire(std::uint32_t idx);
  /// retire() fused with the liveness read the dispatch loop needs —
  /// one slot lookup instead of two. Returns whether the event was still
  /// alive (i.e. not cancelled) at retirement.
  bool retire_was_alive(std::uint32_t idx) {
    Slot& s = slot(idx);
    const bool was_alive = s.alive;
    ++s.gen;
    s.alive = false;
    free_.push_back(idx);
    return was_alive;
  }

  void cancel(std::uint32_t idx, std::uint32_t gen) {
    Slot& s = slot(idx);
    if (s.gen == gen) s.alive = false;
  }
  bool pending(std::uint32_t idx, std::uint32_t gen) const {
    const Slot& s = slot(idx);
    return s.gen == gen && s.alive;
  }
  bool alive(std::uint32_t idx) const { return slot(idx).alive; }
  std::uint32_t generation(std::uint32_t idx) const { return slot(idx).gen; }
  std::size_t free_count() const { return free_.size(); }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    bool alive = false;
  };
  static constexpr std::size_t kChunkSlots = 256;

  Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
  std::uint32_t refs_ = 1;  ///< creator's reference
};

/// Chunk-stable pool of SmallCallback cells. Queue entries reference their
/// callable by pointer, which keeps an Entry at ~40 trivially-copyable
/// bytes: bucket pushes, promotions and sorts move small PODs instead of
/// memcpy'ing 64-byte closure buffers, and dispatch can invoke the callable
/// in place — cells never move, even when the callback's own scheduling
/// grows the pool or reshapes the queue tiers. A closure is constructed
/// straight into its cell (Scheduler::schedule_at and friends), so it is
/// never relocated between the call site and dispatch.
class CallbackPool {
 public:
  /// An empty cell to construct a callable into.
  SmallCallback* acquire() {
    if (free_.empty()) grow();
    SmallCallback* cell = free_.back();
    free_.pop_back();
    return cell;
  }
  /// Destroy the cell's callable (if any) and park the cell for reuse.
  /// Never allocates: grow() pre-reserves the free list.
  void release(SmallCallback* cell) {
    *cell = nullptr;
    free_.push_back(cell);
  }

 private:
  static constexpr std::size_t kChunkCells = 256;
  void grow();
  std::vector<std::unique_ptr<SmallCallback[]>> chunks_;
  std::vector<SmallCallback*> free_;
};

}  // namespace detail

/// A cancellation token for a scheduled event. Default-constructed handles
/// are inert. Handles are cheap to copy (one refcount bump, no allocation);
/// cancelling any copy cancels the event.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& o) : pool_{o.pool_}, idx_{o.idx_}, gen_{o.gen_} {
    if (pool_) pool_->add_ref();
  }
  EventHandle(EventHandle&& o) noexcept
      : pool_{o.pool_}, idx_{o.idx_}, gen_{o.gen_} {
    o.pool_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& o) {
    if (this != &o) {
      if (o.pool_) o.pool_->add_ref();
      if (pool_) pool_->release();
      pool_ = o.pool_;
      idx_ = o.idx_;
      gen_ = o.gen_;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& o) noexcept {
    if (this != &o) {
      if (pool_) pool_->release();
      pool_ = o.pool_;
      idx_ = o.idx_;
      gen_ = o.gen_;
      o.pool_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() {
    if (pool_) pool_->release();
  }

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel() {
    if (pool_) pool_->cancel(idx_, gen_);
  }
  /// True if the event is still waiting to fire.
  bool pending() const { return pool_ && pool_->pending(idx_, gen_); }

 private:
  friend class Scheduler;
  EventHandle(detail::ControlBlockPool* pool, std::uint32_t idx,
              std::uint32_t gen)
      : pool_{pool}, idx_{idx}, gen_{gen} {
    pool_->add_ref();
  }
  detail::ControlBlockPool* pool_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

/// Calendar-queue event scheduler with deterministic same-instant ordering.
class Scheduler {
 public:
  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time. Advances only inside run()/step().
  TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()). Any
  /// `void()` callable; it is constructed in its pool cell, never moved
  /// again before it fires.
  template <typename F>
  EventHandle schedule_at(TimePoint at, F&& fn) {
    return schedule_cell(at, make_cell(std::forward<F>(fn)));
  }
  /// Schedule `fn` to run `delay` after now(). Negative delays clamp to 0.
  template <typename F>
  EventHandle schedule_after(Duration delay, F&& fn) {
    return schedule_cell(after(delay), make_cell(std::forward<F>(fn)));
  }

  /// Fire-and-forget variants: no cancellation handle, no control block.
  /// Prefer these on hot paths that never cancel.
  template <typename F>
  void post_at(TimePoint at, F&& fn) {
    push_entry(at, make_cell(std::forward<F>(fn)), 0);
  }
  template <typename F>
  void post_after(Duration delay, F&& fn) {
    push_entry(after(delay), make_cell(std::forward<F>(fn)), 0);
  }

  /// Execute the next pending event; returns false if the queue is empty.
  bool step();
  /// Batched dispatch: fire every remaining event of the current bucket
  /// (promoting the next one if none is active) without re-touching the
  /// queue tiers per event. Trace/profiling guards are evaluated once per
  /// batch. Returns the number of events fired (0 == queue empty).
  std::size_t step_batch();
  /// Run until the queue drains (batched internally).
  void run();
  /// Run until the queue drains or simulated time would exceed `deadline`.
  /// Events past the deadline stay queued.
  void run_until(TimePoint deadline);
  /// Cooperative limits for a run_while drive. Both knobs are optional and
  /// owned by the caller (the matrix runner's per-cell watchdog): `abort` is
  /// set from another thread when the cell's wall-clock deadline expires,
  /// `max_events` caps how many events this call may fire (a simulated-event
  /// budget against runaway event loops). Passing nullptr to run_while keeps
  /// the historical zero-overhead loop — no atomic loads on the default path.
  struct RunLimits {
    const std::atomic<bool>* abort = nullptr;
    std::uint64_t max_events = 0;  ///< 0 = unlimited
  };

  /// Drive events one at a time while `stop` is false and now() has not
  /// passed `not_after` — the experiment completion loop, with the checks
  /// evaluated before each event exactly like the historical
  /// `while (!done && now() <= deadline && step())`. Returns events fired.
  /// With `limits`, the loop additionally stops when the abort flag is set
  /// or the event budget for this call is exhausted (the caller inspects
  /// its watchdog/budget state to tell those apart from completion).
  std::size_t run_while(const bool& stop, TimePoint not_after,
                        const RunLimits* limits = nullptr);

  /// Earliest pending event's time (dead entries count — conservative), or
  /// nullopt when empty. May promote a bucket internally; the observable
  /// state (ordering, now()) is unchanged. Used by the DomainScheduler to
  /// compute conservative lookahead windows.
  std::optional<TimePoint> next_event_time();

  /// Number of live (non-cancelled) events still queued.
  std::size_t pending_events() const;
  /// Total events executed so far (for micro-benchmarks and tests).
  std::uint64_t executed_events() const { return executed_; }
  /// Batches fired by run()/step_batch() so far.
  std::uint64_t executed_batches() const { return batches_; }

  /// Control-block slots currently parked for reuse (observability for the
  /// substrate micro-benchmarks).
  std::size_t pooled_control_blocks() const { return pool_->free_count(); }

  /// Drop every queued event (used between experiment repetitions).
  /// Outstanding handles for dropped events report !pending().
  void clear();

  /// Attach a trace (owned elsewhere, e.g. the Simulation): when it is
  /// enabled, dispatch emits a "dispatch" span per event covering its queue
  /// wait [posted, fired) in simulated time, plus one "batch" span per
  /// fired batch.
  void set_trace(Trace* trace) { trace_ = trace; }

  // ---- calendar geometry (exposed for tests) ----
  /// Bucket width is 2^kBucketShiftNs ns (65.536 us); the ring covers
  /// kBuckets * width (~16.8 ms) of near future beyond the active bucket.
  static constexpr unsigned kBucketShiftNs = 16;
  static constexpr std::size_t kBuckets = 256;
  static constexpr Duration bucket_width() {
    return Duration::nanos(std::int64_t{1} << kBucketShiftNs);
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    SmallCallback* cb;    ///< cell in cbpool_ (stable address)
    std::uint32_t block;  ///< pool slot + 1; 0 == fire-and-forget
    TimePoint posted;     ///< when the entry was queued
  };
  struct Later {  // max-heap comparator -> min (at, seq) at front
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };

  static constexpr std::size_t kBucketMask = kBuckets - 1;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  static std::uint64_t bucket_of(TimePoint at) {
    return static_cast<std::uint64_t>(at.ns_since_epoch()) >> kBucketShiftNs;
  }

  /// The queue tiers and the callback cells: storage that only grows, so
  /// it is recycled across schedulers on the same thread (see
  /// take_tiers()) instead of being rebuilt from zero by every simulation.
  struct Tiers;
  friend struct TierCache;
  /// A warm Tiers parked by a destroyed scheduler on this thread, or a
  /// fresh (empty, unallocated) one. One allocation at most, whatever
  /// kBuckets is.
  static Tiers* take_tiers();
  /// Park `tiers` (drained) for the next scheduler on this thread.
  static void park_tiers(Tiers* tiers);

  TimePoint after(Duration delay) const {
    return delay.is_negative() ? now_ : now_ + delay;
  }
  template <typename F>
  SmallCallback* make_cell(F&& fn);
  EventHandle schedule_cell(TimePoint at, SmallCallback* cb);
  void push_entry(TimePoint at, SmallCallback* cb, std::uint32_t block);
  /// Release every queued entry's callable, optionally retiring its
  /// control block (clear() does; the destructor leaves blocks pending).
  void drop_all(bool retire_blocks);
  /// Fire (or discard, if cancelled) the next bottom entry. Returns true
  /// if a live event ran. Caller guarantees bottom_pos_ < bottom_.size().
  bool fire_one(bool tracing);
  /// Ensure the bottom holds un-fired entries; promotes the next bucket
  /// (ring or overflow) when exhausted. False when the queue is empty.
  bool refill_bottom();
  /// Earliest possible time of any event outside the bottom (bucket lower
  /// bound for ring entries — cheap, conservative), or nullopt.
  std::optional<TimePoint> tier_lower_bound() const;
  std::uint64_t next_ring_bucket() const;  ///< abs index or kNoBucket
  void mark_bucket(std::uint64_t abs, bool occupied);
  void note_batch(std::size_t fired);

  detail::ControlBlockPool* pool_;
  Tiers* tiers_;

  // Calendar bookkeeping (the tier vectors live in *tiers_).
  std::size_t bottom_pos_ = 0;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  /// Bit set when a ring bucket received an out-of-order entry; a clear bit
  /// means the bucket is already (at, seq)-sorted at promotion time and the
  /// sort is skipped entirely.
  std::array<std::uint64_t, kBuckets / 64> unsorted_{};
  std::size_t ring_count_ = 0;
  std::uint64_t next_abs_bucket_ = 0;  ///< first un-promoted bucket index

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t batches_ = 0;
  Trace* trace_ = nullptr;
};

struct Scheduler::Tiers {
  std::vector<Entry> bottom;
  std::array<std::vector<Entry>, kBuckets> ring;
  std::vector<Entry> overflow;  ///< heap, Later{}
  detail::CallbackPool callbacks;
};

template <typename F>
SmallCallback* Scheduler::make_cell(F&& fn) {
  SmallCallback* cell = tiers_->callbacks.acquire();
  *cell = std::forward<F>(fn);
  assert(*cell && "scheduling an empty callback");
  return cell;
}

}  // namespace bnm::sim
