// Per-simulation monotonic bump arena for the packet hot path.
//
// One simulated packet hop used to cost several trips through the global
// allocator (payload control blocks, staging queue nodes, capture growth).
// An Arena replaces those with pointer bumps into chunked slabs: allocation
// is O(1) and contention-free, deallocation is deferred wholesale to
// reset() (between runs) or destruction. The allocator never reclaims an
// individual object — that is the contract that makes it cheap, and it fits
// the simulator exactly: everything allocated while a simulation runs dies
// with its Testbed, strictly before the arena is reset or destroyed.
//
// Threading model: an Arena is single-thread-confined, like the Simulation
// that owns it. Code opts in through a thread-local "current arena"
// installed with ArenaScope; allocation sites (Payload buffers,
// ArenaAllocator-backed containers) consult Arena::current() and fall back
// to the global allocator when no scope is active, so components built
// outside any scope (tools, tests, one-off payloads) still work.
// core::run_matrix gives each worker thread a private arena, reset between
// cells, so parallel matrix shards never touch the global allocator on the
// packet path and never contend with each other.
//
// Stats: each arena keeps cheap per-instance counters (plain increments on
// the owning thread). The process-wide aggregate (the registry's arena.*
// instruments, read through ArenaStats) is published from them, not counted
// per allocation: publish() adds the counters' growth since the last
// publish and the high-water mark of that window. reset(), the destructor
// and core::Experiment::run() (on return) publish, so the aggregate is
// exact at every quiescent point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace bnm::sim {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();  ///< publishes
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `size` bytes aligned to `align`. Never returns nullptr
  /// (chunks grow on demand; an oversized request gets a dedicated chunk).
  void* allocate(std::size_t size,
                 std::size_t align = alignof(std::max_align_t));

  /// Rewind to empty, retaining every chunk for reuse. All memory handed
  /// out since the last reset must be dead: the caller guarantees no
  /// Payload, container node or staged packet allocated from this arena is
  /// still alive (in the matrix runner that holds because each cell's
  /// Testbed is destroyed before the worker resets). Publishes first.
  void reset();

  /// Add the allocations and bytes served since the last publish to the
  /// registry's arena.allocations / arena.bytes_served, and record that
  /// window's high-water mark of live bytes in arena.peak_bytes.
  void publish();

  // ---- per-arena counters (always on; plain increments on the owning
  // ---- thread, so they cost nothing measurable) ----
  std::uint64_t allocations() const { return allocations_; }  ///< lifetime
  std::uint64_t bytes_served() const { return bytes_served_; }  ///< lifetime
  std::size_t bytes_in_use() const { return in_use_; }  ///< since reset()
  std::size_t peak_bytes() const { return peak_; }      ///< lifetime high-water
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t bytes_reserved() const;  ///< sum of chunk capacities

  /// The calling thread's active arena (nullptr when no scope is active).
  static Arena* current();

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> base;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// Make room for `size` bytes: reuse the next retained chunk or grow.
  void add_chunk(std::size_t min_size);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk currently bumped
  std::size_t chunk_bytes_;
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::size_t window_peak_ = 0;  ///< high-water since the last publish()
  std::uint64_t allocations_ = 0;
  std::uint64_t bytes_served_ = 0;
  std::uint64_t published_allocations_ = 0;
  std::uint64_t published_bytes_ = 0;
};

/// RAII installer for the thread-local current arena. Passing nullptr keeps
/// whatever is already installed (a no-op scope) — callers that want
/// "install mine unless an outer scope is active" pass
/// `Arena::current() ? nullptr : &mine`.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena);
  explicit ArenaScope(Arena& arena) : ArenaScope(&arena) {}
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
  bool installed_;
};

/// Process-wide aggregate of arena service, for the bench harness: what
/// every arena has published so far (see Arena::publish()).
struct ArenaStats {
  /// Allocation calls served by any arena (== global-allocator round trips
  /// avoided on the hot path).
  static std::uint64_t allocations();
  /// Bytes served by any arena.
  static std::uint64_t bytes();
  /// Largest bytes_in_use() any single arena reached.
  static std::uint64_t peak_arena_bytes();
  static void reset();
};

/// Minimal std::allocator replacement that serves from the arena captured
/// at construction (Arena::current() by default) and falls back to the
/// global allocator when none was active. deallocate() is a no-op for
/// arena-served memory — containers using this allocator must die before
/// their arena resets. Intended for the simulator's per-connection /
/// per-stage containers (TCP send/reassembly/retransmit queues, netem and
/// fault staging), whose lifetime is bounded by the owning Testbed.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept : arena_{Arena::current()} {}
  explicit ArenaAllocator(Arena* arena) noexcept : arena_{arena} {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_{other.arena()} {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

/// make_shared for simulation-scoped objects (per-connection, per-request
/// and per-run state): the object and its control block are served from
/// the current arena, or the global allocator when none is installed. The
/// object, and every shared or weak reference to it, must die before that
/// arena is reset — true of anything owned by a testbed's components.
template <typename T, typename... Args>
std::shared_ptr<T> make_arena_shared(Args&&... args) {
  return std::allocate_shared<T>(ArenaAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace bnm::sim
