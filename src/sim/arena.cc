#include "sim/arena.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"

namespace bnm::sim {

namespace {

thread_local Arena* t_current = nullptr;

// Process aggregate lives in the obs metrics registry ("arena.*" in
// docs/OBSERVABILITY.md); ArenaStats accessors stay the public API.
const obs::Counter& allocations_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "arena.allocations", "allocs", "arena allocations served");
  return c;
}
const obs::Counter& bytes_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "arena.bytes_served", "bytes", "bytes served from arena chunks");
  return c;
}
const obs::Gauge& peak_gauge() {
  static const obs::Gauge g = obs::MetricsRegistry::instance().gauge(
      "arena.peak_bytes", "bytes", "high-water mark of live arena bytes");
  return g;
}

std::size_t align_up(std::size_t n, std::size_t align) {
  return (n + align - 1) & ~(align - 1);
}

}  // namespace

Arena::Arena(std::size_t chunk_bytes)
    : chunk_bytes_{std::max<std::size_t>(chunk_bytes, 1024)} {
  // Register this thread's metrics shard before the arena finishes
  // construction, so a thread_local arena's destructor (which publishes)
  // runs while the shard is still live.
  obs::detail::cells();
}

Arena::~Arena() { publish(); }

void* Arena::allocate(std::size_t size, std::size_t align) {
  assert((align & (align - 1)) == 0 && "alignment must be a power of two");
  if (size == 0) size = 1;
  if (chunks_.empty()) add_chunk(size + align);
  for (;;) {
    Chunk& c = chunks_[active_];
    // Align the actual address, not the offset: operator new[] only
    // guarantees __STDCPP_DEFAULT_NEW_ALIGNMENT__ for the chunk base, so an
    // aligned offset into an unaligned base would not be enough for
    // over-aligned requests.
    const auto base = reinterpret_cast<std::uintptr_t>(c.base.get());
    const std::size_t at =
        align_up(static_cast<std::size_t>(base) + c.used, align) -
        static_cast<std::size_t>(base);
    if (at + size <= c.capacity) {
      c.used = at + size;
      in_use_ += size;
      peak_ = std::max(peak_, in_use_);
      window_peak_ = std::max(window_peak_, in_use_);
      ++allocations_;
      bytes_served_ += size;
      return c.base.get() + at;
    }
    add_chunk(size + align);
  }
}

void Arena::add_chunk(std::size_t min_size) {
  // Reuse a retained chunk if the next one is big enough (the common case
  // after reset()); otherwise append a fresh chunk. Oversized requests get
  // a dedicated chunk of exactly their size, so a huge payload never forces
  // the default chunk size up.
  if (!chunks_.empty() && active_ + 1 < chunks_.size() &&
      chunks_[active_ + 1].capacity >= min_size) {
    ++active_;
    return;
  }
  const std::size_t cap = std::max(chunk_bytes_, min_size);
  Chunk c;
  c.base = std::make_unique<std::byte[]>(cap);
  c.capacity = cap;
  chunks_.push_back(std::move(c));
  active_ = chunks_.size() - 1;
}

void Arena::publish() {
  allocations_counter().add(allocations_ - published_allocations_);
  bytes_counter().add(bytes_served_ - published_bytes_);
  peak_gauge().record_max(window_peak_);
  published_allocations_ = allocations_;
  published_bytes_ = bytes_served_;
  window_peak_ = 0;
}

void Arena::reset() {
  publish();
  for (Chunk& c : chunks_) c.used = 0;
  active_ = 0;
  in_use_ = 0;
}

std::size_t Arena::bytes_reserved() const {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.capacity;
  return total;
}

Arena* Arena::current() { return t_current; }

ArenaScope::ArenaScope(Arena* arena)
    : prev_{t_current}, installed_{arena != nullptr} {
  if (installed_) t_current = arena;
}

ArenaScope::~ArenaScope() {
  if (installed_) t_current = prev_;
}

std::uint64_t ArenaStats::allocations() { return allocations_counter().total(); }

std::uint64_t ArenaStats::bytes() { return bytes_counter().total(); }

std::uint64_t ArenaStats::peak_arena_bytes() {
  return peak_gauge().max_value();
}

void ArenaStats::reset() {
  allocations_counter().reset();
  bytes_counter().reset();
  peak_gauge().reset();
}

}  // namespace bnm::sim
